"""Zero-copy decoding: which decoded values are views, and that a view, or a
bytearray, reads and encodes exactly as the bytes it holds."""
import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fivegsim import ran_ue
from fivegsim.config import default_topology
from fivegsim.messages import MsgKind, Tag, build, extend, kind_of, parse
from fivegsim.ran_ue import Transfer
from fivegsim.runner import Testbed
from fivegsim.user_plane import document_content
from fivegsim.wirefmt import (
    ENVELOPE_HEADER_LEN,
    GTPU_HEADER_LEN,
    GTPU_OPT_LEN,
    MAX_SEQ,
    VIEW_MIN,
    Protocol,
    SimPacket,
    WireFormatError,
    decode_packet,
    encode_packet,
    gtpu_decapsulate,
    gtpu_encapsulate,
)


def test_a_large_segment_is_parsed_as_a_view_over_the_payload():
    payload = build(MsgKind.APP_SEGMENT, doc="d", index=0, data=bytes(64000))
    data = parse(payload).raw(Tag.DATA)
    assert type(data) is memoryview and data.obj is payload and data.readonly
    assert data == bytes(64000)


def test_a_large_inner_packet_is_decapsulated_as_a_view_over_the_g_pdu():
    inner = bytes(range(256)) * 250
    gpdu = gtpu_encapsulate(inner, 7, 3)
    got, teid, seq = gtpu_decapsulate(gpdu)
    assert type(got) is memoryview and got.obj is gpdu and got.readonly
    assert (got, teid, seq) == (inner, 7, 3)


def _fetch(bodies, digest, store):
    """Feed `bodies` to a fresh transfer; its checked digest, counts and store."""
    transfer = Transfer(doc="doc", started_ms=0, digest=digest, verified=store)
    for index, body in enumerate(bodies):
        transfer.add_segment(index, body)
    return transfer.body_digest(), transfer.received, transfer.size, store


def test_a_transfer_of_view_segments_verifies_and_hashes_as_one_of_bytes(monkeypatch):
    size = VIEW_MIN + 1000
    content = document_content("doc", 3 * size - 7)
    bodies = [content[i * size : (i + 1) * size] for i in range(3)]
    views = [
        parse(build(MsgKind.APP_SEGMENT, doc="doc", index=i, data=body)).raw(Tag.DATA)
        for i, body in enumerate(bodies)
    ]
    assert [type(v) for v in views] == [memoryview] * 3
    digest = hashlib.sha256(content).hexdigest()
    # hashed, on a match stored as bytes, and on a mismatch not stored
    for sent in (bodies, views):
        assert _fetch(sent, digest, {}) == (digest, 3, len(content), {(digest, len(content)): content})
        assert _fetch(sent, "0" * 64, {})[3] == {}
    [(_, stored)] = _fetch(views, digest, {})[3].items()
    assert type(stored) is bytes
    # a stored body is compared, not hashed once more
    monkeypatch.setattr(ran_ue, "hashlib", None)
    store = {(digest, len(content)): content}
    assert _fetch(views, digest, store)[:3] == _fetch(bodies, digest, store)[:3] == (digest, 3, len(content))


def test_the_gnb_relays_a_large_nas_message_as_a_bytes_payload():
    """RLS_NAS's DATA becomes a packet of its own on N2: a view there would
    give the AMF a SimPacket whose payload is not bytes."""
    tb = Testbed(default_topology(), seed=0)
    tb.boot()
    tb.run_until(500)
    amf = tb.net.entity("AMF")
    handle, payloads = amf.handle_packet, []
    amf.handle_packet = lambda pkt, sender: (
        pkt.protocol is Protocol.NAS and payloads.append(pkt.payload), handle(pkt, sender)
    )
    nas = build(MsgKind.NAS_REGISTER_REQ, ue_id="imsi-001010000000001", reason="x" * VIEW_MIN)
    hop = tb.net.hop("UE", "gNB")
    port = tb.params.ports[Protocol.RLS]
    rls = build(MsgKind.RLS_NAS, ue_id="imsi-001010000000001", data=nas)
    tb.net.send(hop, SimPacket(Protocol.RLS, tb.net.entity("UE").ip, hop.dst_ip, port, port, rls))
    tb.run_until(600)
    assert [type(p) for p in payloads] == [bytes] and payloads[0] == nas


# -- a view, a bytearray and bytes are one input ----------------------------------

# short values, and values of VIEW_MIN +- 2 bytes made of a repeated unit:
# digits with and without a leading zero, bytes that are not UTF-8, text
_UNITS = st.one_of(
    st.sampled_from([b"0", b"7", b"12", b"\xff", b"\xc3\xa9", b"ab", b"\x00"]), st.binary(min_size=1, max_size=4)
)
_LONG = st.builds(lambda unit, n: (unit * n)[:n], _UNITS, st.integers(VIEW_MIN - 2, VIEW_MIN + 2))
_SHORT = st.one_of(
    st.binary(max_size=24),
    st.integers(0, 10**6).map(lambda n: str(n).encode()),
    st.sampled_from([b"007", b"\xff", b"-1", b"", b"9" * 4301]),
)
_VALUES = st.one_of(_SHORT, _LONG)
_MESSAGES = st.builds(
    lambda kind, fields: build(kind, **fields),
    st.sampled_from(list(MsgKind)),
    st.dictionaries(st.sampled_from([t.name.lower() for t in Tag]), _VALUES, max_size=5),
)


def _outcome(fn, *args):
    """("ok", fn(*args)), or ("error", the text of its WireFormatError)."""
    try:
        return "ok", fn(*args)
    except WireFormatError as exc:
        return "error", str(exc)


def _views(b: bytes):
    """`b` as a bytearray and as views: over itself, at an offset into a
    larger buffer, and of char items, which the decoders copy first."""
    return bytearray(b), memoryview(b), memoryview(b"??" + b)[2:], memoryview(b).cast("c")


def _parsed_kind(payload):
    return parse(payload).kind


@settings(max_examples=200, deadline=None)
@given(_MESSAGES, st.data())
def test_every_accessor_reads_a_view_payload_as_its_bytes(b, data):
    m = parse(b)
    for payload in _views(b):
        v = parse(payload)
        assert v.kind is m.kind
        for tag in Tag:
            for accessor in ("raw", "text", "num", "require"):
                assert _outcome(getattr(v, accessor), tag) == _outcome(getattr(m, accessor), tag)
            raw = v.raw(tag)
            if raw is not None:
                # the view rule, whatever the payload: bytes below VIEW_MIN, a read-only view from there
                assert type(raw) is type(m.raw(tag)) is (memoryview if len(raw) >= VIEW_MIN else bytes)
                assert type(raw) is bytes or raw.readonly
    # a malformed message: the same verdict and error text
    cut = data.draw(st.integers(0, len(b)))
    for payload in _views(b[:cut]):
        assert _outcome(_parsed_kind, payload) == _outcome(_parsed_kind, b[:cut])
        assert _outcome(kind_of, payload) == _outcome(kind_of, b[:cut])


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(list(MsgKind)), _VALUES, _VALUES)
def test_build_lays_out_a_view_or_bytearray_as_its_bytes(kind, data, doc):
    want = build(kind, doc=doc, data=data)
    for value in _views(data):
        assert build(kind, doc=doc, data=value) == want
        assert extend(build(kind, doc=doc), data=value) == want
    assert parse(want).raw(Tag.DATA) == data


_PAYLOADS = st.one_of(
    st.binary(max_size=64),
    # up to the largest inner packet a G-PDU with its optional fields carries
    st.builds(
        lambda unit, n: (unit * n)[:n],
        st.binary(min_size=1, max_size=4),
        st.integers(VIEW_MIN - ENVELOPE_HEADER_LEN - 2, MAX_SEQ - GTPU_OPT_LEN - ENVELOPE_HEADER_LEN),
    ),
)
_PACKETS = st.builds(
    SimPacket,
    protocol=st.sampled_from(list(Protocol)),
    src_ip=st.just("10.45.0.2"),
    dst_ip=st.just("192.168.0.40"),
    src_port=st.integers(0, 65535),
    dst_port=st.integers(0, 65535),
    payload=_PAYLOADS,
)


@settings(max_examples=100, deadline=None)
@given(_PACKETS)
def test_decode_packet_reads_any_buffer_into_a_bytes_payload(pkt):
    raw = encode_packet(pkt)
    for buf in (raw, *_views(raw)):
        got = decode_packet(buf)
        assert got == pkt and type(got.payload) is bytes
        assert gtpu_encapsulate(buf, 9, 1) == gtpu_encapsulate(raw, 9, 1)
    assert gtpu_encapsulate(pkt, 9, 1) == gtpu_encapsulate(raw, 9, 1)
    assert gtpu_encapsulate(pkt, 9) == gtpu_encapsulate(raw, 9)
    inner, teid, seq = gtpu_decapsulate(gtpu_encapsulate(raw, 9, 1))
    assert (type(inner) is memoryview) == (len(raw) >= VIEW_MIN)
    assert (teid, seq, len(inner)) == (9, 1, len(raw))
    assert decode_packet(inner) == pkt


@pytest.mark.parametrize("size", [VIEW_MIN - 1, VIEW_MIN])
def test_the_view_rule_starts_at_view_min_bytes(size):
    gpdu = gtpu_encapsulate(bytes(size), 1)
    assert len(gpdu) == GTPU_HEADER_LEN + size
    assert type(gtpu_decapsulate(gpdu)[0]) is (bytes if size < VIEW_MIN else memoryview)
    assert type(parse(build(MsgKind.RLS_DATA, data=bytes(size))).raw(Tag.DATA)) is type(gtpu_decapsulate(gpdu)[0])


@pytest.mark.parametrize("payload", [memoryview(b"x"), bytearray(b"x"), "x"], ids=lambda p: type(p).__name__)
def test_a_packet_encapsulated_whole_is_refused_as_encode_packet_refuses_it(payload):
    pkt = SimPacket(Protocol.APP, "10.45.0.2", "192.168.0.40", 80, 80, payload)
    with pytest.raises(WireFormatError, match=f"^payload is {type(payload).__name__}, not bytes$"):
        encode_packet(pkt)
    with pytest.raises(WireFormatError, match=f"^payload is {type(payload).__name__}, not bytes$"):
        gtpu_encapsulate(pkt, 9)
