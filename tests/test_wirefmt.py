"""Wire format tests: golden vectors, round-trip properties, decoder totality."""
import ipaddress
import struct
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tlv_elements
from fivegsim import wirefmt
from fivegsim.messages import MsgKind, Tag, build, parse
from fivegsim.runner import run_reliability_measurement
from fivegsim.urllc import Redundancy
from fivegsim.wirefmt import (
    ENVELOPE_HEADER_LEN,
    GTPU_HEADER_LEN,
    MAX_PAYLOAD,
    Protocol,
    SimPacket,
    WireFormatError,
    decode_packet,
    encode_packet,
    gtpu_decapsulate,
    gtpu_encapsulate,
)

VECTORS = Path(__file__).parent / "vectors" / "wirefmt_golden.txt"


def load_vectors() -> dict[str, bytes]:
    out = {}
    for line in VECTORS.read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        name, hexpart = line.split("|")
        out[name] = bytes.fromhex(hexpart.replace(" ", ""))
    return out

GOLDEN = load_vectors()

# objects whose encoding must match the vectors byte for byte
GOLDEN_OBJECTS = {
    "envelope_sbi_empty": SimPacket(
        protocol=Protocol.SBI, src_ip="192.168.0.12", dst_ip="192.168.0.13",
        src_port=7777, dst_port=7777,
    ),
    "envelope_app_get": SimPacket(
        protocol=Protocol.APP, src_ip="10.45.0.2", dst_ip="192.168.0.40",
        src_port=49152, dst_port=80, payload=b"GET",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_OBJECTS))
def test_envelope_golden_encode(name):
    assert encode_packet(GOLDEN_OBJECTS[name]) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_OBJECTS))
def test_envelope_golden_decode(name):
    assert decode_packet(GOLDEN[name]) == GOLDEN_OBJECTS[name]


def test_gtpu_golden():
    assert gtpu_encapsulate(b"abc", teid=1) == GOLDEN["gtpu_noseq"]
    assert gtpu_encapsulate(b"abc", teid=7, seq=42) == GOLDEN["gtpu_seq"]
    assert gtpu_decapsulate(GOLDEN["gtpu_noseq"]) == (b"abc", 1, None)
    assert gtpu_decapsulate(GOLDEN["gtpu_seq"]) == (b"abc", 7, 42)


def test_tlv_golden():
    assert build(MsgKind.APP_GET, ue_id="x", nf_id="yz") == GOLDEN["tlv_two_elements"]
    two = parse(GOLDEN["tlv_two_elements"])
    assert (two.kind, two.raw(Tag.UE_ID), two.raw(Tag.NF_ID)) == (MsgKind.APP_GET, b"x", b"yz")
    assert [t for t in Tag if two.raw(t) is not None] == [Tag.UE_ID, Tag.NF_ID]
    assert build(MsgKind.NF_HEARTBEAT_REQ) == GOLDEN["tlv_bare"]
    bare = parse(GOLDEN["tlv_bare"])
    assert bare.kind is MsgKind.NF_HEARTBEAT_REQ
    assert all(bare.raw(t) is None for t in Tag)


def test_element_level_test_codec_matches_the_golden_vectors():
    for name, kind, elements in (
        ("tlv_two_elements", 80, [(1, b"x"), (2, b"yz")]),
        ("tlv_bare", 5, []),
    ):
        assert tlv_elements.encode(kind, elements) == GOLDEN[name]
        assert tlv_elements.decode(GOLDEN[name]) == (kind, elements)


def test_envelope_header_is_18_bytes():
    raw = encode_packet(GOLDEN_OBJECTS["envelope_sbi_empty"])
    assert len(raw) == ENVELOPE_HEADER_LEN == 18


# -- encoder rejections -------------------------------------------------------

def test_encode_rejects_bad_address():
    pkt = SimPacket(Protocol.SBI, "999.1.1.1", "10.0.0.1", 1, 1)
    with pytest.raises(WireFormatError):
        encode_packet(pkt)


@pytest.mark.parametrize("bad", ["10.0.0.01", " 10.0.0.1", "10.0.0.1\n", "1.2.3"])
def test_encode_rejects_what_ipaddress_rejects_also_once_cached(bad):
    good = SimPacket(Protocol.SBI, "10.0.0.1", "10.0.0.2", 1, 1)
    encode_packet(good)  # the valid spelling is now cached
    with pytest.raises(ipaddress.AddressValueError):
        ipaddress.IPv4Address(bad)
    for _ in range(2):  # a raise is never cached
        with pytest.raises(WireFormatError, match="bad IPv4 address"):
            encode_packet(SimPacket(Protocol.SBI, bad, "10.0.0.2", 1, 1))
        with pytest.raises(WireFormatError, match="bad IPv4 address"):
            encode_packet(SimPacket(Protocol.SBI, "10.0.0.1", bad, 1, 1))
    assert decode_packet(encode_packet(good)) == good


def test_encode_rejects_bad_port():
    pkt = SimPacket(Protocol.SBI, "10.0.0.1", "10.0.0.2", 70000, 1)
    with pytest.raises(WireFormatError):
        encode_packet(pkt)


def test_encode_rejects_oversized_payload():
    pkt = SimPacket(Protocol.APP, "10.0.0.1", "10.0.0.2", 1, 1, payload=b"x" * (MAX_PAYLOAD + 1))
    with pytest.raises(WireFormatError, match="segmented"):
        encode_packet(pkt)


# -- decoder rejections --------------------------------------------------------

def test_decode_rejects_truncated_header():
    with pytest.raises(WireFormatError, match="truncated"):
        decode_packet(b"\x01\x01")


def test_decode_rejects_length_mismatch():
    raw = bytearray(encode_packet(GOLDEN_OBJECTS["envelope_app_get"]))
    raw[17] = 99  # declared payload length no longer matches
    with pytest.raises(WireFormatError, match="does not match"):
        decode_packet(bytes(raw))


def test_decode_rejects_unknown_protocol():
    raw = bytearray(GOLDEN["envelope_sbi_empty"])
    raw[1] = 0xEE
    with pytest.raises(WireFormatError, match="^unknown protocol code 238$"):
        decode_packet(bytes(raw))


def test_decode_rejects_non_bytes():
    with pytest.raises(WireFormatError):
        decode_packet("not bytes")


def test_gtpu_rejects_unknown_flags():
    raw = bytearray(GOLDEN["gtpu_noseq"])
    raw[0] = 0x10
    with pytest.raises(WireFormatError, match="flags"):
        gtpu_decapsulate(bytes(raw))


def test_gtpu_rejects_truncated_options():
    # S flag set but the optional block is missing
    with pytest.raises(WireFormatError, match="truncated"):
        gtpu_decapsulate(bytes.fromhex("32ff000700000007"))


def test_gtpu_rejects_length_mismatch():
    raw = GOLDEN["gtpu_noseq"] + b"extra"
    with pytest.raises(WireFormatError, match="does not match"):
        gtpu_decapsulate(raw)


def test_gtpu_rejects_empty_inner():
    with pytest.raises(WireFormatError):
        gtpu_encapsulate(b"", teid=1)
    with pytest.raises(WireFormatError, match="no inner"):
        gtpu_decapsulate(bytes.fromhex("30ff000000000001"))


def test_gtpu_rejects_out_of_range_fields():
    with pytest.raises(WireFormatError, match="^TEID out of range: 4294967296$"):
        gtpu_encapsulate(b"x", teid=1 << 32)
    with pytest.raises(WireFormatError, match="^GTP-U sequence out of range: 65536$"):
        gtpu_encapsulate(b"x", teid=1, seq=1 << 16)


def test_tlv_rejects_truncated_element():
    # header says 4 value bytes, only 1 present
    with pytest.raises(WireFormatError, match="^TLV value for tag 1 runs past the buffer$"):
        parse(bytes.fromhex("0050000100047a"))
    with pytest.raises(WireFormatError, match="^truncated TLV element header at offset 2$"):
        parse(bytes.fromhex("005000"))
    with pytest.raises(WireFormatError, match="^truncated TLV message: missing msg_kind$"):
        parse(b"\x00")


def test_tlv_value_over_the_length_field_is_refused():
    with pytest.raises(WireFormatError, match="^TLV value of 65536 bytes overflows the length field$"):
        build(MsgKind.APP_SEGMENT, data=bytes(0x10000))
    assert len(build(MsgKind.APP_SEGMENT, data=bytes(0xFFFF))) == 2 + 4 + 0xFFFF


# -- round-trip properties ------------------------------------------------------

ips = st.integers(min_value=0, max_value=2**32 - 1).map(
    lambda n: str(ipaddress.IPv4Address(n))
)
ports = st.integers(min_value=0, max_value=65535)
protocols = st.sampled_from(list(Protocol))

packets = st.builds(
    SimPacket,
    protocol=protocols,
    src_ip=ips,
    dst_ip=ips,
    src_port=ports,
    dst_port=ports,
    payload=st.binary(max_size=512),
)


@settings(max_examples=300, deadline=None)
@given(packets)
def test_packet_roundtrip(pkt):
    assert decode_packet(encode_packet(pkt)) == pkt


@settings(max_examples=300, deadline=None)
@given(
    inner=st.binary(min_size=1, max_size=512),
    teid=st.integers(min_value=0, max_value=2**32 - 1),
    seq=st.one_of(st.none(), st.integers(min_value=0, max_value=2**16 - 1)),
)
def test_gtpu_roundtrip(inner, teid, seq):
    assert gtpu_decapsulate(gtpu_encapsulate(inner, teid, seq)) == (inner, teid, seq)


# field name -> value, over every Tag; any value build takes
fields = st.dictionaries(
    st.sampled_from([t.name.lower() for t in Tag]),
    st.one_of(
        st.binary(max_size=64),
        st.binary(max_size=64).map(bytearray),
        st.binary(max_size=64).map(memoryview),
        st.text(max_size=16),
        st.integers(min_value=-(10**20), max_value=10**20),
    ),
    max_size=len(Tag),
)


def _wire_value(value) -> bytes:
    return str(value).encode() if isinstance(value, (str, int)) else bytes(value)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(list(MsgKind)), fields)
def test_tlv_roundtrip(kind, fields):
    raw = build(kind, **fields)
    expect = [(int(Tag[name.upper()]), _wire_value(value)) for name, value in fields.items()]
    assert tlv_elements.decode(raw) == (kind, expect)
    m = parse(raw)
    assert m.kind is kind
    assert {t: m.raw(t) for t in Tag if m.raw(t) is not None} == dict(expect)


@settings(max_examples=400, deadline=None)
@given(st.binary(max_size=64))
def test_decoders_total_on_random_buffers(buf):
    """Arbitrary bytes either decode or raise WireFormatError, never crash."""
    for decoder in (decode_packet, gtpu_decapsulate, parse):
        try:
            decoder(buf)
        except WireFormatError:
            pass


@settings(max_examples=200, deadline=None)
@given(packets, st.integers(min_value=1, max_value=2**32 - 1))
def test_envelope_survives_tunneling(pkt, teid):
    """encode -> encapsulate -> decapsulate -> decode is the identity."""
    raw = encode_packet(pkt)
    inner, got_teid, seq = gtpu_decapsulate(gtpu_encapsulate(raw, teid, 9))
    assert got_teid == teid and seq == 9
    assert decode_packet(inner) == pkt


@settings(max_examples=300, deadline=None)
@given(st.binary(min_size=4, max_size=4), st.binary(min_size=4, max_size=4))
def test_decoded_addresses_read_as_ipaddress_prints_them(src, dst):
    raw = bytes([1, int(Protocol.APP)]) + src + dst + bytes(8)
    pkt = decode_packet(raw)
    assert (pkt.src_ip, pkt.dst_ip) == (str(ipaddress.IPv4Address(src)), str(ipaddress.IPv4Address(dst)))


def test_wire_size_counts_header():
    pkt = GOLDEN_OBJECTS["envelope_app_get"]
    assert pkt.wire_size == ENVELOPE_HEADER_LEN + 3
    assert len(encode_packet(pkt)) == pkt.wire_size


@settings(max_examples=300, deadline=None)
@given(
    inner=st.binary(min_size=1, max_size=512),
    teid=st.integers(min_value=0, max_value=2**32 - 1),
    seq=st.one_of(st.none(), st.integers(min_value=0, max_value=2**16 - 1)),
)
def test_gtpu_encapsulation_is_the_header_codec_plus_inner(inner, teid, seq):
    # flags 0x30 (version 1, GTP) or 0x32 (S flag and the optional block:
    # seq, N-PDU 0, next extension 0), message type G-PDU, length after the
    # first 8 bytes, TEID
    if seq is None:
        header = struct.pack(">BBHI", 0x30, 0xFF, len(inner), teid)
    else:
        header = struct.pack(">BBHIHBB", 0x32, 0xFF, len(inner) + 4, teid, seq, 0, 0)
    raw = gtpu_encapsulate(inner, teid, seq)
    assert raw == header + inner
    assert gtpu_decapsulate(raw) == (inner, teid, seq)
    assert len(header) == GTPU_HEADER_LEN + (0 if seq is None else 4)


# values encode_packet cannot carry: an address that is not a str, a payload
# that is not bytes
not_str = st.one_of(
    st.none(), st.integers(), st.floats(), st.binary(max_size=4), st.lists(st.integers(), max_size=2)
)
not_bytes = st.one_of(
    st.none(), st.integers(), st.text(max_size=4), st.lists(st.integers(), max_size=2),
    st.binary(max_size=4).map(bytearray), st.binary(max_size=4).map(memoryview),
)


@settings(max_examples=300, deadline=None)
@given(packets, st.sampled_from(["src_ip", "dst_ip", "payload"]), st.data())
def test_encode_rejects_what_cannot_round_trip(pkt, field, data):
    setattr(pkt, field, data.draw(not_bytes if field == "payload" else not_str))
    with pytest.raises(WireFormatError, match="bad IPv4 address|payload is .*, not bytes"):
        encode_packet(pkt)


def test_encode_rejects_an_integer_address_and_a_text_payload():
    with pytest.raises(WireFormatError, match="^bad IPv4 address 16909060$"):
        encode_packet(SimPacket(Protocol.SBI, 16909060, "10.0.0.2", 1, 1))
    with pytest.raises(WireFormatError, match="^payload is str, not bytes$"):
        encode_packet(SimPacket(Protocol.SBI, "10.0.0.1", "10.0.0.2", 1, 1, payload="abc"))
    with pytest.raises(WireFormatError, match="^unknown protocol 99$"):
        encode_packet(SimPacket(99, "10.0.0.1", "10.0.0.2", 1, 1))


def test_per_packet_path_parses_no_addresses(monkeypatch):
    """Config, the session and the first encoding of each address parse
    dotted quads; a packet more costs no ipaddress call."""
    calls = [0]

    class CountingAddress(ipaddress.IPv4Address):
        def __init__(self, address):
            calls[0] += 1
            super().__init__(address)

    monkeypatch.setattr(wirefmt.ipaddress, "IPv4Address", CountingAddress)
    counts = []
    for n in (100, 1000):
        wirefmt._pack_ip.cache_clear()
        calls[0] = 0
        result = run_reliability_measurement(Redundancy.PSA_ANCHOR, 0.1, n, seed=7)
        assert result.sent == n
        counts.append(calls[0])
    assert counts[0] == counts[1] > 0
