"""Message vocabulary: the kind -> protocol table, what build takes and
total field accessors."""
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tlv_elements
from fivegsim.messages import (
    ANSWER, PROCEDURES, PROTOCOL, MsgKind, Tag, build, canonical_int, extend, is_canonical_int,
    kind_of, parse,
)
from fivegsim.urllc import SEQ_MODULUS
from fivegsim.wirefmt import Protocol, WireFormatError


def test_kind_prefix_names_the_protocol():
    assert set(PROTOCOL) == set(MsgKind)
    assert PROTOCOL[MsgKind.PFCP_SESSION_REQ] is Protocol.PFCP
    assert PROTOCOL[MsgKind.NGAP_SETUP_REQ] is Protocol.NGAP
    assert PROTOCOL[MsgKind.NAS_SESSION_ACCEPT] is Protocol.NAS
    assert PROTOCOL[MsgKind.RLS_NAS] is Protocol.RLS
    assert PROTOCOL[MsgKind.APP_SEGMENT] is Protocol.APP
    for kind in (MsgKind.NF_REGISTER_REQ, MsgKind.AUTH_REQ, MsgKind.SESSION_CREATE_RESP,
                 MsgKind.UDR_QUERY_REQ, MsgKind.POLICY_RESP):
        assert PROTOCOL[kind] is Protocol.SBI
    assert Protocol.GTPU not in PROTOCOL.values()  # tunnels carry bytes, not messages


def test_every_request_has_exactly_one_answer_on_its_own_protocol():
    requests = {kind for kind in MsgKind if kind.name.endswith("_REQ")} | {MsgKind.NGAP_SESSION_SETUP}
    assert set(ANSWER) == requests
    assert len(set(ANSWER.values())) == len(ANSWER)  # no answer serves two requests
    for request, answer in ANSWER.items():
        assert PROTOCOL[answer] is PROTOCOL[request], request
        assert answer.name.startswith(request.name.removesuffix("_REQ")), request


def test_each_procedure_accepts_with_its_answer_and_asks_only_requests():
    for start, (accept, reject, steps) in PROCEDURES.items():
        assert ANSWER[start] is accept and PROTOCOL[reject] is PROTOCOL[start] is Protocol.NAS
        nested = list(steps)
        while nested:
            request, nf_kind, refusal, inner = nested.pop()
            assert request in ANSWER and nf_kind.isupper() and refusal
            nested += inner


def test_accessors_raise_wire_format_errors_on_bad_fields():
    m = parse(build(MsgKind.APP_SEGMENT, index="x1", doc=b"\xff\xfe"))
    with pytest.raises(WireFormatError, match="INDEX .* not an integer"):
        m.num(Tag.INDEX)
    with pytest.raises(WireFormatError, match="DOC .* not UTF-8"):
        m.text(Tag.DOC)
    with pytest.raises(WireFormatError, match="DOC .* not UTF-8"):
        m.require(Tag.DOC)
    with pytest.raises(WireFormatError, match="DOC .* not UTF-8"):
        m.num(Tag.DOC)
    assert m.raw(Tag.DOC) == b"\xff\xfe"
    assert m.num(Tag.SIZE, 7) == 7


@pytest.mark.parametrize("code", [0, 12, 0xFFFF])
def test_unknown_message_kind_keeps_its_error_text(code):
    with pytest.raises(WireFormatError, match=f"^unknown message kind {code}$"):
        parse(tlv_elements.encode(code, ()))


def test_element_errors_come_before_an_unknown_kind():
    """A truncated element is reported even when the kind is unknown too, so
    a drop reason names the first fault in the buffer."""
    with pytest.raises(WireFormatError, match="^TLV value for tag 1 runs past the buffer$"):
        parse(bytes.fromhex("03e7000100047a"))
    with pytest.raises(WireFormatError, match="^truncated TLV element header at offset 6$"):
        parse(bytes.fromhex("03e70001000078"))


def test_parse_keeps_the_first_value_of_a_repeated_tag():
    m = parse(tlv_elements.encode(80, [(8, b"a"), (9, b"1"), (8, b"b"), (999, b"?")]))
    assert (m.raw(Tag.DOC), m.num(Tag.SIZE), m.raw(999)) == (b"a", 1, b"?")


def test_build_sends_bytes_like_values_as_bytes_and_str_or_int_as_text():
    assert build(MsgKind.APP_GET, doc=memoryview(b"xy")) == build(MsgKind.APP_GET, doc=b"xy")
    assert build(MsgKind.APP_GET, doc=bytearray(b"xy")) == build(MsgKind.APP_GET, doc=b"xy")
    assert build(MsgKind.APP_GET, size=42) == build(MsgKind.APP_GET, size="42")
    assert build(MsgKind.APP_GET, doc=None) == build(MsgKind.APP_GET)
    assert parse(build(MsgKind.APP_GET, doc=memoryview(b"xy"))).raw(Tag.DOC) == b"xy"


@pytest.mark.parametrize("value", [1.5, object(), [b"x"], {"a": 1}, ("x",)])
def test_build_refuses_other_values_naming_the_field(value):
    with pytest.raises(TypeError, match=f"^message field 'doc' is {type(value).__name__}, not"):
        build(MsgKind.APP_GET, doc=value)


def test_build_refuses_unknown_kinds_and_fields():
    with pytest.raises(KeyError, match="unknown message kind 999"):
        build(999)
    with pytest.raises(KeyError, match="unknown message field 'colour'"):
        build(MsgKind.APP_GET, colour="red")
    assert build(80) == build(MsgKind.APP_GET)


_KINDS = st.one_of(st.sampled_from([int(k) for k in MsgKind]), st.integers(0, 0xFFFF))
_TAGS = st.one_of(st.sampled_from([int(t) for t in Tag]), st.integers(0, 0xFFFF))
_VALUES = st.one_of(
    st.binary(max_size=24),
    st.integers(-(10**6), 10**6).map(lambda n: str(n).encode()),
    st.text(max_size=8).map(str.encode),
)
_TLV_BYTES = st.one_of(
    st.builds(
        tlv_elements.encode,
        _KINDS,
        st.lists(st.tuples(_TAGS, _VALUES), max_size=8),
    ),
    st.binary(max_size=64),
)


@pytest.mark.parametrize("text", [" 1_0 ", "+\u0663", "\u0663", "-1", "01", "00", "", "1e3", "0x10", "10 "])
def test_num_rejects_non_canonical_integers(text):
    m = parse(build(MsgKind.APP_SEGMENT, index=text))
    with pytest.raises(WireFormatError, match="INDEX .* not an integer"):
        m.num(Tag.INDEX)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(0, 10**30).map(str), st.text(max_size=6)))
def test_num_has_one_spelling_per_integer(text):
    m = parse(build(MsgKind.APP_SEGMENT, index=text))
    try:
        value = m.num(Tag.INDEX)
    except WireFormatError:
        return
    assert str(value) == text


@settings(max_examples=500, deadline=None)
@given(st.one_of(
    st.text(alphabet="0123456789\u00b2\u0664+-_ aZe", max_size=8),
    st.integers(0, 10**30).map(str),
))
def test_is_canonical_int_is_the_one_spelling(text):
    """The predicate accepts a text exactly when the regex spelling does:
    ASCII digits, and no leading zero but in "0". A superscript two and an
    Arabic-Indic four are digits to str.isdigit, and are refused."""
    assert is_canonical_int(text) == bool(re.fullmatch(r"0|[1-9][0-9]*", text))


@settings(max_examples=500, deadline=None)
@given(_TLV_BYTES)
def test_parse_and_every_accessor_raise_only_wire_format_errors(buf):
    try:
        m = parse(buf)
    except WireFormatError:
        return
    for tag in Tag:
        for accessor in (m.raw, m.text, m.num, m.require):
            try:
                accessor(tag)
            except WireFormatError:
                pass


def _outcome(fn, *args):
    """("ok", fn(*args)), or ("error", the text of its WireFormatError)."""
    try:
        return "ok", fn(*args)
    except WireFormatError as exc:
        return "error", str(exc)


def _parsed_kind(buf):
    return parse(buf).kind


@pytest.mark.parametrize("kind", list(MsgKind), ids=lambda k: k.name)
def test_kind_of_reads_every_kind_and_every_truncation_as_parse_does(kind):
    buf = build(kind, ue_id="imsi-001010000000001", index=7, data=b"\x00\xff" * 9)
    assert kind_of(buf) is kind
    for cut in range(len(buf)):
        assert _outcome(kind_of, buf[:cut]) == _outcome(_parsed_kind, buf[:cut])


_FIELD_NAMES = [t.name.lower() for t in Tag]
_BUILT = st.builds(
    lambda kind, fields: build(kind, **fields),
    st.sampled_from(list(MsgKind)),
    st.dictionaries(st.sampled_from(_FIELD_NAMES), _VALUES, max_size=6),
)


@settings(max_examples=500, deadline=None)
@given(st.one_of(_TLV_BYTES, _BUILT))
def test_kind_of_agrees_with_parse(buf):
    assert _outcome(kind_of, buf) == _outcome(_parsed_kind, buf)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(list(MsgKind)),
    st.dictionaries(st.sampled_from([n for n in _FIELD_NAMES if n != "seq"]), _VALUES, max_size=6),
    st.integers(0, SEQ_MODULUS - 1),
)
def test_a_built_message_plus_its_seq_element_is_the_message_built_with_it(kind, fields, seq):
    """The server builds a message once and appends each tagged UE's SEQ
    element to it: the bytes `build` lays out with `seq` given last."""
    assert extend(build(kind, **fields), seq=seq) == build(kind, **fields, seq=seq)


def _reference_num(m, tag):
    """ParsedMsg.num without its digit fast path: decode, then canonical_int."""
    raw = m.raw(tag)
    if raw is None:
        return None
    try:
        text = raw.decode()
    except UnicodeDecodeError:
        raise WireFormatError(f"field {tag.name} in {m.kind.name} is not UTF-8") from None
    return canonical_int(text, f"field {tag.name} in {m.kind.name}")


def _num_agrees(raw):
    m = parse(build(MsgKind.APP_SEGMENT, index=raw))
    assert _outcome(m.num, Tag.INDEX) == _outcome(_reference_num, m, Tag.INDEX)


@pytest.mark.parametrize(
    "raw",
    [b"0", b"00", b"07", b"1", b"65535", b"+1", b"-1", b" 1", b"1 ", b"1_0", "\u0661".encode(),
     b"\xff1", b"1\x80", b"", b"1" * 5000, b"9" * 4300, b"9" * 4301],
    ids=lambda raw: repr(raw) if len(raw) < 16 else f"{len(raw)}-digits-{raw[:1].decode()}",
)
def test_num_fast_path_matches_the_text_path(raw):
    _num_agrees(raw)


@settings(max_examples=500, deadline=None)
@given(st.one_of(
    st.binary(max_size=12),
    st.integers(0, 10**40).map(lambda n: str(n).encode()),
    st.text(alphabet="0123456789+-_ \u0661\u0663", max_size=8).map(str.encode),
))
def test_num_agrees_with_decoding_then_canonical_int(raw):
    _num_agrees(raw)
