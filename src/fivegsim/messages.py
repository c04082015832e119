"""Control and application message vocabulary and its TLV wire layout.

Every message is a MsgKind code plus tagged fields, laid out big-endian as
msg_kind(2) then each field as tag(2) | length(2) | value, in the order
`build` was given them, so `extend` can append fields to a built message;
`parse` keeps the first value of a repeated tag.
Field values are UTF-8 text except DATA, which carries raw bytes (encoded
inner packets, document segments). A kind's name prefix names the protocol
it rides on (PROTOCOL).

`parse` hands out a value of wirefmt.VIEW_MIN bytes or more (in practice
a DATA element: a segment, or the packet that carries one) as a read-only
memoryview over the parsed payload, not a copy, and a smaller value as a
`bytes` slice. A view keeps that whole payload alive while it is held.
`text`, `num` and `require` read a view as they read bytes. `build` and
`extend` copy each value once, into the message: bytes and views go into
its one join as they are.

`kind_of` names a kind through `parse`'s one TLV walk and errors, keeping
no field. An integer in peer text has one spelling, which `is_canonical_int`
tells without a regex: ASCII digits, and no leading zero unless the text is
``0``. `canonical_int` reads by it, as the log import does. `ParsedMsg.num`
reads canonical ASCII digits from the bytes, and sends anything else through
decode and `canonical_int` for its error text.
"""
from __future__ import annotations

import struct
from enum import IntEnum

from .wirefmt import MAX_TEID, VIEW_MIN, Protocol, WireFormatError, byte_view


class MsgKind(IntEnum):
    # repository function (SBI)
    NF_REGISTER_REQ = 1
    NF_REGISTER_RESP = 2
    NF_DEREGISTER_REQ = 3
    NF_DEREGISTER_RESP = 4
    NF_HEARTBEAT_REQ = 5
    NF_HEARTBEAT_RESP = 6
    NF_DISCOVER_REQ = 7
    NF_DISCOVER_RESP = 8
    NF_STATUS_SUBSCRIBE_REQ = 9
    NF_STATUS_SUBSCRIBE_RESP = 10
    NF_STATUS_NOTIFY = 11
    # N4 (PFCP)
    PFCP_ASSOC_REQ = 20
    PFCP_ASSOC_RESP = 21
    PFCP_SESSION_REQ = 22
    PFCP_SESSION_RESP = 23
    PFCP_SESSION_DELETE_REQ = 24
    PFCP_SESSION_DELETE_RESP = 25
    # N2 (NGAP)
    NGAP_SETUP_REQ = 30
    NGAP_SETUP_RESP = 31
    NGAP_KEEPALIVE_REQ = 32
    NGAP_KEEPALIVE_RESP = 33
    NGAP_SESSION_SETUP = 34
    NGAP_SESSION_SETUP_ACK = 35
    # NAS (UE signalling relayed by the gNB)
    NAS_REGISTER_REQ = 40
    NAS_REGISTER_ACCEPT = 41
    NAS_REGISTER_REJECT = 42
    NAS_SESSION_REQ = 43
    NAS_SESSION_ACCEPT = 44
    NAS_SESSION_REJECT = 45
    # registration-flow SBI hops
    AUTH_REQ = 50
    AUTH_RESP = 51
    SUBSCRIBER_REQ = 52
    SUBSCRIBER_RESP = 53
    UDR_QUERY_REQ = 54
    UDR_QUERY_RESP = 55
    POLICY_REQ = 56
    POLICY_RESP = 57
    SESSION_CREATE_REQ = 58
    SESSION_CREATE_RESP = 59
    # radio link
    RLS_DATA = 70
    RLS_NAS = 71
    # application
    APP_GET = 80
    APP_GET_ACK = 81
    APP_SEGMENT = 82
    APP_COMPLETE = 83
    APP_ERROR = 84
    APP_DATA = 85


class Tag(IntEnum):
    UE_ID = 1
    NF_ID = 2
    NF_TYPE = 3
    ADDR = 4
    STATUS = 5
    RESULT = 6
    REASON = 7
    DOC = 8
    SIZE = 9
    INDEX = 10
    DATA = 11
    SEQ = 12
    UE_IP = 14
    MODE = 15
    PATHS = 16
    RULES = 17
    SEGMENTS = 24
    GNB = 25
    DIGEST = 26


# PFCP_, NGAP_, NAS_, RLS_ and APP_ kinds name their protocol; the rest ride SBI.
PROTOCOL = {
    kind: Protocol.__members__.get(kind.name.partition("_")[0], Protocol.SBI) for kind in MsgKind
}

# kind -> its name, for log rows: on Python 3.11 `MsgKind.name` is a
# Python-level property, and rows name a kind per packet
KIND_NAME = {kind: kind.name for kind in MsgKind}

# request kind -> its answer kind; a NAS request's is its accept. The one
# pairing: every NF answers by it, and the sequence checks pair by it
ANSWER = {
    MsgKind.NF_REGISTER_REQ: MsgKind.NF_REGISTER_RESP,
    MsgKind.NF_DEREGISTER_REQ: MsgKind.NF_DEREGISTER_RESP,
    MsgKind.NF_HEARTBEAT_REQ: MsgKind.NF_HEARTBEAT_RESP,
    MsgKind.NF_DISCOVER_REQ: MsgKind.NF_DISCOVER_RESP,
    MsgKind.NF_STATUS_SUBSCRIBE_REQ: MsgKind.NF_STATUS_SUBSCRIBE_RESP,
    MsgKind.PFCP_ASSOC_REQ: MsgKind.PFCP_ASSOC_RESP,
    MsgKind.PFCP_SESSION_REQ: MsgKind.PFCP_SESSION_RESP,
    MsgKind.PFCP_SESSION_DELETE_REQ: MsgKind.PFCP_SESSION_DELETE_RESP,
    MsgKind.NGAP_SETUP_REQ: MsgKind.NGAP_SETUP_RESP,
    MsgKind.NGAP_KEEPALIVE_REQ: MsgKind.NGAP_KEEPALIVE_RESP,
    MsgKind.NGAP_SESSION_SETUP: MsgKind.NGAP_SESSION_SETUP_ACK,
    MsgKind.NAS_REGISTER_REQ: MsgKind.NAS_REGISTER_ACCEPT,
    MsgKind.NAS_SESSION_REQ: MsgKind.NAS_SESSION_ACCEPT,
    MsgKind.AUTH_REQ: MsgKind.AUTH_RESP,
    MsgKind.SUBSCRIBER_REQ: MsgKind.SUBSCRIBER_RESP,
    MsgKind.UDR_QUERY_REQ: MsgKind.UDR_QUERY_RESP,
    MsgKind.POLICY_REQ: MsgKind.POLICY_RESP,
    MsgKind.SESSION_CREATE_REQ: MsgKind.SESSION_CREATE_RESP,
}

# The UE procedures the AMF runs (TS 23.502 §4.2.2.2 registration, §4.3.2.2
# PDU session establishment): the NAS request that starts one -> (its accept,
# its reject, its steps). A step is (its request, the NF kind asked, the
# refusal an error answer without a reason gives, the steps that NF takes
# before it answers). core_cp's one walker asks and answers them, at any
# depth; validation's REGISTRATION_CHAIN is the registration's steps, nested
# ones included. A new step is one row here plus, where the NF it asks
# decides something, that NF's `begin`.
PROCEDURES = {
    MsgKind.NAS_REGISTER_REQ: (MsgKind.NAS_REGISTER_ACCEPT, MsgKind.NAS_REGISTER_REJECT, (
        (MsgKind.AUTH_REQ, "AUSF", "authentication failed", ()),  # TS 33.501 §6.1.3
        (MsgKind.SUBSCRIBER_REQ, "UDM", "unknown subscriber", (
            (MsgKind.UDR_QUERY_REQ, "UDR", "unknown subscriber", ()),
        )),
        (MsgKind.POLICY_REQ, "PCF", "policy refused", ()),
    )),
    MsgKind.NAS_SESSION_REQ: (MsgKind.NAS_SESSION_ACCEPT, MsgKind.NAS_SESSION_REJECT, (
        (MsgKind.SESSION_CREATE_REQ, "SMF", "error", ()),
    )),
}

_KIND_BY_CODE = {int(k): k for k in MsgKind}
_HEAD = struct.Struct(">HH")  # an element's tag and length
_KIND_PREFIX = {k: struct.pack(">H", k) for k in MsgKind}
_TAG_CODE = {t.name.lower(): int(t) for t in Tag}


def is_canonical_int(text: str) -> bool:
    """Whether `text` is the one spelling of a non-negative integer: not empty,
    ASCII digits only (no sign, space, '_' or other digit), and no leading
    zero unless it is "0"."""
    return text.isdigit() and text.isascii() and (text[0] != "0" or len(text) == 1)


def canonical_int(text: str, what: str) -> int:
    """Read a non-negative integer from peer text; anything else is bad input."""
    if is_canonical_int(text):
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
    raise WireFormatError(f"{what} is not an integer")


def read_teid(text: str, what: str) -> int:
    """Read a tunnel endpoint id from peer text: canonical digits, 1 to MAX_TEID."""
    teid = canonical_int(text, what)
    if not 0 < teid <= MAX_TEID:
        raise WireFormatError(f"{what} is not a TEID")
    return teid


def build(kind: MsgKind, **fields: str | int | bytes | None) -> bytes:
    """Encode a message; keyword names are Tag names, lowercased. A bytes-like
    value is sent as its bytes, a str or int as its text; None leaves it out."""
    prefix = _KIND_PREFIX.get(kind)
    if prefix is None:
        raise KeyError(f"unknown message kind {kind!r}")
    return _lay_out(prefix, fields)


def extend(message: bytes, **fields: str | int | bytes | None) -> bytes:
    """A built message with `fields` laid out after its own, as `build` lays
    them out: extend(build(kind, **a), **b) == build(kind, **a, **b)."""
    return _lay_out(message, fields)


def _lay_out(head: bytes, fields: dict) -> bytes:
    out = [head]
    for name, value in fields.items():
        if value is None:
            continue
        tag = _TAG_CODE.get(name)
        if tag is None:
            raise KeyError(f"unknown message field {name!r}")
        if type(value) is str:
            raw = value.encode()
        elif isinstance(value, bytes):
            raw = value
        elif isinstance(value, (bytearray, memoryview)):
            raw = byte_view(value)
        elif isinstance(value, (str, int)):
            raw = str(value).encode()
        else:
            raise TypeError(f"message field {name!r} is {type(value).__name__}, not str, int or bytes")
        if len(raw) > 0xFFFF:
            raise WireFormatError(f"TLV value of {len(raw)} bytes overflows the length field")
        out += (_HEAD.pack(tag, len(raw)), raw)
    return b"".join(out)


class ParsedMsg:
    """Read-only view over a decoded message.

    Every accessor is total: a field that is not UTF-8 text, or not a
    canonical non-negative integer where one is read, raises WireFormatError.
    """

    __slots__ = ("kind", "_fields")

    def __init__(self, kind: MsgKind, fields: dict[int, bytes | memoryview]):
        self.kind = kind
        self._fields = fields

    def raw(self, tag: Tag) -> bytes | memoryview | None:
        return self._fields.get(tag)

    def _decode(self, tag: Tag, raw: bytes | memoryview) -> str:
        try:
            return raw.decode() if type(raw) is bytes else str(raw, "utf-8")
        except UnicodeDecodeError:
            raise WireFormatError(f"field {tag.name} in {self.kind.name} is not UTF-8") from None

    def text(self, tag: Tag, default: str | None = None) -> str | None:
        raw = self._fields.get(tag)
        return self._decode(tag, raw) if raw is not None else default

    def num(self, tag: Tag, default: int | None = None) -> int | None:
        raw = self._fields.get(tag)
        if raw is None:
            return default
        if type(raw) is not bytes:  # a view: VIEW_MIN digits or more
            raw = raw.tobytes()
        if raw.isdigit() and (raw[0] != 0x30 or len(raw) == 1):  # bytes.isdigit: ASCII only
            try:
                return int(raw)
            except ValueError:  # more digits than int() converts: the text path says so
                pass
        return canonical_int(self._decode(tag, raw), f"field {tag.name} in {self.kind.name}")

    def require(self, tag: Tag) -> str:
        raw = self._fields.get(tag)
        if raw is None:
            raise WireFormatError(f"missing mandatory field {tag.name} in {self.kind.name}")
        return self._decode(tag, raw)


def _walk(payload: bytes | bytearray | memoryview, fields: dict[int, bytes | memoryview] | None) -> MsgKind:
    """The one TLV walk: check every element, then the kind, and return the
    kind; a truncated element, then an unknown kind, raises WireFormatError.
    With `fields`, keep each tag's first value there: a bytes copy, or a
    view over `payload` from VIEW_MIN bytes up."""
    flat = type(payload) is bytes
    if not flat:
        payload = byte_view(payload)
    view = None if flat else payload
    end = len(payload)
    if end < 2:
        raise WireFormatError("truncated TLV message: missing msg_kind")
    unpack, off = _HEAD.unpack_from, 2
    while off < end:
        if off + 4 > end:
            raise WireFormatError(f"truncated TLV element header at offset {off}")
        tag, length = unpack(payload, off)
        off += 4
        if off + length > end:
            raise WireFormatError(f"TLV value for tag {tag} runs past the buffer")
        if fields is not None and tag not in fields:
            if length >= VIEW_MIN:
                if view is None:
                    view = memoryview(payload)
                fields[tag] = view[off : off + length]
            else:
                value = payload[off : off + length]
                fields[tag] = value if flat else value.tobytes()
        off += length
    code = payload[0] << 8 | payload[1]
    kind = _KIND_BY_CODE.get(code)
    if kind is None:
        raise WireFormatError(f"unknown message kind {code}")
    return kind


def kind_of(payload: bytes | bytearray | memoryview) -> MsgKind:
    """The kind of a message `parse` would accept; raises what it raises."""
    return _walk(payload, None)


def parse(payload: bytes | bytearray | memoryview) -> ParsedMsg:
    """Decode a message. Total: a truncated element, then an unknown kind,
    raises WireFormatError."""
    fields: dict[int, bytes | memoryview] = {}
    return ParsedMsg(_walk(payload, fields), fields)
