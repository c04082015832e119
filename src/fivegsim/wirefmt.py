"""Byte-level formats that travel over simulated links.

Two formats live here:

* the packet envelope, a fixed 18-byte header plus payload, which stands in
  for the IP/UDP framing every simulated protocol rides on;
* the GTP-U user-plane header used to tunnel packets between gNB and UPF.

The TLV layout of control and application messages lives with their
vocabulary, in `messages`. All integers are big-endian. Every decoder is
total: malformed input raises WireFormatError, never anything else.

A decoder hands out a large value without copying it: `gtpu_decapsulate`
returns an inner packet of VIEW_MIN bytes or more as a read-only
memoryview over the G-PDU, as `messages.parse` does such a field value. A
view keeps the whole datagram it points into alive while it is held. A
smaller value is a `bytes` slice, which costs less than a view.
`decode_packet` takes bytes, a bytearray or a view and copies only its
payload, once, so `SimPacket.payload` is always `bytes`. Every encoder
copies a value once, into the datagram it builds, and takes a view as it
is; `gtpu_encapsulate` encodes a SimPacket straight into its G-PDU.
"""
from __future__ import annotations

import functools
import ipaddress
import struct
from enum import IntEnum

from .errors import FivegsimError
from .record import Record

ENVELOPE_VERSION = 1
ENVELOPE_HEADER_LEN = 18
MAX_PAYLOAD = 65535

GTPU_MSG_GPDU = 0xFF
GTPU_FLAGS_BASE = 0x30  # version 1, protocol type GTP, no optional fields
GTPU_FLAGS_SEQ = 0x32   # same, with the S flag set
GTPU_HEADER_LEN = 8
GTPU_OPT_LEN = 4        # sequence (2) + N-PDU (1) + next extension type (1)

MAX_TEID = 0xFFFFFFFF
MAX_SEQ = 0xFFFF

# A decoded value this long or longer is a view, a shorter one a copy: on
# CPython 3.11, slicing 16 KiB out of bytes costs about what making a view
# does (0.2 us), and slicing 64,000 bytes ten times more
VIEW_MIN = 16384


class Protocol(IntEnum):
    """Code point carried in the envelope protocol byte."""

    SBI = 1
    NGAP = 2
    NAS = 3
    PFCP = 4
    GTPU = 5
    RLS = 6
    APP = 7


_PROTOCOL_BY_CODE = {int(p): p for p in Protocol}

_ENVELOPE = struct.Struct(">BB4s4sHHI")
_GTPU = struct.Struct(">BBHI")
_GTPU_SEQ = struct.Struct(">BBHIHBB")  # with the optional field block


class WireFormatError(FivegsimError, ValueError):
    """Input bytes or field values violate a wire format contract."""


# A run encodes the same few entity and session addresses over and over; the
# bound covers those plus a few thousand UE sessions. A raise is not cached.
@functools.lru_cache(maxsize=4096)
def _pack_ip(ip: str) -> bytes:
    try:
        return ipaddress.IPv4Address(ip).packed
    except (ipaddress.AddressValueError, ValueError) as exc:
        raise WireFormatError(f"bad IPv4 address {ip!r}") from exc


# The decode side of the same few addresses: one dotted quad per 4 bytes.
@functools.lru_cache(maxsize=4096)
def _dotted(raw: bytes) -> str:
    return f"{raw[0]}.{raw[1]}.{raw[2]}.{raw[3]}"


def byte_view(b: bytearray | memoryview) -> memoryview:
    """A read-only, flat unsigned-byte view of a bytes-like object, whose
    len() is its byte count; a view of any other shape is copied into one."""
    view = memoryview(b)
    if view.format != "B" or view.ndim != 1 or not view.c_contiguous:
        return memoryview(view.tobytes())
    return view if view.readonly else view.toreadonly()


def _check_port(port: int, label: str) -> None:
    if not isinstance(port, int) or not 0 <= port <= 65535:
        raise WireFormatError(f"{label} out of range: {port!r}")


class SimPacket(Record):
    """One simulated datagram.

    Envelope layout (18 bytes before the payload):

        version(1) | protocol(1) | src_ip(4) | dst_ip(4) |
        src_port(2) | dst_port(2) | payload_len(4) | payload
    """

    __slots__ = _fields = ("protocol", "src_ip", "dst_ip", "src_port", "dst_port", "payload")
    _defaults = {"payload": b""}

    @property
    def wire_size(self) -> int:
        return ENVELOPE_HEADER_LEN + len(self.payload)


def encode_packet(p: SimPacket) -> bytes:
    """Serialize a packet. Rejects anything that cannot round-trip."""
    return _envelope(p) + p.payload


def _envelope(p: SimPacket) -> bytes:
    """The envelope header of `p`; refuses a packet that cannot round-trip."""
    try:
        proto = _PROTOCOL_BY_CODE[p.protocol]
    except (KeyError, TypeError):
        raise WireFormatError(f"unknown protocol {p.protocol!r}") from None
    src, dst, payload = p.src_ip, p.dst_ip, p.payload
    if not (isinstance(src, str) and isinstance(dst, str)):
        raise WireFormatError(f"bad IPv4 address {dst if isinstance(src, str) else src!r}")
    _check_port(p.src_port, "src_port")
    _check_port(p.dst_port, "dst_port")
    if not isinstance(payload, bytes):
        raise WireFormatError(f"payload is {type(payload).__name__}, not bytes")
    if len(payload) > MAX_PAYLOAD:
        raise WireFormatError(
            f"payload of {len(payload)} bytes exceeds the {MAX_PAYLOAD}-byte cap; "
            "large transfers must be segmented above this layer"
        )
    return _ENVELOPE.pack(
        ENVELOPE_VERSION, proto, _pack_ip(src), _pack_ip(dst), p.src_port, p.dst_port, len(payload)
    )


def decode_packet(b: bytes | bytearray | memoryview) -> SimPacket:
    """Parse an envelope; the payload is a bytes copy, the one copy made.
    Total: any malformed input raises WireFormatError."""
    if type(b) is not bytes:
        if not isinstance(b, (bytes, bytearray, memoryview)):
            raise WireFormatError("input is not bytes")
        b = byte_view(b)
    if len(b) < ENVELOPE_HEADER_LEN:
        raise WireFormatError(f"truncated envelope: {len(b)} < {ENVELOPE_HEADER_LEN} bytes")
    version, proto, src, dst, sport, dport, plen = _ENVELOPE.unpack_from(b)
    if version != ENVELOPE_VERSION:
        raise WireFormatError(f"unsupported envelope version {version}")
    protocol = _PROTOCOL_BY_CODE.get(proto)
    if protocol is None:
        raise WireFormatError(f"unknown protocol code {proto}")
    if plen > MAX_PAYLOAD:
        raise WireFormatError(f"declared payload length {plen} exceeds cap {MAX_PAYLOAD}")
    if plen != len(b) - ENVELOPE_HEADER_LEN:
        raise WireFormatError(
            f"declared payload length {plen} does not match actual {len(b) - ENVELOPE_HEADER_LEN}"
        )
    payload = b[ENVELOPE_HEADER_LEN:]
    if type(payload) is not bytes:
        payload = payload.tobytes()
    return SimPacket(protocol, _dotted(src), _dotted(dst), sport, dport, payload)


def gtpu_encapsulate(inner: bytes | memoryview | SimPacket, teid: int, seq: int | None = None) -> bytes:
    """Wrap an inner datagram in a G-PDU. The inner bytes must be non-empty.
    A SimPacket is encoded into the G-PDU as encode_packet encodes it, so
    its payload is copied once, not twice.

    The header's length field counts every byte after its mandatory 8, so
    it is the inner size plus 4 whenever the optional field block (seq) is
    present.
    """
    head = b""
    if isinstance(inner, SimPacket):
        head, inner = _envelope(inner), inner.payload
    elif type(inner) is not bytes:
        inner = byte_view(inner)
    size = len(head) + len(inner)
    if not size:
        raise WireFormatError("refusing to encapsulate an empty inner packet")
    length = size + (GTPU_OPT_LEN if seq is not None else 0)
    if length > MAX_SEQ:
        raise WireFormatError(f"inner packet of {size} bytes overflows the length field")
    if not 0 <= teid <= MAX_TEID:
        raise WireFormatError(f"TEID out of range: {teid}")
    if seq is None:
        return b"".join((_GTPU.pack(GTPU_FLAGS_BASE, GTPU_MSG_GPDU, length, teid), head, inner))
    if not 0 <= seq <= MAX_SEQ:
        raise WireFormatError(f"GTP-U sequence out of range: {seq}")
    return b"".join((_GTPU_SEQ.pack(GTPU_FLAGS_SEQ, GTPU_MSG_GPDU, length, teid, seq, 0, 0), head, inner))


def gtpu_decapsulate(b: bytes) -> tuple[bytes | memoryview, int, int | None]:
    """Unwrap a G-PDU, returning (inner bytes, teid, seq or None); an inner
    packet of VIEW_MIN bytes or more is a read-only view over `b`."""
    if len(b) < GTPU_HEADER_LEN:
        raise WireFormatError(f"truncated GTP-U header: {len(b)} bytes")
    flags, msg_type, length, teid = _GTPU.unpack_from(b)
    if flags == GTPU_FLAGS_BASE:
        seq, start = None, GTPU_HEADER_LEN
    elif flags == GTPU_FLAGS_SEQ:
        if len(b) < GTPU_HEADER_LEN + GTPU_OPT_LEN:
            raise WireFormatError("S flag set but optional field block truncated")
        seq, start = _GTPU_SEQ.unpack_from(b)[4], GTPU_HEADER_LEN + GTPU_OPT_LEN
    else:
        raise WireFormatError(f"unsupported GTP-U flags {flags:#04x}")
    if msg_type != GTPU_MSG_GPDU:
        raise WireFormatError(f"unsupported GTP-U message type {msg_type:#x}")
    if length != len(b) - GTPU_HEADER_LEN:
        raise WireFormatError(
            f"GTP-U length field {length} does not match actual {len(b) - GTPU_HEADER_LEN}"
        )
    size = len(b) - start
    if not size:
        raise WireFormatError("G-PDU carries no inner packet")
    return b[start:] if size < VIEW_MIN else byte_view(b)[start:], teid, seq
