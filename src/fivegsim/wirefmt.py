"""Byte-level formats that travel over simulated links.

Two formats live here:

* the packet envelope, a fixed 18-byte header plus payload, which stands in
  for the IP/UDP framing every simulated protocol rides on;
* the GTP-U user-plane header used to tunnel packets between gNB and UPF.

The TLV layout of control and application messages lives with their
vocabulary, in `messages`. All integers are big-endian. Every decoder is
total: malformed input raises WireFormatError, never anything else.
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
    ) + payload


def decode_packet(b: bytes) -> SimPacket:
    """Parse an envelope. Total: any malformed input raises WireFormatError."""
    if not isinstance(b, (bytes, bytearray, memoryview)):
        raise WireFormatError("input is not bytes")
    b = bytes(b)
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
    return SimPacket(protocol, _dotted(src), _dotted(dst), sport, dport, b[ENVELOPE_HEADER_LEN:])


def gtpu_encapsulate(inner: bytes, teid: int, seq: int | None = None) -> bytes:
    """Wrap an inner datagram in a G-PDU. The inner bytes must be non-empty.

    The header's length field counts every byte after its mandatory 8, so
    it is the inner size plus 4 whenever the optional field block (seq) is
    present.
    """
    if not inner:
        raise WireFormatError("refusing to encapsulate an empty inner packet")
    length = len(inner) + (GTPU_OPT_LEN if seq is not None else 0)
    if length > MAX_SEQ:
        raise WireFormatError(f"inner packet of {len(inner)} bytes overflows the length field")
    if not 0 <= teid <= MAX_TEID:
        raise WireFormatError(f"TEID out of range: {teid}")
    if seq is None:
        return _GTPU.pack(GTPU_FLAGS_BASE, GTPU_MSG_GPDU, length, teid) + inner
    if not 0 <= seq <= MAX_SEQ:
        raise WireFormatError(f"GTP-U sequence out of range: {seq}")
    return _GTPU_SEQ.pack(GTPU_FLAGS_SEQ, GTPU_MSG_GPDU, length, teid, seq, 0, 0) + inner


def gtpu_decapsulate(b: bytes) -> tuple[bytes, int, int | None]:
    """Unwrap a G-PDU, returning (inner bytes, teid, seq or None)."""
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
    inner = b[start:]
    if not inner:
        raise WireFormatError("G-PDU carries no inner packet")
    return inner, teid, seq
