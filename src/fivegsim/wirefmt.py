"""Byte-level formats that travel over simulated links.

Three formats live here:

* the packet envelope, a fixed 18-byte header plus payload, which stands in
  for the IP/UDP framing every simulated protocol rides on;
* the GTP-U user-plane header used to tunnel packets between gNB and UPF;
* a minimal TLV container used by every control and application message.

All integers are big-endian. Every decoder is total: malformed input raises
WireFormatError, never anything else.
"""
from __future__ import annotations

import functools
import ipaddress
import struct
from dataclasses import dataclass
from enum import IntEnum

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
_TLV_KIND = struct.Struct(">H")
_TLV_HEAD = struct.Struct(">HH")


class WireFormatError(ValueError):
    """Input bytes or field values violate a wire format contract."""


# A run encodes the same few entity and session addresses over and over; the
# bound covers those plus a few thousand UE sessions. A raise is not cached.
@functools.lru_cache(maxsize=4096)
def _pack_ip(ip: str) -> bytes:
    try:
        return ipaddress.IPv4Address(ip).packed
    except (ipaddress.AddressValueError, ValueError) as exc:
        raise WireFormatError(f"bad IPv4 address {ip!r}") from exc


def _check_port(port: int, label: str) -> None:
    if not isinstance(port, int) or not 0 <= port <= 65535:
        raise WireFormatError(f"{label} out of range: {port!r}")


@dataclass(frozen=True)
class SimPacket:
    """One simulated datagram.

    Envelope layout (18 bytes before the payload):

        version(1) | protocol(1) | src_ip(4) | dst_ip(4) |
        src_port(2) | dst_port(2) | payload_len(4) | payload
    """

    protocol: Protocol
    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    payload: bytes = b""
    version: int = ENVELOPE_VERSION

    @property
    def wire_size(self) -> int:
        return ENVELOPE_HEADER_LEN + len(self.payload)


def encode_packet(p: SimPacket) -> bytes:
    """Serialize a packet. Rejects anything that cannot round-trip."""
    if p.version != ENVELOPE_VERSION:
        raise WireFormatError(f"unsupported envelope version {p.version}")
    try:
        proto = Protocol(p.protocol)
    except ValueError as exc:
        raise WireFormatError(f"unknown protocol {p.protocol!r}") from exc
    _check_port(p.src_port, "src_port")
    _check_port(p.dst_port, "dst_port")
    if len(p.payload) > MAX_PAYLOAD:
        raise WireFormatError(
            f"payload of {len(p.payload)} bytes exceeds the {MAX_PAYLOAD}-byte cap; "
            "large transfers must be segmented above this layer"
        )
    return (
        _ENVELOPE.pack(
            p.version,
            int(proto),
            _pack_ip(p.src_ip),
            _pack_ip(p.dst_ip),
            p.src_port,
            p.dst_port,
            len(p.payload),
        )
        + p.payload
    )


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
    return SimPacket(
        protocol=protocol,
        src_ip=f"{src[0]}.{src[1]}.{src[2]}.{src[3]}",
        dst_ip=f"{dst[0]}.{dst[1]}.{dst[2]}.{dst[3]}",
        src_port=sport,
        dst_port=dport,
        payload=b[ENVELOPE_HEADER_LEN:],
    )


@dataclass(frozen=True)
class GtpuHeader:
    """GTPv1-U header for G-PDU tunneling.

    length counts every byte after the mandatory 8-byte header, so it is the
    inner payload size plus 4 whenever the optional field block is present.
    """

    teid: int
    length: int
    seq: int | None = None
    msg_type: int = GTPU_MSG_GPDU

    @property
    def flags(self) -> int:
        return GTPU_FLAGS_SEQ if self.seq is not None else GTPU_FLAGS_BASE

    @property
    def header_len(self) -> int:
        return GTPU_HEADER_LEN + (GTPU_OPT_LEN if self.seq is not None else 0)


def encode_gtpu_header(h: GtpuHeader) -> bytes:
    if not 0 <= h.teid <= MAX_TEID:
        raise WireFormatError(f"TEID out of range: {h.teid}")
    if not 0 <= h.length <= MAX_SEQ:
        raise WireFormatError(f"GTP-U length out of range: {h.length}")
    if h.msg_type != GTPU_MSG_GPDU:
        raise WireFormatError(f"unsupported GTP-U message type {h.msg_type:#x}")
    head = struct.pack(">BBHI", h.flags, h.msg_type, h.length, h.teid)
    if h.seq is not None:
        if not 0 <= h.seq <= MAX_SEQ:
            raise WireFormatError(f"GTP-U sequence out of range: {h.seq}")
        head += struct.pack(">HBB", h.seq, 0, 0)
    return head


def decode_gtpu_header(b: bytes) -> GtpuHeader:
    b = bytes(b)
    if len(b) < GTPU_HEADER_LEN:
        raise WireFormatError(f"truncated GTP-U header: {len(b)} bytes")
    flags, msg_type, length, teid = struct.unpack(">BBHI", b[:GTPU_HEADER_LEN])
    if flags == GTPU_FLAGS_BASE:
        seq = None
    elif flags == GTPU_FLAGS_SEQ:
        if len(b) < GTPU_HEADER_LEN + GTPU_OPT_LEN:
            raise WireFormatError("S flag set but optional field block truncated")
        seq = struct.unpack(">H", b[GTPU_HEADER_LEN : GTPU_HEADER_LEN + 2])[0]
    else:
        raise WireFormatError(f"unsupported GTP-U flags {flags:#04x}")
    if msg_type != GTPU_MSG_GPDU:
        raise WireFormatError(f"unsupported GTP-U message type {msg_type:#x}")
    return GtpuHeader(teid=teid, length=length, seq=seq, msg_type=msg_type)


def gtpu_encapsulate(inner: bytes, teid: int, seq: int | None = None) -> bytes:
    """Wrap an inner datagram in a G-PDU. The inner bytes must be non-empty."""
    if not inner:
        raise WireFormatError("refusing to encapsulate an empty inner packet")
    length = len(inner) + (GTPU_OPT_LEN if seq is not None else 0)
    if length > MAX_SEQ:
        raise WireFormatError(f"inner packet of {len(inner)} bytes overflows the length field")
    header = GtpuHeader(teid=teid, length=length, seq=seq)
    return encode_gtpu_header(header) + inner


def gtpu_decapsulate(b: bytes) -> tuple[bytes, int, int | None]:
    """Unwrap a G-PDU, returning (inner bytes, teid, seq or None)."""
    header = decode_gtpu_header(b)
    if header.length != len(b) - GTPU_HEADER_LEN:
        raise WireFormatError(
            f"GTP-U length field {header.length} does not match actual {len(b) - GTPU_HEADER_LEN}"
        )
    inner = bytes(b[GTPU_HEADER_LEN + (GTPU_OPT_LEN if header.seq is not None else 0) :])
    if not inner:
        raise WireFormatError("G-PDU carries no inner packet")
    return inner, header.teid, header.seq


@dataclass(frozen=True)
class TlvMessage:
    """Ordered tag-length-value container with a 16-bit message kind.

    Serialization is canonical: msg_kind(2) then each element as
    tag(2) | length(2) | value, in list order.
    """

    msg_kind: int
    elements: tuple[tuple[int, bytes], ...] = ()


def encode_tlv(m: TlvMessage) -> bytes:
    if not 0 <= m.msg_kind <= 0xFFFF:
        raise WireFormatError(f"msg_kind out of range: {m.msg_kind}")
    out = [_TLV_KIND.pack(m.msg_kind)]
    for tag, value in m.elements:
        if not 0 <= tag <= 0xFFFF:
            raise WireFormatError(f"TLV tag out of range: {tag}")
        if len(value) > 0xFFFF:
            raise WireFormatError(f"TLV value of {len(value)} bytes overflows the length field")
        out.append(_TLV_HEAD.pack(tag, len(value)))
        out.append(bytes(value))
    return b"".join(out)


def decode_tlv(b: bytes) -> TlvMessage:
    b = bytes(b)
    if len(b) < 2:
        raise WireFormatError("truncated TLV message: missing msg_kind")
    (msg_kind,) = _TLV_KIND.unpack_from(b)
    elements: list[tuple[int, bytes]] = []
    off = 2
    while off < len(b):
        if off + 4 > len(b):
            raise WireFormatError(f"truncated TLV element header at offset {off}")
        tag, length = _TLV_HEAD.unpack_from(b, off)
        off += 4
        if off + length > len(b):
            raise WireFormatError(f"TLV value for tag {tag} runs past the buffer")
        elements.append((tag, b[off : off + length]))
        off += length
    return TlvMessage(msg_kind=msg_kind, elements=tuple(elements))
