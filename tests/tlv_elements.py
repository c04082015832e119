"""Element-level TLV codec for tests.

The layout `messages.build` writes and `messages.parse` reads, with any
16-bit kind and tag, and every element kept in order (parse keeps only the
first value of a repeated tag). Tests use it to forge real messages field
by field; test_wirefmt pins it to the golden vectors.
"""
import struct

_KIND = struct.Struct(">H")
_HEAD = struct.Struct(">HH")


def encode(kind: int, elements) -> bytes:
    """`kind` then each (tag, value) element, in order."""
    return _KIND.pack(kind) + b"".join(_HEAD.pack(tag, len(value)) + value for tag, value in elements)


def decode(raw: bytes) -> tuple[int, list[tuple[int, bytes]]]:
    """(kind, elements) of a well-formed message; the inverse of `encode`."""
    (kind,) = _KIND.unpack_from(raw)
    elements, off = [], _KIND.size
    while off < len(raw):
        tag, length = _HEAD.unpack_from(raw, off)
        off += _HEAD.size
        assert off + length <= len(raw), "truncated element"
        elements.append((tag, raw[off : off + length]))
        off += length
    return kind, elements
