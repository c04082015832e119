"""Embedded analytics: KPI synthesis and log round-tripping.

The analytics function reads the fabric's own event log (management plane,
not packets); the fabric built every row, so the live path checks nothing.
KPIs are synthesised over half-open time windows; logs export to a
line-oriented TSV that re-imports byte-identically. Import is the one
untrusted boundary, and the only place rows are checked against the schema.
Imported rows share their values as live rows do: one import keeps one
string per distinct link id, name, outcome, attr key and attr value, and one
int per distinct ts and size; a ts or size spelling met before is not
checked again.

Format: a ``#`` header, then one row per event ending in ``\n``, nine
tab-separated columns. Id, ts and size have one spelling each (``0`` or
ASCII digits without a leading zero). Attrs are ``-`` or ``key=value``
pairs joined by ``,`` with keys sorted and unique. No field holds a tab,
``\n`` or ``\r``, no attr a ``,`` and no attr key a ``=``.
"""
from __future__ import annotations

import io

from .core_cp import NfEntity
from .errors import FivegsimError
from .messages import is_canonical_int
from .record import Record
from .simnet import DELIVERED, OUTCOMES, TapRecord
from .wirefmt import Protocol

SEMANTICS = ("src_only", "src_or_dst")

_PROTOCOLS = {p.name: p for p in Protocol}  # exported name -> member
# member -> exported name; on Python 3.11 `Protocol.name` is a Python-level
# property, and the export names one per row
_PROTOCOL_NAME = {p: name for name, p in _PROTOCOLS.items()}

_OUTCOMES = {o: o for o in OUTCOMES}  # exported text -> the fabric's own string


class SchemaError(FivegsimError):
    """An event failed schema validation."""


class EventStore(Record):
    """The analytics function's view of the run's event log.

    ``events`` is the fabric's own list; nothing on the live path is ever
    rejected, so ``rejected`` stays 0.
    """

    __slots__ = _fields = ("events", "rejected")
    _defaults = {"rejected": 0}


# -- KPI synthesis ------------------------------------------------------------


def kpi_packet_counts(
    events,
    t0: int,
    t1: int,
    entities=None,
    semantics: str = "src_only",
) -> dict[str, int]:
    """Delivered-packet counts per entity over [t0, t1).

    src_only attributes each packet to its sender; src_or_dst credits both
    ends, so every delivered packet contributes exactly two counts.
    """
    if semantics not in SEMANTICS:
        raise ValueError(f"unknown counting semantics {semantics!r}")
    if t1 < t0:
        raise ValueError(f"bad window [{t0}, {t1})")
    counts: dict[str, int] = {}
    both = semantics == "src_or_dst"
    for ev in events:
        # a local decision's link id is "local:<entity>" (TapRecord.is_wire)
        if ev.outcome != DELIVERED or not (t0 <= ev.ts < t1) or ev.link_id.startswith("local:"):
            continue
        name = ev.src
        counts[name] = counts.get(name, 0) + 1
        if both:
            name = ev.dst
            counts[name] = counts.get(name, 0) + 1
    if entities is not None:
        return {name: counts.get(name, 0) for name in entities}
    return counts


def kpi_throughput_matrix(events, t0: int, t1: int) -> dict[tuple[str, str], float]:
    """Bytes per second between directed entity pairs over [t0, t1)."""
    if t1 <= t0:
        raise ValueError(f"bad window [{t0}, {t1})")
    total: dict[tuple[str, str], int] = {}
    for ev in events:
        if ev.outcome != DELIVERED or not (t0 <= ev.ts < t1) or ev.link_id.startswith("local:"):
            continue
        key = (ev.src, ev.dst)
        total[key] = total.get(key, 0) + ev.size
    seconds = (t1 - t0) / 1000.0
    return {key: size / seconds for key, size in total.items()}


# -- log round-tripping ----------------------------------------------------------

_HEADER = "# id\tts\tlink_id\tsrc\tdst\tprotocol\tsize\toutcome\tattrs\n"


def _attrs_text(attrs: dict[str, str]) -> str:
    if not attrs:
        return "-"
    return ",".join([f"{k}={attrs[k]}" for k in sorted(attrs)])


def _write_rows(out, events) -> None:
    """Write the header, then one line per row, to the text stream `out`."""
    write, protocol_name = out.write, _PROTOCOL_NAME
    write(_HEADER)
    for ev in events:
        write(
            f"{ev.event_id}\t{ev.ts}\t{ev.link_id}\t{ev.src}\t{ev.dst}"
            f"\t{protocol_name[ev.protocol]}\t{ev.size}\t{ev.outcome}\t{_attrs_text(ev.attrs)}\n"
        )


def export_events_text(events) -> str:
    out = io.StringIO()
    _write_rows(out, events)
    return out.getvalue()


def export_events(events, path) -> None:
    """Write the log to `path` row by row; the file holds exactly
    export_events_text(events)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        _write_rows(fh, events)


def _lines(text: str):
    """The lines of `text` as text.split("\\n") gives them, one at a time:
    no list of every line is held."""
    start = 0
    find = text.find
    while (end := find("\n", start)) >= 0:
        yield text[start:end]
        start = end + 1
    yield text[start:]


def import_events_text(text: str) -> list[TapRecord]:
    """Parse an exported log, checking every row against the schema in one pass.

    Only the spellings export writes are accepted, so an accepted row
    re-exports as itself. Ids must strictly increase and timestamps must
    never go backwards.

    Rows share their values: one string per distinct link id, name, attr
    key and attr value, one parsed pair per distinct ``key=value`` text, and
    one int per distinct ts and size text. A pair met before skips only its
    split, and a ts or size met before skips its spelling check and its
    ``int()``; every other check runs on every row, in the same order.
    """
    cr = text.find("\r")
    if cr >= 0:
        lineno = text.count("\n", 0, cr) + 1
        raise SchemaError(f"line {lineno}: carriage return in a row")
    events: list[TapRecord] = []
    last_id = 0
    last_ts = 0
    shared: dict[str, str] = {}                 # each distinct value, once
    pairs: dict[str, tuple[str, str]] = {}      # "key=value" -> (key, value)
    ints: dict[str, int] = {}                   # ts or size text -> its int
    share, known, canonical = shared.setdefault, ints.get, is_canonical_int
    for lineno, line in enumerate(_lines(text), start=1):
        if not line or line[0] == "#":
            continue
        cols = line.split("\t")
        if len(cols) != 9:
            raise SchemaError(f"line {lineno}: expected 9 columns, got {len(cols)}")
        event_id, ts, link_id, src, dst, protocol, size, outcome_text, attrs_text = cols
        ts_int, size_int = known(ts), known(size)
        if not (
            canonical(event_id)
            and (ts_int is not None or canonical(ts))
            and (size_int is not None or canonical(size))
        ):
            raise SchemaError(f"line {lineno}: non-integer or non-canonical id, ts or size")
        member = _PROTOCOLS.get(protocol)
        if member is None:
            raise SchemaError(f"line {lineno}: unknown protocol {protocol!r}")
        outcome = _OUTCOMES.get(outcome_text)
        if outcome is None:
            raise SchemaError(f"line {lineno}: unknown outcome {outcome_text!r}")
        if not (link_id and src and dst):
            raise SchemaError(f"line {lineno}: link_id, src and dst must be non-empty")
        attrs: dict[str, str] = {}
        if attrs_text != "-":
            last_key = ""
            for pair in attrs_text.split(","):
                kv = pairs.get(pair)
                if kv is None:
                    key, sep, value = pair.partition("=")
                    if not (sep and key):
                        raise SchemaError(f"line {lineno}: malformed attr {pair!r}")
                    kv = pairs[pair] = (share(key, key), share(value, value))
                key, value = kv
                if key <= last_key:
                    raise SchemaError(f"line {lineno}: attr key {key!r} not increasing")
                attrs[key] = value
                last_key = key
        try:
            event_id = int(event_id)
            if ts_int is None:
                ts_int = ints[ts] = int(ts)
            if size_int is None:
                size_int = ints[size] = int(size)
        except ValueError:  # more digits than int() converts
            raise SchemaError(f"line {lineno}: id, ts or size too long") from None
        if event_id <= last_id:
            raise SchemaError(f"line {lineno}: event id {event_id} not increasing")
        if ts_int < last_ts:
            raise SchemaError(f"line {lineno}: time went backwards")
        last_id, last_ts = event_id, ts_int
        events.append(TapRecord(
            event_id, ts_int, share(link_id, link_id), share(src, src), share(dst, dst), member,
            size_int, outcome, attrs,
        ))
    return events


def import_events(path) -> list[TapRecord]:
    with open(path, "rb") as fh:  # a \r is refused, not read as a line end
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = raw.count(b"\n", 0, exc.start) + 1
        raise SchemaError(f"line {lineno}: not UTF-8 text") from None
    del raw  # only the text is parsed: the bytes are not held beside it
    return import_events_text(text)


def kpi_counts_csv(counts: dict[str, int]) -> str:
    """The `entity,packets` CSV of `counts`, one row per entity by name."""
    return "entity,packets\n" + "".join(f"{name},{counts[name]}\n" for name in sorted(counts))


def write_kpi_counts_csv(path, counts: dict[str, int]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(kpi_counts_csv(counts))


def write_throughput_csv(path, matrix: dict[tuple[str, str], float]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("src,dst,bytes_per_s\n")
        for src, dst in sorted(matrix):
            fh.write(f"{src},{dst},{matrix[(src, dst)]:.6f}\n")


# -- the embedded analytics function ------------------------------------------------


class Nwdaf(NfEntity):
    """Analytics function: registers with the NRF and reads the fabric's log."""

    kind = "NWDAF"

    def __init__(self, name, ip, net, params):
        super().__init__(name, ip, net, params)
        self.store = EventStore(net.events)
