"""Embedded analytics: KPI synthesis, log round-tripping, periodic feeds.

The analytics function reads the fabric's own event log (management plane,
not packets); the fabric built every row, so the live path checks nothing.
KPIs are synthesised over half-open time windows; logs export to a
line-oriented TSV that re-imports byte-identically. Import is the one
untrusted boundary, and the only place rows are checked against the schema.
"""
from __future__ import annotations

import io
from dataclasses import dataclass

from .core_cp import NfEntity
from .errors import FivegsimError, SetupError
from .messages import MsgKind
from .simnet import DELIVERED, OUTCOMES, TapRecord
from .wirefmt import Protocol

SEMANTICS = ("src_only", "src_or_dst")

_FORBIDDEN = ("\t", "\n", "\r")

_PROTOCOLS = Protocol.__members__  # exported name -> member


class SchemaError(FivegsimError):
    """An event failed schema validation."""


def _check_token(label: str, value: str) -> None:
    if not isinstance(value, str) or not value:
        raise SchemaError(f"{label} must be a non-empty string")
    if any(ch in value for ch in _FORBIDDEN):
        raise SchemaError(f"{label} contains forbidden whitespace")


def validate_event_fields(
    ts: int, link_id: str, src: str, dst: str, protocol: str, size: int, outcome: str,
    attrs: dict[str, str],
) -> None:
    """Raise SchemaError if any field of an imported row violates the schema."""
    if not isinstance(ts, int) or isinstance(ts, bool) or ts < 0:
        raise SchemaError(f"ts must be a non-negative integer, got {ts!r}")
    _check_token("link_id", link_id)
    _check_token("src", src)
    _check_token("dst", dst)
    if protocol not in _PROTOCOLS:
        raise SchemaError(f"unknown protocol {protocol!r}")
    if not isinstance(size, int) or isinstance(size, bool) or size < 0:
        raise SchemaError(f"size must be a non-negative integer, got {size!r}")
    if outcome not in OUTCOMES:
        raise SchemaError(f"unknown outcome {outcome!r}")
    if not isinstance(attrs, dict):
        raise SchemaError("attrs must be a mapping")
    for key, value in attrs.items():
        _check_token("attr key", key)
        if "=" in key or "," in key:
            raise SchemaError(f"attr key {key!r} contains a reserved character")
        if not isinstance(value, str):
            raise SchemaError(f"attr {key} has a non-string value")
        if any(ch in value for ch in _FORBIDDEN) or "," in value:
            raise SchemaError(f"attr {key} value contains a reserved character")


@dataclass
class EventStore:
    """The analytics function's view of the run's event log.

    ``events`` is the fabric's own list; nothing on the live path is ever
    rejected, so ``rejected`` stays 0.
    """

    events: list[TapRecord]
    rejected: int = 0


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
    counts: dict[str, int] = {name: 0 for name in entities} if entities is not None else {}
    restrict = entities is not None
    for ev in events:
        if ev.outcome != DELIVERED or not (t0 <= ev.ts < t1) or not ev.is_wire:
            continue
        names = (ev.src,) if semantics == "src_only" else (ev.src, ev.dst)
        for name in names:
            if restrict:
                if name in counts:
                    counts[name] += 1
            else:
                counts[name] = counts.get(name, 0) + 1
    return counts


def kpi_throughput_matrix(events, t0: int, t1: int) -> dict[tuple[str, str], float]:
    """Bytes per second between directed entity pairs over [t0, t1)."""
    if t1 <= t0:
        raise ValueError(f"bad window [{t0}, {t1})")
    total: dict[tuple[str, str], int] = {}
    for ev in events:
        if ev.outcome != DELIVERED or not (t0 <= ev.ts < t1) or not ev.is_wire:
            continue
        key = (ev.src, ev.dst)
        total[key] = total.get(key, 0) + ev.size
    seconds = (t1 - t0) / 1000.0
    return {key: size / seconds for key, size in total.items()}


@dataclass(frozen=True)
class KpiReport:
    """A finished KPI window, ready for notification or export."""

    kind: str
    window: tuple[int, int]
    entries: tuple[tuple[str, int], ...]

    @property
    def total(self) -> int:
        return sum(v for _, v in self.entries)


# -- log round-tripping ----------------------------------------------------------

_HEADER = "# id\tts\tlink_id\tsrc\tdst\tprotocol\tsize\toutcome\tattrs\n"


def _attrs_text(attrs: dict[str, str]) -> str:
    if not attrs:
        return "-"
    return ",".join(f"{k}={attrs[k]}" for k in sorted(attrs))


def export_events_text(events) -> str:
    out = io.StringIO()
    out.write(_HEADER)
    for ev in events:
        out.write(
            f"{ev.event_id}\t{ev.ts}\t{ev.link_id}\t{ev.src}\t{ev.dst}"
            f"\t{ev.protocol.name}\t{ev.size}\t{ev.outcome}\t{_attrs_text(ev.attrs)}\n"
        )
    return out.getvalue()


def export_events(events, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(export_events_text(events))


def import_events_text(text: str) -> list[TapRecord]:
    """Parse an exported log, checking every row against the schema.

    Ids must strictly increase and timestamps must never go backwards.
    """
    events: list[TapRecord] = []
    last_id = 0
    last_ts = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line or line.startswith("#"):
            continue
        cols = line.split("\t")
        if len(cols) != 9:
            raise SchemaError(f"line {lineno}: expected 9 columns, got {len(cols)}")
        try:
            event_id, ts, size = int(cols[0]), int(cols[1]), int(cols[6])
        except ValueError:
            raise SchemaError(f"line {lineno}: non-integer id, ts or size") from None
        attrs: dict[str, str] = {}
        if cols[8] != "-":
            for pair in cols[8].split(","):
                key, sep, value = pair.partition("=")
                if not sep:
                    raise SchemaError(f"line {lineno}: malformed attr {pair!r}")
                attrs[key] = value
        validate_event_fields(ts, cols[2], cols[3], cols[4], cols[5], size, cols[7], attrs)
        if event_id <= last_id:
            raise SchemaError(f"line {lineno}: event id {event_id} not increasing")
        if ts < last_ts:
            raise SchemaError(f"line {lineno}: time went backwards")
        last_id, last_ts = event_id, ts
        events.append(
            TapRecord(
                event_id=event_id,
                ts=ts,
                link_id=cols[2],
                src=cols[3],
                dst=cols[4],
                protocol=_PROTOCOLS[cols[5]],
                size=size,
                outcome=cols[7],
                attrs=attrs,
            )
        )
    return events


def import_events(path) -> list[TapRecord]:
    with open(path, "r", encoding="utf-8") as fh:
        return import_events_text(fh.read())


def write_kpi_counts_csv(path, counts: dict[str, int]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("entity,packets\n")
        for name in sorted(counts):
            fh.write(f"{name},{counts[name]}\n")


def write_throughput_csv(path, matrix: dict[tuple[str, str], float]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("src,dst,bytes_per_s\n")
        for src, dst in sorted(matrix):
            fh.write(f"{src},{dst},{matrix[(src, dst)]:.6f}\n")


# -- the embedded analytics function ------------------------------------------------


class Nwdaf(NfEntity):
    """Analytics function: reads the fabric's log, serves periodic KPI feeds."""

    kind = "NWDAF"

    def __init__(self, name, ip, net, env):
        super().__init__(name, ip, net, env)
        self.store = EventStore(net.events)

    def subscribe_analytics(self, subscriber: str, kind: str = "packet_counts", period_ms: int = 1000) -> None:
        """Register a periodic KPI feed towards another NF.

        Requires this function to have completed its own registration; the
        feed starts one period from now.
        """
        if not self.registered:
            raise SetupError(f"{self.name}: analytics subscription before registration")
        if kind != "packet_counts":
            raise SetupError(f"{self.name}: unsupported analytics kind {kind!r}")
        if period_ms <= 0:
            raise SetupError(f"{self.name}: period must be positive")
        self.net.schedule_in(period_ms, lambda: self._notify_fire(subscriber, kind, period_ms))

    def report(self, kind: str, t0: int, t1: int) -> KpiReport:
        counts = kpi_packet_counts(self.store.events, t0, t1)
        return KpiReport(
            kind=kind, window=(t0, t1), entries=tuple(sorted(counts.items()))
        )

    def _notify_fire(self, subscriber: str, kind: str, period_ms: int) -> None:
        t1 = self.net.now
        rep = self.report(kind, max(0, t1 - period_ms), t1)
        self.send(
            subscriber,
            MsgKind.KPI_NOTIFY,
            kpi_kind=kind,
            window_t0=rep.window[0],
            window_t1=rep.window[1],
            packets=rep.total,
            data=";".join(f"{name}={count}" for name, count in rep.entries),
        )
        self.net.schedule_in(period_ms, lambda: self._notify_fire(subscriber, kind, period_ms))
