"""Deterministic discrete-event network fabric.

A Network owns a virtual millisecond clock, a set of point-to-point links,
the entities attached to them, and the run's event log: every send and every
entity-local decision appends one TapRecord to ``Network.events``, which the
analytics function, the invariants and the exporter all read. Everything is
single-threaded: one event queue, ties broken FIFO, so a (topology, scenario,
seed) triple fully determines every delivery.

A send names its sender; the receiver is the link's other end, and the
fabric hands it the sender's name with the packet. That name is the only
identity a receiver learns: no packet address names a peer. Only the attrs a
caller passes are scrubbed of the log's separators: the envelope's addresses
are dotted quads and its ports are numbers.

Loss is drawn from counter-based substreams keyed by (seed, link id, stream,
draw index). Streams separate tunnels sharing a physical link, so adding a
link or a tunnel never perturbs the draws of another.
"""
from __future__ import annotations

import hashlib
import heapq
import logging
from dataclasses import dataclass
from typing import Callable, Iterable

from .errors import FivegsimError
from .wirefmt import Protocol, SimPacket

log = logging.getLogger(__name__)

DELIVERED = "DELIVERED"
DROPPED = "DROPPED"
ELIMINATED_DUPLICATE = "ELIMINATED_DUPLICATE"

OUTCOMES = (DELIVERED, DROPPED, ELIMINATED_DUPLICATE)

# Caller attr values can carry text from parsed peer messages; the log format
# reserves tabs and newlines as separators and ',' between attrs.
_SCRUB = str.maketrans({"\t": " ", "\n": " ", "\r": " ", ",": ";"})


class SimNetError(FivegsimError):
    """Fabric-level contract violation (bad link, bad time, bad endpoint)."""


@dataclass(frozen=True)
class EntityAddr:
    """Identity of one attachable node: roster name, kind, IPv4 address."""

    name: str
    kind: str
    ip: str


@dataclass(frozen=True)
class Link:
    """Point-to-point link. A reliable link never drops or reorders."""

    link_id: str
    a: EntityAddr
    b: EntityAddr
    latency_ms: int
    loss_prob: float
    reliable: bool = False

    def __post_init__(self) -> None:
        if self.latency_ms < 0:
            raise SimNetError(f"link {self.link_id}: negative latency")
        if not 0.0 <= self.loss_prob <= 1.0:
            raise SimNetError(f"link {self.link_id}: loss_prob {self.loss_prob} outside [0, 1]")
        if self.a.name == self.b.name:
            raise SimNetError(f"link {self.link_id}: endpoints must differ")

    def peer_of(self, name: str) -> EntityAddr:
        if name == self.a.name:
            return self.b
        if name == self.b.name:
            return self.a
        raise SimNetError(f"{name} is not an endpoint of link {self.link_id}")


@dataclass(slots=True)
class TapRecord:
    """One row of the event log: a send or an entity-local decision.

    Ids number the rows of one log from 1. Local decisions carry the
    synthetic link id ``local:<entity>``.
    """

    event_id: int
    ts: int
    link_id: str
    src: str
    dst: str
    protocol: Protocol
    size: int
    outcome: str
    attrs: dict[str, str]

    @property
    def is_wire(self) -> bool:
        return not self.link_id.startswith("local:")


class SimClock:
    """Virtual clock plus time-ordered queue with stable FIFO tie-breaking."""

    def __init__(self) -> None:
        self.now: int = 0
        self._heap: list[tuple[int, int, Callable[[], None]]] = []
        self._seq = 0

    def schedule(self, at: int, fn: Callable[[], None]) -> None:
        if at < self.now:
            raise SimNetError(f"cannot schedule at {at}, clock is already at {self.now}")
        self._seq += 1
        heapq.heappush(self._heap, (at, self._seq, fn))

    def run_until(self, t_end: int) -> int:
        """Process every queued event with time <= t_end; clock lands on t_end."""
        if t_end < self.now:
            raise SimNetError(f"run_until({t_end}) would move the clock backwards from {self.now}")
        processed = 0
        while self._heap and self._heap[0][0] <= t_end:
            at, _, fn = heapq.heappop(self._heap)
            self.now = at
            fn()
            processed += 1
        self.now = t_end
        return processed

    @property
    def pending(self) -> int:
        return len(self._heap)


class Entity:
    """Base class for anything that terminates packets."""

    kind = "NODE"

    def __init__(self, name: str, ip: str, net: "Network"):
        self.name = name
        self.ip = ip
        self.net = net

    @property
    def addr(self) -> EntityAddr:
        return EntityAddr(name=self.name, kind=self.kind, ip=self.ip)

    def handle_packet(self, pkt: SimPacket, sender: str) -> None:
        """Take a packet that `sender`, the other end of a link, put on it."""
        raise NotImplementedError


def _derive_u01(seed: int, link_id: str, stream: int, counter: int) -> float:
    digest = hashlib.sha256(f"{seed}|{link_id}|{stream}|{counter}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


class Network:
    """The fabric: clock, links, entities, event log, seeded loss."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.clock = SimClock()
        self.links: dict[str, Link] = {}
        self._pairs: dict[frozenset[str], Link] = {}
        self.entities: dict[str, Entity] = {}
        self.by_ip: dict[str, Entity] = {}
        self.events: list[TapRecord] = []
        self._loss_counters: dict[tuple[str, int], int] = {}
        self.link_stats: dict[str, list[int]] = {}  # link_id -> [delivered, dropped]

    @property
    def now(self) -> int:
        return self.clock.now

    # topology -----------------------------------------------------------

    def add_entity(self, entity: Entity) -> Entity:
        if entity.name in self.entities:
            raise SimNetError(f"duplicate entity name {entity.name}")
        if entity.ip in self.by_ip:
            raise SimNetError(f"duplicate entity address {entity.ip}")
        self.entities[entity.name] = entity
        self.by_ip[entity.ip] = entity
        return entity

    def entity(self, name: str) -> Entity:
        try:
            return self.entities[name]
        except KeyError:
            raise SimNetError(f"unknown entity {name}") from None

    def add_link(
        self,
        a: str,
        b: str,
        latency_ms: int,
        loss_prob: float = 0.0,
        reliable: bool = False,
        link_id: str | None = None,
    ) -> Link:
        ea, eb = self.entity(a).addr, self.entity(b).addr
        link = Link(
            link_id=link_id or f"{a}--{b}",
            a=ea,
            b=eb,
            latency_ms=latency_ms,
            loss_prob=loss_prob,
            reliable=reliable,
        )
        if link.link_id in self.links:
            raise SimNetError(f"duplicate link id {link.link_id}")
        key = frozenset((a, b))
        if key in self._pairs:
            raise SimNetError(f"a link between {a} and {b} already exists")
        self.links[link.link_id] = link
        self._pairs[key] = link
        self.link_stats[link.link_id] = [0, 0]
        return link

    def link_between(self, a: str, b: str) -> Link | None:
        return self._pairs.get(frozenset((a, b)))

    def require_link(self, a: str, b: str) -> Link:
        link = self.link_between(a, b)
        if link is None:
            raise SimNetError(f"no link between {a} and {b}")
        return link

    # event log ------------------------------------------------------------

    def _log(
        self, link_id: str, src: str, dst: str, protocol: Protocol, size: int, outcome: str,
        attrs: dict[str, str],
    ) -> None:
        """Append one row; `attrs` is the row's own dict, already scrubbed."""
        events = self.events
        events.append(
            TapRecord(len(events) + 1, self.clock.now, link_id, src, dst, protocol, size, outcome, attrs)
        )

    # traffic ------------------------------------------------------------

    def send(
        self,
        link: Link | str,
        sender: str,
        pkt: SimPacket,
        stream: int = 0,
        attrs: dict[str, str] | None = None,
    ) -> bool:
        """Offer one packet from `sender` to the other end of a link. Returns
        True when delivery is scheduled.

        Every send is logged exactly once, with outcome DELIVERED or DROPPED.
        """
        if isinstance(link, str):
            try:
                link = self.links[link]
            except KeyError:
                raise SimNetError(f"unknown link {link}") from None
        receiver = link.peer_of(sender).name

        delivered = True
        if not link.reliable and link.loss_prob > 0.0:
            key = (link.link_id, stream)
            n = self._loss_counters.get(key, 0) + 1
            self._loss_counters[key] = n
            delivered = _derive_u01(self.seed, link.link_id, stream, n) >= link.loss_prob

        record_attrs = {
            "src_ip": pkt.src_ip,
            "dst_ip": pkt.dst_ip,
            "src_port": str(pkt.src_port),
            "dst_port": str(pkt.dst_port),
        }
        if attrs:
            for key, value in attrs.items():
                record_attrs[key] = value.translate(_SCRUB)
        self._log(
            link.link_id, sender, receiver, pkt.protocol, pkt.wire_size,
            DELIVERED if delivered else DROPPED, record_attrs,
        )
        self.link_stats[link.link_id][0 if delivered else 1] += 1
        if delivered:
            target = self.entities[receiver]
            self.clock.schedule(self.now + link.latency_ms, lambda: target.handle_packet(pkt, sender))
        return delivered

    def tap_local(
        self,
        entity: str,
        pkt_or_size: SimPacket | int,
        protocol: Protocol,
        outcome: str,
        src: str,
        attrs: dict[str, str] | None = None,
    ) -> None:
        """Record an entity-local decision (drop, duplicate elimination).

        Uses a synthetic link id so wire-level per-link conservation stays
        exact.
        """
        size = pkt_or_size.wire_size if isinstance(pkt_or_size, SimPacket) else pkt_or_size
        scrubbed = {key: value.translate(_SCRUB) for key, value in attrs.items()} if attrs else {}
        self._log(f"local:{entity}", src, entity, protocol, size, outcome, scrubbed)

    # time ---------------------------------------------------------------

    def schedule(self, at: int, fn: Callable[[], None]) -> None:
        self.clock.schedule(at, fn)

    def schedule_in(self, delay: int, fn: Callable[[], None]) -> None:
        self.clock.schedule(self.now + delay, fn)

    def run_until(self, t_end: int) -> int:
        return self.clock.run_until(t_end)


def conservation_report(net: Network, records: Iterable[TapRecord]) -> dict[str, tuple[int, int, int]]:
    """Per-link (sends, delivered, dropped) recomputed from logged records.

    Only wire links count; synthetic local records are excluded by key.
    """
    seen: dict[str, list[int]] = {lid: [0, 0] for lid in net.links}
    for r in records:
        if r.link_id in seen and r.outcome in (DELIVERED, DROPPED):
            seen[r.link_id][0 if r.outcome == DELIVERED else 1] += 1
    return {
        lid: (delivered + dropped, delivered, dropped)
        for lid, (delivered, dropped) in seen.items()
    }
