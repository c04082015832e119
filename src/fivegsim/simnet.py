"""Deterministic discrete-event network fabric.

A Network owns a virtual millisecond clock, a set of point-to-point links,
the entities attached to them, and the run's event log: every send and every
entity-local decision appends one TapRecord to ``Network.events``, which the
analytics function, the invariants and the exporter all read. Everything is
single-threaded, so a (topology, scenario, seed) triple fully determines
every delivery.

Virtual time counts whole milliseconds, so the clock is a calendar queue with
one bucket per millisecond: a dict from each pending time to the FIFO list
of its callbacks, plus a heap of the distinct pending times. Callbacks of one
millisecond run in the order they were scheduled, and one scheduled at the
current time from inside a callback runs after every callback already due
then. A time that is not an int is refused. A callback is a bound method of
the run's own objects or a functools.partial of one, never a closure or a
generator, so a settled testbed copies and pickles as a value.

A link is two Hops, one per direction, built once by `add_link`, which
returns the a -> b hop. Each holds the link's latency, loss probability and
reliability, and both share the link's [delivered, dropped] counters in
``link_stats``, which the runner's invariants recount from the log. A send
takes the hop `Network.hop(sender, peer)` resolved, and the hop holds
everything the send needs. The receiver is the hop's other end, and the
fabric hands it the sender's name with the packet. That name is the only
identity a receiver learns: no packet address names a peer. Only the attrs a
caller passes are scrubbed of the log's separators: the envelope's addresses
are dotted quads and its ports are numbers.

Rows share their strings: a port, TEID or sequence number is written from
the network's int -> text table, a local row reuses its entity's
``local:<entity>`` id, and an attr value is copied only when it holds a
separator.

Loss is drawn from counter-based substreams keyed by (seed, link id, stream,
draw index): draw n of a stream is the first 8 bytes of
SHA-256("<seed>|<link id>|<stream>|<n>") over 2**64. Each stream hashes its
prefix "<seed>|<link id>|<stream>|" once; a draw copies that state and feeds
in only the counter. Streams separate tunnels sharing a physical link, so
adding a link or a tunnel never perturbs the draws of another.
"""
from __future__ import annotations

import hashlib
import heapq
import logging
from collections.abc import Callable
from functools import partial

from .errors import FivegsimError
from .record import Record
from .wirefmt import Protocol, SimPacket

log = logging.getLogger(__name__)

DELIVERED = "DELIVERED"
DROPPED = "DROPPED"
ELIMINATED_DUPLICATE = "ELIMINATED_DUPLICATE"

OUTCOMES = (DELIVERED, DROPPED, ELIMINATED_DUPLICATE)

# Caller attr values can carry text from parsed peer messages; the log format
# reserves tabs and newlines as separators and ',' between attrs.
_SCRUB = str.maketrans({"\t": " ", "\n": " ", "\r": " ", ",": ";"})


def scrub(value: str) -> str:
    """`value` with the log's separators replaced; `value` itself when it
    holds none (isprintable() is False for a tab, \\n and \\r)."""
    return value if value.isprintable() and "," not in value else value.translate(_SCRUB)


class SimNetError(FivegsimError):
    """Fabric-level contract violation (bad link, bad time, bad endpoint)."""


class Hop(Record):
    """One direction of a link, resolved once by `Network.add_link`. A
    reliable link never drops or reorders. Compared by identity.

    `dst_ip` is the receiver's address, `lossy` whether a send draws for
    loss, and `stats` the link's [delivered, dropped], shared by both hops.
    """

    __slots__ = _fields = (
        "link_id", "sender", "receiver", "target", "dst_ip", "latency_ms", "loss_prob", "reliable", "lossy", "stats",
    )
    __eq__ = object.__eq__
    __hash__ = object.__hash__


class TapRecord(Record):
    """One row of the event log: a send or an entity-local decision.

    Ids number the rows of one log from 1. Local decisions carry the
    synthetic link id ``local:<entity>``.
    """

    __slots__ = _fields = ("event_id", "ts", "link_id", "src", "dst", "protocol", "size", "outcome", "attrs")

    @property
    def is_wire(self) -> bool:
        return not self.link_id.startswith("local:")


class SimClock:
    """Virtual millisecond clock over a calendar queue: one FIFO bucket of
    callbacks per pending time, and a heap of those times."""

    def __init__(self) -> None:
        self.now: int = 0
        self._buckets: dict[int, list[Callable[[], None]]] = {}
        self._times: list[int] = []  # heap of the keys of _buckets

    def schedule(self, at: int, fn: Callable[[], None]) -> None:
        if type(at) is not int:
            raise SimNetError(f"cannot schedule at {at!r}: virtual time is a whole number of ms")
        if at < self.now:
            raise SimNetError(f"cannot schedule at {at}, clock is already at {self.now}")
        bucket = self._buckets.get(at)
        if bucket is None:
            self._buckets[at] = [fn]
            heapq.heappush(self._times, at)
        else:
            bucket.append(fn)

    def run_until(self, t_end: int) -> int:
        """Process every queued event with time <= t_end; clock lands on t_end.

        A bucket leaves the queue before its callbacks run, so one scheduled
        for the current time from inside a callback opens a new bucket, run
        right after this one. A callback that raises is consumed; the rest
        of its bucket stays queued ahead of anything scheduled since."""
        if t_end < self.now:
            raise SimNetError(f"run_until({t_end}) would move the clock backwards from {self.now}")
        times, buckets = self._times, self._buckets
        processed = 0
        while times and times[0] <= t_end:
            at = heapq.heappop(times)
            bucket = buckets.pop(at)
            self.now = at
            start = processed
            try:
                for fn in bucket:
                    processed += 1
                    fn()
            except BaseException:
                rest = bucket[processed - start:]
                if rest:
                    later = buckets.get(at)
                    if later is None:
                        heapq.heappush(times, at)
                    buckets[at] = rest + later if later else rest
                raise
        self.now = t_end
        return processed


class Entity:
    """Base class for anything that terminates packets."""

    kind = "NODE"

    def __init__(self, name: str, ip: str, net: "Network"):
        self.name = name
        self.ip = ip
        self.net = net

    def handle_packet(self, pkt: SimPacket, sender: str) -> None:
        """Take a packet that `sender`, the other end of a link, put on it."""
        raise NotImplementedError


class _IntText(dict):
    """int -> its decimal text, each text made once, on first use."""

    def __missing__(self, n: int) -> str:
        text = self[n] = str(n)
        return text


class Network:
    """The fabric: clock, links, entities, event log, seeded loss."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.clock = SimClock()
        self.hops: dict[tuple[str, str], Hop] = {}  # (sender, receiver) -> Hop
        self.entities: dict[str, Entity] = {}
        self.by_ip: dict[str, Entity] = {}
        self.events: list[TapRecord] = []
        self._loss_counters: dict[tuple[str, int], int] = {}  # draws per (link id, stream)
        self._loss_prefixes: dict[tuple[str, int], hashlib._Hash] = {}  # hashed stream prefixes
        self.link_stats: dict[str, list[int]] = {}  # link_id -> [delivered, dropped]
        self.int_text: dict[int, str] = _IntText()   # ports, TEIDs, seqs of the rows
        self._local_ids: dict[str, str] = {}          # entity -> "local:<entity>"

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
    ) -> Hop:
        """Link `a` and `b` with one hop per direction, both counted under the
        link id `a--b`; returns the a -> b hop."""
        ea, eb = self.entity(a), self.entity(b)
        link_id = f"{a}--{b}"
        if latency_ms < 0:
            raise SimNetError(f"link {link_id}: negative latency")
        if not 0.0 <= loss_prob <= 1.0:
            raise SimNetError(f"link {link_id}: loss_prob {loss_prob} outside [0, 1]")
        if a == b:
            raise SimNetError(f"link {link_id}: endpoints must differ")
        if link_id in self.link_stats:
            raise SimNetError(f"duplicate link id {link_id}")
        if (a, b) in self.hops:
            raise SimNetError(f"a link between {a} and {b} already exists")
        stats = self.link_stats[link_id] = [0, 0]
        lossy = not reliable and loss_prob > 0.0
        for sender, receiver in ((ea, eb), (eb, ea)):
            self.hops[(sender.name, receiver.name)] = Hop(
                link_id, sender.name, receiver.name, receiver, receiver.ip,
                latency_ms, loss_prob, reliable, lossy, stats,
            )
        return self.hops[(a, b)]

    def hop(self, sender: str, peer: str) -> Hop:
        """The hop from `sender` to `peer`; an unlinked pair has none."""
        try:
            return self.hops[(sender, peer)]
        except KeyError:
            raise SimNetError(f"no link between {sender} and {peer}") from None

    # traffic ------------------------------------------------------------

    def send(
        self, hop: Hop, pkt: SimPacket, stream: int = 0, attrs: dict[str, str] | None = None,
    ) -> bool:
        """Offer one packet to the far end of `hop`. Returns True when
        delivery is scheduled.

        Every send is logged exactly once, with outcome DELIVERED or DROPPED.
        """
        delivered = True
        if hop.lossy:
            key = (hop.link_id, stream)
            n = self._loss_counters.get(key, 0) + 1
            self._loss_counters[key] = n
            prefix = self._loss_prefixes.get(key)
            if prefix is None:
                prefix = self._loss_prefixes[key] = hashlib.sha256(
                    f"{self.seed}|{hop.link_id}|{stream}|".encode()
                )
            draw = prefix.copy()
            draw.update(b"%d" % n)  # not int_text: counters grow without bound
            delivered = int.from_bytes(draw.digest()[:8], "big") / 2.0**64 >= hop.loss_prob

        int_text = self.int_text
        record_attrs = {
            "src_ip": pkt.src_ip,
            "dst_ip": pkt.dst_ip,
            "src_port": int_text[pkt.src_port],
            "dst_port": int_text[pkt.dst_port],
        }
        if attrs:
            for key, value in attrs.items():  # scrub(value), inlined: it runs per attr per packet
                record_attrs[key] = (
                    value if value.isprintable() and "," not in value else value.translate(_SCRUB)
                )
        sender = hop.sender
        events = self.events
        clock = self.clock
        events.append(TapRecord(
            len(events) + 1, clock.now, hop.link_id, sender, hop.receiver, pkt.protocol,
            pkt.wire_size, DELIVERED if delivered else DROPPED, record_attrs,
        ))
        hop.stats[0 if delivered else 1] += 1
        if delivered:
            clock.schedule(clock.now + hop.latency_ms, partial(hop.target.handle_packet, pkt, sender))
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
        scrubbed = {key: scrub(value) for key, value in attrs.items()} if attrs else {}
        link_id = self._local_ids.get(entity)
        if link_id is None:
            link_id = self._local_ids[entity] = f"local:{entity}"
        events = self.events
        events.append(TapRecord(
            len(events) + 1, self.clock.now, link_id, src, entity, protocol, size, outcome, scrubbed,
        ))

    # time ---------------------------------------------------------------

    def schedule(self, at: int, fn: Callable[[], None]) -> None:
        self.clock.schedule(at, fn)

    def run_until(self, t_end: int) -> int:
        return self.clock.run_until(t_end)
