"""Fabric tests: clock discipline, delivery, seeded loss, and the built-in
invariants over the fabric's log."""
import hashlib
import heapq
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fivegsim.simnet import (
    _SCRUB,
    DELIVERED,
    DROPPED,
    ELIMINATED_DUPLICATE,
    Entity,
    Network,
    SimClock,
    SimNetError,
    TapRecord,
    scrub,
)
from fivegsim import runner
from fivegsim.config import default_topology
from fivegsim.runner import Testbed
from fivegsim.urllc import Redundancy
from fivegsim.wirefmt import Protocol, SimPacket


class Sink(Entity):
    """Records every delivered packet with its arrival time and sender."""

    kind = "NODE"

    def __init__(self, name, ip, net):
        super().__init__(name, ip, net)
        self.inbox = []

    def handle_packet(self, pkt, sender):
        self.inbox.append((self.net.now, pkt, sender))


def make_pair(seed=0, latency=3, loss=0.0, reliable=False):
    """A network of two sinks and the A -> B hop of the link between them."""
    net = Network(seed=seed)
    a = net.add_entity(Sink("A", "10.0.0.1", net))
    b = net.add_entity(Sink("B", "10.0.0.2", net))
    link = net.add_link("A", "B", latency, loss, reliable)
    return net, a, b, link


def pkt_ab(payload=b""):
    return SimPacket(Protocol.APP, "10.0.0.1", "10.0.0.2", 80, 80, payload)


# -- clock ---------------------------------------------------------------------

def test_clock_orders_by_time():
    clock = SimClock()
    seen = []
    clock.schedule(5, lambda: seen.append("late"))
    clock.schedule(1, lambda: seen.append("early"))
    clock.run_until(10)
    assert seen == ["early", "late"]
    assert clock.now == 10


def test_clock_breaks_ties_fifo():
    clock = SimClock()
    seen = []
    for i in range(5):
        clock.schedule(7, lambda i=i: seen.append(i))
    clock.run_until(7)
    assert seen == [0, 1, 2, 3, 4]


def test_clock_rejects_scheduling_in_the_past():
    clock = SimClock()
    clock.run_until(10)
    with pytest.raises(SimNetError):
        clock.schedule(9, lambda: None)


def test_clock_rejects_running_backwards():
    clock = SimClock()
    clock.run_until(10)
    with pytest.raises(SimNetError):
        clock.run_until(5)


def test_events_scheduled_during_run_still_fire():
    clock = SimClock()
    seen = []
    clock.schedule(1, lambda: clock.schedule(2, lambda: seen.append("chained")))
    clock.run_until(5)
    assert seen == ["chained"]


@pytest.mark.parametrize("at", [1.5, 2.0, "3", None, True])
def test_clock_refuses_a_time_that_is_not_an_int(at):
    clock = SimClock()
    with pytest.raises(SimNetError, match=f"cannot schedule at {at!r}"):
        clock.schedule(at, lambda: None)
    assert clock.run_until(10) == 0


class HeapClock:
    """The reference clock: one heap of (at, seq, fn), ties broken by seq."""

    def __init__(self):
        self.now = 0
        self._heap = []
        self._seq = 0

    def schedule(self, at, fn):
        assert at >= self.now
        self._seq += 1
        heapq.heappush(self._heap, (at, self._seq, fn))

    def run_until(self, t_end):
        processed = 0
        while self._heap and self._heap[0][0] <= t_end:
            at, _, fn = heapq.heappop(self._heap)
            self.now = at
            fn()
            processed += 1
        self.now = t_end
        return processed


class Boom(Exception):
    pass


def play(clock, ops, children, raiser):
    """Run a clock program; returns what an observer of the clock sees.

    `ops` are ("schedule", delay) and ("run", advance) steps. Callback k, in
    the order callbacks are scheduled, schedules one child per delay in
    children[k % len(children)] while fewer than 80 exist, and callback
    `raiser` raises."""
    seen, made = [], [0]

    def make():
        k = made[0]
        made[0] += 1

        def fn():
            seen.append((k, clock.now))
            for delay in children[k % len(children)]:
                if made[0] < 80:
                    clock.schedule(clock.now + delay, make())
            if k == raiser:
                raise Boom

        return fn

    for op, n in ops:
        if op == "schedule":
            clock.schedule(clock.now + n, make())
        else:
            try:
                seen.append(("processed", clock.run_until(clock.now + n)))
            except Boom:
                seen.append("raised")
        seen.append(("now", clock.now))
    return seen


@given(
    ops=st.lists(st.tuples(st.sampled_from(["schedule", "run"]), st.integers(0, 6)), max_size=40),
    children=st.lists(st.lists(st.integers(0, 4), max_size=3), min_size=1, max_size=8),
    raiser=st.integers(0, 90),
)
def test_clock_dispatches_as_the_heap_model(ops, children, raiser):
    """Dispatch order, each processed count and the time after every step
    equal the (at, seq) heap's, with callbacks scheduling at now or later and
    one callback raising."""
    assert play(SimClock(), ops, children, raiser) == play(HeapClock(), ops, children, raiser)


def test_a_raising_callback_is_consumed_and_its_bucket_keeps_its_order():
    clock, seen = SimClock(), []

    def boom():
        clock.schedule(clock.now, lambda: seen.append("same ms, scheduled later"))
        raise Boom

    clock.schedule(4, lambda: seen.append("first"))
    clock.schedule(4, boom)
    clock.schedule(4, lambda: seen.append("after the raise"))
    with pytest.raises(Boom):
        clock.run_until(9)
    assert (seen, clock.now) == (["first"], 4)
    assert clock.run_until(9) == 2
    assert seen == ["first", "after the raise", "same ms, scheduled later"]


# -- topology guards -------------------------------------------------------------

def test_duplicate_entity_name_rejected():
    net = Network()
    net.add_entity(Sink("A", "10.0.0.1", net))
    with pytest.raises(SimNetError, match="duplicate entity name"):
        net.add_entity(Sink("A", "10.0.0.9", net))


def test_duplicate_entity_ip_rejected():
    net = Network()
    net.add_entity(Sink("A", "10.0.0.1", net))
    with pytest.raises(SimNetError, match="duplicate entity address"):
        net.add_entity(Sink("B", "10.0.0.1", net))


def test_duplicate_link_rejected():
    net, *_ = make_pair()
    with pytest.raises(SimNetError, match="already exists"):
        net.add_link("B", "A", 1)


def test_bad_link_parameters_rejected():
    net, *_ = make_pair()
    net.add_entity(Sink("C", "10.0.0.3", net))
    with pytest.raises(SimNetError, match="negative latency"):
        net.add_link("A", "C", -1)
    with pytest.raises(SimNetError, match="loss_prob"):
        net.add_link("C", "B", 1, loss_prob=1.5)


@pytest.mark.parametrize(
    "a,b,kwargs,message",
    [
        ("A", "C", {"latency_ms": -1}, r"^link A--C: negative latency$"),
        ("A", "C", {"latency_ms": 1, "loss_prob": -0.1}, r"^link A--C: loss_prob -0\.1 outside \[0, 1\]$"),
        ("C", "C", {"latency_ms": 1}, r"^link C--C: endpoints must differ$"),
        ("A", "B", {"latency_ms": 1}, r"^duplicate link id A--B$"),
        ("B", "A", {"latency_ms": 1}, r"^a link between B and A already exists$"),
    ],
)
def test_a_refused_link_leaves_no_hop(a, b, kwargs, message):
    net, *_ = make_pair()
    net.add_entity(Sink("C", "10.0.0.3", net))
    hops, stats = dict(net.hops), dict(net.link_stats)
    with pytest.raises(SimNetError, match=message):
        net.add_link(a, b, **kwargs)
    assert net.hops == hops and net.link_stats == stats


def test_unknown_entity_or_link_raises():
    net, *_ = make_pair()
    with pytest.raises(SimNetError, match="unknown entity"):
        net.entity("ghost")
    with pytest.raises(SimNetError, match="no link"):
        net.hop("A", "ghost")
    with pytest.raises(SimNetError, match="no link"):
        net.hop("ghost", "A")


# -- delivery ---------------------------------------------------------------------

def test_delivery_honors_latency():
    net, a, b, link = make_pair(latency=3)
    net.send(net.hop("A", "B"), pkt_ab(b"hi"))
    net.run_until(2)
    assert b.inbox == []
    net.run_until(3)
    assert len(b.inbox) == 1
    assert b.inbox[0][0] == 3


def test_named_sender_and_its_peer_are_logged():
    net, a, b, link = make_pair()
    # reply travels B -> A over the same link object
    net.send(net.hop("B", "A"), SimPacket(Protocol.APP, "10.0.0.2", "10.0.0.1", 80, 80))
    net.run_until(10)
    assert len(a.inbox) == 1 and b.inbox == []
    [row] = net.events
    assert (row.src, row.dst) == ("B", "A")


def test_downlink_to_a_session_address_reaches_the_other_end():
    # neither address of the packet needs to be an endpoint's
    net, a, b, link = make_pair()
    net.send(net.hop("A", "B"), SimPacket(Protocol.APP, "172.99.0.4", "172.99.0.5", 80, 80))
    net.run_until(10)
    assert len(b.inbox) == 1 and a.inbox == []
    assert (net.events[0].src, net.events[0].dst) == ("A", "B")


def test_receiver_learns_the_sender_from_the_link_not_the_packet():
    # A claims B's address as its source; B is still handed "A"
    net, a, b, link = make_pair()
    net.send(net.hop("A", "B"), SimPacket(Protocol.APP, "10.0.0.2", "10.0.0.2", 80, 80))
    net.run_until(10)
    assert [sender for _, _, sender in b.inbox] == ["A"]


def test_unlinked_pair_has_no_hop():
    net, _, _, link = make_pair()
    net.add_entity(Sink("C", "10.0.0.3", net))
    assert ("C", "B") not in net.hops and ("B", "C") not in net.hops
    with pytest.raises(SimNetError, match="no link between C and B"):
        net.hop("C", "B")
    assert net.events == [] and net.link_stats[link.link_id] == [0, 0]


def test_a_link_is_two_hops_sharing_its_stats():
    net, a, b, ab = make_pair(latency=3, loss=0.2)
    ba = net.hop("B", "A")
    assert ab is net.hop("A", "B")
    assert (ab.link_id, ab.sender, ab.receiver, ab.target, ab.dst_ip) == ("A--B", "A", "B", b, "10.0.0.2")
    assert (ba.link_id, ba.sender, ba.receiver, ba.target, ba.dst_ip) == ("A--B", "B", "A", a, "10.0.0.1")
    assert ab.stats is ba.stats is net.link_stats["A--B"]
    for hop in (ab, ba):
        assert (hop.latency_ms, hop.loss_prob, hop.reliable, hop.lossy) == (3, 0.2, False, True)
    reliable = make_pair(loss=0.2, reliable=True)[3]
    assert (reliable.reliable, reliable.lossy) == (True, False)


def test_every_send_is_tapped_once():
    net, a, b, link = make_pair()
    records = net.events
    for _ in range(4):
        net.send(net.hop("A", "B"), pkt_ab())
    assert len(records) == 4
    assert all(r.outcome == DELIVERED for r in records)
    assert all(r.src == "A" and r.dst == "B" for r in records)
    assert all(r.attrs["src_port"] == "80" for r in records)


def test_log_numbers_events_from_one():
    net, a, b, link = make_pair()
    net.send(net.hop("A", "B"), pkt_ab())
    net.tap_local("B", 1, Protocol.APP, DROPPED, src="A")
    net.send(net.hop("A", "B"), pkt_ab())
    assert [r.event_id for r in net.events] == [1, 2, 3]
    assert [r.is_wire for r in net.events] == [True, False, True]


# the log's separators, the eight other line breaks, then any character
_SEPARATORS = st.sampled_from("\t\n\r," + "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029")


@given(st.text(st.one_of(_SEPARATORS, st.characters())))
def test_scrub_equals_the_full_translate(value):
    assert scrub(value) == value.translate(_SCRUB)


def test_scrub_keeps_a_clean_value_itself():
    value = "".join(["imsi-", "001"])
    assert scrub(value) is value


def test_tap_local_uses_synthetic_link():
    net, a, b, link = make_pair()
    records = net.events
    net.tap_local("B", 42, Protocol.GTPU, DROPPED, src="A", attrs={"reason": "x"})
    assert records[0].link_id == "local:B"
    assert records[0].size == 42
    assert records[0].link_id not in net.link_stats
    net.tap_local("B", 1, Protocol.GTPU, DROPPED, src="A")
    assert records[1].link_id is records[0].link_id


# -- loss -------------------------------------------------------------------------

def test_reliable_link_never_drops():
    net, a, b, link = make_pair(loss=0.9, reliable=True)
    results = [net.send(net.hop("A", "B"), pkt_ab()) for _ in range(500)]
    assert all(results)


def test_loss_rate_within_three_sigma():
    # p=0.1 over 10,000 draws: expect 9,000 +- 90 deliveries
    net, a, b, link = make_pair(loss=0.1)
    delivered = sum(net.send(net.hop("A", "B"), pkt_ab()) for _ in range(10_000))
    assert abs(delivered - 9_000) <= 90


def test_loss_is_seed_deterministic():
    def pattern(seed):
        net, a, b, link = make_pair(seed=seed, loss=0.3)
        return [net.send(net.hop("A", "B"), pkt_ab()) for _ in range(200)]

    assert pattern(5) == pattern(5)
    assert pattern(5) != pattern(6)


def test_loss_streams_are_independent():
    """Draws on one stream never shift another stream's sequence."""
    def stream2_pattern(with_stream1_noise):
        net, a, b, link = make_pair(seed=9, loss=0.5)
        out = []
        for i in range(100):
            if with_stream1_noise:
                net.send(net.hop("A", "B"), pkt_ab(), stream=1)
            out.append(net.send(net.hop("A", "B"), pkt_ab(), stream=2))
        return out

    assert stream2_pattern(False) == stream2_pattern(True)


def reference_u01(seed, link_id, stream, counter):
    digest = hashlib.sha256(f"{seed}|{link_id}|{stream}|{counter}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


_NAMES = st.text(st.sampled_from("ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_"), min_size=1, max_size=8)


@given(
    seed=st.integers(0, 2**64),
    names=st.lists(_NAMES, min_size=2, max_size=2, unique=True),
    stream=st.integers(0, 2**32 - 1),
    start=st.integers(0, 10**9),
    above=st.lists(st.booleans(), min_size=1, max_size=6),
)
def test_each_loss_draw_equals_the_one_shot_hash(seed, names, stream, start, above):
    """Draw n of a stream is the reference hash of (seed, link id, stream,
    n): a loss probability of exactly that value delivers, the next float
    above it drops."""
    net = Network(seed=seed)
    a, b = (net.add_entity(Sink(name, f"10.0.0.{i}", net)) for i, name in enumerate(names, 1))
    hop = net.add_link(a.name, b.name, 1, loss_prob=0.5)
    net._loss_counters[(hop.link_id, stream)] = start
    for n, drop in enumerate(above, start + 1):
        u = reference_u01(seed, hop.link_id, stream, n)
        hop.loss_prob = math.nextafter(u, 1.0) if drop else u
        assert net.send(hop, pkt_ab(), stream) is not drop
    assert net._loss_counters[(hop.link_id, stream)] == start + len(above)


def test_loss_draws_count_every_row_on_a_lossy_link(monkeypatch):
    built = []

    class Recorded(Testbed):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(runner, "Testbed", Recorded)
    runner.run_reliability_measurement(Redundancy.PSA_ANCHOR, 0.1, 300, seed=3)
    [tb] = built
    net = tb.net
    lossy = {hop.link_id for hop in net.hops.values() if hop.lossy}
    rows = sum(1 for r in net.events if r.link_id in lossy)
    assert lossy and rows > 300
    assert sum(net._loss_counters.values()) == rows


def test_dropped_packets_never_arrive():
    net, a, b, link = make_pair(seed=1, loss=0.5)
    records = net.events
    sent = 100
    for _ in range(sent):
        net.send(net.hop("A", "B"), pkt_ab())
    net.run_until(100)
    delivered = sum(1 for r in records if r.outcome == DELIVERED)
    dropped = sum(1 for r in records if r.outcome == DROPPED)
    assert delivered + dropped == sent
    assert len(b.inbox) == delivered
    assert 0 < dropped < sent


# -- the built-in invariants ------------------------------------------------------
# a fault planted in a default testbed (seed 1, booted, run to 200 ms), and the
# exact problems Testbed.invariant_violations(200) then reports

def _booted(until):
    """A booted default testbed, seed 1, run to `until`."""
    tb = Testbed(default_topology(), seed=1)
    tb.boot()
    tb.run_until(until)
    return tb


def _relabel_first(outcome):
    def plant(tb):
        row = next(r for r in tb.records if r.link_id == "AMF--NRF" and r.outcome == DELIVERED)
        row.outcome = outcome
    return plant


def _shift_sixth_row(tb):
    tb.records[5].ts = 150


def _append_delivered(link_id):
    def plant(tb):
        tb.records.append(TapRecord(
            len(tb.records) + 1, 200, link_id, "A", "B", Protocol.SBI, 10, DELIVERED, {},
        ))
    return plant


def _count_one_more_delivery(tb):
    tb.net.link_stats["AMF--NRF"][0] += 1


def _drop_first_with_its_stats(tb):
    _relabel_first(DROPPED)(tb)
    stats = tb.net.link_stats["AMF--NRF"]
    stats[0] -= 1
    stats[1] += 1


CONSERVATION = ["conservation broken on AMF--NRF"]
SRC_OR_DST = "src_or_dst accounting does not credit exactly two ends per packet"


@pytest.mark.parametrize("plant, problems", [
    pytest.param(_count_one_more_delivery, CONSERVATION, id="link-stats-one-more-delivery"),
    pytest.param(_relabel_first(DROPPED), CONSERVATION, id="delivered-row-relabelled-dropped"),
    pytest.param(_relabel_first(ELIMINATED_DUPLICATE), CONSERVATION,
                 id="wire-row-relabelled-eliminated"),
    # the log and the link's stats agree on the drop
    pytest.param(_drop_first_with_its_stats, [], id="delivered-row-and-its-stats-dropped"),
    pytest.param(_shift_sixth_row, ["event timestamp 0 outside causal order"],
                 id="sixth-row-at-150"),
    # rows off the fabric's links: the recount has no link to credit them to
    pytest.param(_append_delivered("local:X"), [], id="delivered-local-row"),
    pytest.param(_append_delivered("ghost--link"), [], id="delivered-row-on-no-link"),
])
def test_each_planted_fault_gives_its_exact_problems(plant, problems):
    tb = _booted(200)
    plant(tb)
    assert tb.invariant_violations(200) == problems


def test_rows_past_the_horizon_break_causal_order_and_the_src_or_dst_count():
    tb = _booted(4000)
    assert tb.invariant_violations(3000) == ["event timestamp 3333 outside causal order", SRC_OR_DST]


def test_a_src_or_dst_count_one_credit_short_is_reported_alone(monkeypatch):
    tb = _booted(200)
    counts = runner.kpi_packet_counts

    def one_short(*args, **kwargs):
        both = counts(*args, **kwargs)
        both[next(iter(both))] -= 1
        return both
    monkeypatch.setattr(runner, "kpi_packet_counts", one_short)
    assert tb.invariant_violations(200) == [SRC_OR_DST]
