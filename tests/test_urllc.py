"""Sequence-space dedup primitives and small-scale reliability behaviour."""
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fivegsim import user_plane
from fivegsim.config import ScenarioSpec, default_topology, parse_topology
from fivegsim.errors import FlowError
from fivegsim.runner import Testbed, run_reliability_measurement, run_scenario
from fivegsim.urllc import (
    DEDUP_WINDOW,
    SEQ_MODULUS,
    DedupWindow,
    Redundancy,
    ReliabilityResult,
    seq_newer,
)


# -- serial-number arithmetic ----------------------------------------------------

@pytest.mark.parametrize(
    "a,b,newer",
    [
        (1, 0, True),
        (0, 1, False),
        (5, 5, False),
        (0, 65535, True),       # wrap: 0 follows 65535
        (65535, 0, False),
        (32767, 0, True),       # just inside the half-space
        (32768, 0, False),      # exactly half the space away: not newer
        (100, 40000, True),     # wrapped past the top
    ],
)
def test_seq_newer_serial_comparison(a, b, newer):
    assert seq_newer(a, b) is newer


@given(st.integers(0, SEQ_MODULUS - 1), st.integers(0, SEQ_MODULUS - 1))
def test_seq_newer_antisymmetric(a, b):
    if a != b and (a - b) % SEQ_MODULUS != SEQ_MODULUS // 2:
        assert seq_newer(a, b) != seq_newer(b, a)


# -- dedup window -----------------------------------------------------------------

def test_first_copy_passes_second_copy_blocked():
    win = DedupWindow()
    assert win.accept(7) is True
    assert win.accept(7) is False
    assert win.accept(8) is True
    assert win.accept(7) is False


def test_stamp_numbers_the_sends_apart_from_what_arrives():
    win = DedupWindow()
    assert win.accept(500) is True
    stamps = [win.stamp() for _ in range(SEQ_MODULUS + 2)]
    assert stamps[:3] == [0, 1, 2] and stamps[-3:] == [SEQ_MODULUS - 1, 0, 1]
    assert win.accept(500) is False


def test_window_wraps_across_sequence_space():
    win = DedupWindow()
    assert win.accept(65535) is True
    assert win.accept(0) is True       # newer after wrap
    assert win.accept(65535) is False  # still inside the window, duplicate
    assert win.accept(0) is False


def test_sequence_outside_window_cannot_be_proven_duplicate():
    win = DedupWindow(window=8)
    assert win.accept(0) is True
    assert win.accept(100) is True     # highest jumps far ahead
    # 0 is now 100 behind: outside the 8-wide window, so it passes again
    assert win.accept(0) is True


def test_old_but_in_window_duplicate_is_blocked():
    win = DedupWindow(window=8)
    for seq in (10, 11, 12):
        assert win.accept(seq)
    assert win.accept(10) is False
    assert win.accept(5) is True       # in window, never seen: first arrival


def test_seen_set_is_pruned():
    win = DedupWindow(window=4)
    for seq in range(100):
        win.accept(seq)
    assert len(win._seen) <= 2 * 4 + 1
    assert win.accept(99) is False


# span below the window width, so every repeat is provably duplicate
@given(st.lists(st.integers(0, 1000), max_size=300))
@settings(max_examples=200)
def test_accept_never_passes_an_in_window_repeat(seqs):
    win = DedupWindow()
    passed = set()
    for seq in seqs:
        if win.accept(seq):
            assert seq not in passed
            passed.add(seq)


class _ReferenceWindow:
    """DedupWindow.accept as first written, through seq_newer and an
    in-window helper: the model the inlined accept must agree with."""

    def __init__(self, window):
        self.window, self.highest, self._seen = window, None, set()

    def _in_window(self, seq):
        return ((self.highest - seq) % SEQ_MODULUS) < self.window

    def accept(self, seq):
        seq %= SEQ_MODULUS
        if self.highest is None:
            self.highest = seq
            self._seen.add(seq)
            return True
        if seq in self._seen and self._in_window(seq):
            return False
        if seq_newer(seq, self.highest):
            self.highest = seq
            if len(self._seen) > 2 * self.window:
                self._seen = {s for s in self._seen if self._in_window(s)}
        if self._in_window(seq):
            self._seen.add(seq)
        return True


# steps around the wrap and across half the space, with windows small enough to prune often
_STEPS = st.one_of(st.integers(-40, 40), st.sampled_from([SEQ_MODULUS // 2, -(SEQ_MODULUS // 2), 5000]))


@given(
    st.integers(0, SEQ_MODULUS - 1),
    st.lists(_STEPS, max_size=400),
    st.sampled_from([1, 4, 16, DEDUP_WINDOW]),
    st.integers(0, 3),
)
@settings(max_examples=300, deadline=None)
def test_accept_agrees_with_the_reference_window(start, steps, width, lap):
    win, ref = DedupWindow(window=width), _ReferenceWindow(width)
    seq = start
    for step in steps:
        seq = (seq + step) % SEQ_MODULUS
        raw = seq + lap * SEQ_MODULUS  # accept reduces its argument first
        assert win.accept(raw) is ref.accept(raw), seq
        assert (win.highest, win._seen) == (ref.highest, ref._seen)


# -- mode parsing and validation ----------------------------------------------------

@pytest.mark.parametrize("text", ["none", "NONE", " None ", "n3_replication", "DUAL_CONNECTIVITY"])
def test_parse_is_case_and_space_insensitive(text):
    assert Redundancy.parse(text) is Redundancy[text.strip().upper()]


def test_parse_rejects_unknown_mode_listing_choices():
    with pytest.raises(ValueError, match="PSA_ANCHOR"):
        Redundancy.parse("triple")


# -- tunnel layouts the planner refuses -----------------------------------------------


@pytest.mark.parametrize(
    "mode,gnbs,upfs,message",
    [
        pytest.param(
            Redundancy.DUAL_CONNECTIVITY, ["gNB", "gNB"], None,
            "two distinct gNBs and two distinct UPFs", id="dual-gnb-twice",
        ),
        pytest.param(
            Redundancy.DUAL_CONNECTIVITY, ["gNB", "gNB2"], ["UPF1", "UPF1"],
            "two distinct gNBs and two distinct UPFs", id="dual-upf-twice",
        ),
        pytest.param(
            Redundancy.PSA_ANCHOR, ["gNB"], ["UPF1", "UPF1"],
            "an intermediate UPF and an anchor", id="psa-upf-twice",
        ),
    ],
)
def test_plan_paths_refuses_a_leg_named_twice(mode, gnbs, upfs, message):
    # a gNB list or a discovery answer from a peer may name one node twice
    tb = Testbed(default_topology(), seed=0)
    tb.boot()
    tb.run_until(1000)
    smf = tb.smfs[0]
    if upfs is not None:
        smf.candidates["UPF"] = upfs
    teid = smf._teid
    with pytest.raises(FlowError, match=message):
        smf.plan_paths(mode, gnbs)
    assert smf._teid == teid  # a refused layout allocates no tunnel endpoint


# -- result arithmetic ---------------------------------------------------------------

def test_reliability_result_ratios():
    r = ReliabilityResult(mode=Redundancy.NONE, loss_prob=0.1, sent=200, delivered=180)
    assert r.delivery_ratio == pytest.approx(0.9)
    assert r.observed_loss == pytest.approx(0.1)
    empty = ReliabilityResult(mode=Redundancy.NONE, loss_prob=0.1, sent=0, delivered=0)
    assert empty.delivery_ratio == 0.0


# -- end-to-end dominance at small n ---------------------------------------------------

N_SMALL = 400
LOSS = 0.2
SEED = 1234


@pytest.fixture(scope="module")
def small_runs():
    return {
        mode: run_reliability_measurement(mode, LOSS, N_SMALL, SEED)
        for mode in Redundancy
    }


def test_lossless_run_delivers_everything():
    r = run_reliability_measurement(Redundancy.NONE, 0.0, 50, SEED)
    assert r.delivered == r.sent == 50
    assert r.delivered_indices == frozenset(range(50))


def test_redundant_modes_dominate_single_path(small_runs):
    baseline = small_runs[Redundancy.NONE]
    assert baseline.delivered < N_SMALL  # loss actually happened
    for mode in (Redundancy.DUAL_CONNECTIVITY, Redundancy.N3_REPLICATION, Redundancy.PSA_ANCHOR):
        run = small_runs[mode]
        assert run.sent == N_SMALL
        # tunnel 1 sees the identical loss pattern, so every packet the
        # single-path run delivered arrives here too
        assert baseline.delivered_indices <= run.delivered_indices
        assert run.delivered >= baseline.delivered


def test_per_tunnel_counts_cover_two_tunnels(small_runs):
    for mode in (Redundancy.DUAL_CONNECTIVITY, Redundancy.N3_REPLICATION, Redundancy.PSA_ANCHOR):
        per_tunnel = small_runs[mode].per_tunnel_delivered
        assert len(per_tunnel) == 2
        assert all(0 < n <= N_SMALL for n in per_tunnel.values())
    base = small_runs[Redundancy.NONE].per_tunnel_delivered
    assert len(base) == 1


def test_dual_connectivity_paths_are_disjoint(small_runs):
    assert small_runs[Redundancy.DUAL_CONNECTIVITY].paths_disjoint is True
    assert small_runs[Redundancy.NONE].paths_disjoint is False


@pytest.mark.parametrize("loss, n_packets, message", [
    (0.0, 0, "n_packets must be positive"),
    (0.0, -5, "n_packets must be positive"),
    (1.0, 10, "loss_prob 1.0 outside [0, 1)"),
    (-0.1, 10, "loss_prob -0.1 outside [0, 1)"),
])
def test_reliability_run_refuses_what_it_cannot_measure_before_building(monkeypatch, loss, n_packets, message):
    monkeypatch.setattr(Testbed, "__init__", lambda *a, **kw: pytest.fail("a testbed was built"))
    with pytest.raises(ValueError) as refused:
        run_reliability_measurement(Redundancy.NONE, loss, n_packets, SEED)
    assert str(refused.value) == message


def test_reliability_run_raises_on_a_broken_invariant(monkeypatch):
    monkeypatch.setattr(Testbed, "invariant_violations", lambda tb, horizon: ["planted violation"])
    with pytest.raises(FlowError, match="planted violation"):
        run_reliability_measurement(Redundancy.NONE, 0.0, 10, SEED)


def test_reliability_run_names_the_refusal_of_a_ue_without_a_session():
    # without a UDR the UDM refuses the registration: the burst sends nothing,
    # and the run ends naming why the UE has no session
    text = Path(default_topology().source).read_text()
    topo = parse_topology("".join(line for line in text.splitlines(True) if "UDR" not in line))
    with pytest.raises(FlowError) as refused:
        run_reliability_measurement(Redundancy.NONE, 0.0, 10, SEED, topo)
    assert str(refused.value) == "no session in mode NONE: no UDR discovered"


def test_urllc_sweep_builds_one_testbed_per_redundancy_mode(monkeypatch):
    built = []
    init = Testbed.__init__
    monkeypatch.setattr(Testbed, "__init__", lambda tb, *a, **kw: built.append(tb) or init(tb, *a, **kw))
    result = run_scenario(ScenarioSpec(name="urllc_sweep", seed=SEED))
    assert len(built) == len(Redundancy) == len(result.reliability)
    # the sweep's runs keep their testbeds; its own result has none and no log
    assert (result.testbed, result.events) == (None, [])
    assert "entities: 15" in result.summary.splitlines()


def test_upfs_build_one_uplink_window_per_ue(monkeypatch):
    built = []

    class CountingWindow(DedupWindow):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    testbeds = []
    init = Testbed.__init__
    monkeypatch.setattr(Testbed, "__init__", lambda tb, *a, **kw: testbeds.append(tb) or init(tb, *a, **kw))
    monkeypatch.setattr(user_plane, "DedupWindow", CountingWindow)
    run_reliability_measurement(Redundancy.PSA_ANCHOR, LOSS, 200, SEED)
    [tb] = testbeds
    windows = [w for upf in tb.upfs for w in upf._windows.values()]
    dedup_ues = {(upf.name, r.ue_id) for upf in tb.upfs for r in upf.teid_rules.values() if r.dedup}
    assert len(windows) == len(dedup_ues) == 1
    assert built == windows
