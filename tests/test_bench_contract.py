"""The names the benchmark under perfbench/ reads from the package.

perfbench/ is changed only together with the benchmark, so these names stay
as long as it reads them: a change that deletes one breaks every benchmark
run, not just a test.
"""
import hashlib

import fivegsim
from fivegsim import ran_ue
from fivegsim.config import ScenarioSpec, default_topology
from fivegsim.runner import Testbed, run_scenario
from fivegsim.simnet import Network, SimClock

# package attributes the workloads and the tracer call
PACKAGE_NAMES = (
    "DELIVERED", "DROPPED", "ELIMINATED_DUPLICATE", "Redundancy", "ScenarioSpec", "Testbed",
    "default_topology", "run_reliability_measurement", "run_scenario", "with_link_loss",
)
MODULE_NAMES = {
    "nwdaf": ("export_events_text", "import_events_text", "kpi_packet_counts", "kpi_throughput_matrix"),
    "validation": ("validate_sequences",),
    "runner": ("Testbed",),
}


def test_package_names_the_benchmark_calls():
    for name in PACKAGE_NAMES:
        assert hasattr(fivegsim, name), name
    for module, names in MODULE_NAMES.items():
        for name in names:
            assert hasattr(getattr(fivegsim, module), name), f"{module}.{name}"
    for method in ("boot", "spawn_ues", "invariant_violations"):
        assert callable(getattr(Testbed, method)), method


def test_testbed_names_the_benchmark_reads():
    tb = Testbed(default_topology(), seed=1)
    tb.boot()
    tb.run_until(200)
    assert tb.records is tb.net.events and len(tb.records) > 0
    assert tb.nwdaf.store.events is tb.records
    assert tb.nwdaf.store.rejected == 0
    assert isinstance(tb.net.link_stats, dict) and tb.net.link_stats
    assert isinstance(tb.net._loss_counters, dict)
    assert tb.amfs and tb.smfs and tb.ues and tb.gnbs
    assert isinstance(tb.server.data_received, dict)
    assert isinstance(tb.amfs[0].ue_registered, dict)
    assert isinstance(tb.smfs[0].sessions, dict)
    assert (tb.params.sbi_port, tb.params.ue_pool) == (7777, "10.45.0.0/16")


def test_run_result_names_the_benchmark_reads():
    result = run_scenario(ScenarioSpec("single_request", seed=1, duration_ms=3000))
    assert result.events is result.testbed.records and result.events
    assert result.window[0] < result.window[1]
    assert result.kpi_counts and result.throughput
    [transfer] = result.transfers["UE"]
    assert transfer.ok and transfer.segments == {}


def test_the_tracer_sees_every_send_and_every_schedule(monkeypatch):
    """The tracer wraps Network.send and SimClock.schedule on their classes,
    the latter as (at, fn): so every wire row is one call of Network.send,
    and every schedule passes exactly a time and a callable."""
    sends = []
    send, schedule = Network.send, SimClock.schedule

    def counted_send(net, *args, **kwargs):
        sends.append(args)
        return send(net, *args, **kwargs)

    def checked_schedule(clock, at, fn, /):
        assert isinstance(at, int) and callable(fn)
        return schedule(clock, at, fn)

    monkeypatch.setattr(Network, "send", counted_send)
    monkeypatch.setattr(SimClock, "schedule", checked_schedule)
    result = run_scenario(ScenarioSpec("single_request", seed=1, duration_ms=3000))
    wire = [r for r in result.events if r.is_wire]
    assert wire and len(sends) == len(wire)


def test_the_tracer_counts_each_document_hash_at_the_constructor(monkeypatch):
    """The tracer's hashlib stand-in in ran_ue counts only the bytes given to
    the sha256 constructor (`ran_ue.sha256_bytes`): a testbed hashes its
    document there once, and every other UE compares it with that body."""
    counted = []

    class ConstructorBytes:
        def sha256(self, data=b"", **kwargs):
            counted.append(len(data))
            return hashlib.sha256(data, **kwargs)

        def __getattr__(self, name):
            return getattr(hashlib, name)

    monkeypatch.setattr(ran_ue, "hashlib", ConstructorBytes())
    result = run_scenario(ScenarioSpec("many_requests", ue_count=20, seed=1))
    assert sum(t.ok for ts in result.transfers.values() for t in ts) == 20
    assert sum(counted) == 487_659
