"""Records: what `import fivegsim` loads, and the semantics of the records."""
import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import fivegsim
from fivegsim.config import EntityDecl, LinkDecl, Params, Scenario, ScenarioSpec, TopologyConfig
from fivegsim.core_cp import REGISTERED, NfProfile, PduSession, SessionPath
from fivegsim.errors import ConfigError
from fivegsim.nwdaf import EventStore
from fivegsim.ran_ue import GnbUeContext, Transfer
from fivegsim.record import Record
from fivegsim.runner import RunResult, run_reliability_measurement
from fivegsim.simnet import DELIVERED, Hop, TapRecord
from fivegsim.urllc import DedupWindow, Redundancy, ReliabilityResult
from fivegsim.user_plane import ForwardAction, TeidRule, UeIpRule
from fivegsim.validation import CheckResult
from fivegsim.wirefmt import Protocol, SimPacket

PACKAGE = Path(fivegsim.__file__).parent


def test_import_loads_every_module_and_no_record_generator():
    """Without site preloads, the package loads all its modules but the
    command line's, and none of dataclasses, inspect or typing."""
    code = (
        f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); import fivegsim; "
        "print('\\n'.join(sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True, timeout=60
    )
    loaded = set(proc.stdout.split())
    assert loaded.isdisjoint({"dataclasses", "inspect", "typing"})
    expected = {f"fivegsim.{p.stem}" for p in PACKAGE.glob("*.py")} - {
        "fivegsim.__init__", "fivegsim.cli", "fivegsim.__main__",
    }
    assert {m for m in loaded if m.startswith("fivegsim.")} == expected


PARAMS = Params()
PATH = SessionPath("gNB1", "UPF1", 1, 2)

# name -> (a maker of one instance, whether it hashes: a dict field does not)
FROZEN = {
    "EntityDecl": (lambda: EntityDecl("UE", "UE1", "192.168.0.30", "imsi-1"), True),
    "LinkDecl": (lambda: LinkDecl("UE1", "gNB1", 2, 0.0, False), True),
    "Params": (lambda: Params(sbi_port=7000), True),
    "TopologyConfig": (
        lambda: TopologyConfig((EntityDecl("NRF", "NRF", "192.168.0.10"),), (), (), {"doc": 1}, PARAMS), False
    ),
    "Scenario": (lambda: Scenario(ues=None, checks=True), True),
    "ScenarioSpec": (lambda: ScenarioSpec("many_requests", ue_count=3, seed=7), True),
    "SessionPath": (lambda: SessionPath("gNB1", "UPF1", 1, 2, carry_seq=True), True),
    "PduSession": (lambda: PduSession("imsi-1", "10.45.0.2", Redundancy.NONE, (PATH,)), True),
    "ForwardAction": (lambda: ForwardAction("encap", "UPF2", teid=5, carry_seq=True), True),
    "ReliabilityResult": (lambda: ReliabilityResult(Redundancy.PSA_ANCHOR, 0.1, 10, 9, {1: 9}), False),
    "CheckResult": (lambda: CheckResult("user_plane", False, "no tunnel", 4), True),
}


@pytest.mark.parametrize("name", FROZEN)
def test_a_frozen_record_is_a_value(name):
    make, hashable = FROZEN[name]
    record, twin = make(), make()
    first = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, first, getattr(twin, first))
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == twin and record is not twin
    if hashable:
        assert hash(record) == hash(twin)
    else:
        with pytest.raises(TypeError):
            hash(record)
    copy = record._replace()
    assert copy == record and type(copy) is type(record)


def test_state_outside_the_fields_stays_out_of_equality_and_repr():
    params, session = Params(), PduSession("imsi-1", "10.45.0.2", Redundancy.NONE, (PATH, PATH))
    assert params.ports[Protocol.SBI] == 7777 and session.gnbs == ("gNB1",)
    assert params == Params() and "ports" not in repr(params) and "gnbs" not in repr(session)


def test_a_copy_is_checked_as_the_original_is():
    with pytest.raises(ConfigError, match="sbi_port out of range: 0"):
        Params()._replace(sbi_port=0)
    with pytest.raises(ConfigError, match="duration_ms must be positive"):
        ScenarioSpec("idle")._replace(duration_ms=0)


REQUIRED = inspect.Parameter.empty

# each mutable record's constructor parameters, in order, with their defaults
CONSTRUCTORS = {
    NfProfile: [("nf_id", REQUIRED), ("nf_type", REQUIRED), ("addr", REQUIRED), ("status", REGISTERED),
                ("last_heartbeat", 0)],
    EventStore: [("events", REQUIRED), ("rejected", 0)],
    GnbUeContext: [("ue_id", REQUIRED), ("ue_ip", REQUIRED), ("paths", REQUIRED), ("ue_name", None),
                   ("carry_seq", False), ("window", None)],
    Transfer: [("doc", REQUIRED), ("started_ms", REQUIRED), ("completed_ms", None), ("expected_size", None),
               ("expected_segments", None), ("digest", None), ("segments", None), ("received", 0), ("size", 0),
               ("ok", None), ("error", None), ("verified", None)],
    RunResult: [("spec", REQUIRED), ("testbed", REQUIRED), ("window", REQUIRED), ("kpi_counts", None),
                ("throughput", None), ("transfers", None), ("reliability", ()), ("checks", ()),
                ("summary_lines", None)],
    Hop: [(name, REQUIRED) for name in (
        "link_id", "sender", "receiver", "target", "dst_ip", "latency_ms", "loss_prob", "reliable", "lossy", "stats",
    )],
    TapRecord: [(name, REQUIRED) for name in (
        "event_id", "ts", "link_id", "src", "dst", "protocol", "size", "outcome", "attrs",
    )],
    TeidRule: [("teid", REQUIRED), ("ue_id", REQUIRED), ("dedup", REQUIRED), ("actions", REQUIRED)],
    UeIpRule: [("ue_ip", REQUIRED), ("ue_id", REQUIRED), ("assign_seq", REQUIRED), ("actions", REQUIRED)],
    SimPacket: [("protocol", REQUIRED), ("src_ip", REQUIRED), ("dst_ip", REQUIRED), ("src_port", REQUIRED),
                ("dst_port", REQUIRED), ("payload", b"")],
    ReliabilityResult: [("mode", REQUIRED), ("loss_prob", REQUIRED), ("sent", REQUIRED), ("delivered", REQUIRED),
                        ("per_tunnel_delivered", None), ("paths_disjoint", True), ("delivered_indices", frozenset())],
}


@pytest.mark.parametrize("cls", CONSTRUCTORS, ids=lambda cls: cls.__name__)
def test_a_mutable_record_is_built_from_its_fields(cls):
    """Record writes the constructor: the fields in order, each required or
    with its default, under the class's own name and module."""
    params = inspect.signature(cls).parameters.values()
    assert [(p.name, p.default) for p in params] == CONSTRUCTORS[cls]
    assert {p.kind for p in params} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}
    assert [p.name for p in params] == list(cls._fields)
    assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"
    assert cls.__init__.__module__ == cls.__module__


SPEC = ScenarioSpec("idle")


@pytest.mark.parametrize(
    "make, field, kind",
    [
        (lambda **kw: Transfer("document", 0, **kw), "segments", dict),
        (lambda **kw: RunResult(SPEC, None, (0, 1), **kw), "summary_lines", list),
        (lambda **kw: GnbUeContext("imsi-1", "10.45.0.2", (PATH,), **kw), "window", DedupWindow),
        (lambda **kw: ReliabilityResult(Redundancy.NONE, 0.1, 10, 9, **kw), "per_tunnel_delivered", dict),
    ],
    ids=["Transfer", "RunResult", "GnbUeContext", "ReliabilityResult"],
)
def test_a_factory_default_is_fresh_per_record(make, field, kind):
    values = [getattr(record, field) for record in (make(), make(), make(**{field: None}), make(**{field: None}))]
    assert all(type(value) is kind for value in values)
    assert len({id(value) for value in values}) == len(values)
    given = kind()
    assert getattr(make(**{field: given}), field) is given


def test_a_read_only_record_refuses_assignment_after_its_init_set_it():
    result = ReliabilityResult(Redundancy.PSA_ANCHOR, 0.1, 10, 9, paths_disjoint=False)
    assert (result.sent, result.paths_disjoint, result.delivered_indices) == (10, False, frozenset())
    with pytest.raises(AttributeError, match="cannot assign to field 'sent'"):
        result.sent = 11
    with pytest.raises(AttributeError, match="cannot delete field 'sent'"):
        del result.sent


def test_a_record_that_writes_its_own_init_keeps_it():
    class Interval(Record):
        __slots__ = _fields = ("lo", "hi")
        _defaults = {"hi": 0}

        def __init__(self, width):
            self.lo, self.hi = -width, width

    class Span(Interval):
        pass  # its own fields' constructor, written for it

    assert Interval(2)._values() == (-2, 2)
    assert Span(1)._values() == (1, 0) and Span(1, 3) == Span(lo=1, hi=3)
    assert Span.__init__.__qualname__ == f"{Span.__qualname__}.__init__"


def tap_record(**attrs):
    return TapRecord(1, 2, "a--b", "a", "b", Protocol.SBI, 10, DELIVERED, attrs)


@pytest.mark.parametrize(
    "make, text, field",
    [
        (
            lambda: tap_record(k="v"),
            "TapRecord(event_id=1, ts=2, link_id='a--b', src='a', dst='b', protocol=<Protocol.SBI: 1>,"
            " size=10, outcome='DELIVERED', attrs={'k': 'v'})",
            "ts",
        ),
        (
            lambda: SimPacket(Protocol.APP, "1.1.1.1", "2.2.2.2", 1, 2, b"xy"),
            "SimPacket(protocol=<Protocol.APP: 7>, src_ip='1.1.1.1', dst_ip='2.2.2.2', src_port=1,"
            " dst_port=2, payload=b'xy')",
            "payload",
        ),
    ],
    ids=["TapRecord", "SimPacket"],
)
def test_a_mutable_record_compares_by_value(make, text, field):
    record, twin = make(), make()
    assert record == twin and repr(record) == text
    with pytest.raises(TypeError):
        hash(record)
    setattr(twin, field, None)
    assert record != twin


def test_a_traced_reliability_iteration_gives_its_layer_metrics(monkeypatch):
    """The benchmark under perfbench/ tells log_replay's output, a tuple,
    from every other workload's by type, so a reliability result is no
    tuple: a traced urllc_psa_10k iteration reads it whole."""
    monkeypatch.syspath_prepend(str(PACKAGE.parents[1] / "perfbench"))
    run = importlib.import_module("run")
    tracer = run.Tracer()
    tracer.install()
    try:
        out = tracer.span("iteration", run_reliability_measurement, Redundancy.PSA_ANCHOR, 0.1, 200, 1)
    finally:
        tracer.uninstall()
    assert not isinstance(out, tuple)
    metrics = run.layer_metrics(fivegsim, tracer, out, 1.0)
    assert metrics["validation.failed"] == (0, "count")
    assert metrics["urllc.unique_delivered"] == (out.delivered, "count") and out.delivered > 0
