"""Radio-side tests: NGAP setup, NAS relay, UE state machine, dedup points."""
import functools
import hashlib
import tracemalloc
import types
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fivegsim import ran_ue
from fivegsim.config import (
    ScenarioSpec,
    default_topology,
    default_topology_path,
    load_topology,
    parse_topology,
    with_second_gnb,
)
from fivegsim.errors import ConfigError, FlowError
from fivegsim.messages import MsgKind, build
from fivegsim.core_cp import PduSession, SessionPath
from fivegsim.runner import T_ATTACH, Testbed, run_scenario
from fivegsim.simnet import DELIVERED, DROPPED, ELIMINATED_DUPLICATE, SimNetError
from fivegsim.urllc import Redundancy
from fivegsim.wirefmt import Protocol, SimPacket, encode_packet

SETTLE = 1000
HB = 3333


def attached_testbed(mode=Redundancy.NONE, seed=0, topo=None):
    tb = Testbed(topo or default_topology(), seed=seed)
    tb.boot()
    ue = tb.ues[0]
    tb.net.schedule(T_ATTACH, lambda: ue.attach(mode))
    tb.run_until(SETTLE)
    return tb, ue


# -- NGAP ---------------------------------------------------------------------

def test_amf_refuses_setup_from_unreliable_link():
    raw = Path(default_topology().source).read_text().replace(
        "gNB,AMF,1,0.0,true", "gNB,AMF,1,0.0,false"
    )
    tb = Testbed(parse_topology(raw), seed=0)
    gnb = tb.gnbs[0]
    tb.net.schedule(10, lambda: gnb.send(gnb.amf, MsgKind.NGAP_SETUP_REQ, nf_id=gnb.name))
    tb.run_until(100)
    assert gnb.ng_ready is False
    assert gnb.name not in tb.amfs[0].gnbs


def test_gnb_keepalives_ride_the_heartbeat_grid():
    tb, _ = attached_testbed()
    tb.run_until(SETTLE + 10_000)
    keepalives = [
        r
        for r in tb.records
        if r.attrs.get("msg_kind") == "NGAP_KEEPALIVE_REQ"
        and SETTLE <= r.ts < SETTLE + 10_000
        and r.outcome == DELIVERED
    ]
    assert len(keepalives) == 3
    assert all(r.ts % HB == 0 for r in keepalives)


# -- NAS relay ------------------------------------------------------------------

def test_gnb_learns_ue_identity_from_uplink():
    tb, ue = attached_testbed()
    assert tb.gnbs[0]._ue_names[ue.imsi] == ue.name


def test_gnb_drops_downlink_nas_for_unknown_ue():
    tb, _ = attached_testbed()
    tb.amfs[0].send("gNB", MsgKind.NAS_REGISTER_ACCEPT, ue_id="imsi-nobody")
    tb.run_until(SETTLE + 10)
    drops = [
        r
        for r in tb.records
        if r.link_id == "local:gNB" and r.attrs.get("reason") == "unknown ue"
    ]
    assert drops and drops[0].outcome == DROPPED


# -- UE state machine -----------------------------------------------------------

def test_session_request_requires_registration():
    tb = Testbed(default_topology(), seed=0)
    ue = tb.ues[0]
    with pytest.raises(FlowError, match="cannot request a session while DEREGISTERED"):
        ue.request_session()


def test_app_send_requires_active_session():
    tb = Testbed(default_topology(), seed=0)
    ue = tb.ues[0]
    with pytest.raises(FlowError, match="no active session"):
        ue._app_send(MsgKind.APP_GET, doc="document")
    # a document request without a session fails at once and sends nothing
    transfer = ue.request_document("document")
    assert (transfer.ok, transfer.error, transfer.completed_ms) == (False, "no active session", 0)
    assert ue.transfers == [transfer]
    assert not tb.records


def test_a_fractional_burst_interval_is_refused_before_any_row():
    # a row at ts 1000.5 would export a log that import_events_text refuses
    tb, ue = attached_testbed()
    assert ue.state == "SESSION_ACTIVE"
    rows = len(tb.records)
    with pytest.raises(SimNetError, match="cannot schedule at 1000.0"):
        ue.send_data_burst(3, interval_ms=0.5)
    tb.run_until(SETTLE + 100)
    assert not [r for r in tb.records[rows:] if r.attrs.get("app_kind") == "APP_DATA"]
    assert all(type(r.ts) is int for r in tb.records)


def test_many_requests_names_its_population_limit(monkeypatch):
    def must_not_run(*args):
        raise AssertionError("the limit is checked before any testbed is built or the clock runs")

    monkeypatch.setattr(Testbed, "__init__", must_not_run)
    monkeypatch.setattr(Testbed, "run_until", must_not_run)
    # past UE 65535 a spawned address would read 172.16.256.0
    limit = r"^65536 UEs exceed the limit of 65535: spawned UE k is addressed 172\.16\.\(k >> 8\)\.\(k & 0xFF\)$"
    with pytest.raises(ConfigError, match=limit):
        run_scenario(ScenarioSpec(name="many_requests", ue_count=65536))


@pytest.mark.parametrize("ues", [1, 2, 3])
def test_many_requests_drives_exactly_the_ues_it_is_asked_for(ues):
    # a topology that declares two UEs: the first `ues` of them, then
    # spawned ones, attach and fetch; no other UE sends anything
    text = (
        default_topology_path().read_text()
        .replace("UE,UE,192.168.0.30\n", "UE,UE,192.168.0.30\nUE,UE2,192.168.0.31\n")
        .replace("UE,gNB,2,0.0,false\n", "UE,gNB,2,0.0,false\nUE2,gNB,2,0.0,false\n")
        .replace("imsi-001010000000001\n", "imsi-001010000000001\nimsi-001010000000002\n")
    )
    result = run_scenario(
        ScenarioSpec(name="many_requests", ue_count=ues, seed=1), topo=parse_topology(text)
    )
    driven = {name: [t.ok for t in ts] for name, ts in result.transfers.items() if ts}
    assert driven == dict.fromkeys(["UE", "UE2", "UE003"][:ues], [True])
    senders = {r.src for r in result.events if r.protocol is Protocol.RLS}
    assert senders - {"gNB"} == set(driven)


def test_a_declared_ue_like_a_spawned_one_runs_the_same(tmp_path):
    # UE002 declared exactly as with_ues would spawn it: same address, radio
    # link and provisioned IMSI; the run's artifacts are the same bytes
    base = default_topology_path().read_text()
    declared = (
        base.replace("UE,UE,192.168.0.30\n", "UE,UE,192.168.0.30\nUE,UE002,172.16.0.2\n")
        .replace("UE,gNB,2,0.0,false\n", "UE,gNB,2,0.0,false\nUE002,gNB,2,0.0,false\n")
        .replace("imsi-001010000000001\n", "imsi-001010000000001\nimsi-001010000000002\n")
    )
    spec = ScenarioSpec(name="many_requests", ue_count=3, seed=1)
    out = {}
    for name, text in (("spawned", base), ("declared", declared)):
        (tmp_path / name).mkdir()
        (tmp_path / name / "topo.cfg").write_text(text)  # one file name: one summary line
        out[name] = tmp_path / name / "out"
        run_scenario(spec, load_topology(tmp_path / name / "topo.cfg"), out_dir=out[name])
    files = sorted(f.name for f in out["spawned"].iterdir())
    assert files == ["events.log", "kpi_counts.csv", "kpi_throughput.csv", "summary.txt"]
    for f in files:
        assert (out["declared"] / f).read_bytes() == (out["spawned"] / f).read_bytes(), f


_IDS = ("imsi-001019990000001", "imsi-001019990000002", "imsi-001019990000003")
_SPAWNED = ("imsi-001010000000003", "imsi-001010000000004")


@pytest.mark.parametrize(
    "listed, imsis, refused",
    [
        # UE2 has no listed id: its generated IMSI is not provisioned
        pytest.param(_IDS[:1], ("imsi-001019990000001", "imsi-001010000000002"), {"UE2"}, id="fewer-ids"),
        pytest.param(_IDS[:2], _IDS[:2], set(), id="as-many-ids"),
        # an id past the declared UEs is provisioned but held by no UE
        pytest.param(_IDS, _IDS[:2], set(), id="more-ids"),
        # ids past the declared UEs that are the spawned UEs' generated ones
        pytest.param(_IDS[:2] + _SPAWNED, _IDS[:2], set(), id="more-ids-the-spawned-ones"),
    ],
)
def test_spawned_ues_with_each_subscriber_layout(listed, imsis, refused):
    # two declared UEs, two spawned: a spawned UE k always takes the
    # generated IMSI of position k, and the UDR holds every listed id too
    text = (
        default_topology_path().read_text()
        .replace("UE,UE,192.168.0.30\n", "UE,UE,192.168.0.30\nUE,UE2,192.168.0.31\n")
        .replace("UE,gNB,2,0.0,false\n", "UE,gNB,2,0.0,false\nUE2,gNB,2,0.0,false\n")
        .replace("imsi-001010000000001\n", "".join(f"{i}\n" for i in listed))
    )
    result = run_scenario(ScenarioSpec(name="many_requests", ue_count=4, seed=1), parse_topology(text))
    tb = result.testbed
    assert [(ue.name, ue.imsi) for ue in tb.ues] == list(
        zip(["UE", "UE2", "UE003", "UE004"], imsis + _SPAWNED)
    )
    assert tb.udrs[0].subscribers == set(listed + _SPAWNED)
    outcomes = {name: [t.ok for t in ts] for name, ts in result.transfers.items()}
    assert outcomes == {ue.name: [ue.name not in refused] for ue in tb.ues}
    for ue in tb.ues:
        assert ue.reject_reason == ("unknown subscriber" if ue.name in refused else None)


def many_requests(ues, topo=None, **kw):
    result = run_scenario(ScenarioSpec(name="many_requests", ue_count=ues, seed=1, **kw), topo=topo)
    transfers = [t for ts in result.transfers.values() for t in ts]
    return result, (len(transfers), sum(t.ok for t in transfers))


@pytest.mark.parametrize("ues, horizon", [(1, 11000), (10, 11000), (667, 11000), (700, 11495)])
def test_the_duration_stretches_only_as_far_as_the_last_request_needs(ues, horizon):
    # UE i asks for the document at 1000 + 15 * i and gets TRANSFER_MS;
    # UE 666 finishes at the default horizon
    result, (started, ok) = many_requests(ues)
    assert (result.window, started, ok) == ((1000, horizon), ues, ues)


def test_a_larger_population_stretches_the_settle_phase_past_its_last_attach():
    # UE 99 attaches at T_ATTACH + 99, after settle_ms=50
    topo = parse_topology(default_topology_path().read_text() + "settle_ms=50\n")
    result, (started, ok) = many_requests(100, topo=topo, duration_ms=2000)
    assert (result.window, started, ok) == ((T_ATTACH + 100, T_ATTACH + 2100), 100, 100)


def test_many_requests_memory_stays_bounded():
    # 100 UEs each fetch the 487,659-byte document: keeping every body until
    # the run ends would take ~49 MB on its own
    tracemalloc.start()
    try:
        result = run_scenario(ScenarioSpec(name="many_requests", ue_count=100, seed=1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(t.ok for ts in result.transfers.values() for t in ts) == 100
    assert peak < 16_000_000


DOC_SIZE = 487659  # the built-in topology's document


@pytest.fixture
def hashed(monkeypatch):
    """The byte counts fed to every SHA-256 object ran_ue makes, at its
    constructor and at each update."""
    fed = []

    class Counted:
        def __init__(self, data=b""):
            fed.append(len(data))
            self._hash = hashlib.sha256(data)

        def update(self, data):
            fed.append(len(data))
            self._hash.update(data)

        def hexdigest(self):
            return self._hash.hexdigest()

    monkeypatch.setattr(ran_ue, "hashlib", types.SimpleNamespace(sha256=Counted))
    return fed


def test_a_testbed_hashes_each_document_body_once(hashed):
    result, (started, ok) = many_requests(20)
    assert (started, ok) == (20, 20)
    assert sum(hashed) == DOC_SIZE
    [(key, body)] = result.testbed.env.verified_bodies.items()
    assert key == (hashlib.sha256(body).hexdigest(), DOC_SIZE)


def test_a_failed_first_fetch_stores_nothing_and_the_next_ue_stores_the_body(monkeypatch, hashed):
    # the first UE's first segment arrives with a byte flipped
    seen = {}
    add_segment = ran_ue.Transfer.add_segment

    def tampered(transfer, index, body):
        seen.setdefault(id(transfer), transfer)
        if transfer is next(iter(seen.values())) and index == 0:
            body = bytes([body[0] ^ 0x01]) + body[1:]
        add_segment(transfer, index, body)

    monkeypatch.setattr(ran_ue.Transfer, "add_segment", tampered)
    result, (started, ok) = many_requests(20)
    transfers = list(seen.values())
    assert [t.ok for t in transfers] == [False] + [True] * 19
    assert transfers[0].error == "integrity check failed"
    assert sum(hashed) == 2 * DOC_SIZE
    [(key, body)] = result.testbed.env.verified_bodies.items()
    assert key == (hashlib.sha256(body).hexdigest(), DOC_SIZE)


def test_register_is_idempotent_while_pending():
    tb = Testbed(default_topology(), seed=0)
    tb.boot()
    ue = tb.ues[0]
    tb.net.schedule(T_ATTACH, ue.attach)
    tb.net.schedule(T_ATTACH + 1, ue.attach)  # arrives while REGISTERING
    tb.run_until(SETTLE)
    reqs = [
        r
        for r in tb.records
        if r.attrs.get("nas_kind") == "NAS_REGISTER_REQ" and r.src == ue.name
    ]
    assert len(reqs) == 1
    assert ue.state == "SESSION_ACTIVE"


def test_attach_after_a_refused_session_goes_straight_to_session():
    # one gNB cannot serve dual connectivity: the UE stays registered
    # without a session, and its next attach registers no second time
    tb = Testbed(default_topology(), seed=0)
    tb.boot()
    ue = tb.ues[0]
    tb.net.schedule(T_ATTACH, lambda: ue.attach(Redundancy.DUAL_CONNECTIVITY))
    tb.run_until(500)
    assert ue.state == "REGISTERED" and ue.session is None
    assert "two serving gNBs" in ue.reject_reason
    ue.attach(Redundancy.NONE)
    tb.run_until(SETTLE)
    assert ue.state == "SESSION_ACTIVE"
    assert sum(r.attrs.get("nas_kind") == "NAS_REGISTER_REQ" for r in tb.records) == 1


def test_unlinked_gnb_is_rejected_for_sending():
    tb = Testbed(default_topology(), seed=0)
    ue = tb.ues[0]
    ue.gnbs = ()
    with pytest.raises(FlowError, match="not attached"):
        ue.primary_gnb
    ue._rls_send("UPF1", MsgKind.NAS_REGISTER_REQ, ue_id=ue.imsi)
    [row] = tb.records
    assert (row.link_id, row.outcome, row.src) == (f"local:{ue.name}", DROPPED, ue.name)
    assert (row.attrs["reason"], row.attrs["peer"]) == ("no link", "UPF1")
    assert row.attrs["msg_kind"] == "NAS_REGISTER_REQ"


def test_dual_connectivity_needs_second_gnb_on_this_topology():
    tb, ue = attached_testbed(mode=Redundancy.DUAL_CONNECTIVITY)
    # one cell only: the session must be rejected, not silently downgraded
    assert ue.session is None
    assert ue.state == "REGISTERED"
    assert "two serving gNBs" in (ue.reject_reason or "")


def test_session_paths_after_dual_attach():
    topo = with_second_gnb(default_topology())
    tb, ue = attached_testbed(mode=Redundancy.DUAL_CONNECTIVITY, topo=topo)
    assert ue.state == "SESSION_ACTIVE"
    sess = ue.session
    assert sess.mode is Redundancy.DUAL_CONNECTIVITY
    assert sess.gnbs == ("gNB", "gNB2")
    assert {(p.gnb, p.upf) for p in sess.paths} == {("gNB", "UPF1"), ("gNB2", "UPF2")}


def test_ue_session_gnbs_are_ordered_unique():
    sess = PduSession(
        ue_id="imsi-001010000000001",
        ue_ip="10.45.0.2",
        mode=Redundancy.N3_REPLICATION,
        paths=(
            SessionPath("gNB", "UPF1", 1, 2, True),
            SessionPath("gNB", "UPF1", 3, 4, True),
        ),
    )
    assert sess.gnbs == ("gNB",)


# -- transfer integrity ------------------------------------------------------------

def fake_downlink(ue, payload_msg):
    """Hand the UE a downlink application packet as the gNB would."""
    inner = SimPacket(
        protocol=Protocol.APP,
        src_ip="192.168.0.40",
        dst_ip=ue.session.ue_ip,
        src_port=80,
        dst_port=80,
        payload=payload_msg,
    )
    ue._on_user_packet(encode_packet(inner), "gNB")


def test_tampered_segment_fails_integrity_check():
    tb, ue = attached_testbed()
    ue.transfers.clear()
    ue.request_document("document")  # queues the real request; we answer by hand
    good = b"0123456789"
    fake_downlink(
        ue,
        build(
            MsgKind.APP_GET_ACK,
            doc="document",
            size=len(good),
            segments=1,
            digest=hashlib.sha256(good).hexdigest(),
        ),
    )
    fake_downlink(ue, build(MsgKind.APP_SEGMENT, doc="document", index=0, data=b"0123456wro"))
    transfer = ue.transfers[0]
    assert transfer.done and transfer.ok is False
    assert transfer.error == "integrity check failed"


def sha256(body):
    return hashlib.sha256(body).hexdigest()


def ack(size, segments, digest):
    return build(MsgKind.APP_GET_ACK, doc="document", size=size, segments=segments, digest=digest)


def segment(index, body):
    return build(MsgKind.APP_SEGMENT, doc="document", index=index, data=body)


@functools.cache
def recording_ue():
    """One attached UE whose application sends are recorded, not sent."""
    tb, ue = attached_testbed()
    ue.app_sent = []
    ue._app_send = lambda kind, **fields: ue.app_sent.append((kind, fields))
    return ue


def fresh_fetch(stored=None):
    """A new fetch; the testbed's store holds only `stored`, if given, as
    verified under its SHA-256 and size."""
    ue = recording_ue()
    ue.transfers.clear()
    ue.app_sent.clear()
    ue.env.verified_bodies.clear()
    if stored is not None:
        ue.env.verified_bodies[(sha256(stored), len(stored))] = stored
    return ue, ue.request_document("document")


def test_out_of_order_segments_are_held_until_the_transfer_finishes():
    ue, transfer = fresh_fetch()
    bodies = [b"alpha", b"beta", b"gamma", b"delta"]
    fake_downlink(ue, ack(sum(map(len, bodies)), 4, sha256(b"".join(bodies))))
    fake_downlink(ue, segment(2, bodies[2]))
    fake_downlink(ue, segment(1, bodies[1]))
    assert sorted(transfer.segments) == [1, 2]
    fake_downlink(ue, segment(0, bodies[0]))
    assert sorted(transfer.segments) == [0, 1, 2] and not transfer.done
    fake_downlink(ue, segment(3, bodies[3]))
    assert transfer.ok is True and transfer.segments == {}
    assert (transfer.received, transfer.size) == (4, 19)
    assert ue.app_sent[-1] == (MsgKind.APP_COMPLETE, {"doc": "document", "result": "OK", "size": 19})


def test_a_segment_ahead_of_the_ack_still_compares_with_the_stored_body(hashed):
    bodies = [b"alpha", b"beta"]
    content = b"".join(bodies)
    ue, transfer = fresh_fetch(content)
    fake_downlink(ue, segment(0, bodies[0]))
    fake_downlink(ue, ack(len(content), 2, sha256(content)))
    fake_downlink(ue, segment(1, bodies[1]))
    assert transfer.ok is True and sum(hashed) == 0


def joined_outcome(deliveries):
    """The rule reassembly must keep: the first body per
    index, joined in index order once `segments` distinct indices are in."""
    held, expected = {}, None
    for kind, *fields in deliveries:
        if kind == "ack":
            expected = fields
        elif fields[0] not in held:
            held[fields[0]] = fields[1]
        if expected is not None and len(held) >= expected[1]:
            body = b"".join(held[i] for i in sorted(held))
            ok = len(body) == expected[0] and sha256(body) == expected[2]
            return ok, len(held), len(body), body
    return None, len(held), sum(map(len, held.values())), None


@st.composite
def segment_deliveries(draw):
    """A random body and its deliveries: an ACK and the body's segments,
    shuffled, with strays and repeats mixed in, some left out, at most one
    byte flipped and perhaps a second ACK with another digest."""
    bodies = draw(st.lists(st.binary(min_size=1, max_size=4), max_size=5))
    content = b"".join(bodies)
    sent = list(enumerate(bodies))
    strays = st.tuples(st.integers(0, len(bodies) + 2), st.binary(max_size=4))
    sent += draw(st.lists(strays, max_size=3))
    sent = draw(st.permutations(sent))
    if sent:
        lost = draw(st.sets(st.integers(0, len(sent) - 1), max_size=2))
        sent = [s for k, s in enumerate(sent) if k not in lost]
    flip = draw(st.none() | st.integers(0, max(len(sent) - 1, 0)))
    if flip is not None and sent and sent[flip][1]:
        index, body = sent[flip]
        sent[flip] = (index, bytes([body[0] ^ 0x01]) + body[1:])
    deliveries = [("segment", index, body) for index, body in sent]
    acks = [sha256(content)] + draw(st.lists(st.just(sha256(content + b"?")), max_size=1))
    for digest in acks:
        deliveries.insert(
            draw(st.integers(0, len(deliveries))), ("ack", len(content), len(bodies), digest)
        )
    return content, deliveries


@settings(max_examples=300, deadline=None)
@given(segment_deliveries())
def test_reassembly_matches_the_joined_body(drawn):
    # once hashing every body, once with the true body already verified in the store
    content, deliveries = drawn
    ok, received, size, body = joined_outcome(deliveries)
    for stored in (None, content):
        ue, transfer = fresh_fetch(stored)
        digests = []

        def recorded(body_digest=transfer.body_digest):
            digests.append(body_digest())
            return digests[-1]

        transfer.body_digest = recorded
        for kind, *fields in deliveries:
            fake_downlink(ue, ack(*fields) if kind == "ack" else segment(*fields))
        assert (transfer.ok, transfer.received, transfer.size) == (ok, received, size)
        assert transfer.error == ("integrity check failed" if ok is False else None)
        completes = [fields for kind, fields in ue.app_sent if kind == MsgKind.APP_COMPLETE]
        assert [c["size"] for c in completes] == ([] if body is None else [len(body)])
        # the digest checked is the joined body's, whether the transfer passed or not
        assert digests == ([] if body is None else [sha256(body)])
        assert transfer.segments == {} or not transfer.done
        # the store holds only bodies whose SHA-256 and size are their key
        store = ue.env.verified_bodies
        assert all(sha256(b) == d and len(b) == n for (d, n), b in store.items())


def test_undecodable_downlink_is_dropped_not_fatal():
    tb, ue = attached_testbed()
    payload = build(MsgKind.RLS_DATA, ue_id=ue.imsi, data=b"garbage")
    carrier = SimPacket(Protocol.RLS, "192.168.0.22", ue.ip, 4997, 4997, payload)
    ue.handle_packet(carrier, "gNB")
    drops = [r for r in tb.records if r.link_id == "local:UE" and r.outcome == DROPPED]
    assert drops


# -- duplicate elimination placement -------------------------------------------------

def eliminated_at(records, entity):
    return [
        r
        for r in records
        if r.link_id == f"local:{entity}" and r.outcome == ELIMINATED_DUPLICATE
    ]


def test_n3_replication_eliminates_at_gnb_and_upf():
    result = run_scenario(
        ScenarioSpec(name="single_request", redundancy=Redundancy.N3_REPLICATION, seed=5)
    )
    tb = result.testbed
    assert tb.ues[0].transfers[0].ok is True
    assert eliminated_at(tb.records, "UPF1")   # uplink copies converge at the UPF
    assert eliminated_at(tb.records, "gNB")    # downlink copies converge at the gNB
    assert not eliminated_at(tb.records, "UE")


def test_dual_connectivity_eliminates_at_endpoints():
    result = run_scenario(
        ScenarioSpec(name="single_request", redundancy=Redundancy.DUAL_CONNECTIVITY, seed=5)
    )
    tb = result.testbed
    assert tb.ues[0].transfers[0].ok is True
    assert eliminated_at(tb.records, "SERVER")  # uplink replica absorbed at the server
    assert eliminated_at(tb.records, "UE")      # downlink replica absorbed at the UE
    assert not eliminated_at(tb.records, "UPF1")


def test_psa_anchor_eliminates_at_the_anchor():
    result = run_scenario(
        ScenarioSpec(name="single_request", redundancy=Redundancy.PSA_ANCHOR, seed=5)
    )
    tb = result.testbed
    assert tb.ues[0].transfers[0].ok is True
    assert eliminated_at(tb.records, "UPF2")   # anchor absorbs the second uplink copy
    assert eliminated_at(tb.records, "gNB")    # and the gNB absorbs downlink copies
