"""Control-plane tests: registry semantics, bring-up, sessions, heartbeats."""
import ipaddress
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fivegsim import core_cp
from fivegsim.config import (
    Params,
    ScenarioSpec,
    default_topology,
    default_topology_path,
    parse_topology,
    with_link_loss,
)
from fivegsim.core_cp import (
    DEREGISTERED,
    REGISTERED,
    SUSPENDED,
    NfEntity,
    NfProfile,
    Nrf,
    PduSession,
    SessionPath,
    Smf,
    Walker,
    decode_paths,
    encode_paths,
    read_mode,
    read_session,
    runs_of,
)
from fivegsim.errors import FlowError
from fivegsim.messages import ANSWER, PROCEDURES, PROTOCOL, MsgKind, Tag, build, parse
from fivegsim.ran_ue import Ue
from fivegsim.runner import T_ATTACH, Testbed, run_scenario
from fivegsim.simnet import DELIVERED, Network
from fivegsim.urllc import Redundancy
from fivegsim.wirefmt import Protocol, WireFormatError

HB = 3333
SETTLE = 1000


def micro_net():
    """One registry plus one registering NF on a single link."""
    params = Params()
    net = Network(seed=0)
    nrf = net.add_entity(Nrf("NRF", "192.168.0.12", net, params))
    x = net.add_entity(NfEntity("X", "192.168.0.50", net, params))
    x.kind, x.nrf = "AUSF", "NRF"
    net.add_link("NRF", "X", 1)
    nrf.boot()
    return net, nrf, x


def booted_testbed(seed=0, topo=None):
    tb = Testbed(topo or default_topology(), seed=seed)
    tb.boot()
    tb.run_until(SETTLE)
    return tb


def kinds_in(records, kind_name):
    return [r for r in records if r.attrs.get("msg_kind") == kind_name]


def arrivals(tb, name):
    """Every message `name` takes from now on, parsed."""
    return heard(tb.net.entity(name))


def heard(node):
    """Every message `node` takes from now on, parsed."""
    got = []
    handle = node.handle_packet

    def record(pkt, sender):
        got.append(parse(pkt.payload))
        handle(pkt, sender)

    node.handle_packet = record
    return got


# -- the management table over the wire ---------------------------------------------

def pair_net():
    """The registry and two linked NFs, X (an AUSF) and Y (a PCF), each
    subscribed to status; neither heartbeats unasked."""
    net, nrf, x = micro_net()
    y = net.add_entity(NfEntity("Y", "192.168.0.51", net, x.params))
    y.kind, y.nrf = "PCF", "NRF"
    net.add_link("NRF", "Y", 1)
    for nf in (x, y):
        nf.heartbeat_enabled = False
        nf.send("NRF", MsgKind.NF_STATUS_SUBSCRIBE_REQ, nf_id=nf.name)
    net.run_until(2)
    return net, nrf, {"X": x, "Y": y}


def manage(net, nf, kind, nf_id):
    """`nf` sends a `kind` request naming `nf_id` and the run goes on until
    the answer and any notification have landed: (the answer, how many
    NF_STATUS_NOTIFY rows followed)."""
    start = len(net.events)
    got = heard(nf)
    nf.send("NRF", kind, nf_id=nf_id, nf_type=nf.kind, addr=nf.ip)
    net.run_until(net.now + 2)
    del nf.handle_packet  # back to the class's own
    [answer] = [m for m in got if m.kind == ANSWER[kind]]
    return answer, len(kinds_in(net.events[start:], "NF_STATUS_NOTIFY"))


REGISTER, HEARTBEAT = MsgKind.NF_REGISTER_REQ, MsgKind.NF_HEARTBEAT_REQ
DEREGISTER = MsgKind.NF_DEREGISTER_REQ
DUPLICATE = "duplicate registration for X"
UNKNOWN_BEAT = "heartbeat for unknown or deregistered NF X"
UNKNOWN_LEAVE = "deregistration for unknown NF X"


@pytest.mark.parametrize(
    "kind,before,reason,after,notified",
    [
        (REGISTER, None, None, REGISTERED, True),
        (REGISTER, REGISTERED, DUPLICATE, REGISTERED, False),
        (REGISTER, SUSPENDED, DUPLICATE, SUSPENDED, False),
        (REGISTER, DEREGISTERED, None, REGISTERED, True),  # re-registration
        (HEARTBEAT, None, UNKNOWN_BEAT, None, False),
        (HEARTBEAT, REGISTERED, None, REGISTERED, False),
        (HEARTBEAT, SUSPENDED, None, REGISTERED, True),  # a revival
        (HEARTBEAT, DEREGISTERED, UNKNOWN_BEAT, DEREGISTERED, False),
        (DEREGISTER, None, UNKNOWN_LEAVE, None, False),
        (DEREGISTER, REGISTERED, None, DEREGISTERED, True),
        (DEREGISTER, SUSPENDED, None, DEREGISTERED, True),
        (DEREGISTER, DEREGISTERED, UNKNOWN_LEAVE, DEREGISTERED, False),  # a second deregistration
    ],
    ids=lambda v: getattr(v, "name", str(v)),
)
def test_each_management_request_follows_the_table(kind, before, reason, after, notified):
    """The answer's result and reason, the profile's status after, and whether
    Y heard of X's change: a request notifies exactly when it changes the
    status, and a new profile counts as a change."""
    net, nrf, nfs = pair_net()
    x = nfs["X"]
    if before is not None:
        nrf.registry["X"] = NfProfile("X", "AUSF", x.ip, status=before, last_heartbeat=net.now)
    notes = heard(nfs["Y"])
    answer, notifies = manage(net, x, kind, "X")
    assert (answer.text(Tag.RESULT), answer.text(Tag.REASON), answer.text(Tag.NF_ID)) == (
        "OK" if reason is None else "ERROR", reason, "X"
    )
    assert getattr(nrf.registry.get("X"), "status", None) == after
    assert notifies == int(notified)
    told = [(m.text(Tag.NF_ID), m.text(Tag.STATUS)) for m in notes if m.kind == MsgKind.NF_STATUS_NOTIFY]
    assert told == ([("X", after)] if notified else [])
    if after == REGISTERED:
        assert (nrf.registry["X"].nf_type, nrf.registry["X"].addr) == ("AUSF", x.ip)


def test_discover_returns_sorted_registered_snapshots():
    _, nrf, _ = micro_net()
    for nf_id, status in (("B2", REGISTERED), ("B1", REGISTERED), ("B3", DEREGISTERED), ("B4", SUSPENDED)):
        nrf.registry[nf_id] = NfProfile(nf_id, "UPF", "10.0.0.1", status=status)
    found = nrf.profiles_of("UPF")
    assert [p.nf_id for p in found] == ["B1", "B2"]
    found[0].status = "TAMPERED"  # snapshots must not alias registry state
    assert nrf.registry["B1"].status == REGISTERED


@settings(max_examples=150, deadline=None)
@given(st.lists(
    st.tuples(st.sampled_from((REGISTER, HEARTBEAT, DEREGISTER)), st.sampled_from("XY"), st.sampled_from("XY"))
    | st.integers(0, 3),  # a request (kind, sender, the nf_id it names), or sweeps
    max_size=30,
))
def test_the_registry_follows_a_plain_model(steps):
    """Requests from X and Y, each naming either one, and runs of 0-3 sweeps
    between them: each step's answer, every status and the number of
    notifications match a dict of (status, time of the last applied request)."""
    net, nrf, nfs = pair_net()
    model = {}  # nf_id -> (status, time of the last applied request)
    applies = {
        REGISTER: (None, DEREGISTERED), HEARTBEAT: (REGISTERED, SUSPENDED), DEREGISTER: (REGISTERED, SUSPENDED)
    }
    leaves = {REGISTER: REGISTERED, HEARTBEAT: REGISTERED, DEREGISTER: DEREGISTERED}
    for step in steps:
        if isinstance(step, int):  # just past the `step`th sweep from now, or 1 ms on
            start = len(net.events)
            end = (net.now // HB + step) * HB + 1 if step else net.now + 1
            changes = 0
            for sweep in range((net.now // HB + 1) * HB, end, HB):
                for nf_id, (status, last) in model.items():
                    if status == REGISTERED and sweep - last > 2 * HB:
                        model[nf_id] = (SUSPENDED, last)
                        changes += 1
            net.run_until(end)
            assert len(kinds_in(net.events[start:], "NF_STATUS_NOTIFY")) == changes
        else:
            kind, sender, named = step
            arrives = net.now + 1
            answer, notifies = manage(net, nfs[sender], kind, named)
            status = model.get(named, (None,))[0]
            if sender != named or status not in applies[kind]:
                assert answer.text(Tag.RESULT) == "ERROR"
                assert notifies == 0
            else:
                assert answer.text(Tag.RESULT) == "OK"
                model[named] = (leaves[kind], arrives)
                assert notifies == int(leaves[kind] != status)
        assert {k: p.status for k, p in nrf.registry.items()} == {k: v[0] for k, v in model.items()}


# -- registry over the wire --------------------------------------------------------

def test_boot_register_round_trip():
    net, nrf, x = micro_net()
    x.boot_register()
    net.run_until(10)
    assert x.registered
    assert nrf.registry["X"].nf_type == "AUSF"
    assert nrf.registry["X"].addr == x.ip


def test_discover_requires_registered_requester():
    net, nrf, x = micro_net()
    records = net.events
    x.send("NRF", MsgKind.NF_DISCOVER_REQ, nf_type="UPF")
    net.run_until(10)
    resps = kinds_in(records, "NF_DISCOVER_RESP")
    assert len(resps) == 1  # answered, but with an error inside
    assert x.registered is False


def test_heartbeats_land_on_the_shared_grid():
    net, nrf, x = micro_net()
    records = net.events
    net.schedule(7, x.boot_register)
    net.run_until(4 * HB + 10)
    beats = kinds_in(records, "NF_HEARTBEAT_REQ")
    assert len(beats) >= 3
    assert all(b.ts % HB == 0 for b in beats)


def test_missed_heartbeats_suspend_and_notify():
    tb = booted_testbed()
    nrf = tb.nrf
    ausf = tb.by_kind["AUSF"][0]
    amf = tb.amfs[0]
    ue = tb.ues[0]
    assert nrf.registry["AUSF"].status == REGISTERED
    ausf.heartbeat_enabled = False
    tb.run_until(SETTLE + 4 * HB)
    assert nrf.registry["AUSF"].status == SUSPENDED
    # the suspension's notification took the AUSF out of the AMF's view
    assert amf.candidates["AUSF"] == [] and amf.pick("AUSF") is None
    tb.net.schedule(SETTLE + 4 * HB + 1, ue.attach)
    tb.run_until(SETTLE + 4 * HB + 100)
    assert (ue.state, ue.reject_reason) == ("DEREGISTERED", "no AUSF discovered")
    # silence ends: the next heartbeat revives the profile, and the revival's
    # notification puts the AUSF back
    ausf.heartbeat_enabled = True
    tb.run_until(SETTLE + 6 * HB)
    assert nrf.registry["AUSF"].status == REGISTERED
    assert amf.candidates["AUSF"] == ["AUSF"]
    tb.net.schedule(SETTLE + 6 * HB + 1, ue.attach)
    tb.run_until(SETTLE + 6 * HB + 100)
    assert (ue.state, ue.reject_reason) == ("SESSION_ACTIVE", None)


# -- bring-up ------------------------------------------------------------------------

def test_bringup_registers_every_control_function():
    tb = booted_testbed()
    for name in ("AMF", "SMF", "AUSF", "UDM", "UDR", "PCF", "NSSF", "BSF", "UPF1", "UPF2"):
        assert tb.net.entities[name].registered, name
    assert [p.nf_id for p in tb.nrf.profiles_of("UPF")] == ["UPF1", "UPF2"]


def test_bringup_discovery_picks_lowest_id_peer():
    tb = Testbed(default_topology(), seed=0)
    asked = arrivals(tb, "NRF")
    tb.boot()
    tb.run_until(SETTLE)
    # each NF asks for the kinds PEER_KINDS gives it besides the registry,
    # right behind its registration and subscription, in roster order
    requests = [
        (m.kind.name, m.text(Tag.NF_TYPE) or m.text(Tag.NF_ID)) for m in asked
        if m.kind in (MsgKind.NF_REGISTER_REQ, MsgKind.NF_STATUS_SUBSCRIBE_REQ, MsgKind.NF_DISCOVER_REQ)
    ][:12]
    assert requests == [
        ("NF_REGISTER_REQ", "AMF"), ("NF_STATUS_SUBSCRIBE_REQ", "AMF"),
        ("NF_DISCOVER_REQ", "AUSF"), ("NF_DISCOVER_REQ", "UDM"),
        ("NF_DISCOVER_REQ", "PCF"), ("NF_DISCOVER_REQ", "SMF"),
        ("NF_REGISTER_REQ", "SMF"), ("NF_STATUS_SUBSCRIBE_REQ", "SMF"), ("NF_DISCOVER_REQ", "UPF"),
        ("NF_REGISTER_REQ", "UDM"), ("NF_STATUS_SUBSCRIBE_REQ", "UDM"), ("NF_DISCOVER_REQ", "UDR"),
    ]
    assert sum(m.kind == MsgKind.NF_DISCOVER_REQ for m in asked) == 6
    amf, smf, udm = tb.amfs[0], tb.smfs[0], tb.by_kind["UDM"][0]
    assert amf.candidates == {"AUSF": ["AUSF"], "UDM": ["UDM"], "PCF": ["PCF"], "SMF": ["SMF"]}
    assert udm.candidates == {"UDR": ["UDR"]} and udm.pick("UDR") == "UDR"
    assert smf.candidates == {"UPF": ["UPF1", "UPF2"]} and smf.pick("UPF") == "UPF1"
    for kind in ("AUSF", "UDR", "PCF", "NSSF", "BSF"):
        assert tb.by_kind[kind][0].candidates == {}, kind


def test_smf_associates_with_a_upf_registering_after_its_discovery():
    # UPF2 is slow to reach the registry: it registers long after the SMF's
    # discovery, which finds only UPF1, and its REGISTERED notification
    # brings it into the SMF's view and association
    text = Path(default_topology().source).read_text()
    tb = Testbed(parse_topology(text.replace("\nUPF2,NRF,1,", "\nUPF2,NRF,100,")), seed=0)
    got = arrivals(tb, "SMF")
    tb.boot()
    tb.run_until(SETTLE)
    answers = [m for m in got if m.kind == MsgKind.NF_DISCOVER_RESP]
    assert [a.text(Tag.DATA) for a in answers] == [""]  # the UPFs register at T_BOOT_CORE
    smf = tb.smfs[0]
    assert smf.candidates == {"UPF": ["UPF1", "UPF2"]}
    assert smf.associations == {"UPF1": "ACTIVE", "UPF2": "ACTIVE"}
    [late] = [r for r in kinds_in(tb.records, "PFCP_ASSOC_REQ") if r.dst == "UPF2"]
    # sent as the notification of UPF2's registration (T_BOOT_CORE + 100) arrives
    assert late.ts == 5 + 100 + 1


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_ues_attach_once_the_core_is_ready_whatever_the_registry_spokes(data):
    """However late its spoke to the registry makes each NF register and
    discover, the UEs attach only once every view is full: all 20 fetch."""
    topo = default_topology()
    links = tuple(
        l._replace(latency_ms=data.draw(st.integers(1, 50), label=l.a)) if l.b == "NRF" else l
        for l in topo.links
    )
    run = run_scenario(ScenarioSpec(name="many_requests", ue_count=20), topo._replace(links=links))
    transfers = [t for ts in run.transfers.values() for t in ts]
    assert len(transfers) == 20 and all(t.ok for t in transfers)
    assert run.testbed.invariant_violations(run.window[1]) == []


def test_sessions_are_planned_over_the_associated_upfs_alone():
    """UPF1's spoke at 42 ms brings it into the SMF's view after the core is
    ready: the sessions asked before its association is active go through
    UPF2, and all 20 UEs fetch."""
    topo = default_topology()
    latency = {"SMF": 15, "UPF1": 42}
    links = tuple(l._replace(latency_ms=latency.get(l.a, 1)) if l.b == "NRF" else l for l in topo.links)
    run = run_scenario(ScenarioSpec(name="many_requests", ue_count=20), topo._replace(links=links))
    transfers = [t for ts in run.transfers.values() for t in ts]
    assert len(transfers) == 20 and all(t.ok for t in transfers)
    upfs = {ue.session.paths[0].upf for ue in run.testbed.ues}
    assert upfs == {"UPF1", "UPF2"}
    assert run.testbed.invariant_violations(run.window[1]) == []


def test_the_core_is_not_ready_while_an_association_request_waits_for_its_answer():
    """The SMF's N4 link to UPF1 at 60 ms: both UPFs are in its view by the
    first attach time, but the SMF is ready only once UPF1's answer is in."""
    text = Path(default_topology().source).read_text()
    tb = Testbed(parse_topology(text.replace("\nSMF,UPF1,1,", "\nSMF,UPF1,60,")), seed=0)
    tb.boot()
    tb.run_until(T_ATTACH)
    smf = tb.smfs[0]
    assert smf.candidates["UPF"] == ["UPF1", "UPF2"]
    assert smf.associations == {"UPF1": "PENDING", "UPF2": "ACTIVE"}
    assert not smf.ready(tb.by_kind)
    tb.run_until(SETTLE)
    assert smf.associations == {"UPF1": "ACTIVE", "UPF2": "ACTIVE"} and smf.ready(tb.by_kind)


def test_an_association_request_the_fabric_refused_leaves_nothing_to_wait_for():
    """Without the SMF-UPF2 link the request to UPF2 is a "no link" row: the
    SMF does not wait for its answer, and a repeated call adds no row."""
    text = Path(default_topology().source).read_text()
    assert "\nSMF,UPF2,1,0.0,false\n" in text
    tb = Testbed(parse_topology(text.replace("\nSMF,UPF2,1,0.0,false\n", "\n")), seed=0)
    tb.boot()
    tb.run_until(T_ATTACH)
    smf = tb.smfs[0]
    assert smf.candidates["UPF"] == ["UPF1", "UPF2"]
    assert smf.associations == {"UPF1": "ACTIVE", "UPF2": "PENDING"} and smf.ready(tb.by_kind)
    smf.pfcp_associate("UPF2")
    tb.run_until(SETTLE)
    [refused] = [r for r in kinds_in(tb.records, "PFCP_ASSOC_REQ") if r.attrs.get("peer") == "UPF2"]
    assert (refused.outcome, refused.attrs["reason"]) == ("DROPPED", "no link")


@pytest.mark.parametrize("seed", [5, 6])
def test_a_lost_association_answer_is_waited_for_one_round_trip_only(seed):
    """SMF-UPF1 at loss 0.5: at these seeds UPF1's association answer is
    lost, so the SMF stops waiting once the round trip has passed and the UE
    attaches over UPF2, as when the request itself is lost."""
    text = Path(default_topology().source).read_text()
    assert "\nSMF,UPF1,1,0.0,false\n" in text
    topo = parse_topology(text.replace("\nSMF,UPF1,1,0.0,false\n", "\nSMF,UPF1,1,0.5,false\n"))
    run = run_scenario(ScenarioSpec("single_request", seed=seed), topo)
    smf, (ue,) = run.testbed.smfs[0], run.testbed.ues
    assert smf.associations == {"UPF1": "PENDING", "UPF2": "ACTIVE"}
    [asked] = [r for r in kinds_in(run.testbed.records, "PFCP_ASSOC_REQ") if r.dst == "UPF1"]
    [lost] = [r for r in kinds_in(run.testbed.records, "PFCP_ASSOC_RESP") if r.src == "UPF1"]
    assert (asked.outcome, lost.outcome) == ("DELIVERED", "DROPPED")
    assert ue.state == "SESSION_ACTIVE" and [p.upf for p in ue.session.paths] == ["UPF2"]
    assert all(t.ok for ts in run.transfers.values() for t in ts)


def test_a_lost_session_answer_is_waited_for_one_round_trip_only():
    """SMF-UPF1 at loss 0.5, seed 1: UPF1's answer to the session request is
    lost. One round trip plus 1 ms after asking, the SMF deletes the session
    at UPF1, takes the address back and rejects it, naming the silent UPF."""
    text = Path(default_topology().source).read_text()
    topo = parse_topology(text.replace("\nSMF,UPF1,1,0.0,false\n", "\nSMF,UPF1,1,0.5,false\n"))
    run = run_scenario(ScenarioSpec("single_request", seed=1), topo)
    smf, (ue,) = run.testbed.smfs[0], run.testbed.ues
    [asked] = kinds_in(run.testbed.records, "PFCP_SESSION_REQ")
    [lost] = kinds_in(run.testbed.records, "PFCP_SESSION_RESP")
    assert (asked.dst, asked.outcome, lost.outcome) == ("UPF1", "DELIVERED", "DROPPED")
    [delete] = kinds_in(run.testbed.records, "PFCP_SESSION_DELETE_REQ")
    assert (delete.dst, delete.ts, delete.outcome) == ("UPF1", asked.ts + 2 + 1, "DELIVERED")
    assert not run.testbed.upfs[0].teid_rules and not run.testbed.upfs[0].ueip_rules
    assert (ue.state, ue.reject_reason) == ("REGISTERED", "no PFCP session answer from UPF1")
    assert not smf._pending[MsgKind.SESSION_CREATE_REQ] and smf._released == ["10.45.0.2"]
    assert "transfer UE document failed segments=0 bytes=0 ms=0 error=no active session" \
        " (no PFCP session answer from UPF1)" in run.summary_lines


def test_a_ue_whose_attach_never_settles_fails_its_request_at_the_horizon(monkeypatch):
    monkeypatch.setattr(Ue, "attach", lambda ue, mode=Redundancy.NONE: None)
    run = run_scenario(ScenarioSpec(name="single_request"))
    [transfer] = run.transfers["UE"]
    assert (transfer.ok, transfer.error) == (False, "no active session")
    assert transfer.started_ms == transfer.completed_ms == run.window[1]


def sent_payloads(monkeypatch):
    """Every message the fabric is offered from now on, by its kind's name."""
    sent = {}
    send = Network.send

    def record(net, hop, pkt, stream=0, attrs=None):
        if attrs and "msg_kind" in attrs:
            sent.setdefault(attrs["msg_kind"], []).append(pkt.payload)
        return send(net, hop, pkt, stream, attrs)

    monkeypatch.setattr(Network, "send", record)
    return sent


def test_each_step_answer_lays_out_its_fields_in_one_order(monkeypatch):
    """The answers to the steps are pinned byte for byte: ue_id, result, then
    the session's fields (ue_ip, mode, paths); the NAS accept, which states
    no result, lays out the session's fields right after ue_id."""
    sent = sent_payloads(monkeypatch)
    run = run_scenario(ScenarioSpec(name="single_request"))
    [ue] = run.testbed.ues
    for kind in (MsgKind.AUTH_RESP, MsgKind.UDR_QUERY_RESP, MsgKind.SUBSCRIBER_RESP, MsgKind.POLICY_RESP):
        assert sent[kind.name] == [build(kind, ue_id=ue.imsi, result="OK")], kind
    paths = encode_paths(ue.session.paths)
    assert sent["SESSION_CREATE_RESP"] == [build(
        MsgKind.SESSION_CREATE_RESP, ue_id=ue.imsi, result="OK", ue_ip="10.45.0.2", mode="NONE", paths=paths
    )]
    assert sent["NAS_SESSION_ACCEPT"] == [build(
        MsgKind.NAS_SESSION_ACCEPT, ue_id=ue.imsi, ue_ip="10.45.0.2", mode="NONE", paths=paths
    )]


def test_each_refusing_step_answer_lays_out_its_reason_after_its_result(monkeypatch):
    sent = sent_payloads(monkeypatch)
    run = run_scenario(ScenarioSpec(name="single_request"), default_topology()._replace(subscribers=()))
    [ue] = run.testbed.ues
    assert (ue.state, ue.reject_reason) == ("DEREGISTERED", "unknown subscriber")
    assert sent["AUTH_RESP"] == [build(MsgKind.AUTH_RESP, ue_id=ue.imsi, result="OK")]
    for kind in (MsgKind.UDR_QUERY_RESP, MsgKind.SUBSCRIBER_RESP):
        assert sent[kind.name] == [build(kind, ue_id=ue.imsi, result="ERROR", reason="unknown subscriber")]
    assert "POLICY_RESP" not in sent


@pytest.mark.parametrize(
    "mode,cut_rules,reason",
    [
        pytest.param(
            Redundancy.DUAL_CONNECTIVITY, False, "dual connectivity needs two serving gNBs", id="plan"
        ),
        pytest.param(Redundancy.NONE, True, "no association", id="pfcp"),
    ],
)
def test_a_refused_session_answer_lays_out_its_reason_after_its_result(monkeypatch, mode, cut_rules, reason):
    sent = sent_payloads(monkeypatch)
    tb = Testbed(default_topology(), seed=0)
    tb.boot()
    tb.run_until(T_ATTACH - 1)  # PFCP associations are up
    if cut_rules:
        tb.upfs[0].associated_smfs.clear()
    ue = tb.ues[0]
    tb.net.schedule(T_ATTACH, lambda: ue.attach(mode))
    tb.run_until(SETTLE)
    assert (ue.state, ue.reject_reason) == ("REGISTERED", reason)
    assert sent["SESSION_CREATE_RESP"] == [
        build(MsgKind.SESSION_CREATE_RESP, ue_id=ue.imsi, result="ERROR", reason=reason)
    ]


GOLDEN = Path(__file__).parent / "vectors" / "events_log_sha256.txt"
GOLDEN_RUNS = [
    line.split()[:4] for line in
    (raw.split("#", 1)[0].strip() for raw in GOLDEN.read_text().splitlines()) if line
]


@pytest.mark.parametrize("scenario,ues,mode,loss", GOLDEN_RUNS)
def test_only_the_nfs_that_discover_are_notified(scenario, ues, mode, loss):
    """The AUSF discovers nothing, so it does not subscribe and is told of
    no registration; the AMF, the SMF and the UDM are."""
    topo = with_link_loss(default_topology(), float(loss)) if float(loss) else None
    spec = ScenarioSpec(name=scenario, ue_count=int(ues), redundancy=Redundancy[mode], seed=0)
    run = run_scenario(spec, topo=topo)
    notified = {r.dst for r in kinds_in(run.events, "NF_STATUS_NOTIFY")}
    assert notified == {"AMF", "SMF", "UDM"}
    assert run.testbed.nrf.status_subscribers == ["AMF", "SMF", "UDM"]


def test_pfcp_association_is_idempotent():
    tb = booted_testbed()
    smf = tb.smfs[0]
    assert smf.associations == {"UPF1": "ACTIVE", "UPF2": "ACTIVE"}
    smf.pfcp_associate("UPF1")  # repeat call must not emit another request
    tb.run_until(SETTLE + 50)
    reqs = kinds_in(tb.records, "PFCP_ASSOC_REQ")
    assert len(reqs) == 2  # one per UPF, ever


def test_the_amf_leaves_a_nas_kind_it_runs_no_procedure_for_unanswered(caplog):
    # a UE sends an accept up the radio leg; the gNB relays it, and the AMF
    # writes no row for it and answers nothing
    tb = booted_testbed()
    ue = tb.ues[0]
    start = len(tb.records)
    with caplog.at_level("DEBUG", logger="fivegsim.core_cp"):
        ue._send_nas(MsgKind.NAS_REGISTER_ACCEPT, ue_id=ue.imsi)
        tb.run_until(SETTLE + 50)
    rows = [(r.src, r.dst, r.outcome, r.attrs.get("msg_kind")) for r in tb.records[start:]]
    assert rows == [("UE", "gNB", DELIVERED, "RLS_NAS"), ("gNB", "AMF", DELIVERED, "NAS_REGISTER_ACCEPT")]
    assert "AMF: unhandled NAS NAS_REGISTER_ACCEPT" in caplog.messages
    # the run goes on: the UE registers and gets its session
    ue.attach()
    tb.run_until(SETTLE + 150)
    assert (ue.state, ue.reject_reason) == ("SESSION_ACTIVE", None)


def test_the_amf_answers_a_keepalive_by_the_answer_table(monkeypatch):
    # the NFs name no answer kind of their own: a new ANSWER row is their answer
    monkeypatch.setitem(ANSWER, MsgKind.NGAP_KEEPALIVE_REQ, MsgKind.NGAP_SETUP_RESP)
    tb = Testbed(default_topology(), seed=1)
    tb.boot()
    tb.run_until(8000)
    keepalives = [r for r in kinds_in(tb.records, "NGAP_KEEPALIVE_REQ") if r.outcome == DELIVERED]
    answers = [r.attrs.get("msg_kind") for r in tb.records if (r.src, r.dst) == ("AMF", "gNB")]
    assert keepalives
    assert answers == ["NGAP_SETUP_RESP"] * (1 + len(keepalives))


def test_radio_nodes_do_not_register_with_the_repository():
    tb = booted_testbed()
    assert "gNB" not in tb.nrf.registry
    assert "UE" not in tb.nrf.registry
    assert "SERVER" not in tb.nrf.registry


# -- registration outcome -------------------------------------------------------------

def test_unknown_subscriber_is_rejected():
    tb = Testbed(default_topology(), seed=0)
    tb.udrs[0].subscribers.clear()
    tb.boot()
    ue = tb.ues[0]
    tb.net.schedule(T_ATTACH, ue.attach)
    tb.run_until(SETTLE)
    assert ue.state == "DEREGISTERED"
    assert "unknown subscriber" in (ue.reject_reason or "")
    assert ue.imsi not in tb.amfs[0].ue_registered


def test_udm_without_udr_rejects_the_registration():
    text = Path(default_topology().source).read_text()
    topo = parse_topology("\n".join(line for line in text.splitlines() if "UDR" not in line))
    tb = Testbed(topo, seed=0)
    tb.boot()
    ue = tb.ues[0]
    tb.net.schedule(T_ATTACH, ue.attach)
    tb.run_until(SETTLE + HB)
    assert ue.state == "DEREGISTERED"
    assert ue.reject_reason == "no UDR discovered"
    assert tb.invariant_violations(SETTLE + HB) == []


def test_each_nf_walks_only_the_runs_asked_of_it():
    udr_query = ((MsgKind.UDR_QUERY_REQ, "UDR", "unknown subscriber", ()),)
    assert runs_of("AMF") == PROCEDURES
    assert runs_of("UDM") == {
        MsgKind.SUBSCRIBER_REQ: (MsgKind.SUBSCRIBER_RESP, MsgKind.SUBSCRIBER_RESP, udr_query)
    }
    # each NF asked a step walks one run per step asked of it, with no steps of its own
    for kind, request in (
        ("AUSF", MsgKind.AUTH_REQ), ("UDR", MsgKind.UDR_QUERY_REQ),
        ("PCF", MsgKind.POLICY_REQ), ("SMF", MsgKind.SESSION_CREATE_REQ),
    ):
        assert runs_of(kind) == {request: (ANSWER[request], ANSWER[request], ())}, kind
    for kind in ("NRF", "UPF", "NSSF", "BSF"):
        assert runs_of(kind) == {}, kind


def test_a_kind_with_no_class_of_its_own_is_a_plain_walker_of_that_kind():
    tb = Testbed(default_topology(), seed=0)
    for name in ("AUSF", "UDM", "PCF", "NSSF", "BSF"):
        node = tb.net.entity(name)
        assert (type(node), node.kind, node.runs) == (Walker, name, runs_of(name)), name
    assert NfEntity("X", "192.168.0.50", tb.net, tb.params, kind="AUSF").kind == "AUSF"


def test_a_step_asked_of_a_kind_with_no_class_is_answered_by_its_walker(monkeypatch):
    # a scratch table asks the registration's policy step of the NSSF, which
    # the AMF now discovers and links to: the NSSF's Walker answers it
    accept, reject, steps = PROCEDURES[MsgKind.NAS_REGISTER_REQ]
    moved = tuple((req, "NSSF" if nf == "PCF" else nf, refusal, inner) for req, nf, refusal, inner in steps)
    monkeypatch.setattr(core_cp, "PROCEDURES", {**PROCEDURES, MsgKind.NAS_REGISTER_REQ: (accept, reject, moved)})
    monkeypatch.setitem(core_cp.DISCOVERS, "AMF", ("AUSF", "UDM", "NSSF", "SMF"))
    text = default_topology_path().read_text(encoding="utf-8")
    tb = Testbed(parse_topology(text.replace("[links]\n", "[links]\nAMF,NSSF,1,0.0,false\n")), seed=0)
    tb.boot()
    ue = tb.ues[0]
    tb.net.schedule(T_ATTACH, ue.attach)
    tb.run_until(SETTLE)
    assert (ue.state, ue.reject_reason) == ("SESSION_ACTIVE", None)
    policy = [
        (r.attrs["msg_kind"], r.src, r.dst) for r in tb.records
        if r.outcome == DELIVERED and r.attrs.get("msg_kind", "").startswith("POLICY_")
    ]
    assert policy == [("POLICY_REQ", "AMF", "NSSF"), ("POLICY_RESP", "NSSF", "AMF")]
    assert tb.invariant_violations(SETTLE) == []


def test_an_error_answer_without_a_reason_gives_the_refusal_of_its_row(monkeypatch):
    # a scratch table renames the UDR row's refusal; the UDR errs without a reason
    accept, reject, steps = PROCEDURES[MsgKind.NAS_REGISTER_REQ]

    def renamed(steps):
        return tuple(
            (req, nf, "scratch refusal" if req is MsgKind.UDR_QUERY_REQ else refusal, renamed(inner))
            for req, nf, refusal, inner in steps
        )

    scratch = {**PROCEDURES, MsgKind.NAS_REGISTER_REQ: (accept, reject, renamed(steps))}
    monkeypatch.setattr(core_cp, "PROCEDURES", scratch)
    tb = Testbed(default_topology(), seed=0)
    udr = tb.udrs[0]
    answer_ok = udr.on_sbi

    def err(m, pkt, sender):
        if m.kind != MsgKind.UDR_QUERY_REQ:
            return answer_ok(m, pkt, sender)
        udr.send(sender, MsgKind.UDR_QUERY_RESP, ue_id=m.require(Tag.UE_ID), result="ERROR")

    udr.on_sbi = err
    got = arrivals(tb, "AMF")
    tb.boot()
    ue = tb.ues[0]
    tb.net.schedule(T_ATTACH, ue.attach)
    tb.run_until(SETTLE)
    assert (ue.state, ue.reject_reason) == ("DEREGISTERED", "scratch refusal")
    # the UDM's answer states its result and carries the refusal as its reason
    [answer] = [m for m in got if m.kind == MsgKind.SUBSCRIBER_RESP]
    assert (answer.text(Tag.RESULT), answer.text(Tag.REASON)) == ("ERROR", "scratch refusal")


@pytest.mark.parametrize(
    "nf,request_kind,answer_kind",
    [
        pytest.param("AUSF", MsgKind.AUTH_REQ, MsgKind.AUTH_RESP, id="auth"),
        pytest.param("PCF", MsgKind.POLICY_REQ, MsgKind.POLICY_RESP, id="policy"),
    ],
)
def test_a_refused_authentication_or_policy_rejects_the_registration(nf, request_kind, answer_kind):
    tb = Testbed(default_topology(), seed=0)
    refuser = tb.net.entity(nf)
    answer_ok = refuser.on_sbi

    def refuse(m, pkt, sender):
        if m.kind == request_kind:
            ue_id = m.require(Tag.UE_ID)
            refuser.send(sender, answer_kind, ue_id=ue_id, result="ERROR", reason=f"{nf} says no")
        else:
            answer_ok(m, pkt, sender)

    refuser.on_sbi = refuse
    tb.boot()
    ue = tb.ues[0]
    tb.net.schedule(T_ATTACH, ue.attach)
    tb.run_until(SETTLE)
    assert (ue.state, ue.reject_reason, ue.session) == ("DEREGISTERED", f"{nf} says no", None)
    amf = tb.amfs[0]
    assert ue.imsi not in amf.ue_registered and ue.imsi not in amf._pending[MsgKind.NAS_REGISTER_REQ]
    # the refusal ends the chain: nothing is asked after the refused answer
    asked = [r.attrs["msg_kind"] for r in tb.records if r.src == "AMF" and r.attrs.get("ue_id") == ue.imsi]
    assert asked[-1] == "NAS_REGISTER_REJECT"
    assert "NAS_REGISTER_ACCEPT" not in asked and "SESSION_CREATE_REQ" not in asked


def test_session_fails_when_a_upf_refuses_its_rules():
    tb = Testbed(default_topology(), seed=0)
    tb.boot()
    tb.run_until(T_ATTACH - 1)  # PFCP associations are up
    for upf in tb.upfs:
        upf.associated_smfs.clear()
    ue = tb.ues[0]
    tb.net.schedule(T_ATTACH, ue.attach)
    tb.run_until(SETTLE)
    assert ue.state == "REGISTERED"
    assert ue.reject_reason == "no association"
    assert ue.session is None
    assert ue.imsi not in tb.smfs[0].sessions
    assert not tb.upfs[0].teid_rules and not tb.upfs[0].ueip_rules
    assert [r.src for r in kinds_in(tb.records, "NAS_SESSION_REJECT")] == ["AMF"]
    assert any(r.attrs.get("nas_kind") == "NAS_SESSION_REJECT" for r in tb.records)


def test_a_refused_session_is_deleted_at_the_upfs_that_accepted_it():
    tb = Testbed(default_topology(), seed=0)
    tb.boot()
    tb.run_until(T_ATTACH - 1)  # PFCP associations are up
    upf1, upf2 = tb.upfs
    upf2.associated_smfs.clear()
    ue = tb.ues[0]
    tb.net.schedule(T_ATTACH, lambda: ue.attach(Redundancy.PSA_ANCHOR))
    tb.run_until(SETTLE)
    assert (ue.state, ue.reject_reason) == ("REGISTERED", "no association")
    assert not upf1.teid_rules and not upf1.ueip_rules and not upf1._windows
    assert [(r.src, r.dst) for r in kinds_in(tb.records, "PFCP_SESSION_DELETE_REQ")] == [("SMF", "UPF1")]
    assert [r.src for r in kinds_in(tb.records, "PFCP_SESSION_DELETE_RESP")] == ["UPF1"]
    # the refused session's address goes to the next one
    upf2.associated_smfs.add("SMF")
    ue.request_session(Redundancy.PSA_ANCHOR)
    tb.run_until(SETTLE + 100)
    assert ue.state == "SESSION_ACTIVE" and ue.session.ue_ip == "10.45.0.2"
    assert {r.ue_id for r in upf1.teid_rules.values()} == {ue.imsi}


def test_known_subscriber_registers_and_gets_session():
    tb = Testbed(default_topology(), seed=0)
    tb.boot()
    ue = tb.ues[0]
    tb.net.schedule(T_ATTACH, lambda: ue.attach(Redundancy.NONE))
    tb.run_until(SETTLE)
    assert ue.state == "SESSION_ACTIVE"
    assert ue.session is not None
    assert ue.session.ue_ip.startswith("10.45.")
    smf = tb.smfs[0]
    assert ue.imsi in smf.sessions
    # first pool host is reserved for the gateway
    assert ue.session.ue_ip == "10.45.0.2"


# -- session planning --------------------------------------------------------------------

def test_plan_paths_none_mode():
    smf = booted_testbed().smfs[0]
    paths = smf.plan_paths(Redundancy.NONE, ["gNB"])
    assert len(paths) == 1
    assert paths[0].gnb == "gNB" and paths[0].upf == "UPF1"
    assert not paths[0].carry_seq
    assert paths[0].teid_ul != paths[0].teid_dl


def test_plan_paths_dual_needs_two_gnbs():
    smf = booted_testbed().smfs[0]
    with pytest.raises(FlowError, match="two serving gNBs"):
        smf.plan_paths(Redundancy.DUAL_CONNECTIVITY, ["gNB"])
    paths = smf.plan_paths(Redundancy.DUAL_CONNECTIVITY, ["gNB", "gNB2"])
    assert {(p.gnb, p.upf) for p in paths} == {("gNB", "UPF1"), ("gNB2", "UPF2")}


def test_plan_paths_n3_replication_shares_one_leg():
    smf = booted_testbed().smfs[0]
    paths = smf.plan_paths(Redundancy.N3_REPLICATION, ["gNB"])
    assert len(paths) == 2
    assert {(p.gnb, p.upf) for p in paths} == {("gNB", "UPF1")}
    assert all(p.carry_seq for p in paths)
    assert len({p.teid_ul for p in paths}) == 2


def test_plan_paths_psa_uses_first_and_last_upf():
    smf = booted_testbed().smfs[0]
    paths = smf.plan_paths(Redundancy.PSA_ANCHOR, ["gNB"])
    assert paths[1].upf == "UPF2"
    assert paths[0].upf == "UPF1" and paths[1].upf == "UPF2"


def test_plan_paths_without_prerequisites():
    smf = booted_testbed().smfs[0]
    with pytest.raises(FlowError, match="no serving gNB"):
        smf.plan_paths(Redundancy.NONE, [])
    smf.candidates["UPF"] = []
    with pytest.raises(FlowError, match="no UPF"):
        smf.plan_paths(Redundancy.NONE, ["gNB"])


def test_plan_paths_only_over_upfs_whose_association_is_active():
    smf = booted_testbed().smfs[0]
    smf.associations["UPF1"] = "PENDING"
    assert [p.upf for p in smf.plan_paths(Redundancy.NONE, ["gNB"])] == ["UPF2"]
    with pytest.raises(FlowError, match="PSA anchoring needs"):
        smf.plan_paths(Redundancy.PSA_ANCHOR, ["gNB"])
    smf.associations["UPF2"] = "PENDING"
    with pytest.raises(FlowError, match="no UPF discovered with an active PFCP association"):
        smf.plan_paths(Redundancy.NONE, ["gNB"])


def test_teids_are_unique_and_increasing():
    smf = booted_testbed().smfs[0]
    seen = [smf.next_teid() for _ in range(10)]
    assert seen == sorted(set(seen))


def pool_smf(pool: str) -> Smf:
    return Smf("SMF", "192.168.0.14", Network(seed=0), Params(ue_pool=pool))


def test_pool_exhaustion_raises():
    smf = pool_smf("10.45.0.0/30")  # hosts 10.45.0.1, the gateway, and 10.45.0.2
    assert smf.allocate_ue_ip() == "10.45.0.2"
    with pytest.raises(FlowError, match="UE address pool exhausted"):
        smf.allocate_ue_ip()


@pytest.mark.parametrize("prefix", range(22, 33))
def test_the_pool_hands_out_every_host_but_the_gateway_in_order(prefix):
    """/31 and /32 are where hosts() keeps the network and broadcast addresses."""
    pool = f"10.45.0.0/{prefix}"
    smf = pool_smf(pool)
    for host in list(ipaddress.IPv4Network(pool).hosts())[1:]:
        assert smf.allocate_ue_ip() == str(host)
    with pytest.raises(FlowError, match="UE address pool exhausted"):
        smf.allocate_ue_ip()


def test_duplicate_session_rejected_at_ue():
    tb = Testbed(default_topology(), seed=0)
    tb.boot()
    ue = tb.ues[0]
    tb.net.schedule(T_ATTACH, lambda: ue.attach(Redundancy.NONE))
    tb.run_until(SETTLE)
    with pytest.raises(FlowError, match="cannot request a session"):
        ue.request_session()


def test_rule_programs_by_mode():
    smf = booted_testbed().smfs[0]

    paths = smf.plan_paths(Redundancy.NONE, ["gNB"])
    rules = smf._build_rules(PduSession("u", "10.45.0.2", Redundancy.NONE, paths))
    p = paths[0]
    assert rules == {
        "UPF1": f"TEID|{p.teid_ul}|0|route:SERVER;UEIP|10.45.0.2|0|encap:gNB:{p.teid_dl}:0"
    }

    # dual connectivity: one plain leg per gNB, each on its own UPF
    paths = smf.plan_paths(Redundancy.DUAL_CONNECTIVITY, ["gNB", "gNB2"])
    assert [(p.teid_ul, p.teid_dl) for p in paths] == [(3, 4), (5, 6)]
    rules = smf._build_rules(PduSession("u", "10.45.0.3", Redundancy.DUAL_CONNECTIVITY, paths))
    assert rules == {
        "UPF1": "TEID|3|0|route:SERVER;UEIP|10.45.0.3|0|encap:gNB:4:0",
        "UPF2": "TEID|5|0|route:SERVER;UEIP|10.45.0.3|0|encap:gNB2:6:0",
    }

    # N3 replication: both tunnels dedup at one UPF, the downlink is tagged and doubled
    paths = smf.plan_paths(Redundancy.N3_REPLICATION, ["gNB"])
    assert [(p.teid_ul, p.teid_dl) for p in paths] == [(7, 8), (9, 10)]
    rules = smf._build_rules(PduSession("u", "10.45.0.4", Redundancy.N3_REPLICATION, paths))
    assert rules == {
        "UPF1": "TEID|7|1|route:SERVER;TEID|9|1|route:SERVER;"
        "UEIP|10.45.0.4|1|encap:gNB:8:1,encap:gNB:10:1",
    }

    # PSA anchor: the first leg bridges N3 to N9 (TEIDs 15 up, 16 down) at
    # UPF1; the anchor UPF2 terminates and deduplicates both tunnels
    paths = smf.plan_paths(Redundancy.PSA_ANCHOR, ["gNB"])
    assert [(p.upf, p.teid_ul, p.teid_dl) for p in paths] == [("UPF1", 11, 12), ("UPF2", 13, 14)]
    rules = smf._build_rules(PduSession("u", "10.45.0.5", Redundancy.PSA_ANCHOR, paths))
    assert list(rules) == ["UPF1", "UPF2"]
    assert rules == {
        "UPF1": "TEID|11|0|encap:UPF2:15:1;TEID|16|0|encap:gNB:12:1",
        "UPF2": "TEID|15|1|route:SERVER;TEID|13|1|route:SERVER;"
        "UEIP|10.45.0.5|1|encap:UPF1:16:1,encap:gNB:14:1",
    }
    assert smf.next_teid() == 17  # the bridge took exactly two TEIDs


# -- path codec --------------------------------------------------------------------------

def test_paths_encode_decode_round_trip():
    paths = (
        SessionPath("gNB", "UPF1", 1, 2, False),
        SessionPath("gNB2", "UPF2", 3, 4, True),
    )
    assert decode_paths(encode_paths(paths)) == paths
    assert decode_paths("") == ()


@pytest.mark.parametrize(
    "text",
    # TEID 0 is no tunnel endpoint, and 4294967296 is one past the 32-bit field
    ["a/b/c", "g/u/1/2/0/9", "g/u/x/2/0", "g/u/01/2/0", "g/u/1/+2/0", "g/u/0/2/0", "g/u/1/4294967296/0"],
)
def test_decode_paths_rejects_malformed_legs(text):
    with pytest.raises(WireFormatError):
        decode_paths(text)


def test_session_fields_round_trip_through_a_message():
    session = PduSession(
        "imsi-1", "10.45.0.9", Redundancy.PSA_ANCHOR,
        (SessionPath("gNB", "UPF1", 1, 2, True), SessionPath("gNB", "UPF2", 3, 4, True)),
    )
    assert list(session.fields()) == ["ue_id", "ue_ip", "mode", "paths"]
    assert read_session(parse(build(MsgKind.NAS_SESSION_ACCEPT, **session.fields()))) == session


def test_read_mode_reads_exact_member_names():
    for mode in Redundancy:
        assert read_mode(parse(build(MsgKind.SESSION_CREATE_REQ, mode=mode.name))) is mode


@pytest.mark.parametrize("text", ["psa_anchor", " NONE", " psa_anchor ", "NONE\n"])
def test_read_mode_refuses_any_other_spelling(text):
    with pytest.raises(WireFormatError, match=re.escape(f"unknown redundancy mode {text!r}")):
        read_mode(parse(build(MsgKind.SESSION_CREATE_REQ, mode=text)))


# -- status fanout -----------------------------------------------------------------------

def test_registration_fanout_reaches_subscribers():
    tb = Testbed(default_topology(), seed=0)
    got = arrivals(tb, "AMF")
    tb.boot()
    # the AMF registers, subscribes and discovers at t=0, before the SMF and
    # the UDM (t=0) and the rest (T_BOOT_CORE) register: its discovery finds
    # none of its peer kinds, and every later registration fans out to it
    tb.run_until(2)
    assert tb.amfs[0].candidates == {"AUSF": [], "UDM": ["UDM"], "PCF": [], "SMF": ["SMF"]}
    tb.run_until(SETTLE)
    assert tb.amfs[0].candidates == {"AUSF": ["AUSF"], "UDM": ["UDM"], "PCF": ["PCF"], "SMF": ["SMF"]}
    notified = {
        m.text(Tag.NF_ID) for m in got
        if m.kind == MsgKind.NF_STATUS_NOTIFY and m.text(Tag.STATUS) == REGISTERED
    }
    assert notified == {"SMF", "UDM", "AUSF", "UDR", "PCF", "NSSF", "BSF", "UPF1", "UPF2", "NWDAF"}


FLAPPING = ("AUSF", "UDM", "PCF", "SMF")  # the kinds the AMF discovers


@settings(max_examples=25, deadline=None)
@given(
    steps=st.lists(st.fixed_dictionaries({k: st.booleans() for k in FLAPPING}), min_size=1, max_size=5),
    leaver=st.none() | st.tuples(st.sampled_from(FLAPPING), st.integers(0, 4)),
)
def test_amf_view_follows_the_registry(steps, leaver):
    """Each step switches heartbeats on or off for two heartbeat periods,
    enough for a silent NF to be suspended and a revived one to come back;
    `leaver` deregisters one NF at the start of a step. Once a step settles,
    the AMF's view of each kind it discovers is what the registry would
    answer."""
    tb = booted_testbed()
    amf, nrf = tb.amfs[0], tb.nrf
    for i, beating in enumerate(steps):
        for kind, on in beating.items():
            tb.by_kind[kind][0].heartbeat_enabled = on
        if leaver is not None and leaver[1] == i:
            nf = tb.by_kind[leaver[0]][0]
            nf.send("NRF", MsgKind.NF_DEREGISTER_REQ, nf_id=nf.name)
        horizon = (2 * i + 2) * HB + 100  # past the grid's sweeps, heartbeats and notifications
        tb.run_until(horizon)
        for kind in FLAPPING:
            assert amf.candidates[kind] == [p.nf_id for p in nrf.profiles_of(kind)], (i, kind)
        assert tb.invariant_violations(horizon) == []


def test_idle_window_heartbeat_counts():
    tb = booted_testbed()
    tb.run_until(SETTLE + 10_000)
    in_window = [
        r
        for r in tb.records
        if r.attrs.get("msg_kind") == "NF_HEARTBEAT_REQ"
        and SETTLE <= r.ts < SETTLE + 10_000
        and r.outcome == DELIVERED
    ]
    per_nf = {}
    for r in in_window:
        per_nf[r.src] = per_nf.get(r.src, 0) + 1
    # 3333ms grid puts exactly three beats inside a 10s window for every NF
    assert set(per_nf.values()) == {3}
    assert per_nf["AUSF"] == per_nf["NSSF"] == per_nf["PCF"] == 3


# -- send policy ------------------------------------------------------------------

@pytest.mark.parametrize("name,ues", [("validate", 1), ("single_request", 1), ("many_requests", 5)])
def test_every_message_row_follows_the_send_policy(name, ues):
    # the kind names the protocol, the protocol names both ports
    result = run_scenario(ScenarioSpec(name=name, ue_count=ues, seed=0))
    params = result.testbed.params
    rows = [r for r in result.events if r.is_wire and r.protocol is not Protocol.GTPU]
    assert len(rows) > 100
    for r in rows:
        assert PROTOCOL[MsgKind[r.attrs["msg_kind"]]] is r.protocol, r
        assert r.attrs["src_port"] == r.attrs["dst_port"] == str(params.ports[r.protocol]), r
