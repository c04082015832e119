"""Hostile peers: bad input on any link is dropped with a reason, never fatal.

Every case starts from a booted default testbed at t=500, injects packets
on existing links and runs on. Each fixed case ends the run with an
exception unless the receiving node contains the bad input. A packet's
claimed source address never names its sender: the receiver learns that
from the link.
"""
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tlv_elements
from fivegsim.config import default_topology
from fivegsim.core_cp import decode_paths, read_mode, read_session
from fivegsim.messages import PROTOCOL, MsgKind, Tag, build, canonical_int, parse, read_teid
from fivegsim.nwdaf import export_events_text, import_events_text
from fivegsim.runner import T_ATTACH, Testbed
from fivegsim.simnet import DROPPED, ELIMINATED_DUPLICATE
from fivegsim.urllc import Redundancy
from fivegsim.user_plane import parse_rule_program
from fivegsim.wirefmt import Protocol, SimPacket, WireFormatError, encode_packet

BOOTED = 500
HORIZON = 700


def booted(attach=False):
    tb = Testbed(default_topology(), seed=0)
    tb.boot()
    if attach:
        ue = tb.ues[0]
        tb.net.schedule(T_ATTACH, ue.attach)
    tb.run_until(BOOTED)
    return tb


def inject(tb, at, sender, receiver, protocol, payload, src_ip=None):
    """Send `payload` from `sender` to its link peer `receiver` at virtual
    time `at`, with `src_ip` (by default the sender's own address) as its
    source."""
    hop = tb.net.hop(sender, receiver)
    port = tb.params.ports[protocol]
    pkt = SimPacket(protocol, src_ip or tb.net.entity(sender).ip, hop.dst_ip, port, port, payload)
    tb.net.schedule(at, lambda: tb.net.send(hop, pkt))


def assert_log_round_trips(tb):
    """No reserved character reached a row: the exported log reads back as itself."""
    text = export_events_text(tb.records)
    assert export_events_text(import_events_text(text)) == text


def local_rows(tb, entity):
    return [r for r in tb.records if r.link_id == f"local:{entity}"]


def assert_contained(tb, horizon=HORIZON):
    """The run reached its horizon, its invariants hold and every local row
    is a drop with a reason or an elimination with a sequence number. Each
    names as its source the node itself or the other end of one of its links."""
    assert tb.net.now == horizon
    assert tb.invariant_violations(horizon) == []
    for r in tb.records:
        if not r.is_wire:
            assert (r.outcome == DROPPED and r.attrs.get("reason")) or (
                r.outcome == ELIMINATED_DUPLICATE and r.attrs.get("seq")
            ), r
            assert r.src == r.dst or (r.src, r.dst) in tb.net.hops, r


def received(tb, name):
    """Every message `name` takes from now on, parsed."""
    got = []
    node = tb.net.entity(name)
    handle = node.handle_packet

    def record(pkt, *rest):
        got.append(parse(pkt.payload))
        handle(pkt, *rest)

    node.handle_packet = record
    return got


FIXED_CASES = [
    pytest.param(
        "AMF", "NRF", Protocol.SBI, b"\x00\x01\x00\x07\x00\x09ab", "runs past",
        id="truncated-tlv",
    ),
    pytest.param(
        "AMF", "NRF", Protocol.SBI, build(MsgKind.NF_HEARTBEAT_REQ),
        "missing mandatory field NF_ID", id="heartbeat-without-nf-id",
    ),
    pytest.param(
        "AMF", "SMF", Protocol.SBI,
        build(MsgKind.SESSION_CREATE_REQ, ue_id="imsi-001010000000001", mode="BOGUS", gnb="gNB"),
        "unknown redundancy mode 'BOGUS'", id="session-mode-bogus",
    ),
    pytest.param(
        "AMF", "gNB", Protocol.NGAP,
        build(MsgKind.NGAP_SESSION_SETUP, ue_id="imsi-1", ue_ip="10.45.0.9", paths="a/b/c"),
        "malformed session path 'a/b/c'", id="setup-paths-a-b-c",
    ),
    pytest.param(
        "AMF", "gNB", Protocol.NGAP,
        build(MsgKind.NGAP_SESSION_SETUP, ue_id="imsi-1", ue_ip="10.45.0.9", mode="ZZZ"),
        "unknown redundancy mode 'ZZZ'", id="setup-mode-zzz",
    ),
] + [
    # a step request names the UE whose run it starts: without one, no run starts
    pytest.param(
        sender, receiver, Protocol.SBI, build(kind), f"missing mandatory field UE_ID in {kind.name}",
        id=f"{kind.name.lower()}-without-ue-id",
    )
    for sender, receiver, kind in (
        ("AMF", "AUSF", MsgKind.AUTH_REQ), ("AMF", "PCF", MsgKind.POLICY_REQ),
        ("UDM", "UDR", MsgKind.UDR_QUERY_REQ), ("AMF", "SMF", MsgKind.SESSION_CREATE_REQ),
    )
]


@pytest.mark.parametrize("sender,receiver,protocol,payload,reason", FIXED_CASES)
def test_bad_message_is_dropped_with_its_reason(sender, receiver, protocol, payload, reason):
    tb = booted()
    inject(tb, BOOTED + 1, sender, receiver, protocol, payload)
    tb.run_until(HORIZON)
    assert_contained(tb)
    drops = local_rows(tb, receiver)
    assert len(drops) == 1
    assert drops[0].src == sender and drops[0].protocol is protocol
    assert reason in drops[0].attrs["reason"]


def test_a_nas_request_in_an_sbi_envelope_starts_no_procedure():
    """The AMF's procedures start over NAS alone: their request kinds in an
    SBI envelope are no step request, and the AMF sends nothing."""
    tb = booted()
    imsi = tb.ues[0].imsi
    for kind in (MsgKind.NAS_REGISTER_REQ, MsgKind.NAS_SESSION_REQ):
        inject(tb, BOOTED + 1, "UDM", "AMF", Protocol.SBI, build(kind, ue_id=imsi))
    tb.run_until(HORIZON)
    assert_contained(tb)
    assert [r for r in tb.records if r.src == "AMF" and r.ts > BOOTED] == []
    assert local_rows(tb, "AMF") == []


def test_a_drop_names_the_link_sender_not_the_claimed_address():
    tb = booted()
    truncated = b"\x00\x01\x00\x07\x00\x09ab"
    udm_ip = tb.net.entity("UDM").ip
    inject(tb, BOOTED + 1, "AMF", "NRF", Protocol.SBI, truncated, udm_ip)
    tb.run_until(HORIZON)
    assert_contained(tb)
    [drop] = local_rows(tb, "NRF")
    assert drop.src == "AMF" and "runs past" in drop.attrs["reason"]


def test_a_forged_source_address_is_answered_over_the_link_it_came_by():
    tb = booted()
    link = tb.net.hop("AMF", "NRF")
    heartbeat = build(MsgKind.NF_HEARTBEAT_REQ, nf_id="AMF")
    inject(tb, BOOTED + 1, "AMF", "NRF", Protocol.SBI, heartbeat, tb.net.entity("UDM").ip)
    tb.run_until(HORIZON)
    assert_contained(tb)
    answers = [r for r in tb.records if r.ts > BOOTED and r.attrs.get("msg_kind") == "NF_HEARTBEAT_RESP"]
    assert [(r.link_id, r.src, r.dst) for r in answers] == [(link.link_id, "NRF", "AMF")]


@pytest.mark.parametrize(
    "kind,fields",
    [
        pytest.param(
            MsgKind.NF_REGISTER_REQ, {"nf_id": "gNX", "nf_type": "UDM", "addr": "192.168.0.16"},
            id="register",
        ),
        pytest.param(MsgKind.NF_HEARTBEAT_REQ, {"nf_id": "UDM"}, id="heartbeat"),
        pytest.param(MsgKind.NF_DEREGISTER_REQ, {"nf_id": "UDM"}, id="deregister"),
    ],
)
def test_the_registry_lets_a_node_manage_only_its_own_profile(kind, fields):
    tb = booted()
    before = {nf_id: profile.snapshot() for nf_id, profile in tb.nrf.registry.items()}
    answers = received(tb, "AMF")
    inject(tb, BOOTED + 1, "AMF", "NRF", Protocol.SBI, build(kind, **fields))
    tb.run_until(HORIZON)
    assert_contained(tb)
    assert tb.nrf.registry == before
    [answer] = answers
    assert answer.kind == kind + 1 and answer.text(Tag.RESULT) == "ERROR"
    assert answer.text(Tag.REASON) == f"AMF cannot manage the profile of {fields['nf_id']}"


# "\u00b2" passes str.isdigit() but not int(); "\u0663" passes both; a TEID has
# one spelling, from 1 to 32 bits, and a UEIP selector is an IPv4 address
@pytest.mark.parametrize(
    "rules",
    [
        "TEID|x|0|route:SERVER", "TEID|\u00b2|1|route:SERVER", "TEID|5|1|encap:gNB:\u00b2:1",
        "TEID|0012|0|route:SERVER", "TEID|\u0663|0|route:SERVER", "TEID|0|0|route:SERVER",
        "TEID|5|1|encap:gNB:99999999999:1", "UEIP|notanip|0|encap:gNB:8:0",
    ],
)
def test_upf_answers_a_malformed_rule_program_with_an_error(rules):
    tb = booted()
    upf = tb.upfs[0]
    rules_before, ueip_before = dict(upf.teid_rules), dict(upf.ueip_rules)
    got = received(tb, "SMF")
    payload = build(MsgKind.PFCP_SESSION_REQ, ue_id="imsi-1", ue_ip="10.45.0.9", rules=rules)
    inject(tb, BOOTED + 1, "SMF", upf.name, Protocol.PFCP, payload)
    tb.run_until(HORIZON)
    assert_contained(tb)
    answers = [
        r for r in tb.records
        if r.ts > BOOTED and r.src == upf.name and r.attrs.get("msg_kind") == "PFCP_SESSION_RESP"
    ]
    assert len(answers) == 1
    [answer] = [m for m in got if m.kind == MsgKind.PFCP_SESSION_RESP]
    assert answer.text(Tag.RESULT) == "ERROR"
    assert upf.teid_rules == rules_before and upf.ueip_rules == ueip_before


@pytest.mark.parametrize(
    "sender,receiver,protocol,payload",
    [
        pytest.param(
            "UE", "gNB", Protocol.RLS, build(MsgKind.RLS_DATA, ue_id="imsi-1", data=b"garbage"),
            id="undecodable-uplink",
        ),
        pytest.param(
            "gNB", "UE", Protocol.RLS, build(MsgKind.RLS_DATA, ue_id="imsi-1", data=b"garbage"),
            id="undecodable-downlink",
        ),
        pytest.param("AMF", "NRF", Protocol.GTPU, b"\xde\xad\xbe\xef", id="gtpu-to-the-registry"),
    ],
)
def test_drop_row_names_the_packet_that_carried_the_bad_bytes(sender, receiver, protocol, payload):
    tb = booted()
    inject(tb, BOOTED + 1, sender, receiver, protocol, payload)
    tb.run_until(HORIZON)
    assert_contained(tb)
    [carrier] = [r for r in tb.records if r.is_wire and r.ts > BOOTED and r.dst == receiver]
    [drop] = local_rows(tb, receiver)
    assert (drop.src, drop.protocol, drop.size) == (sender, protocol, carrier.size)


def test_stale_nas_rejects_leave_an_active_session_alone():
    tb = booted(attach=True)
    ue = tb.ues[0]
    tb.net.schedule(BOOTED + 1, lambda: ue.request_document("document"))
    for kind in (MsgKind.NAS_REGISTER_REJECT, MsgKind.NAS_SESSION_REJECT):
        nas = build(kind, ue_id=ue.imsi, reason="forged")
        inject(tb, BOOTED + 2, "gNB", ue.name, Protocol.RLS, build(MsgKind.RLS_NAS, ue_id=ue.imsi, data=nas))
    tb.run_until(HORIZON)
    assert_contained(tb)
    assert ue.state == "SESSION_ACTIVE" and ue.reject_reason is None
    assert ue.transfers[0].ok


def test_smf_refuses_dual_connectivity_over_one_gnb_named_twice():
    tb = booted()
    payload = build(
        MsgKind.SESSION_CREATE_REQ, ue_id="imsi-7", mode="DUAL_CONNECTIVITY", gnb="gNB;gNB"
    )
    inject(tb, BOOTED + 1, "AMF", "SMF", Protocol.SBI, payload)
    tb.run_until(HORIZON)
    assert_contained(tb)
    answers = [r for r in tb.records if r.ts > BOOTED and r.attrs.get("msg_kind") == "SESSION_CREATE_RESP"]
    assert [r.src for r in answers] == ["SMF"]
    assert "imsi-7" not in tb.smfs[0].sessions


def test_smf_refuses_psa_anchoring_over_one_upf_named_twice():
    tb = booted()
    ue = tb.ues[0]
    answer = build(
        MsgKind.NF_DISCOVER_RESP, result="OK", nf_type="UPF",
        data=b"UPF1|UPF|192.168.0.21;UPF1|UPF|192.168.0.21",
    )
    inject(tb, BOOTED + 1, "NRF", "SMF", Protocol.SBI, answer)
    tb.net.schedule(BOOTED + 2, lambda: ue.attach(Redundancy.PSA_ANCHOR))
    tb.run_until(HORIZON)
    assert_contained(tb)
    assert tb.smfs[0].candidates["UPF"] == ["UPF1", "UPF1"]
    assert ue.state == "REGISTERED" and "an intermediate UPF and an anchor" in ue.reject_reason


def test_a_session_request_arriving_twice_plans_one_session():
    # the UE registers, and one gNB cannot serve the dual connectivity it
    # asks for, so it has no session; a session request then reaches the AMF
    # twice while the first copy is still pending at the SMF
    tb = booted()
    ue = tb.ues[0]
    tb.net.schedule(BOOTED + 1, lambda: ue.attach(Redundancy.DUAL_CONNECTIVITY))
    nas = build(MsgKind.NAS_SESSION_REQ, ue_id=ue.imsi, mode="NONE", gnb="gNB")
    rls = build(MsgKind.RLS_NAS, ue_id=ue.imsi, data=nas)
    for _ in range(2):
        inject(tb, BOOTED + 31, ue.name, "gNB", Protocol.RLS, rls)
    tb.run_until(HORIZON)
    assert_contained(tb)
    assert ue.state == "REGISTERED" and "two serving gNBs" in ue.reject_reason
    creates = [
        r for r in tb.records if r.attrs.get("msg_kind") == "SESSION_CREATE_REQ" and r.ts > BOOTED + 31
    ]
    assert len(creates) == 1
    [drop] = local_rows(tb, "AMF")
    assert (drop.src, drop.attrs["reason"]) == ("gNB", "session request pending")
    upf = tb.upfs[0]
    assert list(upf.ueip_rules) == [tb.smfs[0].sessions[ue.imsi].ue_ip]
    assert len(upf.teid_rules) == 1


def rows_after(tb, kind, t=BOOTED):
    return [r for r in tb.records if r.is_wire and r.attrs.get("msg_kind") == kind and r.ts > t]


def test_a_session_create_request_arriving_twice_programs_one_session():
    # two copies of one request for a UE the AMF never asked about reach the
    # SMF at once: the second is dropped while the first waits for UPF1
    tb = booted(attach=True)
    request = build(MsgKind.SESSION_CREATE_REQ, ue_id="imsi-x", mode="NONE", gnb="gNB")
    for _ in range(2):
        inject(tb, BOOTED + 1, "AMF", "SMF", Protocol.SBI, request)
    tb.run_until(HORIZON)
    assert_contained(tb)
    [drop] = local_rows(tb, "SMF")
    assert (drop.src, drop.attrs["reason"]) == ("AMF", "session request pending")
    assert drop.attrs["ue_id"] == "imsi-x"
    for kind in ("PFCP_SESSION_REQ", "PFCP_SESSION_RESP", "SESSION_CREATE_RESP"):
        assert len(rows_after(tb, kind)) == 1, kind
    smf, upf1 = tb.smfs[0], tb.upfs[0]
    assert smf.sessions["imsi-x"].ue_ip == "10.45.0.3" and smf._released == []
    assert sorted(upf1.ueip_rules) == ["10.45.0.2", "10.45.0.3"]
    assert sorted(upf1.teid_rules) == [1, 3]


def test_a_subscriber_request_arriving_twice_queries_the_udr_once():
    tb = booted()
    request = build(MsgKind.SUBSCRIBER_REQ, ue_id=tb.ues[0].imsi)
    for _ in range(2):
        inject(tb, BOOTED + 1, "AMF", "UDM", Protocol.SBI, request)
    tb.run_until(HORIZON)
    assert_contained(tb)
    [drop] = local_rows(tb, "UDM")
    assert (drop.src, drop.attrs["reason"]) == ("AMF", "registration pending")
    for kind in ("UDR_QUERY_REQ", "UDR_QUERY_RESP", "SUBSCRIBER_RESP"):
        assert len(rows_after(tb, kind)) == 1, kind


def test_a_registration_request_arriving_twice_runs_one_chain():
    # the UDM keeps one requester per UE: a second chain would lose an answer
    tb = booted()
    ue = tb.ues[0]
    rls = build(MsgKind.RLS_NAS, ue_id=ue.imsi, data=build(MsgKind.NAS_REGISTER_REQ, ue_id=ue.imsi))
    for _ in range(2):
        inject(tb, BOOTED + 1, ue.name, "gNB", Protocol.RLS, rls)
    tb.run_until(HORIZON)
    assert_contained(tb)
    for kind in ("AUTH_REQ", "UDR_QUERY_REQ", "SUBSCRIBER_RESP", "POLICY_RESP", "NAS_REGISTER_ACCEPT"):
        assert len(rows_after(tb, kind)) == 1, kind
    [drop] = local_rows(tb, "AMF")
    assert (drop.src, drop.attrs["reason"], drop.attrs["ue_id"]) == ("gNB", "registration pending", ue.imsi)
    assert tb.amfs[0].ue_registered == {ue.imsi: "gNB"}


def attach_until(tb, ue, kind):
    """Attach `ue` just after boot and run the testbed until a `kind` row is on the wire."""
    tb.net.schedule(BOOTED + 1, ue.attach)
    while not rows_after(tb, kind):
        tb.run_until(tb.net.now + 1)


def test_a_malformed_session_answer_leaves_the_pending_session_to_the_real_one():
    tb = booted()
    ue = tb.ues[0]
    attach_until(tb, ue, "SESSION_CREATE_REQ")
    forged = build(MsgKind.SESSION_CREATE_RESP, ue_id=ue.imsi, result="OK", ue_ip="10.45.0.9", paths="garbage")
    inject(tb, tb.net.now, "SMF", "AMF", Protocol.SBI, forged)
    tb.run_until(HORIZON)
    assert_contained(tb)
    [drop] = local_rows(tb, "AMF")
    assert (drop.src, drop.attrs["reason"]) == ("SMF", "malformed session path 'garbage'")
    [real] = rows_after(tb, "SESSION_CREATE_RESP")
    assert drop.ts <= real.ts  # rows stamp the send: the real one arrived after the drop
    assert len(rows_after(tb, "NAS_SESSION_ACCEPT")) == 1
    assert ue.state == "SESSION_ACTIVE"


def test_a_session_request_with_a_mode_that_is_not_text_leaves_the_ue_its_own():
    tb = booted()
    ue = tb.ues[0]
    attach_until(tb, ue, "NAS_REGISTER_ACCEPT")
    forged = build(MsgKind.NAS_SESSION_REQ, ue_id=ue.imsi, mode=b"\xff", gnb="gNB")
    inject(tb, tb.net.now, "gNB", "AMF", Protocol.NAS, forged)
    tb.run_until(HORIZON)
    assert_contained(tb)
    [drop] = local_rows(tb, "AMF")
    assert (drop.src, drop.attrs["reason"]) == ("gNB", "field MODE in NAS_SESSION_REQ is not UTF-8")
    [own] = [r for r in rows_after(tb, "NAS_SESSION_REQ") if r.dst == "AMF"]
    assert drop.ts <= own.ts  # rows stamp the send: the UE's own arrived after the drop
    assert len(rows_after(tb, "SESSION_CREATE_REQ")) == 1
    assert ue.state == "SESSION_ACTIVE"


def test_a_subscriber_answer_that_is_not_text_leaves_the_udm_waiting_for_the_real_one():
    tb = booted()
    ue = tb.ues[0]
    attach_until(tb, ue, "UDR_QUERY_REQ")
    forged = build(MsgKind.UDR_QUERY_RESP, ue_id=ue.imsi, result=b"\xff")
    inject(tb, tb.net.now, "UDR", "UDM", Protocol.SBI, forged)
    tb.run_until(HORIZON)
    assert_contained(tb)
    [drop] = local_rows(tb, "UDM")
    assert (drop.src, drop.attrs["reason"]) == ("UDR", "field RESULT in UDR_QUERY_RESP is not UTF-8")
    [real] = rows_after(tb, "UDR_QUERY_RESP")
    assert drop.ts <= real.ts  # rows stamp the send: the real one arrived after the drop
    assert ue.state == "SESSION_ACTIVE"


@pytest.mark.parametrize(
    "asked,forger,waiter,answer",
    [
        pytest.param("AUTH_REQ", "SMF", "AMF", MsgKind.AUTH_RESP, id="auth-answer-from-the-smf"),
        pytest.param("UDR_QUERY_REQ", "AMF", "UDM", MsgKind.UDR_QUERY_RESP, id="udr-answer-from-the-amf"),
    ],
)
def test_only_the_asked_peer_answers_a_step(asked, forger, waiter, answer):
    tb = booted()
    ue = tb.ues[0]
    attach_until(tb, ue, asked)
    forged = build(answer, ue_id=ue.imsi, result="ERROR", reason=f"forged by {forger}")
    inject(tb, tb.net.now, forger, waiter, Protocol.SBI, forged)
    tb.run_until(HORIZON)
    assert_contained(tb)
    assert (ue.state, ue.reject_reason) == ("SESSION_ACTIVE", None)
    for kind in ("AUTH_REQ", "AUTH_RESP", "UDR_QUERY_REQ", "UDR_QUERY_RESP", "SUBSCRIBER_RESP",
                 "POLICY_RESP", "NAS_REGISTER_ACCEPT", "SESSION_CREATE_REQ"):
        assert len(rows_after(tb, kind)) == 1, kind
    [real] = [r for r in rows_after(tb, answer.name) if r.dst == waiter]
    [fake] = [r for r in tb.records if (r.src, r.dst) == (forger, waiter) and "msg_kind" not in r.attrs]
    assert fake.ts <= real.ts  # rows stamp the send: the forged answer came while the step waited


def test_only_a_upf_whose_rules_are_awaited_answers_them():
    # NONE mode asks UPF1 alone; UPF2's refusal must not fail the session
    tb = booted()
    ue = tb.ues[0]
    attach_until(tb, ue, "PFCP_SESSION_REQ")
    forged = build(MsgKind.PFCP_SESSION_RESP, ue_id=ue.imsi, result="ERROR", reason="forged by UPF2")
    inject(tb, tb.net.now, "UPF2", "SMF", Protocol.PFCP, forged)
    tb.run_until(HORIZON)
    assert_contained(tb)
    assert (ue.state, ue.reject_reason) == ("SESSION_ACTIVE", None)
    assert not rows_after(tb, "PFCP_SESSION_DELETE_REQ")
    session = tb.smfs[0].sessions[ue.imsi]
    upf1 = tb.upfs[0]
    assert list(upf1.ueip_rules) == [session.ue_ip] and len(upf1.teid_rules) == 1


def test_upf_routes_uplink_only_to_the_owner_of_its_destination():
    tb = booted(attach=True)
    ue = tb.ues[0]
    inner = SimPacket(
        Protocol.APP, ue.session.ue_ip, "193.168.0.40", 80, 80, build(MsgKind.APP_GET, doc="document")
    )
    rls = build(MsgKind.RLS_DATA, ue_id=ue.imsi, data=encode_packet(inner))
    inject(tb, BOOTED + 1, ue.name, "gNB", Protocol.RLS, rls)
    tb.run_until(HORIZON)
    assert_contained(tb)
    [drop] = local_rows(tb, "UPF1")
    assert (drop.attrs["reason"], drop.attrs["dst_ip"]) == ("no route", "193.168.0.40")


def test_forwarding_to_a_node_the_fabric_lacks_is_dropped():
    tb = booted(attach=True)
    ue = tb.ues[0]
    rules = f"UEIP|{ue.session.ue_ip}|0|encap:gNX:2:0"
    payload = build(MsgKind.PFCP_SESSION_REQ, ue_id=ue.imsi, ue_ip=ue.session.ue_ip, rules=rules)
    inject(tb, BOOTED + 1, "SMF", "UPF1", Protocol.PFCP, payload)
    tb.net.schedule(BOOTED + 5, lambda: ue.request_document("document"))
    tb.run_until(HORIZON)
    assert_contained(tb)
    drops = local_rows(tb, "UPF1")
    assert drops and {(r.attrs["reason"], r.attrs["peer"]) for r in drops} == {("no link", "gNX")}


def test_forged_name_of_an_unlinked_node_is_a_no_link_row():
    # a discovery answer naming UPF1 as the UDR: the UDM has no link to UPF1
    tb = booted()
    ue = tb.ues[0]
    answer = build(MsgKind.NF_DISCOVER_RESP, result="OK", nf_type="UDR", data=b"UPF1|UDR|192.168.0.21")
    inject(tb, BOOTED + 1, "NRF", "UDM", Protocol.SBI, answer)
    tb.net.schedule(BOOTED + 2, ue.attach)
    tb.run_until(HORIZON)
    assert_contained(tb)
    [drop] = local_rows(tb, "UDM")
    assert (drop.protocol, drop.attrs["reason"], drop.attrs["peer"]) == (Protocol.SBI, "no link", "UPF1")
    assert drop.size == len(build(MsgKind.UDR_QUERY_REQ, ue_id=ue.imsi))
    assert ue.state == "REGISTERING"


@pytest.mark.parametrize("receiver", ["NRF", "gNB"])
def test_unsolicited_registration_answer_is_ignored(receiver):
    tb = booted()
    sender = "AMF"
    payload = build(MsgKind.NF_REGISTER_RESP, result="OK", nf_id=receiver)
    inject(tb, BOOTED + 1, sender, receiver, Protocol.SBI, payload)
    horizon = 2 * tb.params.heartbeat_ms  # past the next heartbeat tick
    tb.run_until(horizon)
    assert_contained(tb, horizon)
    assert not [r for r in tb.records if r.src == receiver and r.attrs.get("msg_kind") == "NF_HEARTBEAT_REQ"]


@pytest.mark.parametrize(
    "ue_ip,paths,reason",
    [
        ("", "gNB/UPF1/1/2/0", "bad IPv4 address"),
        ("10.45.0.9", "gNX/UPF1/1/2/0", "cannot reach"),
        ("10.45.0.9", "", "cannot reach"),
    ],
)
def test_forged_session_accept_is_dropped_and_the_real_one_still_lands(ue_ip, paths, reason):
    tb = booted()
    ue = tb.ues[0]
    tb.net.schedule(BOOTED + 1, ue.attach)
    while ue.state != "SESSION_PENDING":
        tb.run_until(tb.net.now + 1)
    nas = build(MsgKind.NAS_SESSION_ACCEPT, ue_id=ue.imsi, ue_ip=ue_ip, paths=paths)
    rls = build(MsgKind.RLS_NAS, ue_id=ue.imsi, data=nas)
    inject(tb, tb.net.now + 1, "gNB", ue.name, Protocol.RLS, rls)
    tb.run_until(HORIZON)
    assert_contained(tb)
    [drop] = local_rows(tb, ue.name)
    assert reason in drop.attrs["reason"]
    assert ue.state == "SESSION_ACTIVE" and ue.session.ue_ip == "10.45.0.2"


# the line breaks str.splitlines() knows besides \n and \r: the log's scrub
# leaves them in peer text, so a row may carry them
OTHER_LINE_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


@pytest.mark.parametrize("brk", OTHER_LINE_BREAKS, ids=lambda c: f"U+{ord(c):04X}")
def test_a_line_break_in_peer_text_leaves_the_log_importable(brk):
    tb = booted()
    register = build(MsgKind.NAS_REGISTER_REQ, ue_id=f"imsi{brk}1")
    inject(tb, BOOTED + 1, "gNB", "AMF", PROTOCOL[MsgKind.NAS_REGISTER_REQ], register)
    tb.run_until(HORIZON)
    assert_contained(tb)
    assert any(r.attrs.get("ue_id") == f"imsi{brk}1" for r in tb.records)
    assert_log_round_trips(tb)


# -- random bytes and bit-flipped real messages ------------------------------------


def _real_packets() -> tuple[list[SimPacket], list[tuple[SimPacket, str, str]]]:
    """The packets that bring-up, a registration, a session and a document
    fetch put on the wire: one of each kind, and one of each kind per
    (sender, receiver) with those names."""
    tb = Testbed(default_topology(), seed=0)
    seen: dict[tuple, SimPacket] = {}
    sent: dict[tuple, tuple[SimPacket, str, str]] = {}
    send = tb.net.send

    def capture(hop, pkt, stream=0, attrs=None):
        kind = tuple((attrs or {}).get(key, "") for key in ("msg_kind", "nas_kind", "inner"))
        seen.setdefault((pkt.protocol, *kind), pkt)
        sender, receiver = hop.sender, hop.receiver
        sent.setdefault((pkt.protocol, *kind, sender, receiver), (pkt, sender, receiver))
        return send(hop, pkt, stream, attrs)

    tb.net.send = capture
    tb.boot()
    ue = tb.ues[0]
    tb.net.schedule(T_ATTACH, ue.attach)
    tb.net.schedule(BOOTED + 1, lambda: ue.request_document("document"))
    tb.run_until(HORIZON)
    return [seen[key] for key in sorted(seen)], [sent[key] for key in sorted(sent)]


REAL, REAL_SENT = _real_packets()


def _flip(payload: bytes, bits: list[int]) -> bytes:
    out = bytearray(payload)
    for bit in bits:
        out[(bit // 8) % len(out)] ^= 1 << (bit % 8)
    return bytes(out)


_RANDOM = st.tuples(st.sampled_from(list(Protocol)), st.binary(max_size=48))
_FLIPPED = st.builds(
    lambda pkt, bits: (pkt.protocol, _flip(pkt.payload, bits)),
    st.sampled_from(REAL),
    st.lists(st.integers(0, 8 * 1024), min_size=1, max_size=4),
)
_ROSTER = Testbed(default_topology()).net.entities
_INJECTION = st.tuples(
    st.integers(BOOTED + 1, HORIZON - 50),  # time
    st.integers(0, 10**6),                  # link, modulo the link count
    st.booleans(),                          # direction
    st.one_of(_RANDOM, _FLIPPED),
    st.sampled_from(sorted(e.ip for e in _ROSTER.values())),  # claimed source address
)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(_INJECTION, min_size=1, max_size=6))
def test_hostile_peers_never_stop_the_run(injections):
    tb = booted(attach=True)
    tb.net.schedule(BOOTED + 1, lambda: tb.ues[0].request_document("document"))
    links = {}  # link id -> its a -> b hop, the first add_link made
    for hop in tb.net.hops.values():
        links.setdefault(hop.link_id, hop)
    links = sorted(links.values(), key=lambda hop: hop.link_id)
    assert len(links) == len(tb.net.link_stats)
    for at, which, forward, (protocol, payload), src_ip in injections:
        link = links[which % len(links)]
        sender, receiver = (link.sender, link.receiver) if forward else (link.receiver, link.sender)
        inject(tb, at, sender, receiver, protocol, payload, src_ip)
    # past the next heartbeat tick, so state a forged message left behind acts too
    horizon = 2 * tb.params.heartbeat_ms
    tb.run_until(horizon)
    assert_contained(tb, horizon)
    assert_log_round_trips(tb)


# -- real messages with one field forged ---------------------------------------------

# what a forged field may name: a node (linked to the receiver or not, or
# none at all), a redundancy mode, an address or an N4 rule program
_NAMES = sorted(_ROSTER) + ["gNX"]
_FORGED_VALUES = st.sampled_from(
    _NAMES
    + [mode.name for mode in Redundancy]
    + ["192.168.0.21", "192.168.0.40", "10.45.0.2", "10.45.0.3"]
    + [
        "TEID|1|0|route:SERVER",
        "TEID|1|1|encap:UE:5:1",
        "TEID|2|0|encap:AMF:7:0;UEIP|10.45.0.2|1|encap:gNB:2:1,encap:NRF:9:1",
        "UEIP|10.45.0.2|0|route:UDM",
    ]
)


def _forge(payload: bytes, which: int, value: str) -> bytes:
    """`payload` with its field number `which` (modulo its field count) set to `value`."""
    kind, elements = tlv_elements.decode(payload)
    elements = elements or [(int(Tag.NF_ID), b"")]
    tag, _ = elements[which % len(elements)]
    elements[which % len(elements)] = (tag, value.encode())
    return tlv_elements.encode(kind, elements)


_FIELD_FORGERY = st.tuples(
    st.integers(BOOTED + 1, BOOTED + 150),  # time
    st.sampled_from([sent for sent in REAL_SENT if sent[0].protocol is not Protocol.GTPU]),
    st.integers(0, 10**6),                  # field, modulo the message's field count
    _FORGED_VALUES,
)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 100), st.lists(_FIELD_FORGERY, min_size=1, max_size=6))
def test_real_messages_with_a_forged_field_never_stop_the_run(attach_after, forgeries):
    """Each forgery goes from the real message's sender over the link it took,
    before, during and after a UE's attach and document fetch."""
    tb = booted()
    ue = tb.ues[0]
    tb.net.schedule(BOOTED + attach_after, ue.attach)
    tb.net.schedule(BOOTED + 200, lambda: ue.request_document("document"))
    for at, (pkt, sender, receiver), which, value in forgeries:
        payload = _forge(pkt.payload, which, value)
        inject(tb, at, sender, receiver, pkt.protocol, payload)
    horizon = 2 * tb.params.heartbeat_ms
    tb.run_until(horizon)
    assert_contained(tb, horizon)
    assert_log_round_trips(tb)


# -- peer text in a UE id --------------------------------------------------------

_PEER_TEXT = st.text(
    st.one_of(st.sampled_from("\t\n\r,=" + OTHER_LINE_BREAKS), st.characters(max_codepoint=127)),
    min_size=1,
    max_size=12,
)


def _with_ue_id(payload: bytes, text: str) -> bytes:
    """`payload` with its UE id set to `text`."""
    kind, elements = tlv_elements.decode(payload)
    elements = [(tag, text.encode() if tag == Tag.UE_ID else value) for tag, value in elements]
    return tlv_elements.encode(kind, elements)


_CARRIES_UE_ID = [
    sent for sent in REAL_SENT
    if sent[0].protocol is not Protocol.GTPU and Tag.UE_ID in dict(tlv_elements.decode(sent[0].payload)[1])
]


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(
    st.tuples(st.integers(BOOTED + 1, BOOTED + 150), st.sampled_from(_CARRIES_UE_ID), _PEER_TEXT),
    min_size=1, max_size=4,
))
def test_peer_text_in_a_ue_id_never_breaks_the_log(injections):
    """A real message that names a UE, sent again over the link it took with
    arbitrary text as the UE id, which the receiver may echo into the log."""
    tb = booted(attach=True)
    for at, (pkt, sender, receiver), text in injections:
        payload = _with_ue_id(pkt.payload, text)
        inject(tb, at, sender, receiver, pkt.protocol, payload)
    tb.run_until(HORIZON)
    assert_contained(tb)
    assert_log_round_trips(tb)


# -- every reader of peer text -------------------------------------------------------

# pieces of the texts peers send (rule programs, session paths, TEIDs, modes,
# addresses), so that generated text gets past the first split
_GRAMMAR_PIECES = st.sampled_from([
    "TEID", "UEIP", "|", ";", ",", ":", "/", "route", "encap", "gNB", "UPF1", "0", "1", "7",
    "0012", "4294967295", "4294967296", "\u0663", "10.45.0.2", "256.0.0.1", "NONE", "PSA_ANCHOR",
])
_ANY_TEXT = st.text(st.characters(codec="utf-8"))  # any text without surrogates


@settings(max_examples=500, deadline=None)
@given(st.one_of(_ANY_TEXT, st.lists(st.one_of(_GRAMMAR_PIECES, _ANY_TEXT), max_size=12).map("".join)))
def test_every_reader_of_peer_text_returns_or_raises_a_wire_format_error(text):
    m = parse(build(MsgKind.NAS_SESSION_ACCEPT, ue_id="imsi-1", ue_ip=text, mode=text, paths=text))
    readers = (
        lambda: canonical_int(text, "X"),
        lambda: read_teid(text, "TEID"),
        lambda: decode_paths(text),
        lambda: parse_rule_program(text, "imsi-1"),
        lambda: read_mode(m),
        lambda: read_session(m),
    )
    for read in readers:
        try:
            read()
        except WireFormatError:
            pass
