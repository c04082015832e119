"""Sequence-check unit cases over synthetic logs, plus the nominal full run."""
import itertools

import pytest

from fivegsim import core_cp, validation
from fivegsim.config import ScenarioSpec
from fivegsim.messages import ANSWER, PROCEDURES, MsgKind
from fivegsim.nwdaf import export_events_text, import_events_text
from fivegsim.runner import run_scenario
from fivegsim.simnet import TapRecord
from fivegsim.validation import (
    REGISTRATION_CHAIN,
    CheckResult,
    all_passed,
    check_heartbeat_cadence,
    check_ngap_before_registration,
    check_pfcp_association,
    check_registration_chain,
    check_sbi_registration,
    check_user_plane,
    validate_sequences,
)
from fivegsim.wirefmt import Protocol

CHECK_NAMES = (
    "sbi_registration",
    "pfcp_association",
    "ngap_setup_order",
    "heartbeat_cadence",
    "registration_chain",
    "user_plane_routing",
)


class EventFactory:
    """Builds well-formed delivered events with increasing ids and times."""

    def __init__(self):
        self._ids = itertools.count(1)
        self.ts = 0

    def make(self, kind=None, *, src="A", dst="B", protocol=Protocol.SBI, outcome="DELIVERED",
             ts=None, size=40, **attrs):
        if kind is not None:
            attrs["msg_kind"] = kind
        if ts is None:
            self.ts += 1
            ts = self.ts
        else:
            self.ts = max(self.ts, ts)
        return TapRecord(
            event_id=next(self._ids), ts=ts, link_id=f"{src}|{dst}",
            src=src, dst=dst, protocol=protocol, size=size, outcome=outcome,
            attrs={k: str(v) for k, v in attrs.items()},
        )

    def sbi(self, kind, src="AMF", dst="NRF", port=7777, **attrs):
        return self.make(kind, src=src, dst=dst,
                         src_port=port, dst_port=port, **attrs)


@pytest.fixture()
def fab():
    return EventFactory()


# -- result formatting ----------------------------------------------------------

def test_result_line_formatting():
    ok = CheckResult("sbi_registration", True, "all good")
    bad = CheckResult("pfcp_association", False, "broken", counterexample_id=17)
    assert ok.line() == "PASS sbi_registration: all good"
    assert bad.line() == "FAIL pfcp_association: broken (event 17)"


def test_all_passed():
    good = [CheckResult("a", True, ""), CheckResult("b", True, "")]
    assert all_passed(good) is True
    assert all_passed(good + [CheckResult("c", False, "")]) is False
    assert all_passed([]) is True


# -- the service-bus registration check --------------------------------------------

def test_sbi_passes_on_port_disciplined_traffic(fab):
    events = [
        fab.sbi("NF_REGISTER_REQ"),
        fab.sbi("NF_REGISTER_RESP", src="NRF", dst="AMF"),
        fab.sbi("NF_STATUS_NOTIFY", src="NRF", dst="AMF"),
    ]
    res = check_sbi_registration(events, 7777)
    assert res.passed, res.detail


def test_sbi_fails_without_evidence():
    res = check_sbi_registration([], 7777)
    assert not res.passed and res.detail == "no registration evidence in the log"


def test_sbi_flags_off_port_traffic(fab):
    bad = fab.sbi("NF_REGISTER_REQ", port=80)
    res = check_sbi_registration([bad], 7777)
    assert not res.passed
    assert "off the service port" in res.detail
    assert res.counterexample_id == bad.event_id


def test_sbi_requires_status_fanout_after_first_registration(fab):
    notify_first = fab.sbi("NF_STATUS_NOTIFY", src="NRF", dst="AMF")
    events = [notify_first, fab.sbi("NF_REGISTER_REQ"), fab.sbi("NF_REGISTER_RESP", src="NRF")]
    res = check_sbi_registration(events, 7777)
    assert not res.passed and "fanout" in res.detail


def test_sbi_ignores_dropped_traffic(fab):
    events = [fab.sbi("NF_REGISTER_REQ"),
              fab.sbi("NF_REGISTER_RESP", src="NRF"),
              fab.sbi("NF_STATUS_NOTIFY", src="NRF")]
    events.append(fab.make("NF_REGISTER_REQ", outcome="DROPPED", src_port=80, dst_port=80))
    res = check_sbi_registration(events, 7777)
    assert res.passed


# -- the N4 association check --------------------------------------------------------

def assoc_pair(fab, smf="SMF", upf="UPF1"):
    return [
        fab.make("PFCP_ASSOC_REQ", src=smf, dst=upf, protocol=Protocol.PFCP),
        fab.make("PFCP_ASSOC_RESP", src=upf, dst=smf, protocol=Protocol.PFCP),
    ]


def test_pfcp_passes_on_one_exchange_per_pair(fab):
    events = assoc_pair(fab) + assoc_pair(fab, upf="UPF2")
    res = check_pfcp_association(events)
    assert res.passed and "2 pairs" in res.detail


def test_pfcp_fails_without_evidence():
    res = check_pfcp_association([])
    assert not res.passed and res.detail == "no association evidence in the log"


def test_pfcp_flags_duplicate_request(fab):
    events = assoc_pair(fab)
    events.append(fab.make("PFCP_ASSOC_REQ", src="SMF", dst="UPF1", protocol=Protocol.PFCP))
    res = check_pfcp_association(events)
    assert not res.passed and "2 association requests" in res.detail


def test_pfcp_flags_unanswered_request(fab):
    events = [fab.make("PFCP_ASSOC_REQ", src="SMF", dst="UPF1", protocol=Protocol.PFCP)]
    res = check_pfcp_association(events)
    assert not res.passed and "0 association responses" in res.detail


def test_pfcp_flags_response_before_request(fab):
    resp = fab.make("PFCP_ASSOC_RESP", src="UPF1", dst="SMF", protocol=Protocol.PFCP)
    req = fab.make("PFCP_ASSOC_REQ", src="SMF", dst="UPF1", protocol=Protocol.PFCP)
    res = check_pfcp_association([resp, req])
    assert not res.passed
    assert "response precedes request" in res.detail
    assert res.counterexample_id == resp.event_id


def test_pfcp_flags_orphan_response(fab):
    events = assoc_pair(fab)
    events.append(fab.make("PFCP_ASSOC_RESP", src="UPF2", dst="SMF", protocol=Protocol.PFCP))
    res = check_pfcp_association(events)
    assert not res.passed and "without request" in res.detail


def test_pfcp_pairs_a_request_with_its_answer_by_the_answer_table(fab, monkeypatch):
    monkeypatch.setitem(ANSWER, MsgKind.PFCP_ASSOC_REQ, MsgKind.PFCP_SESSION_RESP)
    events = [
        fab.make("PFCP_ASSOC_REQ", src="SMF", dst="UPF1", protocol=Protocol.PFCP),
        fab.make("PFCP_SESSION_RESP", src="UPF1", dst="SMF", protocol=Protocol.PFCP),
    ]
    res = check_pfcp_association(events)
    assert res == CheckResult("pfcp_association", True, "exactly one exchange per pair (1 pairs)")


# -- the NGAP ordering check ----------------------------------------------------------

def ngap_setup(fab, gnb="gNB"):
    return [
        fab.make("NGAP_SETUP_REQ", src=gnb, dst="AMF", protocol=Protocol.NGAP),
        fab.make("NGAP_SETUP_RESP", src="AMF", dst=gnb, protocol=Protocol.NGAP),
    ]


def test_ngap_passes_when_setup_precedes_registration(fab):
    events = ngap_setup(fab)
    events.append(fab.make("NAS_REGISTER_REQ", src="gNB", dst="AMF", protocol=Protocol.NGAP))
    res = check_ngap_before_registration(events)
    assert res.passed


def test_ngap_fails_without_evidence():
    res = check_ngap_before_registration([])
    assert not res.passed and res.detail == "no NGAP setup evidence in the log"


def test_ngap_flags_unanswered_setup(fab):
    events = [fab.make("NGAP_SETUP_REQ", src="gNB", dst="AMF", protocol=Protocol.NGAP)]
    res = check_ngap_before_registration(events)
    assert not res.passed and "never answered" in res.detail


def test_ngap_flags_registration_before_setup_completed(fab):
    req = fab.make("NGAP_SETUP_REQ", src="gNB", dst="AMF", protocol=Protocol.NGAP)
    nas = fab.make("NAS_REGISTER_REQ", src="gNB", dst="AMF", protocol=Protocol.NGAP)
    resp = fab.make("NGAP_SETUP_RESP", src="AMF", dst="gNB", protocol=Protocol.NGAP)
    res = check_ngap_before_registration([req, nas, resp])
    assert not res.passed
    assert "before its NGAP setup completed" in res.detail
    assert res.counterexample_id == nas.event_id


# -- the heartbeat cadence check ---------------------------------------------------------

def beats(fab, nf, times, answered=None):
    events = []
    for i, ts in enumerate(times):
        events.append(fab.sbi("NF_HEARTBEAT_REQ", src=nf, dst="NRF", ts=ts))
        if answered is None or i < answered:
            events.append(fab.sbi("NF_HEARTBEAT_RESP", src="NRF", dst=nf, ts=ts))
    return events


def test_heartbeats_pass_on_constant_grid(fab):
    events = beats(fab, "AMF", [3333, 6666, 9999]) + beats(fab, "SMF", [3333, 6666])
    res = check_heartbeat_cadence(events)
    assert res.passed and "3333ms grid" in res.detail


def test_one_heartbeat_each_is_reported_as_such_not_as_a_grid(fab):
    # with no second heartbeat there is no gap to call a grid
    events = beats(fab, "AMF", [3333]) + beats(fab, "SMF", [3333])
    res = check_heartbeat_cadence(events)
    assert (res.passed, res.detail) == (True, "2 functions, one heartbeat each, responses matched")


def test_heartbeats_fail_without_evidence():
    res = check_heartbeat_cadence([])
    assert not res.passed and res.detail == "no heartbeat evidence in the log"


def test_heartbeats_flag_drift(fab):
    events = beats(fab, "AMF", [3333, 6666, 9600])
    res = check_heartbeat_cadence(events)
    assert not res.passed and "drift" in res.detail


def test_heartbeats_flag_missing_responses(fab):
    events = beats(fab, "AMF", [3333, 6666, 9999], answered=0)
    res = check_heartbeat_cadence(events)
    assert not res.passed and "only 0 responses" in res.detail


# -- every failure branch of the pairing checks, pinned ------------------------------------

# Q: the SMF's request to UPF1; A: UPF1's answer; O: UPF2's answer
ASSOC_ROWS = {
    "Q": ("PFCP_ASSOC_REQ", "SMF", "UPF1"),
    "A": ("PFCP_ASSOC_RESP", "UPF1", "SMF"),
    "O": ("PFCP_ASSOC_RESP", "UPF2", "SMF"),
}


@pytest.mark.parametrize("rows, blamed, detail", [
    pytest.param("QAQ", 2, "2 association requests for SMF-UPF1", id="second-request"),
    pytest.param("Q", 0, "0 association responses for SMF-UPF1", id="no-answer"),
    pytest.param("QAA", 2, "2 association responses for SMF-UPF1", id="two-answers"),
    pytest.param("AQ", 0, "response precedes request for SMF-UPF1", id="answer-before-request"),
    pytest.param("QAO", 2, "association response without request for SMF-UPF2", id="orphan-answer"),
])
def test_pfcp_failure_names_its_pair_and_row(fab, rows, blamed, detail):
    events = [
        fab.make(kind, src=src, dst=dst, protocol=Protocol.PFCP)
        for kind, src, dst in (ASSOC_ROWS[row] for row in rows)
    ]
    assert check_pfcp_association(events) == CheckResult(
        "pfcp_association", False, detail, events[blamed].event_id
    )


def test_ngap_failures_name_their_node_and_row(fab):
    req = fab.make("NGAP_SETUP_REQ", src="gNB", dst="AMF", protocol=Protocol.NGAP)
    assert check_ngap_before_registration([req]) == CheckResult(
        "ngap_setup_order", False, "gNB setup never answered", req.event_id
    )
    nas = fab.make("NAS_REGISTER_REQ", src="gNB", dst="AMF", protocol=Protocol.NGAP)
    resp = fab.make("NGAP_SETUP_RESP", src="AMF", dst="gNB", protocol=Protocol.NGAP)
    assert check_ngap_before_registration([req, nas, resp]) == CheckResult(
        "ngap_setup_order", False, "UE registration through gNB before its NGAP setup completed", nas.event_id
    )


def test_heartbeat_failure_names_its_function_and_last_beat(fab):
    events = beats(fab, "AMF", [3333, 6666, 9999], answered=0)
    assert check_heartbeat_cadence(events) == CheckResult(
        "heartbeat_cadence", False, "AMF: 3 heartbeats but only 0 responses", events[-1].event_id
    )


# -- the registration chain check -----------------------------------------------------------

UE = "imsi-001010000000001"


def full_chain(fab, ue=UE):
    events = [fab.sbi(step, ue_id=ue) for step in REGISTRATION_CHAIN]
    events.append(fab.make("NAS_REGISTER_ACCEPT", src="AMF", dst="gNB",
                           protocol=Protocol.NGAP, ue_id=ue))
    return events


def test_the_chain_is_the_registration_procedure_of_the_table():
    assert REGISTRATION_CHAIN == (
        "AUTH_REQ",
        "AUTH_RESP",
        "SUBSCRIBER_REQ",
        "UDR_QUERY_REQ",
        "UDR_QUERY_RESP",
        "SUBSCRIBER_RESP",
        "POLICY_REQ",
        "POLICY_RESP",
    )


def test_chain_passes_when_complete_and_ordered(fab):
    res = check_registration_chain(full_chain(fab))
    assert res.passed and "1 acceptances" in res.detail


def test_chain_fails_without_accepts():
    res = check_registration_chain([])
    assert not res.passed and res.detail == "no accepted registration in the log"


@pytest.mark.parametrize("missing", ["AUTH_REQ", "UDR_QUERY_RESP", "POLICY_RESP"])
def test_chain_flags_missing_step(fab, missing):
    events = [ev for ev in full_chain(fab) if ev.attrs.get("msg_kind") != missing]
    res = check_registration_chain(events)
    assert not res.passed and f"accepted without {missing}" in res.detail


def test_chain_flags_out_of_order_step(fab):
    # auth response gets a smaller event id than the auth request
    steps = list(REGISTRATION_CHAIN)
    steps[0], steps[1] = steps[1], steps[0]
    events = [fab.sbi(step, ue_id=UE) for step in steps]
    events.append(fab.make("NAS_REGISTER_ACCEPT", src="AMF", dst="gNB",
                           protocol=Protocol.NGAP, ue_id=UE))
    res = check_registration_chain(events)
    assert not res.passed and "out of order" in res.detail


def test_chain_flags_steps_after_the_accept(fab):
    accept = fab.make("NAS_REGISTER_ACCEPT", src="AMF", dst="gNB",
                      protocol=Protocol.NGAP, ue_id=UE)
    events = [accept] + [fab.sbi(step, ue_id=UE) for step in REGISTRATION_CHAIN]
    res = check_registration_chain(events)
    assert not res.passed and "after the accept" in res.detail


# -- the user plane check ----------------------------------------------------------------

def user_traffic(fab, teid=7, src_ip="10.45.0.2"):
    return [
        fab.make(src="gNB", dst="UPF1", protocol=Protocol.GTPU, teid=teid, inner="APP_GET"),
        fab.make(src="UPF1", dst="SERVER", protocol=Protocol.APP,
                 msg_kind="APP_GET", src_ip=src_ip),
    ]


def test_user_plane_passes_on_tunneled_session_traffic(fab):
    res = check_user_plane(user_traffic(fab), "10.45.0.0/16")
    assert res.passed and "1 tunnel packets" in res.detail


def test_user_plane_fails_without_tunnel_traffic():
    res = check_user_plane([], "10.45.0.0/16")
    assert not res.passed and res.detail == "no tunnel traffic in the log"


@pytest.mark.parametrize("teid", [0, "x", None])
def test_user_plane_flags_invalid_teid(fab, teid):
    events = user_traffic(fab)
    if teid is None:
        del events[0].attrs["teid"]
    else:
        events[0].attrs["teid"] = str(teid)
    res = check_user_plane(events, "10.45.0.0/16")
    assert not res.passed and "valid teid" in res.detail


def test_user_plane_requires_session_sourced_app_traffic(fab):
    events = user_traffic(fab, src_ip="192.168.0.40")
    res = check_user_plane(events, "10.45.0.0/16")
    assert not res.passed and "session pool" in res.detail


def test_user_plane_passes_over_an_app_row_whose_source_is_not_ipv4(fab):
    # the import takes any src_ip text: a row whose text is no IPv4 address is no evidence either way
    gtpu, app = user_traffic(fab)
    odd = fab.make(src="UPF1", dst="SERVER", protocol=Protocol.APP, msg_kind="APP_GET", src_ip="fe80::1")
    imported = import_events_text(export_events_text([gtpu, app, odd]))
    assert imported[2].attrs["src_ip"] == "fe80::1"
    res = check_user_plane([imported[0], imported[2]], "10.45.0.0/16")
    assert (res.passed, res.detail) == (False, "no application traffic sourced from the session pool 10.45.0.0/16")
    assert check_user_plane(imported, "10.45.0.0/16").passed


# -- the whole battery ------------------------------------------------------------------------

@pytest.fixture(scope="module")
def nominal_events():
    return run_scenario(ScenarioSpec(name="single_request", seed=21)).events


def test_nominal_run_passes_all_checks(nominal_events):
    results = validate_sequences(nominal_events)
    assert [r.name for r in results] == list(CHECK_NAMES)
    failures = [r.line() for r in results if not r.passed]
    assert not failures, failures
    assert all_passed(results)


def test_empty_log_fails_every_check():
    results = validate_sequences([])
    assert [r.name for r in results] == list(CHECK_NAMES)
    assert not any(r.passed for r in results)
    details = {r.name: r.detail for r in results}
    assert details["sbi_registration"] == "no registration evidence in the log"
    assert details["pfcp_association"] == "no association evidence in the log"
    assert details["ngap_setup_order"] == "no NGAP setup evidence in the log"
    assert details["heartbeat_cadence"] == "no heartbeat evidence in the log"
    assert details["registration_chain"] == "no accepted registration in the log"
    assert details["user_plane_routing"] == "no tunnel traffic in the log"


def test_every_answer_follows_its_request_between_the_same_two_entities(nominal_events):
    request_of = {answer.name: request.name for request, answer in ANSWER.items()}
    outstanding: dict[tuple[str, str, str], int] = {}
    answered = set()
    for ev in nominal_events:
        kind = ev.attrs.get("msg_kind")
        if not ev.is_wire or kind is None:
            continue
        if kind in request_of:
            key = (request_of[kind], ev.dst, ev.src)
            assert outstanding.get(key, 0) > 0, ev
            outstanding[key] -= 1
            answered.add(kind)
        else:
            key = (kind, ev.src, ev.dst)
            outstanding[key] = outstanding.get(key, 0) + 1
    chain_answers = {kind for kind in REGISTRATION_CHAIN if kind in request_of}
    assert {"NAS_REGISTER_ACCEPT", "NAS_SESSION_ACCEPT", "NF_HEARTBEAT_RESP", *chain_answers} <= answered


def test_a_table_without_the_policy_step_drives_both_the_amf_and_the_chain(monkeypatch):
    accept, reject, steps = PROCEDURES[MsgKind.NAS_REGISTER_REQ]
    without_pcf = (accept, reject, tuple(step for step in steps if step[1] != "PCF"))
    monkeypatch.setattr(core_cp, "PROCEDURES", {**PROCEDURES, MsgKind.NAS_REGISTER_REQ: without_pcf})
    events = run_scenario(ScenarioSpec(name="single_request", seed=21)).events
    kinds = {ev.attrs.get("msg_kind") for ev in events}
    assert "NAS_REGISTER_ACCEPT" in kinds and "NAS_SESSION_ACCEPT" in kinds
    assert not {kind for kind in kinds if kind and kind.startswith("POLICY_")}
    monkeypatch.setattr(validation, "REGISTRATION_CHAIN", validation.procedure_chain(without_pcf[2]))
    assert check_registration_chain(events).passed
    monkeypatch.undo()
    res = check_registration_chain(events)
    assert not res.passed and "accepted without POLICY_REQ" in res.detail
