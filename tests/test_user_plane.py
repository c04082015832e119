"""User-plane tests: rule grammar, forwarding drops, documents, the server."""
import hashlib

import pytest

from fivegsim.config import ScenarioSpec, default_topology
from fivegsim.errors import FlowError
from fivegsim.messages import MsgKind, Tag, build, parse
from fivegsim.runner import T_ATTACH, Testbed, run_scenario
from fivegsim.simnet import DELIVERED, DROPPED
from fivegsim.user_plane import (
    AppServer,
    document_content,
    parse_rule_program,
    segment_count,
)
from fivegsim.urllc import Redundancy
from fivegsim.wirefmt import Protocol, SimPacket, WireFormatError, encode_packet, gtpu_encapsulate

SETTLE = 1000


@pytest.fixture(scope="module")
def request_run():
    return run_scenario(ScenarioSpec(name="single_request", seed=11))


# -- rule grammar ------------------------------------------------------------------

def test_parse_rule_program_full():
    teids, ueips = parse_rule_program(
        "TEID|5|1|route:SERVER,encap:gNB:7:1;UEIP|10.45.0.2|0|encap:gNB:8:0", ue_id="u1"
    )
    assert len(teids) == 1 and len(ueips) == 1
    rule = teids[0]
    assert rule.teid == 5 and rule.dedup and rule.ue_id == "u1"
    assert [a.kind for a in rule.actions] == ["route", "encap"]
    assert rule.actions[1].teid == 7 and rule.actions[1].carry_seq
    dl = ueips[0]
    assert dl.ue_ip == "10.45.0.2" and not dl.assign_seq
    assert dl.actions[0].target == "gNB"


def test_parse_rule_program_empty_text():
    assert parse_rule_program("", "u") == ([], [])


@pytest.mark.parametrize(
    "text",
    [
        "TEID|5|1",                        # missing actions field
        "TEID|5|1|teleport:SERVER",        # unknown action
        "TEID|5|1|encap:gNB:7",           # encap missing carry flag
        "TEID|abc|1|route:SERVER",         # non-numeric teid
        "TEID|5|1|encap:gNB:x:1",          # non-numeric encap teid
        "MPLS|5|1|route:SERVER",           # unknown rule kind
        "TEID|0012|0|route:SERVER",        # leading zeros: one spelling per TEID
        "TEID|\u0663|0|route:SERVER",       # a non-ASCII digit
        "TEID|0|0|route:SERVER",           # TEID 0 is no tunnel endpoint
        "TEID|5|1|encap:g:99999999999:1",  # past the 32-bit field
        "UEIP|notanip|0|encap:gNB:8:0",    # the selector is no IPv4 address
    ],
)
def test_parse_rule_program_rejects(text):
    with pytest.raises(WireFormatError):
        parse_rule_program(text, "u")


# -- documents ----------------------------------------------------------------------

def test_document_content_cycles_name():
    body = document_content("ab", 5)
    assert body == b"ababa"
    assert len(document_content("document", 487659)) == 487659


def test_document_content_empty_name_and_errors():
    assert document_content("", 3) == b"???"
    with pytest.raises(FlowError):
        document_content("doc", -1)


def test_document_digest_matches_content():
    # the digest the server announces is the SHA-256 of the body it sends
    server = Testbed(default_topology(), seed=0).server
    ack, segments = server._messages("doc", 1000)
    body = b"".join(parse(m).raw(Tag.DATA) for m in segments)
    assert body == document_content("doc", 1000)
    assert parse(ack).require(Tag.DIGEST) == hashlib.sha256(body).hexdigest()


@pytest.mark.parametrize(
    "size, seg, expected",
    [
        (487659, 64000, 8),
        (0, 64000, 1),
        (1, 64000, 1),
        (64000, 64000, 1),
        (64001, 64000, 2),
        (128000, 64000, 2),
    ],
)
def test_segment_count(size, seg, expected):
    assert segment_count(size, seg) == expected


# -- UPF drop paths ----------------------------------------------------------------------

def drops_at(records, entity, reason_part):
    return [
        r
        for r in records
        if r.link_id == f"local:{entity}"
        and r.outcome == DROPPED
        and reason_part in r.attrs.get("reason", "")
    ]


def test_upf_drops_unknown_teid():
    tb = Testbed(default_topology(), seed=0)
    tb.boot()
    tb.run_until(SETTLE)
    inner = encode_packet(
        SimPacket(Protocol.APP, "10.45.0.9", "192.168.0.40", 80, 80, build(MsgKind.APP_GET, doc="d"))
    )
    gnb = tb.gnbs[0]
    gnb.send_msg(
        "UPF1", Protocol.GTPU, gtpu_encapsulate(inner, teid=999), sport=2152, dport=2152
    )
    tb.run_until(SETTLE + 10)
    assert drops_at(tb.records, "UPF1", "unknown teid")


def test_upf_drops_undecodable_tunnel_payload():
    tb = Testbed(default_topology(), seed=0)
    tb.boot()
    tb.run_until(SETTLE)
    tb.gnbs[0].send_msg("UPF1", Protocol.GTPU, b"\xde\xad\xbe\xef", sport=2152, dport=2152)
    tb.run_until(SETTLE + 10)
    assert drops_at(tb.records, "UPF1", "truncated")


def test_upf_drops_downlink_without_rule():
    tb = Testbed(default_topology(), seed=0)
    tb.boot()
    tb.run_until(SETTLE)
    tb.server.send_msg(
        "UPF1",
        Protocol.APP,
        build(MsgKind.APP_GET_ACK, doc="d"),
        sport=80,
        dport=80,
        dst_ip="10.45.9.9",
        attrs={"msg_kind": "APP_GET_ACK"},
    )
    tb.run_until(SETTLE + 10)
    assert drops_at(tb.records, "UPF1", "no downlink rule")


def test_session_rules_installed_on_involved_upf_only():
    tb = Testbed(default_topology(), seed=0)
    tb.boot()
    ue = tb.ues[0]
    tb.net.schedule(T_ATTACH, lambda: ue.attach(Redundancy.NONE))
    tb.run_until(SETTLE)
    upf1, upf2 = tb.upfs
    assert ue.session is not None
    assert ue.session.paths[0].teid_ul in upf1.teid_rules
    assert ue.session.ue_ip in upf1.ueip_rules
    assert not upf2.teid_rules and not upf2.ueip_rules


# -- application server ---------------------------------------------------------------------

def test_server_learns_return_route(request_run):
    tb = request_run.testbed
    ue_ip = tb.ues[0].session.ue_ip
    assert tb.server.routes[ue_ip] == ["UPF1"]


def app_rows(events, kind, **attrs):
    return [
        r for r in events
        if r.outcome == DELIVERED and r.attrs.get("msg_kind") == kind
        and all(r.attrs.get(k) == v for k, v in attrs.items())
    ]


def test_server_serves_document_and_counts_complete(request_run):
    events = request_run.events
    ue_ip = request_run.testbed.ues[0].session.ue_ip
    sent = [r.attrs["msg_kind"] for r in events if r.src == "SERVER"]
    assert sent == ["APP_GET_ACK"] + ["APP_SEGMENT"] * 8
    assert all(r.attrs["ue_ip"] == ue_ip for r in events if r.src == "SERVER")
    [complete] = app_rows(events, "APP_COMPLETE", src_ip=ue_ip)
    assert complete.dst == "SERVER"


def test_transfer_reassembles_exact_content(request_run):
    # the UE hashes segments as they arrive and keeps no body once done
    ue = request_run.testbed.ues[0]
    transfer = ue.transfers[0]
    assert transfer.ok is True
    assert transfer.expected_segments == 8
    assert transfer.received == 8
    assert transfer.size == 487659
    assert transfer.segments == {}
    assert transfer.digest == hashlib.sha256(document_content("document", 487659)).hexdigest()


def test_corrupted_segment_fails_the_transfer():
    tb = Testbed(default_topology(), seed=3)
    tb.boot()
    ue = tb.ues[0]
    send_downlink = tb.server._send_downlink

    def corrupt_segment_3(ue_ip, dport, kind, payload):
        m = parse(payload)
        if kind == MsgKind.APP_SEGMENT and m.num(Tag.INDEX) == 3:
            data = bytearray(m.raw(Tag.DATA))
            data[17] ^= 0x01
            payload = build(kind, doc=m.require(Tag.DOC), index=3, data=bytes(data))
        send_downlink(ue_ip, dport, kind, payload)

    tb.server._send_downlink = corrupt_segment_3
    tb.net.schedule(T_ATTACH, lambda: ue.attach(Redundancy.NONE))
    tb.net.schedule(SETTLE, lambda: ue.request_document("document"))
    tb.run_until(SETTLE + 1000)
    transfer = ue.transfers[0]
    assert transfer.done and transfer.ok is False
    assert transfer.error == "integrity check failed"
    assert (transfer.received, transfer.size, transfer.segments) == (8, 487659, {})


def test_server_builds_each_document_once(monkeypatch):
    digest = hashlib.sha256(document_content("document", 487659)).hexdigest()
    built = []

    def counting_document_content(doc, size):
        built.append((doc, size))
        return document_content(doc, size)

    monkeypatch.setattr("fivegsim.user_plane.document_content", counting_document_content)
    result = run_scenario(ScenarioSpec(name="many_requests", ue_count=3, seed=5))
    transfers = [t for ts in result.transfers.values() for t in ts]
    assert len(transfers) == 3
    assert all(t.ok for t in transfers)
    assert all(t.digest == digest for t in transfers)
    assert len(app_rows(result.events, "APP_GET_ACK")) == 3  # one answer per request
    assert built == [("document", 487659)]


def test_server_builds_each_segment_once_for_every_ue(monkeypatch):
    built = []

    def counting_build(kind, **fields):
        built.append(kind)
        return build(kind, **fields)

    monkeypatch.setattr("fivegsim.user_plane.build", counting_build)
    result = run_scenario(ScenarioSpec(name="many_requests", ue_count=20, seed=5))
    transfers = [t for ts in result.transfers.values() for t in ts]
    assert len(transfers) == 20 and all(t.ok for t in transfers)
    assert len(app_rows(result.events, "APP_SEGMENT")) == 20 * 8
    assert built.count(MsgKind.APP_SEGMENT) == 8
    assert built.count(MsgKind.APP_GET_ACK) == 1


def test_missing_document_flows_back_as_error():
    tb = Testbed(default_topology(), seed=3)
    tb.boot()
    ue = tb.ues[0]
    tb.net.schedule(T_ATTACH, lambda: ue.attach(Redundancy.NONE))
    tb.net.schedule(SETTLE, lambda: ue.request_document("missing.bin"))
    tb.run_until(SETTLE + 100)
    transfer = ue.transfers[0]
    assert transfer.done and transfer.ok is False
    assert transfer.error == "no such document"
    # the server answers the request with APP_ERROR and serves nothing
    assert [r.attrs["msg_kind"] for r in tb.records if r.src == "SERVER"] == ["APP_ERROR"]


def test_failed_transfer_line_names_the_reason_on_one_line(monkeypatch):
    def refuse(server, ue_ip, dport, doc):
        error = build(MsgKind.APP_ERROR, doc=doc, reason="busy\tnow\r\nretry")
        server._send_downlink(ue_ip, dport, MsgKind.APP_ERROR, error)

    monkeypatch.setattr(AppServer, "_serve", refuse)
    result = run_scenario(ScenarioSpec(name="single_request", seed=2))
    [line] = [l for l in result.summary_lines if l.startswith("transfer ")]
    assert line.startswith("transfer UE document failed segments=0 bytes=0 ms=")
    assert line.endswith(" error=busy now  retry")


def test_server_drops_downlink_without_learned_route():
    tb = Testbed(default_topology(), seed=0)
    tb.boot()
    tb.run_until(SETTLE)
    error = build(MsgKind.APP_ERROR, doc="d", reason="x")
    tb.server._send_downlink("10.45.0.55", 80, MsgKind.APP_ERROR, error)
    assert drops_at(tb.records, "SERVER", "no route")


def test_data_burst_is_counted_per_index():
    tb = Testbed(default_topology(), seed=0)
    tb.boot()
    ue = tb.ues[0]
    tb.net.schedule(T_ATTACH, lambda: ue.attach(Redundancy.NONE))
    tb.net.schedule(SETTLE, lambda: ue.send_data_burst(25, interval_ms=2))
    tb.run_until(SETTLE + 200)
    ue_ip = ue.session.ue_ip
    assert tb.server.data_received[ue_ip] == 25
    assert tb.server.data_indices[ue_ip] == set(range(25))
