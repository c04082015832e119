"""Sequence checks over an exported event log.

Each check replays one protocol contract against the log: port discipline
and status fanout on the service bus, one association exchange per N4 pair,
NGAP setup strictly before any UE registration through that gNB, heartbeat
cadence, the full per-UE registration chain, and tunnel routing on the user
plane. Checks are evidence-based: a log with no trace of a flow fails that
flow's check rather than passing vacuously.
"""
from __future__ import annotations

import ipaddress
from dataclasses import dataclass

from .config import Params
from .wirefmt import Protocol

SBI_KINDS_REGISTER = ("NF_REGISTER_REQ", "NF_REGISTER_RESP")

REGISTRATION_CHAIN = (
    "AUTH_REQ",
    "AUTH_RESP",
    "SUBSCRIBER_REQ",
    "UDR_QUERY_REQ",
    "UDR_QUERY_RESP",
    "SUBSCRIBER_RESP",
    "POLICY_REQ",
    "POLICY_RESP",
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    counterexample_id: int | None = None

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        suffix = f" (event {self.counterexample_id})" if self.counterexample_id else ""
        return f"{verdict} {self.name}: {self.detail}{suffix}"


def _kind(ev) -> str:
    return ev.attrs.get("msg_kind", "")


def _delivered(events):
    return [ev for ev in events if ev.outcome == "DELIVERED"]


def check_sbi_registration(events, sbi_port: int) -> CheckResult:
    name = "sbi_registration"
    regs = [ev for ev in _delivered(events) if _kind(ev) in SBI_KINDS_REGISTER]
    if not regs:
        return CheckResult(name, False, "no registration evidence in the log")
    for ev in regs:
        if ev.attrs.get("src_port") != str(sbi_port) or ev.attrs.get("dst_port") != str(sbi_port):
            return CheckResult(
                name,
                False,
                f"registration traffic off the service port {sbi_port}",
                ev.event_id,
            )
    first_req = next((ev for ev in regs if _kind(ev) == "NF_REGISTER_REQ"), None)
    notifies = [ev for ev in _delivered(events) if _kind(ev) == "NF_STATUS_NOTIFY"]
    if first_req is None or not any(ev.event_id > first_req.event_id for ev in notifies):
        return CheckResult(
            name, False, "registrations produced no status notification fanout"
        )
    return CheckResult(
        name, True, f"{len(regs)} registration messages on port {sbi_port}, status fanout present"
    )


def check_pfcp_association(events) -> CheckResult:
    name = "pfcp_association"
    reqs: dict[tuple[str, str], list] = {}
    resps: dict[tuple[str, str], list] = {}
    for ev in _delivered(events):
        if _kind(ev) == "PFCP_ASSOC_REQ":
            reqs.setdefault((ev.src, ev.dst), []).append(ev)
        elif _kind(ev) == "PFCP_ASSOC_RESP":
            resps.setdefault((ev.dst, ev.src), []).append(ev)
    if not reqs and not resps:
        return CheckResult(name, False, "no association evidence in the log")
    for pair, rs in sorted(reqs.items()):
        if len(rs) != 1:
            return CheckResult(
                name, False, f"{len(rs)} association requests for {pair[0]}-{pair[1]}",
                rs[1].event_id,
            )
        answers = resps.get(pair, [])
        if len(answers) != 1:
            return CheckResult(
                name,
                False,
                f"{len(answers)} association responses for {pair[0]}-{pair[1]}",
                answers[1].event_id if len(answers) > 1 else rs[0].event_id,
            )
        if answers[0].event_id < rs[0].event_id:
            return CheckResult(
                name, False, f"response precedes request for {pair[0]}-{pair[1]}",
                answers[0].event_id,
            )
    orphan = {pair: rs for pair, rs in resps.items() if pair not in reqs}
    if orphan:
        pair, rs = sorted(orphan.items())[0]
        return CheckResult(
            name, False, f"association response without request for {pair[0]}-{pair[1]}",
            rs[0].event_id,
        )
    return CheckResult(name, True, f"exactly one exchange per pair ({len(reqs)} pairs)")


def check_ngap_before_registration(events) -> CheckResult:
    name = "ngap_setup_order"
    delivered = _delivered(events)
    setups_req = {}
    setups_ok = {}
    for ev in delivered:
        if _kind(ev) == "NGAP_SETUP_REQ" and ev.src not in setups_req:
            setups_req[ev.src] = ev
        elif _kind(ev) == "NGAP_SETUP_RESP" and ev.dst not in setups_ok:
            setups_ok[ev.dst] = ev
    if not setups_req:
        return CheckResult(name, False, "no NGAP setup evidence in the log")
    for gnb, req in sorted(setups_req.items()):
        if gnb not in setups_ok:
            return CheckResult(name, False, f"{gnb} setup never answered", req.event_id)
    for ev in delivered:
        if _kind(ev) == "NAS_REGISTER_REQ":
            gnb = ev.src  # the relaying radio node
            ok = setups_ok.get(gnb)
            if ok is None or ok.event_id > ev.event_id:
                return CheckResult(
                    name,
                    False,
                    f"UE registration through {gnb} before its NGAP setup completed",
                    ev.event_id,
                )
    return CheckResult(name, True, f"setup precedes registration for {len(setups_req)} radio nodes")


def check_heartbeat_cadence(events) -> CheckResult:
    name = "heartbeat_cadence"
    reqs: dict[str, list] = {}
    resp_count: dict[str, int] = {}
    for ev in _delivered(events):
        if _kind(ev) == "NF_HEARTBEAT_REQ":
            reqs.setdefault(ev.src, []).append(ev)
        elif _kind(ev) == "NF_HEARTBEAT_RESP":
            resp_count[ev.dst] = resp_count.get(ev.dst, 0) + 1
    if not reqs:
        return CheckResult(name, False, "no heartbeat evidence in the log")
    gaps = set()
    for nf, evs in sorted(reqs.items()):
        for prev, cur in zip(evs, evs[1:]):
            gaps.add(cur.ts - prev.ts)
        answered = resp_count.get(nf, 0)
        if answered < len(evs) - 1:
            return CheckResult(
                name,
                False,
                f"{nf}: {len(evs)} heartbeats but only {answered} responses",
                evs[-1].event_id,
            )
    if len(gaps) > 1:
        return CheckResult(
            name, False, f"heartbeat intervals drift: gaps {sorted(gaps)}"
        )
    gap = gaps.pop() if gaps else 0
    return CheckResult(
        name, True, f"{len(reqs)} functions on a constant {gap}ms grid, responses matched"
    )


def check_registration_chain(events) -> CheckResult:
    name = "registration_chain"
    delivered = _delivered(events)
    accepts = [ev for ev in delivered if _kind(ev) == "NAS_REGISTER_ACCEPT"]
    if not accepts:
        return CheckResult(name, False, "no accepted registration in the log")
    by_ue: dict[str, dict[str, int]] = {}
    for ev in delivered:
        kind = _kind(ev)
        ue = ev.attrs.get("ue_id")
        if kind in REGISTRATION_CHAIN and ue:
            by_ue.setdefault(ue, {}).setdefault(kind, ev.event_id)
    for accept in accepts:
        ue = accept.attrs.get("ue_id", "")
        seen = by_ue.get(ue, {})
        last = 0
        for step in REGISTRATION_CHAIN:
            at = seen.get(step)
            if at is None:
                return CheckResult(
                    name, False, f"{ue}: accepted without {step}", accept.event_id
                )
            if at < last:
                return CheckResult(
                    name, False, f"{ue}: {step} out of order", at
                )
            last = at
        if last > accept.event_id:
            return CheckResult(
                name, False, f"{ue}: chain completed after the accept", accept.event_id
            )
    return CheckResult(name, True, f"full auth/subscription/policy chain for {len(accepts)} acceptances")


def check_user_plane(events, ue_pool: str) -> CheckResult:
    name = "user_plane_routing"
    pool = ipaddress.IPv4Network(ue_pool)
    delivered = _delivered(events)
    gtpu = [ev for ev in delivered if ev.protocol is Protocol.GTPU]
    if not gtpu:
        return CheckResult(name, False, "no tunnel traffic in the log")
    for ev in gtpu:
        teid = ev.attrs.get("teid")
        if teid is None or not teid.isdigit() or int(teid) <= 0:
            return CheckResult(name, False, "tunnel packet without a valid teid", ev.event_id)
    session_sourced = False
    for ev in delivered:
        if ev.protocol is not Protocol.APP:
            continue
        src = ev.attrs.get("src_ip", "")
        try:
            if ipaddress.IPv4Address(src) in pool:
                session_sourced = True
                break
        except ValueError:
            continue
    if not session_sourced:
        return CheckResult(
            name, False, f"no application traffic sourced from the session pool {ue_pool}"
        )
    return CheckResult(name, True, f"{len(gtpu)} tunnel packets, session-sourced traffic present")


def validate_sequences(
    events, sbi_port: int = Params.sbi_port, ue_pool: str = Params.ue_pool
) -> list[CheckResult]:
    """Run every sequence check over an event log, in a fixed order; the port
    and pool default to Params'."""
    events = list(events)
    return [
        check_sbi_registration(events, sbi_port),
        check_pfcp_association(events),
        check_ngap_before_registration(events),
        check_heartbeat_cadence(events),
        check_registration_chain(events),
        check_user_plane(events, ue_pool),
    ]


def all_passed(results) -> bool:
    return all(r.passed for r in results)
