"""Sequence checks over an exported event log.

Each check replays one protocol contract against the log: port discipline
and status fanout on the service bus, one association exchange per N4 pair,
NGAP setup strictly before any UE registration through that gNB, heartbeat
cadence, the full per-UE registration chain, and tunnel routing on the user
plane. Checks are evidence-based: a log with no trace of a flow fails that
flow's check rather than passing vacuously. A request pairs with its answer
by messages.ANSWER, as the NFs answer, and a chain by messages.PROCEDURES.
"""
from __future__ import annotations

import ipaddress
from collections import defaultdict, namedtuple

from .config import Params
from .messages import ANSWER, PROCEDURES, MsgKind, read_teid
from .wirefmt import Protocol, WireFormatError


def procedure_chain(steps) -> tuple[str, ...]:
    """The kinds a procedure's steps put on the wire, in order: each step's
    request, the steps its NF takes, then its answer."""
    return tuple(
        kind for req, _, _, inner in steps for kind in (req.name, *procedure_chain(inner), ANSWER[req].name)
    )


REGISTRATION_CHAIN = procedure_chain(PROCEDURES[MsgKind.NAS_REGISTER_REQ][2])


class CheckResult(namedtuple("CheckResult", "name passed detail counterexample_id", defaults=(None,))):
    __slots__ = ()

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        suffix = f" (event {self.counterexample_id})" if self.counterexample_id else ""
        return f"{verdict} {self.name}: {self.detail}{suffix}"


def _delivered(events) -> dict:
    """The delivered rows of a log, grouped in one pass by ``msg_kind`` and by
    protocol, unless ``validate_sequences`` already grouped them. Each group
    keeps log order; a group with no rows is empty."""
    if isinstance(events, dict):
        return events
    groups: dict = defaultdict(list)
    for ev in events:
        if ev.outcome == "DELIVERED":
            groups[ev.protocol].append(ev)
            kind = ev.attrs.get("msg_kind")
            if kind is not None:
                groups[kind].append(ev)
    return groups


def _exchanges(delivered, request: MsgKind, by) -> tuple[dict, dict]:
    """The delivered rows of ``request`` and of its ``ANSWER`` kind, each
    grouped by ``by(requester, answerer)`` in log order: a request goes from
    its requester, an answer to it."""
    reqs: dict = {}
    answers: dict = {}
    for ev in delivered[request.name]:
        reqs.setdefault(by(ev.src, ev.dst), []).append(ev)
    for ev in delivered[ANSWER[request].name]:
        answers.setdefault(by(ev.dst, ev.src), []).append(ev)
    return reqs, answers


def check_sbi_registration(events, sbi_port: int) -> CheckResult:
    name = "sbi_registration"
    delivered = _delivered(events)
    reqs = delivered[MsgKind.NF_REGISTER_REQ.name]
    resps = delivered[ANSWER[MsgKind.NF_REGISTER_REQ].name]
    if not reqs and not resps:
        return CheckResult(name, False, "no registration evidence in the log")
    port = str(sbi_port)
    off_port = [
        ev for group in (reqs, resps) for ev in group
        if ev.attrs.get("src_port") != port or ev.attrs.get("dst_port") != port
    ]
    if off_port:
        # the earliest one: ids increase through a log
        return CheckResult(
            name,
            False,
            f"registration traffic off the service port {sbi_port}",
            min(ev.event_id for ev in off_port),
        )
    notifies = delivered["NF_STATUS_NOTIFY"]
    if not reqs or not any(ev.event_id > reqs[0].event_id for ev in notifies):
        return CheckResult(
            name, False, "registrations produced no status notification fanout"
        )
    regs = len(reqs) + len(resps)
    return CheckResult(
        name, True, f"{regs} registration messages on port {sbi_port}, status fanout present"
    )


def check_pfcp_association(events) -> CheckResult:
    name = "pfcp_association"
    reqs, resps = _exchanges(_delivered(events), MsgKind.PFCP_ASSOC_REQ, lambda *pair: pair)
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
    setups, answers = _exchanges(delivered, MsgKind.NGAP_SETUP_REQ, lambda requester, _: requester)
    if not setups:
        return CheckResult(name, False, "no NGAP setup evidence in the log")
    for gnb, reqs in sorted(setups.items()):
        if gnb not in answers:
            return CheckResult(name, False, f"{gnb} setup never answered", reqs[0].event_id)
    for ev in delivered[MsgKind.NAS_REGISTER_REQ.name]:
        gnb = ev.src  # the relaying radio node
        answered = answers.get(gnb)
        if answered is None or answered[0].event_id > ev.event_id:
            return CheckResult(
                name,
                False,
                f"UE registration through {gnb} before its NGAP setup completed",
                ev.event_id,
            )
    return CheckResult(name, True, f"setup precedes registration for {len(setups)} radio nodes")


def check_heartbeat_cadence(events) -> CheckResult:
    name = "heartbeat_cadence"
    reqs, answers = _exchanges(_delivered(events), MsgKind.NF_HEARTBEAT_REQ, lambda requester, _: requester)
    if not reqs:
        return CheckResult(name, False, "no heartbeat evidence in the log")
    gaps = set()
    for nf, evs in sorted(reqs.items()):
        for prev, cur in zip(evs, evs[1:]):
            gaps.add(cur.ts - prev.ts)
        answered = len(answers.get(nf, ()))
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
    grid = f" on a constant {gaps.pop()}ms grid" if gaps else ", one heartbeat each"  # no second: no gap
    return CheckResult(name, True, f"{len(reqs)} functions{grid}, responses matched")


def check_registration_chain(events) -> CheckResult:
    name = "registration_chain"
    delivered = _delivered(events)
    accepts = delivered[PROCEDURES[MsgKind.NAS_REGISTER_REQ][0].name]
    if not accepts:
        return CheckResult(name, False, "no accepted registration in the log")
    by_ue: dict[str, dict[str, int]] = {}
    for kind in REGISTRATION_CHAIN:
        for ev in delivered[kind]:
            ue = ev.attrs.get("ue_id")
            if ue:
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


def _valid_teid(text: str | None) -> bool:
    """Whether a row's teid is one messages.read_teid reads."""
    try:
        read_teid(text or "", "teid")
    except WireFormatError:
        return False
    return True


def check_user_plane(events, ue_pool: str) -> CheckResult:
    name = "user_plane_routing"
    pool = ipaddress.IPv4Network(ue_pool)
    delivered = _delivered(events)
    gtpu = delivered[Protocol.GTPU]
    if not gtpu:
        return CheckResult(name, False, "no tunnel traffic in the log")
    # a log holds few distinct TEID texts: read each once
    valid = {t for t in {ev.attrs.get("teid") for ev in gtpu} if _valid_teid(t)}
    for ev in gtpu:
        if ev.attrs.get("teid") not in valid:
            return CheckResult(name, False, "tunnel packet without a valid teid", ev.event_id)
    session_sourced = False
    for ev in delivered[Protocol.APP]:
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
    events, sbi_port: int = Params._field_defaults["sbi_port"], ue_pool: str = Params._field_defaults["ue_pool"]
) -> list[CheckResult]:
    """Run every sequence check over an event log, in a fixed order; the port
    and pool default to Params'."""
    delivered = _delivered(events)
    return [
        check_sbi_registration(delivered, sbi_port),
        check_pfcp_association(delivered),
        check_ngap_before_registration(delivered),
        check_heartbeat_cadence(delivered),
        check_registration_chain(delivered),
        check_user_plane(delivered, ue_pool),
    ]


def all_passed(results) -> bool:
    return all(r.passed for r in results)
