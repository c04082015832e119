"""User-plane nodes: UPF forwarding engines and the application server.

A UPF is a rule machine programmed over N4. Uplink G-PDUs match on TEID,
plain downlink packets match on the session address; actions either hand the
inner packet to a neighbour (route) or wrap it into another tunnel (encap).
Duplicate elimination and sequence stamping happen here for the modes that
anchor redundancy in the core.
"""
from __future__ import annotations

import hashlib
import logging
from collections import defaultdict, namedtuple

from .core_cp import ERROR, OK, NfEntity
from .errors import FlowError
from .messages import ANSWER, KIND_NAME, MsgKind, Tag, build, extend, kind_of, read_teid
from .record import Record
from .urllc import DedupWindow
from .wirefmt import Protocol, SimPacket, WireFormatError, _pack_ip, decode_packet

log = logging.getLogger(__name__)

# bound once for the per-packet handlers: on Python 3.10/3.11 EnumType.__getattr__ makes `MsgKind.X` ~0.17 us
_APP_DATA, _SEQ, _INDEX, _APP = MsgKind.APP_DATA, Tag.SEQ, Tag.INDEX, Protocol.APP


class ForwardAction(namedtuple("ForwardAction", "kind target teid carry_seq", defaults=(0, False))):
    """One rule action: route hands the inner packet over, encap re-tunnels.

    `kind` is "route" or "encap" and `target` the neighbour entity's name;
    `teid` and `carry_seq` (propagate the incoming sequence) are for encap only.
    """

    __slots__ = ()


class TeidRule(Record):
    __slots__ = _fields = ("teid", "ue_id", "dedup", "actions")


class UeIpRule(Record):
    __slots__ = _fields = ("ue_ip", "ue_id", "assign_seq", "actions")


def parse_rule_program(text: str, ue_id: str) -> tuple[list[TeidRule], list[UeIpRule]]:
    """Parse the N4 rule grammar, peer text like any other message field.

    ``TEID|<teid>|<dedup>|<actions>`` and ``UEIP|<addr>|<assign_seq>|<actions>``
    joined by ";"; actions are ``route:<entity>`` or
    ``encap:<entity>:<teid>:<carry>`` joined by ",". A TEID is what
    messages.read_teid reads and an address is IPv4. A malformed program
    raises WireFormatError naming the offending rule, selector or action;
    the UPF answers it with ERROR and keeps its rules.
    """
    teid_rules: list[TeidRule] = []
    ueip_rules: list[UeIpRule] = []
    for part in text.split(";"):
        if not part:
            continue
        fields = part.split("|")
        if len(fields) != 4:
            raise WireFormatError(f"malformed rule {part!r}")
        kind, selector, flag, actions_text = fields
        actions = []
        for spec in actions_text.split(","):
            bits = spec.split(":")
            if bits[0] == "route" and len(bits) == 2:
                actions.append(ForwardAction(kind="route", target=bits[1]))
            elif bits[0] == "encap" and len(bits) == 4:
                teid = read_teid(bits[2], f"TEID of action {spec!r}")
                actions.append(
                    ForwardAction(kind="encap", target=bits[1], teid=teid, carry_seq=bits[3] == "1")
                )
            else:
                raise WireFormatError(f"malformed action {spec!r}")
        if kind == "TEID":
            teid = read_teid(selector, f"rule selector {selector!r}")
            teid_rules.append(TeidRule(teid=teid, ue_id=ue_id, dedup=flag == "1", actions=tuple(actions)))
        elif kind == "UEIP":
            try:
                _pack_ip(selector)
            except WireFormatError:
                raise WireFormatError(f"malformed rule selector {selector!r}") from None
            ueip_rules.append(
                UeIpRule(ue_ip=selector, ue_id=ue_id, assign_seq=flag == "1", actions=tuple(actions))
            )
        else:
            raise WireFormatError(f"unknown rule kind {kind!r}")
    return teid_rules, ueip_rules


class Upf(NfEntity):
    """User plane function: a programmable match/action forwarder."""

    kind = "UPF"

    def __init__(self, name, ip, net, env):
        super().__init__(name, ip, net, env)
        self.associated_smfs: set[str] = set()
        self.teid_rules: dict[int, TeidRule] = {}
        self.ueip_rules: dict[str, UeIpRule] = {}
        # ue_id -> its sequence state: uplink replicas share it across the UE's tunnels
        self._windows: defaultdict[str, DedupWindow] = defaultdict(DedupWindow)

    # -- N4 ------------------------------------------------------------------

    def on_pfcp(self, m, pkt, sender) -> None:
        if m.kind == MsgKind.PFCP_ASSOC_REQ:
            self.associated_smfs.add(sender)
            self.send(sender, ANSWER[m.kind], result=OK, nf_id=self.name)
        elif m.kind in (MsgKind.PFCP_SESSION_REQ, MsgKind.PFCP_SESSION_DELETE_REQ):
            ue_id = m.require(Tag.UE_ID)
            answer = ANSWER[m.kind]
            if sender not in self.associated_smfs:
                self.send(sender, answer, ue_id=ue_id, result=ERROR, reason="no association")
                return
            if m.kind == MsgKind.PFCP_SESSION_DELETE_REQ:
                self.teid_rules = {t: r for t, r in self.teid_rules.items() if r.ue_id != ue_id}
                self.ueip_rules = {a: r for a, r in self.ueip_rules.items() if r.ue_id != ue_id}
                self._windows.pop(ue_id, None)
            else:
                try:
                    teid_rules, ueip_rules = parse_rule_program(m.text(Tag.RULES, ""), ue_id)
                except WireFormatError as exc:
                    self.send(sender, answer, ue_id=ue_id, result=ERROR, reason=str(exc))
                    return
                for rule in teid_rules:
                    self.teid_rules[rule.teid] = rule
                for rule in ueip_rules:
                    self.ueip_rules[rule.ue_ip] = rule
            self.send(sender, answer, ue_id=ue_id, result=OK)
        else:
            super().on_pfcp(m, pkt, sender)

    # -- forwarding ------------------------------------------------------------

    def _run_actions(
        self, actions: tuple[ForwardAction, ...], inner_raw: bytes | memoryview | SimPacket, inner: SimPacket,
        seq: int | None, inner_kind: str,
    ) -> None:
        """Run a rule's actions on `inner`; an encap action tunnels
        `inner_raw`, the encoded packet as it arrived or `inner` itself."""
        for kind, target, teid, carry_seq in actions:
            if kind == "route":
                owner = self.net.by_ip.get(inner.dst_ip)
                if owner is None or owner.name != target:
                    # the rule names the neighbour, the UE chose the address
                    self.drop(inner, self.name, "no route", dst_ip=inner.dst_ip)
                    continue
                self.send_msg(
                    target,
                    inner.protocol,
                    inner.payload,
                    sport=inner.src_port,
                    dport=inner.dst_port,
                    src_ip=inner.src_ip,
                    dst_ip=inner.dst_ip,
                    attrs={"msg_kind": inner_kind} if inner_kind else None,
                )
            else:
                out_seq = seq if carry_seq else None
                self.send_gtpu(target, teid, inner_raw, out_seq, inner_kind)

    def tunnel(self, teid: int) -> tuple[TeidRule, DedupWindow | None] | None:
        rule = self.teid_rules.get(teid)
        if rule is None:
            return None
        return rule, self._windows[rule.ue_id] if rule.dedup else None

    def on_tunnelled(self, rule: TeidRule, inner_raw, seq, pkt, sender) -> None:
        inner = decode_packet(inner_raw)
        inner_kind = KIND_NAME[kind_of(inner.payload)] if inner.protocol is _APP else ""
        self._run_actions(rule.actions, inner_raw, inner, seq, inner_kind)

    def on_app(self, m, pkt: SimPacket, sender: str) -> None:
        # plain packet from the data network: match the session address
        rule = self.ueip_rules.get(pkt.dst_ip)
        if rule is None:
            self.drop(pkt, sender, "no downlink rule", dst_ip=pkt.dst_ip)
            return
        seq = self._windows[rule.ue_id].stamp() if rule.assign_seq else None
        # each encap action encodes pkt straight into its G-PDU
        self._run_actions(rule.actions, pkt, pkt, seq, KIND_NAME[m.kind])


def document_content(doc: str, size: int) -> bytes:
    """Deterministic document body: the name repeated cyclically."""
    if size < 0:
        raise FlowError(f"negative document size {size}")
    pattern = doc.encode() or b"?"
    reps = size // len(pattern) + 1
    return (pattern * reps)[:size]


def segment_count(size: int, segment_bytes: int) -> int:
    """Segments needed for a body; an empty body still takes one segment."""
    if size <= 0:
        return 1
    return -(-size // segment_bytes)


class AppServer(NfEntity):
    """Data-network endpoint: serves documents, absorbs data bursts.

    Downlink routes are learned from uplink arrivals, so endpoint-level
    replication needs no session registry here: whichever UPFs delivered a
    request get the response fanned back through them. A document's
    APP_GET_ACK and APP_SEGMENT messages are built once per server and every
    UE is sent the same bytes; a UE that tags its uplink gets each one with
    its own SEQ element appended.
    """

    kind = "SERVER"

    def __init__(self, name, ip, net, env):
        super().__init__(name, ip, net, env)
        self.documents: dict[str, int] = {}  # name -> size, the topology's
        self.routes: dict[str, list[str]] = {}       # ue_ip -> UPFs that delivered uplink
        self._windows: defaultdict[str, DedupWindow] = defaultdict(DedupWindow)  # ue_ip -> its app-level seqs
        self.data_received: dict[str, int] = {}      # ue_ip -> post-elimination APP_DATA count
        self.data_indices: dict[str, set[int]] = {}
        self._built: dict[tuple[str, int], tuple[bytes, tuple[bytes, ...]]] = {}  # (doc, size) -> messages

    def _learn_route(self, ue_ip: str, upf: str) -> None:
        routes = self.routes.setdefault(ue_ip, [])
        if upf not in routes:
            routes.append(upf)

    def _send_downlink(self, ue_ip: str, dport: int, kind: MsgKind, payload: bytes) -> None:
        """Send the built `kind` message `payload` through every route to the UE."""
        routes = self.routes.get(ue_ip)
        if not routes:
            self.drop(0, self.name, "no route", Protocol.APP, ue_ip=ue_ip)
            return
        window = self._windows.get(ue_ip)
        if window is not None:  # a UE that tags its uplink gets tagged downlink
            payload = extend(payload, seq=window.stamp())
        port = self.env.params.ports[_APP]
        for upf in routes:
            self.send_msg(
                upf,
                Protocol.APP,
                payload,
                sport=port,
                dport=dport,
                dst_ip=ue_ip,
                attrs={"msg_kind": KIND_NAME[kind], "ue_ip": ue_ip},
            )

    def on_app(self, m, pkt: SimPacket, sender: str) -> None:
        ue_ip = pkt.src_ip
        self._learn_route(ue_ip, sender)
        seq = m.num(_SEQ)
        if seq is not None:
            # endpoint-level redundancy: eliminate replicas before counting
            if not self.first_copy(self._windows[ue_ip], seq, pkt, sender, ue_ip=ue_ip):
                return
        kind = m.kind
        if kind is _APP_DATA:
            self.data_received[ue_ip] = self.data_received.get(ue_ip, 0) + 1
            index = m.num(_INDEX)
            if index is not None:
                self.data_indices.setdefault(ue_ip, set()).add(index)
        elif kind == MsgKind.APP_GET:
            # Serve after draining same-tick arrivals so a replicated request
            # teaches us every return route before the response fans out.
            doc = m.require(Tag.DOC)
            sport = pkt.src_port
            self.net.schedule_in(0, lambda: self._serve(ue_ip, sport, doc))
        elif kind == MsgKind.APP_COMPLETE:
            pass  # the UE's receipt; its log row is the record
        else:
            log.debug("%s: ignoring APP %s", self.name, m.kind.name)

    def _messages(self, doc: str, size: int) -> tuple[bytes, tuple[bytes, ...]]:
        """A document's APP_GET_ACK and its APP_SEGMENTs in index order,
        built once per server; the body is not kept."""
        built = self._built.get((doc, size))
        if built is None:
            seg = self.env.params.segment_bytes
            n_segments = segment_count(size, seg)
            content = document_content(doc, size)
            digest = hashlib.sha256(content).hexdigest()
            built = self._built[doc, size] = (
                build(MsgKind.APP_GET_ACK, doc=doc, size=size, segments=n_segments, digest=digest),
                tuple(
                    build(MsgKind.APP_SEGMENT, doc=doc, index=i, data=content[i * seg : (i + 1) * seg])
                    for i in range(n_segments)
                ),
            )
        return built

    def _serve(self, ue_ip: str, dport: int, doc: str) -> None:
        size = self.documents.get(doc)
        if size is None:
            error = build(MsgKind.APP_ERROR, doc=doc, reason="no such document")
            self._send_downlink(ue_ip, dport, MsgKind.APP_ERROR, error)
            return
        ack, segments = self._messages(doc, size)
        self._send_downlink(ue_ip, dport, MsgKind.APP_GET_ACK, ack)
        for segment in segments:
            self._send_downlink(ue_ip, dport, MsgKind.APP_SEGMENT, segment)
