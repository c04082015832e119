"""Control-plane network functions: registry, access management, sessions.

Every entity here is an event-driven state machine attached to the fabric.
NfEntity, the base of every node, owns the one send path: `send` builds a
message and takes its protocol from the kind (messages.PROTOCOL), both ports
from the protocol (Params.ports) and its log row's msg_kind and ue_id from the
message. Only nodes forwarding bytes another node built (GTP-U tunnels, the
gNB's uplink NAS relay, UPF routing, the server's downlink fan-out) call
`send_msg` with a protocol and ports of their own. A send to a peer without
a link is a DROPPED row "no link" (config linked the peers each kind needs).

NfEntity owns the one receive path too. The fabric hands `handle_packet`
the packet and the name of the link's other end, its sender; no packet
address names a peer. `handle_packet` dispatches by protocol to the
matching `on_<protocol>(m, pkt, sender)` handler and contains bad input: a
WireFormatError from decoding or from any handler (every parser of peer
text raises it) becomes a local DROPPED row naming the sender with the
reason, and the run goes on. `on_gtpu` is the one tunnel endpoint: it
decapsulates, drops an unknown TEID and eliminates duplicates, leaving the
node only its TEID lookup and what to do with the inner bytes. `drop` and
`first_copy` write every local row.

Flows are the standard ones: NFs register with the NRF and heartbeat on a
shared grid, each managing only its own profile by one table, MANAGE; the
AMF accepts NGAP setups from gNBs. Walker takes every step of
messages.PROCEDURES on both sides: the AMF walks the UE procedures, the UDM
the UDR query of each SUBSCRIBER_REQ, and every NF asked a step answers
through it. A new step is one PROCEDURES row plus, where the NF asked
decides something, its `begin` (the UDR's and the SMF's); a kind that
decides nothing is a plain Walker. The SMF associates with UPFs over PFCP
and anchors PDU sessions over the associated ones, allocating UE addresses
and tunnel endpoints; when a UPF it asked refuses a session's rules, the
SMF deletes the session at its other UPFs and takes the UE address back, and
when an answer is still due 1 ms past one round trip over the slowest SMF-UPF
hop, it deletes the session at every UPF of its legs and names the silent one.

Each NF has one peer view, `candidates` (kind -> registered nf_ids in nf_id
order), and one choice, `pick` (the lowest). An NF with peer kinds to find
(DISCOVERS: the AMF finds AUSF, UDM, PCF and SMF; the SMF, UPFs; the UDM,
the UDR) subscribes to status and discovers right behind its registration,
and `on_sbi` alone writes the view: a discovery answer replaces a kind's
list, and a status notification edits it. So the NF finds a peer that
registers after its discovery, whatever the link delays, and refuses UEs a
suspended one until a heartbeat revives it, which the NRF notifies too. The
SMF associates over PFCP with each UPF as it enters the view. `ready` says
whether a view holds the kinds a run has; the SMF's also waits for each
association answer while one round trip has not passed (runner's readiness gate).

A session's tunnel legs are its only plan: Smf.plan_paths lays them out per
redundancy mode, the only code that branches on a mode's layout; the UPF
rule programs (_build_rules), the gNBs and the UE read the legs alone. One
PduSession carries the session from the SMF through the AMF to the gNBs and
the UE: `fields()` puts it in a message and `read_session` reads it back.
"""
from __future__ import annotations

import bisect
import ipaddress
import logging
from collections import defaultdict, namedtuple
from collections.abc import Callable
from functools import cached_property, partial

from .config import PEER_KINDS, Params
from .errors import FlowError
from .messages import ANSWER, KIND_NAME, PROCEDURES, PROTOCOL, MsgKind, Tag, build, parse, read_teid
from .record import Frozen, Record
from .simnet import DROPPED, ELIMINATED_DUPLICATE, Entity, Network
from .urllc import DedupWindow, Redundancy
from .wirefmt import Protocol, SimPacket, WireFormatError, _pack_ip, gtpu_decapsulate, gtpu_encapsulate

log = logging.getLogger(__name__)

REGISTERED = "REGISTERED"
SUSPENDED = "SUSPENDED"
DEREGISTERED = "DEREGISTERED"

OK = "OK"
ERROR = "ERROR"


class NfProfile(Record):
    """One registry entry."""

    __slots__ = _fields = ("nf_id", "nf_type", "addr", "status", "last_heartbeat")
    _defaults = {"status": REGISTERED, "last_heartbeat": 0}

    def snapshot(self) -> "NfProfile":
        return NfProfile(self.nf_id, self.nf_type, self.addr, self.status, self.last_heartbeat)


class SessionPath(namedtuple("SessionPath", "gnb upf teid_ul teid_dl carry_seq", defaults=(False,))):
    """One tunnel leg of a PDU session as the gNB sees it: `teid_ul` is the
    UPF-side endpoint, used for gNB -> UPF traffic, and `teid_dl` the
    gNB-side one, used for UPF -> gNB traffic."""

    __slots__ = ()


class PduSession(Frozen, namedtuple("PduSession", "ue_id ue_ip mode paths")):
    """One PDU session, as the SMF set it up and as the AMF, the gNBs on its
    legs and the UE keep it: the UE's address, its mode and its tunnel legs."""

    @cached_property
    def gnbs(self) -> tuple[str, ...]:
        """The gNBs the legs run through, in leg order, each once; kept after
        first use, and not a field (equality, hash, repr, `_fields`)."""
        return tuple(dict.fromkeys(p.gnb for p in self.paths))

    def fields(self) -> dict[str, str]:
        """The message fields that carry the session; read_session reads them."""
        return {
            "ue_id": self.ue_id, "ue_ip": self.ue_ip, "mode": self.mode.name,
            "paths": encode_paths(self.paths),
        }


def encode_paths(paths: tuple[SessionPath, ...]) -> str:
    return ";".join(
        f"{p.gnb}/{p.upf}/{p.teid_ul}/{p.teid_dl}/{int(p.carry_seq)}" for p in paths
    )


def decode_paths(text: str) -> tuple[SessionPath, ...]:
    out = []
    for part in text.split(";"):
        if not part:
            continue
        fields = part.split("/")
        if len(fields) != 5:
            raise WireFormatError(f"malformed session path {part!r}")
        gnb, upf, tu, td, carry = fields
        teid_ul, teid_dl = (read_teid(t, f"TEID in session path {part!r}") for t in (tu, td))
        out.append(SessionPath(gnb, upf, teid_ul, teid_dl, carry_seq=carry == "1"))
    return tuple(out)


def read_mode(m) -> Redundancy:
    """The mode a message names by its exact member name (NONE when it names
    none); one spelling per mode on the wire."""
    text = m.text(Tag.MODE, Redundancy.NONE.name)
    mode = Redundancy.__members__.get(text)
    if mode is None:
        raise WireFormatError(f"unknown redundancy mode {text!r}")
    return mode


def read_session(m) -> PduSession:
    """The session a message carries; the inverse of PduSession.fields."""
    ue_id = m.require(Tag.UE_ID)
    ue_ip = m.require(Tag.UE_IP)
    _pack_ip(ue_ip)  # the cached parser: refuses what IPv4Address refuses, as "bad IPv4 address"
    return PduSession(ue_id, ue_ip, read_mode(m), decode_paths(m.text(Tag.PATHS, "")))


_GTPU = Protocol.GTPU  # per packet: on Python 3.10/3.11 EnumType.__getattr__ makes `Protocol.X` ~0.17 us

# TLV protocol -> the handler its parsed messages go to; GTP-U goes to on_gtpu
_HANDLER = {p: f"on_{p.name.lower()}" for p in Protocol if p is not _GTPU}

# NF kind -> the peer kinds it asks the registry for: its PEER_KINDS entry
# without the registry itself, in that order; only the kinds that have any
DISCOVERS = {
    kind: tuple(k for k in peers if k != "NRF")
    for kind, peers in PEER_KINDS.items() if "NRF" in peers and len(peers) > 1
}

# the NF kinds that register with the registry: those whose PEER_KINDS entry
# names it
REGISTERS = frozenset(kind for kind, peers in PEER_KINDS.items() if "NRF" in peers)


class NfEntity(Entity):
    """Base for every node that talks on the fabric.

    The kinds in REGISTERS additionally register with the NRF and
    heartbeat on the shared interval grid; the other nodes (gNB, UE,
    server) just reuse the send helpers. `kind` overrides the class's kind.
    """

    def __init__(self, name: str, ip: str, net: Network, params: Params, kind: str | None = None):
        super().__init__(name, ip, net)
        if kind is not None:
            self.kind = kind
        self.params = params
        self.nrf = ""  # the registry of a kind in REGISTERS, set with its links
        self.registered = False
        self.heartbeat_enabled = True
        # peer kind -> its registered nf_ids in nf_id order, as the registry
        # last reported them; only on_sbi writes it
        self.candidates: dict[str, list[str]] = {}

    # -- sending -----------------------------------------------------------

    def send(self, peer: str, kind: MsgKind, attrs: dict[str, str] | None = None, **fields) -> bool:
        """Build a `kind` message from `fields` and send it to `peer`.

        The kind fixes the protocol (PROTOCOL), the protocol fixes both
        ports (Params.ports). The log row always names the kind and, when the
        message carries one, the UE; `attrs` add to that.
        """
        protocol = PROTOCOL[kind]
        port = self.params.ports[protocol]
        row = {"msg_kind": KIND_NAME[kind]}
        if attrs:
            row.update(attrs)
        ue_id = fields.get("ue_id")
        if ue_id is not None:
            row.setdefault("ue_id", str(ue_id))
        return self.send_msg(peer, protocol, build(kind, **fields), sport=port, dport=port, attrs=row)

    def send_msg(
        self,
        peer: str,
        protocol: Protocol,
        payload: bytes,
        *,
        sport: int,
        dport: int,
        attrs: dict[str, str] | None = None,
        stream: int = 0,
        src_ip: str | None = None,
        dst_ip: str | None = None,
    ) -> bool:
        """Send ready-made bytes; for forwarding what another node built.

        Config linked every node to the peer kinds it needs, so a peer without
        a link comes from a message (a forged discovery answer, rule program
        or session path): the packet is a DROPPED row "no link", not an error."""
        hop = self.net.hops.get((self.name, peer))
        if hop is None:
            kind = {"msg_kind": attrs["msg_kind"]} if attrs and "msg_kind" in attrs else {}
            self.drop(len(payload), self.name, "no link", protocol, peer=peer, **kind)
            return False
        pkt = SimPacket(protocol, src_ip or self.ip, dst_ip or hop.dst_ip, sport, dport, payload)
        return self.net.send(hop, pkt, stream, attrs)

    def send_gtpu(
        self, peer: str, teid: int, inner_raw: bytes | memoryview | SimPacket, seq: int | None, inner_kind: str,
        **attrs,
    ) -> None:
        """Tunnel a packet, encoded or not (gtpu_encapsulate), to `peer`;
        each TEID is its own loss stream."""
        int_text = self.net.int_text
        attrs["teid"] = int_text[teid]
        if seq is not None:
            attrs["seq"] = int_text[seq]
        if inner_kind:
            attrs["inner"] = inner_kind
        port = self.params.ports[_GTPU]
        self.send_msg(
            peer, _GTPU, gtpu_encapsulate(inner_raw, teid, seq),
            sport=port, dport=port, stream=teid, attrs=attrs,
        )

    # -- timers --------------------------------------------------------------

    def on_heartbeat_grid(self, fn: Callable[[], None]) -> None:
        """Call `fn`, a bound method, at every later multiple of heartbeat_ms."""
        hb = self.params.heartbeat_ms
        self.net.schedule((self.net.now // hb + 1) * hb, partial(self._grid_tick, fn))

    def _grid_tick(self, fn: Callable[[], None]) -> None:
        fn()
        self.on_heartbeat_grid(fn)

    # -- NRF client -------------------------------------------------------

    def boot_register(self) -> None:
        """Register; a node with peer kinds to find also subscribes to status
        and discovers them right behind, without waiting for the answer. The
        registry takes the requests in order over the one hop, so it answers
        each after the registration, and the notifications cover whatever
        registers after the discovery (TS 29.510 §5.2.2.5-6)."""
        self.send(self.nrf, MsgKind.NF_REGISTER_REQ, nf_id=self.name, nf_type=self.kind, addr=self.ip)
        if self.kind in DISCOVERS:
            self.send(self.nrf, MsgKind.NF_STATUS_SUBSCRIBE_REQ, nf_id=self.name)
            self.discover()

    def discover(self) -> None:
        """Ask the registry for every peer kind this node sends to."""
        for kind in DISCOVERS.get(self.kind, ()):
            self.send(self.nrf, MsgKind.NF_DISCOVER_REQ, nf_type=kind)

    def pick(self, kind: str) -> str | None:
        """The registered `kind` peer to use: the lowest nf_id, or None."""
        found = self.candidates.get(kind)
        return found[0] if found else None

    def ready(self, kinds) -> bool:
        """Whether this node holds a peer of each of `kinds` it discovers."""
        return all(self.candidates.get(kind) for kind in DISCOVERS.get(self.kind, ()) if kind in kinds)

    def _update_candidates(self, m) -> None:
        """Fold a discovery answer or status notification into the view. An
        OK answer replaces its kind's list with its nf_ids (already in nf_id
        order); a notification inserts a REGISTERED peer in nf_id order and
        removes a SUSPENDED or DEREGISTERED one. Anything about a kind this
        node does not discover is ignored (TS 29.510 §5.2.2.5-6)."""
        kind = m.text(Tag.NF_TYPE, "")
        if kind not in DISCOVERS.get(self.kind, ()):
            return
        if m.kind == MsgKind.NF_DISCOVER_RESP:
            if m.text(Tag.RESULT) == OK:
                self.candidates[kind] = [e.split("|")[0] for e in m.text(Tag.DATA, "").split(";") if e]
        elif m.text(Tag.STATUS, "") in (REGISTERED, SUSPENDED, DEREGISTERED):
            nf_id = m.require(Tag.NF_ID)
            names = [n for n in self.candidates.get(kind, ()) if n != nf_id]
            if m.text(Tag.STATUS) == REGISTERED:
                bisect.insort(names, nf_id)
            self.candidates[kind] = names

    def _heartbeat(self) -> None:
        if self.heartbeat_enabled:
            self.send(self.nrf, MsgKind.NF_HEARTBEAT_REQ, nf_id=self.name)

    # -- receiving ---------------------------------------------------------

    def handle_packet(self, pkt: SimPacket, sender: str) -> None:
        """The one dispatcher. Bad input from a peer ends here as a DROPPED
        row; it never stops the run."""
        try:
            protocol = pkt.protocol
            if protocol is _GTPU:
                self.on_gtpu(pkt, sender)
            else:
                getattr(self, _HANDLER[protocol])(parse(pkt.payload), pkt, sender)
        except WireFormatError as exc:
            self.drop(pkt, sender, str(exc))

    def drop(
        self, pkt_or_size: SimPacket | int, src: str, reason: str, protocol: Protocol | None = None,
        **attrs: str,
    ) -> None:
        """Log a local DROPPED row; the protocol defaults to the packet's."""
        if protocol is None:
            protocol = pkt_or_size.protocol
        self.net.tap_local(
            self.name, pkt_or_size, protocol, DROPPED, src=src, attrs={"reason": reason, **attrs}
        )

    def first_copy(self, window: DedupWindow, seq: int, pkt: SimPacket, src: str, **attrs: str) -> bool:
        """Whether `seq` is new to `window`; a later copy is logged as eliminated."""
        if window.accept(seq):
            return True
        self.net.tap_local(
            self.name, pkt, pkt.protocol, ELIMINATED_DUPLICATE, src=src,
            attrs={**attrs, "seq": self.net.int_text[seq]},
        )
        return False

    def on_sbi(self, m, pkt: SimPacket, sender: str) -> None:
        if m.kind == MsgKind.NF_REGISTER_RESP and self.kind in REGISTERS and not self.registered:
            if m.text(Tag.RESULT) == OK:
                self.registered = True
                self.on_heartbeat_grid(self._heartbeat)
            else:
                log.warning("%s: registration rejected: %s", self.name, m.text(Tag.REASON))
        elif m.kind in (MsgKind.NF_DISCOVER_RESP, MsgKind.NF_STATUS_NOTIFY):
            self._update_candidates(m)
        elif m.kind in (
            MsgKind.NF_HEARTBEAT_RESP, MsgKind.NF_STATUS_SUBSCRIBE_RESP, MsgKind.NF_DEREGISTER_RESP
        ):
            pass
        else:
            log.debug("%s: unhandled SBI %s", self.name, m.kind.name)

    def on_unhandled(self, m, pkt, sender) -> None:
        log.debug("%s: unhandled %s %s", self.name, pkt.protocol.name, m.kind.name)

    on_ngap = on_nas = on_pfcp = on_rls = on_app = on_unhandled

    def on_gtpu(self, pkt: SimPacket, sender: str) -> None:
        """The tunnel endpoint of every node that terminates GTP-U."""
        inner_raw, teid, seq = gtpu_decapsulate(pkt.payload)
        found = self.tunnel(teid)
        if found is None:
            self.drop(pkt, sender, "unknown teid", teid=self.net.int_text[teid])
            return
        ctx, window = found
        if seq is not None and window is not None:
            if not self.first_copy(window, seq, pkt, sender, teid=self.net.int_text[teid]):
                return
        self.on_tunnelled(ctx, inner_raw, seq, pkt, sender)

    def tunnel(self, teid: int) -> tuple[object, DedupWindow | None] | None:
        """(context, duplicate window or None) for a TEID this node
        allocated, None for any other."""
        return None

    def on_tunnelled(
        self, ctx, inner_raw: bytes | memoryview, seq: int | None, pkt: SimPacket, sender: str
    ) -> None:
        """Take the inner packet of a first-copy G-PDU on a known TEID; a
        large one is a view over the G-PDU (wirefmt.gtpu_decapsulate)."""


# NF-management request -> (the profile statuses it applies to, None for no
# profile; the status it leaves; its refusal of the nf_id). An applied request
# notifies exactly when it changes the status, a new profile's included
# (TS 29.510 §5.2.2)
MANAGE = {
    MsgKind.NF_REGISTER_REQ: ((None, DEREGISTERED), REGISTERED, "duplicate registration for {}"),
    MsgKind.NF_HEARTBEAT_REQ: (
        (REGISTERED, SUSPENDED), REGISTERED, "heartbeat for unknown or deregistered NF {}"
    ),
    MsgKind.NF_DEREGISTER_REQ: ((REGISTERED, SUSPENDED), DEREGISTERED, "deregistration for unknown NF {}"),
}


class Nrf(NfEntity):
    """Repository function: registry, heartbeat ledger, status fanout."""

    kind = "NRF"

    def __init__(self, name, ip, net, params):
        super().__init__(name, ip, net, params)
        self.registry: dict[str, NfProfile] = {}
        self.status_subscribers: list[str] = []

    def boot(self) -> None:
        self.on_heartbeat_grid(self._sweep)

    def profiles_of(self, nf_type: str) -> list[NfProfile]:
        """Snapshots of the registered `nf_type` profiles by nf_id: a discovery answer."""
        found = [
            p.snapshot()
            for p in self.registry.values()
            if p.nf_type == nf_type and p.status == REGISTERED
        ]
        return sorted(found, key=lambda p: p.nf_id)

    # -- sweep -------------------------------------------------------------

    def _sweep(self) -> None:
        hb = self.params.heartbeat_ms
        for profile in self.registry.values():
            if profile.status == REGISTERED and self.net.now - profile.last_heartbeat > 2 * hb:
                profile.status = SUSPENDED
                self._notify(profile)

    def _notify(self, profile: NfProfile) -> None:
        for sub in self.status_subscribers:
            if sub != profile.nf_id:
                self.send(sub, MsgKind.NF_STATUS_NOTIFY, nf_id=profile.nf_id, nf_type=profile.nf_type,
                          status=profile.status)

    # -- SBI server ---------------------------------------------------------

    def _manage_profile(self, m, sender: str) -> None:
        """Apply MANAGE to the profile a request names, which must be the
        sender's own; an applied request that changes its status notifies."""
        nf_id = m.require(Tag.NF_ID)
        answer = ANSWER[m.kind]
        if nf_id != sender:
            reason = f"{sender} cannot manage the profile of {nf_id}"
            return self.send(sender, answer, result=ERROR, reason=reason, nf_id=nf_id)
        registering = m.kind is MsgKind.NF_REGISTER_REQ
        new = NfProfile(nf_id, m.require(Tag.NF_TYPE), m.require(Tag.ADDR)) if registering else None
        profile = self.registry.get(nf_id)
        before = profile and profile.status
        applies, after, refusal = MANAGE[m.kind]
        if before not in applies:
            return self.send(sender, answer, result=ERROR, reason=refusal.format(nf_id), nf_id=nf_id)
        if registering:
            profile = self.registry[nf_id] = new
        profile.status, profile.last_heartbeat = after, self.net.now
        self.send(sender, answer, result=OK, nf_id=nf_id)
        if after != before:
            self._notify(profile)

    def on_sbi(self, m, pkt, sender) -> None:
        if m.kind in MANAGE:
            self._manage_profile(m, sender)
        elif m.kind == MsgKind.NF_DISCOVER_REQ:
            if getattr(self.registry.get(sender), "status", None) != REGISTERED:
                return self.send(sender, ANSWER[m.kind], result=ERROR, reason="requester not registered")
            nf_type = m.require(Tag.NF_TYPE)
            data = ";".join(f"{p.nf_id}|{p.nf_type}|{p.addr}" for p in self.profiles_of(nf_type))
            self.send(sender, ANSWER[m.kind], result=OK, nf_type=nf_type, data=data.encode())
        elif m.kind == MsgKind.NF_STATUS_SUBSCRIBE_REQ:
            if sender not in self.status_subscribers:
                self.status_subscribers.append(sender)
            self.send(sender, ANSWER[m.kind], result=OK)
        else:
            super().on_sbi(m, pkt, sender)


def runs_of(nf_type: str) -> dict[MsgKind, tuple]:
    """The runs of steps an NF of `nf_type` walks, by the request that starts
    each, as (accept, reject, steps): the AMF's are messages.PROCEDURES, and
    each step asked of `nf_type` is a run of its own, accepted and rejected
    by its one answer kind, whose steps are the step's nested ones, or none."""
    runs = dict(PROCEDURES) if nf_type == "AMF" else {}
    nested = [steps for _, _, steps in PROCEDURES.values()]
    while nested:
        for request, kind, _, inner in nested.pop():
            nested.append(inner)
            if kind == nf_type:
                runs[request] = (ANSWER[request], ANSWER[request], inner)
    return runs


# a run that can wait for a UE -> why a second request for the UE is dropped
# while it waits: a second copy would walk a second chain or plan a second session
PENDING = {
    MsgKind.NAS_REGISTER_REQ: "registration pending", MsgKind.SUBSCRIBER_REQ: "registration pending",
    MsgKind.NAS_SESSION_REQ: "session request pending", MsgKind.SESSION_CREATE_REQ: "session request pending",
}


class Walker(NfEntity):
    """Base of every NF that takes a step of messages.PROCEDURES: the one
    code that asks, answers or reads one. A request starting a run (runs_of)
    goes to `begin`, which walks its steps or, with none, answers at once;
    `end` sends every answer. An OK answer asks the next step, the last one
    accepts; an error answer (its reason, else the step's refusal) or a step
    with no discovered NF (`no <KIND> discovered`) rejects. Only the asked
    peer answers a step, and every field an answer gives is read before the
    UE's pending entry changes; a request for a UE whose run is pending is
    dropped (PENDING). Of a kind asked no step, it is just an NfEntity."""

    def __init__(self, name, ip, net, params, kind=None):
        super().__init__(name, ip, net, params, kind)
        self.runs = runs_of(self.kind)
        # run -> ue_id -> (requester, step asked, the peer asked, the fields each
        # step carries), or what the `begin` of a run without steps waits on
        self._pending: dict[MsgKind, dict[str, tuple]] = {run: {} for run in self.runs}
        # a step's answer kind -> (its run, the step's index)
        self._answered = {
            ANSWER[step[0]]: (run, i) for run, (*_, steps) in self.runs.items() for i, step in enumerate(steps)
        }

    def begin(self, run: MsgKind, ue_id: str, requester: str, m) -> None:
        """Start the UE's `run`, which `requester` asked for with `m`."""
        if self.runs[run][2]:
            self.walk(run, ue_id, requester, 0, {})
        else:
            self.end(run, ue_id, requester)

    def walk(self, run: MsgKind, ue_id: str, requester: str, index: int, fields: dict) -> None:
        """Ask the picked NF the UE's step `index` of `run`; without one, reject."""
        kind, nf_type, _, _ = self.runs[run][2][index]
        peer = self.pick(nf_type)
        if peer is None:
            return self.end(run, ue_id, requester, f"no {nf_type} discovered")
        self._pending[run][ue_id] = (requester, index, peer, fields)
        self.send(peer, kind, ue_id=ue_id, **fields)

    def end(self, run: MsgKind, ue_id: str, requester: str, reason: str | None = None, /, **fields) -> None:
        """Accept the UE's run, or with a `reason` reject it: the answer lays out
        ue_id, a result (when accept and reject are one kind), reason, `fields`."""
        accept, reject, _ = self.runs[run]
        self._pending[run].pop(ue_id, None)
        result = (OK if reason is None else ERROR) if accept is reject else None
        answer = {"ue_id": ue_id, "result": result, "reason": reason, **fields}
        self.send(requester, accept if reason is None else reject, **answer)

    def on_sbi(self, m, pkt, sender) -> None:
        if m.kind in self.runs and m.kind not in PROCEDURES:  # the AMF's procedures start over NAS alone
            ue_id = m.require(Tag.UE_ID)
            if ue_id in self._pending[m.kind]:
                return self.drop(pkt, sender, PENDING[m.kind], ue_id=ue_id)
            return self.begin(m.kind, ue_id, sender, m)
        if m.kind not in self._answered:
            return super().on_sbi(m, pkt, sender)
        run, index = self._answered[m.kind]
        ue_id = m.require(Tag.UE_ID)
        requester, asked, peer, fields = self._pending[run].get(ue_id, (None,) * 4)
        if (asked, peer) != (index, sender):  # no step of this UE waits for this answer from `sender`
            return
        steps = self.runs[run][2]
        if m.text(Tag.RESULT) != OK:
            self.end(run, ue_id, requester, m.text(Tag.REASON, steps[index][2]))
        elif index + 1 < len(steps):
            self.walk(run, ue_id, requester, index + 1, fields)
        else:
            self.accepted(run, ue_id, requester, m)

    def accepted(self, run: MsgKind, ue_id: str, requester: str, m) -> None:
        """The last step of the UE's run answered OK with `m`."""
        self.end(run, ue_id, requester)


class Amf(Walker):
    """Access and mobility function: NGAP endpoint, and the walker of the UE
    procedures in messages.PROCEDURES, each started by its NAS request."""

    kind = "AMF"

    def __init__(self, name, ip, net, params):
        super().__init__(name, ip, net, params)
        self.gnbs: set[str] = set()
        self.ue_registered: dict[str, str] = {}  # ue_id -> serving gNB

    # -- NGAP (towards gNBs, reliable transport required) -------------------

    def on_ngap(self, m, pkt, sender) -> None:
        if m.kind == MsgKind.NGAP_SETUP_REQ:
            if not self.net.hop(self.name, sender).reliable:
                self.send(sender, ANSWER[m.kind], result=ERROR, reason="transport not reliable")
                return
            self.gnbs.add(sender)
            self.send(sender, ANSWER[m.kind], result=OK)
        elif m.kind == MsgKind.NGAP_KEEPALIVE_REQ:
            self.send(sender, ANSWER[m.kind], result=OK)
        elif m.kind == MsgKind.NGAP_SESSION_SETUP_ACK:
            pass
        else:
            super().on_ngap(m, pkt, sender)

    # -- NAS relayed by gNBs -------------------------------------------------

    def on_nas(self, m, pkt, sender) -> None:
        if m.kind not in self.runs:
            return super().on_nas(m, pkt, sender)
        ue_id, registering = m.require(Tag.UE_ID), m.kind is MsgKind.NAS_REGISTER_REQ
        # the SMF plans the legs through the gNBs the UE names, else the relaying one
        fields = {} if registering else {
            "mode": m.text(Tag.MODE, Redundancy.NONE.name), "gnb": m.text(Tag.GNB, sender)
        }
        accept, reject, _ = self.runs[m.kind]
        if registering and sender not in self.gnbs:
            self.send(sender, reject, ue_id=ue_id, reason="no NGAP setup")
        elif registering and ue_id in self.ue_registered:
            self.send(sender, accept, ue_id=ue_id)
        elif not registering and ue_id not in self.ue_registered:
            self.send(sender, reject, ue_id=ue_id, reason="not registered")
        elif ue_id in self._pending[m.kind]:
            self.drop(pkt, sender, PENDING[m.kind], ue_id=ue_id)
        else:
            self.walk(m.kind, ue_id, sender, 0, fields)

    def accepted(self, run, ue_id, gnb, m) -> None:
        if run is MsgKind.NAS_REGISTER_REQ:
            self.ue_registered[ue_id] = gnb
            return self.end(run, ue_id, gnb)
        # the session: the legs' other gNBs get theirs over NGAP before the UE hears
        session = read_session(m)
        fields = session.fields()
        for other in sorted(set(session.gnbs) - {gnb}):
            self.send(other, MsgKind.NGAP_SESSION_SETUP, **fields)
        self.end(run, ue_id, gnb, None, **fields)


class Smf(Walker):
    """Session management: PFCP associations, address pool, tunnel plumbing."""

    kind = "SMF"

    def __init__(self, name, ip, net, params):
        super().__init__(name, ip, net, params)
        self.server = ""  # the route: target of every session's uplink, set with its links
        self.associations: dict[str, str] = {}  # upf name -> PENDING | ACTIVE
        self._awaited: dict[str, int] = {}  # upf name -> when its association answer is overdue, until it comes
        self.sessions: dict[str, PduSession] = {}
        # IPv4Network.hosts() less its first, the gateway, as ints (a /31's and a /32's hosts() keep their edges)
        pool = ipaddress.IPv4Network(params.ue_pool)
        edge = pool.prefixlen < 31
        self._next_ip, self._last_ip = int(pool.network_address) + edge + 1, int(pool.broadcast_address) - edge
        self._released: list[str] = []  # addresses of failed sessions, handed out first
        self._teid = 0

    def next_teid(self) -> int:
        self._teid += 1
        return self._teid

    def allocate_ue_ip(self) -> str:
        if self._released:
            return self._released.pop()
        if self._next_ip > self._last_ip:
            raise FlowError("UE address pool exhausted")
        self._next_ip += 1
        return str(ipaddress.IPv4Address(self._next_ip - 1))

    # -- PFCP ---------------------------------------------------------------

    def _overdue(self, upf: str) -> int:
        """When an answer from `upf` to a request sent now is overdue: 1 ms
        past the round trip, as a check due at the round trip itself runs
        before an answer arriving in that ms; now without a hop ("no link")."""
        hop = self.net.hops.get((self.name, upf))
        return self.net.now + (2 * hop.latency_ms + 1 if hop else 0)

    def pfcp_associate(self, upf: str) -> None:
        """Idempotent: repeated calls never emit extra packets."""
        if upf not in self.associations:
            self._awaited[upf] = self._overdue(upf)
            self.associations[upf] = "PENDING"
            self.send(upf, MsgKind.PFCP_ASSOC_REQ, nf_id=self.name)

    def ready(self, kinds) -> bool:
        """NfEntity.ready, and no association answer from a UPF in the view is still due."""
        now = self.net.now
        return super().ready(kinds) and all(self._awaited.get(u, now) <= now for u in self.candidates.get("UPF", ()))

    def _update_candidates(self, m) -> None:
        """Associate with each UPF as it enters the view."""
        super()._update_candidates(m)
        for upf in self.candidates.get("UPF", ()):
            self.pfcp_associate(upf)

    def on_pfcp(self, m, pkt, sender) -> None:
        if m.kind == MsgKind.PFCP_ASSOC_RESP:
            self._awaited.pop(sender, None)
            if m.text(Tag.RESULT) == OK:
                self.associations[sender] = "ACTIVE"
        elif m.kind == MsgKind.PFCP_SESSION_RESP:
            ue_id, run = m.require(Tag.UE_ID), MsgKind.SESSION_CREATE_REQ
            requester, session, outstanding = self._pending[run].get(ue_id, (None, None, ()))
            if sender not in outstanding:  # only a UPF whose rules this UE waits for answers
                return
            if m.text(Tag.RESULT) != OK:
                return self._abandon(ue_id, requester, session, {sender}, m.text(Tag.REASON, "error"))
            outstanding.remove(sender)
            if not outstanding:
                self.sessions[ue_id] = session
                self.end(run, ue_id, requester, None, **session.fields())
        elif m.kind == MsgKind.PFCP_SESSION_DELETE_RESP:
            pass
        else:
            super().on_pfcp(m, pkt, sender)

    def _abandon(self, ue_id: str, requester: str, session: PduSession, refused: set[str], reason: str) -> None:
        """Undo the UE's session at every UPF of its legs but those that
        `refused` it (TS 29.244 §7.5.6), take its address back and reject it."""
        for upf in sorted({p.upf for p in session.paths} - refused):
            self.send(upf, MsgKind.PFCP_SESSION_DELETE_REQ, ue_id=ue_id)
        self._released.append(session.ue_ip)
        self.end(MsgKind.SESSION_CREATE_REQ, ue_id, requester, reason)

    def _session_overdue(self, ue_id: str, session: PduSession) -> None:
        """Give up on `session` if the UE still waits on it for a UPF's answer."""
        requester, pending, silent = self._pending[MsgKind.SESSION_CREATE_REQ].get(ue_id, (None, None, ()))
        if pending is session:
            self._abandon(ue_id, requester, session, set(), "no PFCP session answer from " + ", ".join(sorted(silent)))

    # -- session establishment ------------------------------------------------

    def plan_paths(self, mode: Redundancy, gnbs: list[str]) -> tuple[SessionPath, ...]:
        """Lay out a session's tunnel legs, its only plan, over the discovered
        UPFs with an active PFCP association. Raises FlowError for every
        layout the serving gNBs and those UPFs cannot give."""
        if not gnbs:
            raise FlowError("no serving gNB")
        upfs = [upf for upf in self.candidates.get("UPF", ()) if self.associations.get(upf) == "ACTIVE"]
        if not upfs:
            raise FlowError("no UPF discovered with an active PFCP association")
        if mode is Redundancy.NONE:
            legs = [(gnbs[0], upfs[0], False)]
        elif mode is Redundancy.DUAL_CONNECTIVITY:
            if len(gnbs) < 2:
                raise FlowError("dual connectivity needs two serving gNBs")
            if len(upfs) < 2:
                raise FlowError("dual connectivity needs two UPFs")
            # peer input: a gNB list or a discovery answer may name one twice
            if gnbs[0] == gnbs[1] or upfs[0] == upfs[1]:
                raise FlowError("dual connectivity needs two distinct gNBs and two distinct UPFs")
            legs = [(gnbs[0], upfs[0], False), (gnbs[1], upfs[1], False)]
        elif mode is Redundancy.N3_REPLICATION:
            legs = [(gnbs[0], upfs[0], True)] * 2
        else:  # PSA_ANCHOR: via an intermediate UPF, and direct to the anchor
            if upfs[0] == upfs[-1]:  # one UPF, or a discovery answer naming it twice
                raise FlowError("PSA anchoring needs an intermediate UPF and an anchor")
            legs = [(gnbs[0], upfs[0], True), (gnbs[0], upfs[-1], True)]
        return tuple(
            SessionPath(gnb, upf, self.next_teid(), self.next_teid(), carry)
            for gnb, upf, carry in legs
        )

    def begin(self, run, ue_id, requester, m) -> None:
        """Anchor the session: plan it and program its UPFs, whose answers end it."""
        mode, gnbs = read_mode(m), [g for g in m.text(Tag.GNB, "").split(";") if g]
        if ue_id in self.sessions:
            return self.end(run, ue_id, requester, "session already established")
        try:
            paths = self.plan_paths(mode, gnbs)
            ue_ip = self.allocate_ue_ip()
        except FlowError as exc:
            return self.end(run, ue_id, requester, str(exc))

        session = PduSession(ue_id, ue_ip, mode, paths)
        rule_sets = self._build_rules(session)
        self._pending[run][ue_id] = (requester, session, set(rule_sets))
        for upf, rules in rule_sets.items():
            self.send(upf, MsgKind.PFCP_SESSION_REQ, ue_id=ue_id, ue_ip=ue_ip, rules=rules)
        self.net.schedule(max(map(self._overdue, rule_sets)), partial(self._session_overdue, ue_id, session))

    def _build_rules(self, session: PduSession) -> dict[str, str]:
        """Per-UPF rule programs in the N4 rule grammar, read off the legs
        alone. teid rules match arriving G-PDUs, ueip rules plain downlink
        packets; route:<entity> re-emits the inner packet and
        encap:<entity>:<teid>:<carry_seq> re-tunnels it. The last leg's UPF
        anchors: a sequenced leg on another UPF reaches it over an N9 bridge.
        """
        server, ue_ip, anchor = self.server, session.ue_ip, session.paths[-1].upf
        rules: dict[str, list[str]] = defaultdict(list)
        downlink: dict[str, list[str]] = defaultdict(list)  # UPF -> its UEIP actions, one per leg
        for p in session.paths:
            if p.carry_seq and p.upf != anchor:
                # the leg's UPF bridges uplink N3 to N9 and unwraps N9 downlink
                n9_ul, n9_dl = self.next_teid(), self.next_teid()
                rules[p.upf].append(f"TEID|{p.teid_ul}|0|encap:{anchor}:{n9_ul}:1")
                rules[p.upf].append(f"TEID|{n9_dl}|0|encap:{p.gnb}:{p.teid_dl}:1")
                rules[anchor].append(f"TEID|{n9_ul}|1|route:{server}")
                downlink[anchor].append(f"encap:{p.upf}:{n9_dl}:1")
            else:
                carry = int(p.carry_seq)
                rules[p.upf].append(f"TEID|{p.teid_ul}|{carry}|route:{server}")
                downlink[p.upf].append(f"encap:{p.gnb}:{p.teid_dl}:{carry}")
        tag = int(any(p.carry_seq for p in session.paths))  # the UPF sequences the downlink
        for upf, actions in downlink.items():
            rules[upf].append(f"UEIP|{ue_ip}|{tag}|{','.join(actions)}")
        return {upf: ";".join(parts) for upf, parts in rules.items()}


class Udr(Walker):
    """Subscriber repository: the provisioned IMSI set."""

    kind = "UDR"

    def __init__(self, name, ip, net, params):
        super().__init__(name, ip, net, params)
        self.subscribers: set[str] = set()

    def begin(self, run, ue_id, requester, m) -> None:
        self.end(run, ue_id, requester, None if ue_id in self.subscribers else "unknown subscriber")
