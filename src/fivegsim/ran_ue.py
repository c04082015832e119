"""Radio access side: gNB relays and the UE state machine.

The radio leg is a simulated link carrying two envelope kinds: RLS_NAS for
signalling (relayed verbatim between UE and AMF) and RLS_DATA for user
packets. The gNB terminates GTP-U towards the UPFs: uplink it encapsulates
(replicating and sequence-stamping when the session's legs say so), downlink
it strips tunnels, eliminates duplicates and hands the inner packet to the
UE. The UE and each gNB on a session's legs keep the core_cp.PduSession the
SMF set up (read_session) and act on its legs, never its mode: a UE whose
legs run through several gNBs sends uplink to each with an app-level seq.
A UE checks each document it fetches against the SHA-256 digest the server
states, once all its segments are in. The testbed keeps the bodies its UEs
verified, so a body met again is compared byte for byte with that copy
instead of hashed once more (Transfer).
"""
from __future__ import annotations

import hashlib
import logging
from itertools import accumulate

from .core_cp import NfEntity, PduSession, read_session
from .errors import FlowError
from .messages import ANSWER, KIND_NAME, MsgKind, Tag, build, kind_of, parse
from .record import Record
from .urllc import DedupWindow, Redundancy
from .wirefmt import Protocol, SimPacket, WireFormatError, decode_packet, encode_packet

log = logging.getLogger(__name__)

# bound once for the per-packet handlers: on Python 3.10/3.11 EnumType.__getattr__ makes `MsgKind.X` ~0.17 us
_RLS_DATA, _APP_DATA, _DATA, _APP = MsgKind.RLS_DATA, MsgKind.APP_DATA, Tag.DATA, Protocol.APP


class GnbUeContext(Record):
    """Per-session forwarding state installed at one gNB: `paths` holds only
    the legs this gNB terminates, and `carry_seq` says whether any of them
    carries the uplink seq."""

    __slots__ = _fields = ("ue_id", "ue_ip", "paths", "ue_name", "carry_seq", "window")
    _defaults = {"ue_name": None, "carry_seq": False, "window": DedupWindow}


class Gnb(NfEntity):
    """Radio node: NGAP client of the AMF, GTP-U peer of the UPFs."""

    kind = "GNB"

    def __init__(self, name, ip, net, env):
        super().__init__(name, ip, net, env)
        self.amf = ""  # the AMF it links to, set once the links are up
        self.ng_ready = False
        self._ue_names: dict[str, str] = {}      # ue_id -> roster name
        self._by_ue_ip: dict[str, GnbUeContext] = {}
        self._by_teid_dl: dict[int, GnbUeContext] = {}

    # -- N2 ---------------------------------------------------------------

    def ng_setup(self) -> None:
        # the AMF refuses a setup that does not arrive over a reliable link
        self.send(self.amf, MsgKind.NGAP_SETUP_REQ, nf_id=self.name)

    def _keepalive(self) -> None:
        self.send(self.amf, MsgKind.NGAP_KEEPALIVE_REQ, nf_id=self.name)

    def on_ngap(self, m, pkt, sender) -> None:
        if m.kind == MsgKind.NGAP_SETUP_RESP:
            if m.text(Tag.RESULT) == "OK" and not self.ng_ready:
                self.ng_ready = True
                self.on_heartbeat_grid(self._keepalive)
        elif m.kind == MsgKind.NGAP_KEEPALIVE_RESP:
            pass
        elif m.kind == MsgKind.NGAP_SESSION_SETUP:
            session = read_session(m)
            self.install_session(session)
            self.send(self.amf, ANSWER[m.kind], ue_id=session.ue_id)
        else:
            super().on_ngap(m, pkt, sender)

    # -- session state -------------------------------------------------------

    def install_session(self, session: PduSession) -> None:
        mine = tuple(p for p in session.paths if p.gnb == self.name)
        if not mine:
            return
        ctx = GnbUeContext(
            ue_id=session.ue_id, ue_ip=session.ue_ip, paths=mine,
            ue_name=self._ue_names.get(session.ue_id), carry_seq=any(p.carry_seq for p in mine),
        )
        self._by_ue_ip[session.ue_ip] = ctx
        for p in mine:
            self._by_teid_dl[p.teid_dl] = ctx

    # -- NAS relay -------------------------------------------------------------

    def on_nas(self, m, pkt, sender) -> None:
        # downlink NAS from the AMF; wrap for the radio leg
        ue_id = m.text(Tag.UE_ID)
        ue_name = self._ue_names.get(ue_id) if ue_id else None
        if ue_name is None:
            self.drop(pkt, sender, "unknown ue", ue_id=ue_id or "")
            return
        if m.kind == MsgKind.NAS_SESSION_ACCEPT:
            self.install_session(read_session(m))
        self.send(
            ue_name, MsgKind.RLS_NAS, attrs={"nas_kind": KIND_NAME[m.kind]}, ue_id=ue_id, data=pkt.payload
        )

    # -- radio uplink ------------------------------------------------------------

    def on_rls(self, m, pkt: SimPacket, sender: str) -> None:
        kind = m.kind
        if kind is _RLS_DATA:
            self._uplink(m.raw(_DATA) or b"", sender)
        elif kind == MsgKind.RLS_NAS:
            ue_id = m.require(Tag.UE_ID)
            self._ue_names[ue_id] = sender
            nas = bytes(m.raw(Tag.DATA) or b"")  # a SimPacket's payload is bytes
            inner_kind = KIND_NAME[kind_of(nas)]
            port = self.env.params.ports[Protocol.NAS]
            self.send_msg(
                self.amf, Protocol.NAS, nas, sport=port, dport=port,
                attrs={"msg_kind": inner_kind, "ue_id": ue_id},
            )
        else:
            super().on_rls(m, pkt, sender)

    def _uplink(self, inner_raw: bytes | memoryview, sender: str) -> None:
        inner = decode_packet(inner_raw)
        ctx = self._by_ue_ip.get(inner.src_ip)
        if ctx is None:
            self.drop(inner, sender, "no session", Protocol.RLS, src_ip=inner.src_ip)
            return
        if ctx.ue_name is None:
            ctx.ue_name = sender
        seq = ctx.window.stamp() if ctx.carry_seq else None
        inner_kind = KIND_NAME[kind_of(inner.payload)] if inner.protocol is _APP else ""
        for _, upf, teid_ul, _, carry_seq in ctx.paths:
            self.send_gtpu(
                upf, teid_ul, inner_raw, seq if carry_seq else None, inner_kind, ue_id=ctx.ue_id,
            )

    # -- downlink ------------------------------------------------------------

    def tunnel(self, teid: int) -> tuple[GnbUeContext, DedupWindow] | None:
        ctx = self._by_teid_dl.get(teid)
        return None if ctx is None else (ctx, ctx.window)

    def on_tunnelled(self, ctx: GnbUeContext, inner_raw, seq, pkt, sender) -> None:
        if ctx.ue_name is None:
            self.drop(pkt, sender, "no radio peer", ue_id=ctx.ue_id)
        else:
            self.send(ctx.ue_name, MsgKind.RLS_DATA, ue_id=ctx.ue_id, data=inner_raw)


DEREGISTERED = "DEREGISTERED"
REGISTERING = "REGISTERING"
REGISTERED = "REGISTERED"
SESSION_PENDING = "SESSION_PENDING"
SESSION_ACTIVE = "SESSION_ACTIVE"


class Transfer(Record):
    """One document fetch as seen from the UE.

    `segments` keeps the first body of each index until the transfer
    finishes (a large body is the view `parse` handed out, which holds the
    datagram that carried it); `received` counts those indices and `size`
    their bytes. At completion the bodies, in index order, are checked
    against the ACK's digest: bodies that together equal the one the
    testbed stored under that digest and size (`verified`,
    CoreEnv.verified_bodies) pass without hashing, as a UE hashed that body
    to that digest before storing it; any others are joined and hashed
    once, and stored on a match.
    """

    # fields only, no __slots__: a test may replace one transfer's method
    _fields = (
        "doc", "started_ms", "completed_ms", "expected_size", "expected_segments", "digest",
        "segments", "received", "size", "ok", "error", "verified",
    )
    _defaults = {
        "completed_ms": None, "expected_size": None, "expected_segments": None, "digest": None, "segments": dict,
        "received": 0, "size": 0, "ok": None, "error": None, "verified": dict,
    }
    _unshown = ("verified",)

    @property
    def done(self) -> bool:
        return self.ok is not None

    def add_segment(self, index: int, body: bytes | memoryview) -> None:
        """Take one segment; a repeated index keeps its first body."""
        if index in self.segments:
            return
        self.received += 1
        self.size += len(body)
        self.segments[index] = body

    def body_digest(self) -> str:
        """SHA-256 of every body received, joined in index order."""
        bodies = [self.segments[i] for i in sorted(self.segments)]
        key = (self.digest, self.size)
        stored = self.verified.get(key)
        offsets = accumulate(map(len, bodies), initial=0)
        # `size` is the bodies' total and the key's size is `stored`'s length
        if stored is not None and all(map(stored.startswith, bodies, offsets)):
            return self.digest
        joined = b"".join(bodies)
        digest = hashlib.sha256(joined).hexdigest()
        if digest == self.digest:
            self.verified.setdefault(key, joined)
        return digest

    def finish(self, ok: bool, error: str | None, now: int) -> None:
        """Set the verdict and let go of the bodies."""
        self.ok, self.error, self.completed_ms = ok, error, now
        self.segments.clear()


class Ue(NfEntity):
    """User equipment: NAS state machine plus the application client."""

    kind = "UE"

    def __init__(self, name, ip, net, env):
        super().__init__(name, ip, net, env)
        self.imsi = ""  # its subscriber identity, set with its links
        self.gnbs: tuple[str, ...] = ()  # the gNBs it links to, set once the links are up
        self.state = DEREGISTERED
        self.session: PduSession | None = None
        self.reject_reason: str | None = None
        self._want_mode = Redundancy.NONE
        self._window = DedupWindow()  # numbers its uplink, filters its downlink
        self.transfers: list[Transfer] = []

    @property
    def primary_gnb(self) -> str:
        if not self.gnbs:
            raise FlowError(f"{self.name}: not attached to any gNB")
        return self.gnbs[0]

    # -- radio send helpers ------------------------------------------------

    def _rls_send(self, gnb: str, kind: MsgKind, attrs: dict[str, str] | None = None, **fields) -> None:
        """Send on the radio leg; the row names the UE, added to `attrs` itself."""
        attrs = {} if attrs is None else attrs
        attrs["ue_id"] = self.imsi
        self.send(gnb, kind, attrs=attrs, **fields)

    def _send_nas(self, kind: MsgKind, **fields) -> None:
        nas = build(kind, **fields)
        self._rls_send(
            self.primary_gnb, MsgKind.RLS_NAS, attrs={"nas_kind": KIND_NAME[kind]},
            ue_id=self.imsi, data=nas,
        )

    # -- control flows -------------------------------------------------------

    def attach(self, mode: Redundancy = Redundancy.NONE) -> None:
        """Register and, once accepted, request a session in the given mode.
        A registered UE requests the session at once; while registering, a
        second call only changes the mode."""
        self._want_mode = mode
        if self.state == REGISTERED:
            self.request_session(mode)
        elif self.state == DEREGISTERED:
            self.state = REGISTERING
            self.reject_reason = None
            self._send_nas(MsgKind.NAS_REGISTER_REQ, ue_id=self.imsi)

    def request_session(self, mode: Redundancy = Redundancy.NONE) -> None:
        if self.state != REGISTERED:
            raise FlowError(f"{self.name}: cannot request a session while {self.state}")
        self.state = SESSION_PENDING
        self._send_nas(
            MsgKind.NAS_SESSION_REQ, ue_id=self.imsi, mode=mode.name, gnb=";".join(self.gnbs)
        )

    # -- incoming radio ---------------------------------------------------------

    def on_rls(self, m, pkt: SimPacket, sender: str) -> None:
        if m.kind == MsgKind.RLS_NAS:
            self._on_nas_inner(parse(m.raw(Tag.DATA) or b""))
        elif m.kind == MsgKind.RLS_DATA:
            self._on_user_packet(m.raw(Tag.DATA) or b"", sender)
        else:
            super().on_rls(m, pkt, sender)

    def _on_nas_inner(self, m) -> None:
        if m.kind == MsgKind.NAS_REGISTER_ACCEPT and self.state == REGISTERING:
            self.state = REGISTERED
            self.request_session(self._want_mode)
        elif m.kind == MsgKind.NAS_REGISTER_REJECT and self.state == REGISTERING:
            self.state = DEREGISTERED
            self.reject_reason = m.text(Tag.REASON, "rejected")
        elif m.kind == MsgKind.NAS_SESSION_ACCEPT and self.state == SESSION_PENDING:
            session = read_session(m)
            if not session.gnbs or not set(session.gnbs) <= set(self.gnbs):
                raise WireFormatError(f"session over gNBs {session.gnbs} this UE cannot reach")
            self.session = session
            self.state = SESSION_ACTIVE
        elif m.kind == MsgKind.NAS_SESSION_REJECT and self.state == SESSION_PENDING:
            self.state = REGISTERED
            self.reject_reason = m.text(Tag.REASON, "rejected")
        else:  # unknown, or stale for the current state
            log.debug("%s: unhandled NAS %s in %s", self.name, m.kind.name, self.state)

    # -- application client -------------------------------------------------------

    def _app_send(self, kind: MsgKind, **fields) -> None:
        """Send one application message through the session: to every gNB of
        its legs, with an app-level seq when there is more than one."""
        if self.state != SESSION_ACTIVE or self.session is None:
            raise FlowError(f"{self.name}: no active session")
        sess = self.session
        gnbs = sess.gnbs
        if len(gnbs) > 1:
            fields["seq"] = self._window.stamp()
        port = self.env.params.ports[_APP]
        inner = SimPacket(_APP, sess.ue_ip, self.env.server_ip, port, port, build(kind, **fields))
        raw = encode_packet(inner)
        attrs = {"app_kind": KIND_NAME[kind]}  # send copies it into each row
        for gnb in gnbs:
            self._rls_send(gnb, _RLS_DATA, attrs=attrs, data=raw)

    def request_document(self, doc: str) -> Transfer:
        """Fetch `doc`; without an active session the transfer fails at once,
        naming the refusal when there was one, and nothing is sent."""
        transfer = Transfer(doc=doc, started_ms=self.net.now, verified=self.env.verified_bodies)
        self.transfers.append(transfer)
        if self.state == SESSION_ACTIVE:
            self._app_send(MsgKind.APP_GET, doc=doc)
        else:
            reason = f" ({self.reject_reason})" if self.reject_reason else ""
            transfer.finish(False, "no active session" + reason, self.net.now)
        return transfer

    def send_data_burst(self, count: int, interval_ms: int = 1) -> None:
        """Emit a paced uplink burst; packet i carries index i. Without an
        active session nothing is sent."""
        if count <= 0 or self.state != SESSION_ACTIVE:
            return
        for i in range(count):
            self.net.schedule_in(
                i * interval_ms, lambda i=i: self._app_send(_APP_DATA, index=i)
            )

    # -- downlink application packets ----------------------------------------------

    def _on_user_packet(self, raw: bytes | memoryview, sender: str) -> None:
        inner = decode_packet(raw)
        m = parse(inner.payload)
        seq = m.num(Tag.SEQ)
        if seq is not None and not self.first_copy(self._window, seq, inner, sender):
            return
        if m.kind == MsgKind.APP_GET_ACK:
            transfer = self._transfer_for(m.require(Tag.DOC))
            if transfer is None:
                return
            transfer.expected_size = m.num(Tag.SIZE)
            transfer.expected_segments = m.num(Tag.SEGMENTS)
            transfer.digest = m.text(Tag.DIGEST)
            self._try_finish(transfer)
        elif m.kind == MsgKind.APP_SEGMENT:
            transfer = self._transfer_for(m.require(Tag.DOC))
            if transfer is None:
                return
            index = m.num(Tag.INDEX)
            if index is not None:
                transfer.add_segment(index, m.raw(Tag.DATA) or b"")
            self._try_finish(transfer)
        elif m.kind == MsgKind.APP_ERROR:
            transfer = self._transfer_for(m.text(Tag.DOC, ""))
            if transfer is not None:
                transfer.finish(False, m.text(Tag.REASON, "error"), self.net.now)
        else:
            log.debug("%s: unhandled APP %s", self.name, m.kind.name)

    def _transfer_for(self, doc: str) -> Transfer | None:
        for transfer in self.transfers:
            if transfer.doc == doc and not transfer.done:
                return transfer
        return None

    def _try_finish(self, transfer: Transfer) -> None:
        if transfer.expected_segments is None:
            return
        if transfer.received < transfer.expected_segments:
            return
        digest = transfer.body_digest()
        good = transfer.size == (transfer.expected_size or 0) and digest == transfer.digest
        transfer.finish(good, None if good else "integrity check failed", self.net.now)
        self._app_send(
            MsgKind.APP_COMPLETE,
            doc=transfer.doc,
            result="OK" if good else "ERROR",
            size=transfer.size,
        )
