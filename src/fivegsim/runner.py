"""Testbed assembly and scenario execution.

A Testbed turns a topology's roster (config.run_roster, checked at parse)
into live entities on one fabric, stages the bring-up and leaves the clock
ready to run. The bring-up has two waves and an NGAP setup: the registry and
every NF that finds peers (core_cp.DISCOVERS) start at 0, each registering,
subscribing to status and discovering at once; the other NFs that register
(core_cp.REGISTERS) do so at T_BOOT_CORE, and the registry notifies the
first wave of each. The rest follows the registry protocol: the SMF
associates with each UPF it learns of. UEs attach once the core is ready
and act once their attach has settled (_When); scenarios collect KPIs,
transfers and the log into a RunResult. Declared, injected and spawned
(config.with_ues) entities are all built one way, by Testbed._build, a
kind without a class as a core_cp.Walker. A run ends in the built-in
invariants: one walk of the log, fed row by row.
"""
from __future__ import annotations

import logging
from collections.abc import Callable
from operator import methodcaller
from pathlib import Path

from .config import (
    SCENARIOS,
    EntityDecl,
    LinkDecl,
    ScenarioSpec,
    TopologyConfig,
    default_topology,
    run_roster,
    with_link_loss,
    with_second_gnb,
    with_ues,
)
from .core_cp import DISCOVERS, REGISTERS, Amf, CoreEnv, Nrf, Smf, Udr, Walker
from .errors import FlowError
from .nwdaf import (
    Nwdaf,
    export_events,
    kpi_packet_counts,
    kpi_throughput_matrix,
    write_kpi_counts_csv,
    write_throughput_csv,
)
from .ran_ue import SESSION_ACTIVE, Gnb, Ue
from .record import Record
from .simnet import DELIVERED, DROPPED, ELIMINATED_DUPLICATE, Network
from .urllc import Redundancy, ReliabilityResult
from .user_plane import AppServer, Upf
from .validation import validate_sequences
from .wirefmt import Protocol

log = logging.getLogger(__name__)

# bring-up schedule (virtual ms)
T_BOOT_CORE = 5
T_NGAP_SETUP = 35
T_ATTACH = 45
REQUEST_SPACING_MS = 15  # between the document requests of successive UEs
# the default document's transfer on the default topology: the last UE's
# request comes at least this long before the horizon
TRANSFER_MS = 10

_LINE_BREAKS = str.maketrans("\t\n\r", "   ")

SWEEP_LOSS = 0.1
SWEEP_PACKETS = 2000

# kind -> the class of its nodes, for the kinds with code of their own; a
# node of any other kind is a Walker of that kind
_CLASS_OF = {cls.kind: cls for cls in (Nrf, Amf, Smf, Udr, Upf, Nwdaf, Gnb, Ue, AppServer)}


class Testbed:
    """Entities plus fabric for one run."""

    __test__ = False  # not a test case, despite the name

    def __init__(self, topo: TopologyConfig, seed: int = 0):
        self.topo = topo
        self.params = topo.params
        entities, links = run_roster(topo.entities, topo.links, topo.params)
        server = next(e for e in entities if e.kind == "SERVER")
        self.env = CoreEnv(
            params=self.params,
            nrf_name=next(e.name for e in entities if e.kind == "NRF"),
            server_name=server.name,
            server_ip=server.ip,
        )

        self.net = Network(seed=seed)
        self.records = self.net.events
        self.by_kind: dict[str, list] = {}
        self._build(entities, links)

    # -- construction helpers ---------------------------------------------

    def _build(self, entities: list[EntityDecl], links: list[LinkDecl]) -> None:
        """Add `entities` and `links` to the fabric and wire the new nodes'
        peers from the links: a gNB's AMF is the first it links to (config
        checked that there is one), a UE's gNBs are all it links to. Every
        UDR then holds the topology's subscribers, and a UE and the server
        their declared IMSI and documents."""
        built = [self._make_entity(decl) for decl in entities]
        for entity in built:
            self.net.add_entity(entity)
            self.by_kind.setdefault(entity.kind, []).append(entity)
        for l in links:
            self.net.add_link(l.a, l.b, l.latency_ms, l.loss_prob, l.reliable)
        hops = self.net.hops
        for decl, entity in zip(entities, built):
            if entity.kind == "GNB":
                entity.amf = next(amf.name for amf in self.amfs if (entity.name, amf.name) in hops)
            elif entity.kind == "UE":
                entity.gnbs = tuple(g.name for g in self.gnbs if (entity.name, g.name) in hops)
                entity.imsi = decl.imsi
        for udr in self.udrs:
            udr.subscribers.update(self.topo.subscribers)
        self.server.documents.update(self.topo.documents)

    def _make_entity(self, decl: EntityDecl):
        args = (decl.name, decl.ip, self.net, self.env)
        if decl.kind in _CLASS_OF:
            return _CLASS_OF[decl.kind](*args)
        return Walker(*args, kind=decl.kind)

    # -- convenient accessors ------------------------------------------------

    def _kind(self, kind: str) -> list:
        return self.by_kind.get(kind, [])

    @property
    def nrf(self) -> Nrf:
        return self._kind("NRF")[0]

    @property
    def amfs(self) -> list[Amf]:
        return self._kind("AMF")

    @property
    def smfs(self) -> list[Smf]:
        return self._kind("SMF")

    @property
    def upfs(self) -> list[Upf]:
        return self._kind("UPF")

    @property
    def gnbs(self) -> list[Gnb]:
        return self._kind("GNB")

    @property
    def ues(self) -> list[Ue]:
        return self._kind("UE")

    @property
    def udrs(self) -> list[Udr]:
        return self._kind("UDR")

    @property
    def server(self) -> AppServer:
        return self._kind("SERVER")[0]

    @property
    def nwdaf(self) -> Nwdaf:
        return self._kind("NWDAF")[0]

    # -- lifecycle -------------------------------------------------------------

    def boot(self) -> None:
        """Stage the bring-up on the virtual clock. Does not run it. The NFs
        that find peers register at 0, with the registry, so they are
        subscribed before the others register at T_BOOT_CORE: that status
        fanout is what the sbi_registration check looks for."""
        self.net.schedule(0, self.nrf.boot)
        for entity in self.net.entities.values():
            if entity.kind in REGISTERS:
                start = 0 if entity.kind in DISCOVERS else T_BOOT_CORE
                self.net.schedule(start, entity.boot_register)
        for gnb in self.gnbs:
            self.net.schedule(T_NGAP_SETUP, gnb.ng_setup)

    def spawn_ues(self, total: int) -> list[Ue]:
        """The first `total` UEs: the topology grows to `total` UEs as
        config.with_ues grows it, and the testbed builds the new ones."""
        topo, self.topo = self.topo, with_ues(self.topo, total)
        self._build(self.topo.entities[len(topo.entities):], self.topo.links[len(topo.links):])
        return self.ues[:total]

    def run_until(self, t_end: int) -> int:
        return self.net.run_until(t_end)

    def run_checked(self, horizon: int) -> None:
        """Run to `horizon`, then raise FlowError if a built-in invariant
        does not hold."""
        self.run_until(horizon)
        problems = self.invariant_violations(horizon)
        if problems:
            raise FlowError("; ".join(problems))

    # -- invariants --------------------------------------------------------------

    def invariant_violations(self, horizon: int) -> list[str]:
        """Built-in self checks every run must satisfy: one walk of the log
        recounts each link and checks causal order, and kpi_packet_counts
        makes the src_or_dst cross-check in a pass of its own."""
        link_stats = self.net.link_stats
        recount = {link_id: [0, 0] for link_id in link_stats}  # [delivered, dropped]
        last_ts = 0
        out_of_order = None  # the first timestamp out of causal order
        wire_delivered = 0
        for r in self.records:
            if out_of_order is None and (r.ts < last_ts or r.ts > horizon):
                out_of_order = r.ts
            last_ts = r.ts
            counts = recount.get(r.link_id)  # a link's rows are wire rows: no name holds ':'
            if r.outcome == DELIVERED:
                if counts is not None:
                    counts[0] += 1
                if counts is not None or r.is_wire:
                    wire_delivered += 1
            elif r.outcome == DROPPED and counts is not None:
                counts[1] += 1
        problems = [
            f"conservation broken on {link_id}"
            for link_id, counts in recount.items() if counts != link_stats[link_id]
        ]
        if out_of_order is not None:
            problems.append(f"event timestamp {out_of_order} outside causal order")
        both = kpi_packet_counts(self.records, 0, horizon + 1, semantics="src_or_dst")
        if sum(both.values()) != 2 * wire_delivered:
            problems.append("src_or_dst accounting does not credit exactly two ends per packet")
        return problems


class RunResult(Record):
    """Everything a finished scenario leaves behind; `testbed` is None for
    urllc_sweep, whose runs each have their own."""

    __slots__ = _fields = (
        "spec", "testbed", "window", "kpi_counts", "throughput", "transfers", "reliability", "checks", "summary_lines",
    )
    _defaults = {
        "kpi_counts": dict, "throughput": dict, "transfers": dict,
        "reliability": (), "checks": (), "summary_lines": list,
    }

    @property
    def events(self):
        return self.testbed.records if self.testbed else []

    @property
    def summary(self) -> str:
        return "\n".join(self.summary_lines) + "\n"

    def write_artifacts(self, out_dir) -> None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        export_events(self.events, out / "events.log")
        write_kpi_counts_csv(out / "kpi_counts.csv", self.kpi_counts)
        write_throughput_csv(out / "kpi_throughput.csv", self.throughput)
        (out / "summary.txt").write_text(self.summary, encoding="utf-8")


def _summarise(result: RunResult, source: str, entities: int) -> None:
    lines = result.summary_lines
    lines.append(f"scenario: {result.spec.name}")
    lines.append(f"seed: {result.spec.seed}")
    lines.append(f"topology: {Path(source).name}")  # not its directory: the same run, the same summary
    lines.append(f"entities: {entities}")
    lines.append(f"window_ms: [{result.window[0]}, {result.window[1]})")
    outcomes = {DELIVERED: 0, DROPPED: 0, ELIMINATED_DUPLICATE: 0}
    for ev in result.events:
        outcomes[ev.outcome] = outcomes.get(ev.outcome, 0) + 1
    lines.append(
        "events: {} delivered, {} dropped, {} eliminated".format(
            outcomes[DELIVERED], outcomes[DROPPED], outcomes[ELIMINATED_DUPLICATE]
        )
    )
    for name in sorted(result.kpi_counts):
        lines.append(f"kpi {name} {result.kpi_counts[name]}")
    for ue_name, transfers in sorted(result.transfers.items()):
        for t in transfers:
            status = "ok" if t.ok else ("failed" if t.done else "incomplete")
            took = (t.completed_ms - t.started_ms) if t.completed_ms is not None else -1
            # the doc is the caller's text and the error a peer's: each stays on one line
            doc = t.doc.translate(_LINE_BREAKS)
            line = f"transfer {ue_name} {doc} {status} segments={t.received} bytes={t.size} ms={took}"
            if status == "failed":
                line += " error=" + (t.error or "").translate(_LINE_BREAKS)
            lines.append(line)
    for r in result.reliability:
        tunnels = ",".join(f"{teid}:{n}" for teid, n in sorted(r.per_tunnel_delivered.items()))
        lines.append(
            f"reliability {r.mode.name} loss={r.loss_prob} sent={r.sent}"
            f" delivered={r.delivered} observed_loss={r.observed_loss:.4f} tunnels={tunnels}"
        )
    for c in result.checks:
        lines.append(c.line())


class _When:
    """`act(ue)` at `at` if `ready(ue)`, else tried again 1 ms later, and at
    `last` (when given) whatever `ready(ue)` says; retries reuse the object."""

    __slots__ = ("net", "ue", "ready", "act", "last")

    def __init__(self, tb: Testbed, at: int, ue: Ue, ready: Callable, act: Callable, last: int | None = None):
        self.net, self.ue, self.ready, self.act, self.last = tb.net, ue, ready, act, last
        tb.net.schedule(at, self)

    def __call__(self) -> None:
        if self.ready(self.ue) or (self.last is not None and self.net.now >= self.last):
            self.act(self.ue)
        else:
            self.net.schedule(self.net.now + 1, self)


def _settled(ue: Ue) -> bool:
    """Whether the UE's attach has come to an end: a session, or a refusal."""
    return ue.state == SESSION_ACTIVE or ue.reject_reason is not None


def _bring_up(
    topo: TopologyConfig, seed: int, mode: Redundancy, n: int, loss_prob: float = 0.0
) -> tuple[Testbed, list[Ue], int]:
    """A booted testbed whose first `n` UEs attach in `mode`, UE i at
    T_ATTACH + i once the core is ready, and the end of its settle phase:
    Params.settle_ms, or just past the last attach. Dual connectivity adds the
    second gNB before the N3 legs, its own included, take `loss_prob`."""
    if mode is Redundancy.DUAL_CONNECTIVITY:
        topo = with_second_gnb(topo)
    if loss_prob > 0.0:
        topo = with_link_loss(topo, loss_prob)
    tb = Testbed(with_ues(topo, n), seed=seed)
    tb.boot()
    ues = tb.ues[:n]
    # the core is ready when each NF that finds peers holds one of each kind it asks for that the roster has
    finders = [nf for kind in DISCOVERS for nf in tb.by_kind.get(kind, ())]
    asked = [(nf, kind) for nf in finders for kind in DISCOVERS[nf.kind] if kind in tb.by_kind]

    def core_ready(_: Ue) -> bool:
        return all(nf.candidates.get(kind) for nf, kind in asked)

    for i, ue in enumerate(ues):
        _When(tb, T_ATTACH + i, ue, core_ready, methodcaller("attach", mode))
    return tb, ues, max(tb.params.settle_ms, T_ATTACH + n) if n else tb.params.settle_ms


def run_scenario(
    spec: ScenarioSpec, topo: TopologyConfig | None = None, out_dir=None
) -> RunResult:
    """Execute one named scenario and return its results.

    `urllc_sweep` measures reliability once per redundancy mode, each on a
    testbed of its own, and its result carries none. The other scenarios
    bring up one testbed where the scenario's n UEs attach and UE i asks for
    the document REQUEST_SPACING_MS * i into the window [settle, horizon),
    or later once its attach has settled, at the horizon at the latest.
    The window is settle_ms and spec.duration_ms, stretched only as far as
    n needs: settle past the last attach, the horizon TRANSFER_MS past the
    last request. A checked scenario's horizon also passes heartbeat_ms, so
    its window holds the first heartbeat, which heartbeat_cadence reads.
    """
    topo = topo or default_topology()
    scenario = SCENARIOS[spec.name]
    if scenario.sweep:
        result = RunResult(
            spec=spec,
            testbed=None,
            window=(0, 0),
            reliability=tuple(
                run_reliability_measurement(mode, SWEEP_LOSS, SWEEP_PACKETS, spec.seed, topo)
                for mode in Redundancy
            ),
        )
        entities = len(run_roster(topo.entities, topo.links, topo.params)[0])
    else:
        n = spec.ue_count if scenario.ues is None else min(scenario.ues, len(topo.of_kind("UE")))
        duration = spec.duration_ms
        if n:
            duration = max(duration, REQUEST_SPACING_MS * (n - 1) + TRANSFER_MS)
        tb, ues, settle = _bring_up(topo, spec.seed, spec.redundancy, n)
        horizon, request = settle + duration, methodcaller("request_document", spec.doc)
        if scenario.checks:
            horizon = max(horizon, tb.params.heartbeat_ms + 1)
        for i, ue in enumerate(ues):
            _When(tb, settle + REQUEST_SPACING_MS * i, ue, _settled, request, horizon)
        tb.run_checked(horizon)

        events = tb.records
        result = RunResult(
            spec=spec,
            testbed=tb,
            window=(settle, horizon),
            kpi_counts=kpi_packet_counts(events, settle, horizon, entities=list(tb.net.entities)),
            throughput=kpi_throughput_matrix(events, settle, horizon),
            transfers={ue.name: list(ue.transfers) for ue in tb.ues},
        )
        if scenario.checks:
            result.checks = tuple(
                validate_sequences(events, sbi_port=tb.params.sbi_port, ue_pool=tb.params.ue_pool)
            )
        entities = len(tb.net.entities)
    _summarise(result, topo.source, entities)
    if out_dir is not None:
        result.write_artifacts(out_dir)
    return result


def run_reliability_measurement(
    mode: Redundancy,
    loss_prob: float,
    n_packets: int,
    seed: int,
    topology: TopologyConfig | None = None,
) -> ReliabilityResult:
    """Measure post-elimination delivery for one redundancy mode.

    Loss goes on the N3 legs only; once attached, the UE sends one data unit
    per virtual millisecond and the server counts unique arrivals.
    """
    if n_packets <= 0:
        raise ValueError("n_packets must be positive")
    if not 0.0 <= loss_prob < 1.0:
        raise ValueError(f"loss_prob {loss_prob} outside [0, 1)")
    tb, (ue,), settle = _bring_up(topology or default_topology(), seed, mode, 1, loss_prob)
    horizon = settle + n_packets + 500
    _When(tb, settle, ue, _settled, methodcaller("send_data_burst", n_packets, interval_ms=1), horizon)
    tb.run_checked(horizon)
    if ue.session is None:
        raise FlowError(
            f"no session in mode {mode.name}: {ue.reject_reason or 'still pending'}"
        )
    ue_ip = ue.session.ue_ip
    delivered = tb.server.data_received.get(ue_ip, 0)
    indices = frozenset(tb.server.data_indices.get(ue_ip, ()))
    per_tunnel = {p.teid_ul: 0 for p in ue.session.paths}
    gtpu = Protocol.GTPU  # bound once: EnumType.__getattr__ per row adds up over the log
    for r in tb.records:
        if r.protocol is gtpu and r.outcome == DELIVERED and r.ts >= settle:
            teid = int(r.attrs.get("teid", "0"))
            if teid in per_tunnel:
                per_tunnel[teid] += 1
    paths = ue.session.paths
    disjoint = len(paths) > 1 and len({(p.gnb, p.upf) for p in paths}) == len(paths)
    return ReliabilityResult(
        mode=mode,
        loss_prob=loss_prob,
        sent=n_packets,
        delivered=delivered,
        per_tunnel_delivered=per_tunnel,
        paths_disjoint=disjoint,
        delivered_indices=indices,
    )
