"""Testbed assembly and scenario execution.

A Testbed turns a topology's roster (config.run_roster, checked at parse)
into live entities on one fabric, stages the bring-up (registry first, then
the other functions, discovery, N4 association, NGAP setup) and leaves the
clock ready to run. Scenarios layer UE activity on top and collect KPIs,
transfers and the fabric's event log into a RunResult.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path

from .config import (
    EntityDecl,
    LinkDecl,
    ScenarioSpec,
    TopologyConfig,
    default_topology,
    run_roster,
    with_link_loss,
    with_second_gnb,
)
from .core_cp import Amf, Ausf, Bsf, CoreEnv, Nrf, Nssf, Pcf, Smf, Udm, Udr
from .errors import FlowError, SetupError
from .nwdaf import (
    Nwdaf,
    export_events,
    kpi_packet_counts,
    kpi_throughput_matrix,
    write_kpi_counts_csv,
    write_throughput_csv,
)
from .ran_ue import Gnb, Transfer, Ue
from .simnet import DELIVERED, DROPPED, ELIMINATED_DUPLICATE, Network, conservation_report
from .urllc import Redundancy, ReliabilityResult
from .user_plane import AppServer, Upf
from .validation import CheckResult, validate_sequences
from .wirefmt import Protocol

log = logging.getLogger(__name__)

# bring-up schedule (virtual ms)
T_BOOT_REGISTRY = 0
T_BOOT_CORE = 5
T_DISCOVER = 15
T_ASSOCIATE = 25
T_NGAP_SETUP = 35
T_ATTACH = 45
REQUEST_SPACING_MS = 15  # between the document requests of successive UEs

_LINE_BREAKS = str.maketrans("\t\n\r", "   ")

SWEEP_LOSS = 0.1
SWEEP_PACKETS = 2000

# kinds built from (name, ip, net, env) alone
_PLAIN_KINDS = {
    cls.kind: cls for cls in (Nrf, Amf, Smf, Ausf, Udm, Pcf, Nssf, Bsf, Upf, Nwdaf)
}


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
        for decl in entities:
            entity = self._make_entity(decl, entities, links)
            self.net.add_entity(entity)
            self.by_kind.setdefault(decl.kind, []).append(entity)
        for l in links:
            self.net.add_link(l.a, l.b, l.latency_ms, l.loss_prob, l.reliable)

        for ue in self.ues:
            ue.attach_gnbs(tuple(g.name for g in self.gnbs if self.net.link_between(ue.name, g.name)))

    # -- construction helpers ---------------------------------------------

    def _make_entity(self, decl: EntityDecl, entities: list[EntityDecl], links: list[LinkDecl]):
        args = (decl.name, decl.ip, self.net, self.env)
        subscribers = self.topo.subscribers
        if decl.kind in _PLAIN_KINDS:
            return _PLAIN_KINDS[decl.kind](*args)
        if decl.kind == "UDR":
            return Udr(*args, subscribers=subscribers)
        if decl.kind == "GNB":
            # the first AMF it links to; config checked that there is one
            linked = {l.a if l.b == decl.name else l.b for l in links if decl.name in (l.a, l.b)}
            return Gnb(*args, amf=next(e.name for e in entities if e.kind == "AMF" and e.name in linked))
        if decl.kind == "UE":
            index = [e.name for e in entities if e.kind == "UE"].index(decl.name)
            imsi = subscribers[index] if index < len(subscribers) else f"imsi-00101{index + 1:010d}"
            return Ue(*args, imsi=imsi)
        return AppServer(*args, documents=dict(self.topo.documents))  # SERVER, the kind left

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
        """Stage the bring-up on the virtual clock. Does not run it."""
        first_wave = {self.nrf.name}
        self.net.schedule(T_BOOT_REGISTRY, self.nrf.boot)
        for entity in self.amfs + self._kind("AUSF"):
            first_wave.add(entity.name)
            self.net.schedule(T_BOOT_REGISTRY, entity.boot_register)
        for entity in self.net.entities.values():
            if getattr(entity, "registers", False) and entity.name not in first_wave:
                self.net.schedule(T_BOOT_CORE, entity.boot_register)
        for amf in self.amfs:
            self.net.schedule(T_DISCOVER, amf.discover_peers)
        for smf in self.smfs:
            self.net.schedule(T_DISCOVER, smf.discover_upfs)
            self.net.schedule(T_ASSOCIATE, smf.associate_all)
        for gnb in self.gnbs:
            self.net.schedule(T_NGAP_SETUP, gnb.ng_setup)

    def spawn_ues(self, total: int) -> list[Ue]:
        """The first `total` UEs, growing the population to `total` by cloning
        the first UE's radio attachment and, where the topology has a UDR,
        provisioning matching subscriptions; without one the UDM refuses each
        UE `no UDR`."""
        ues = self.ues
        if not ues:
            raise SetupError("cannot spawn UEs without a declared template UE")
        template = ues[0]
        for k in range(len(ues) + 1, total + 1):
            name = f"UE{k:03d}"
            ip = f"172.16.{k >> 8}.{k & 0xFF}"
            imsi = f"imsi-00101{k:010d}"
            ue = Ue(name, ip, self.net, self.env, imsi=imsi)
            self.net.add_entity(ue)
            for gnb in template.gnbs:
                radio = self.net.require_link(template.name, gnb)
                self.net.add_link(name, gnb, radio.latency_ms, radio.loss_prob, radio.reliable)
            ue.attach_gnbs(template.gnbs)
            if self.udrs:
                self.udrs[0].subscribers.add(imsi)
            self.by_kind["UE"].append(ue)
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
        """Built-in self checks every run must satisfy."""
        problems = []
        recomputed = conservation_report(self.net, self.records)
        for link_id, (sends, delivered, dropped) in recomputed.items():
            stat_delivered, stat_dropped = self.net.link_stats[link_id]
            if (delivered, dropped) != (stat_delivered, stat_dropped):
                problems.append(f"conservation broken on {link_id}")
        last_ts = 0
        wire_delivered = 0
        for r in self.records:
            if r.ts < last_ts or r.ts > horizon:
                problems.append(f"event timestamp {r.ts} outside causal order")
                break
            last_ts = r.ts
            if r.outcome == DELIVERED:
                wire_delivered += 1
        both = kpi_packet_counts(self.records, 0, horizon + 1, semantics="src_or_dst")
        if sum(both.values()) != 2 * sum(
            1 for ev in self.records if ev.outcome == DELIVERED and ev.is_wire
        ):
            problems.append("src_or_dst accounting does not credit exactly two ends per packet")
        return problems


@dataclass
class RunResult:
    """Everything a finished scenario leaves behind."""

    spec: ScenarioSpec
    testbed: Testbed
    horizon: int
    window: tuple[int, int]
    kpi_counts: dict[str, int] = field(default_factory=dict)
    throughput: dict[tuple[str, str], float] = field(default_factory=dict)
    transfers: dict[str, list[Transfer]] = field(default_factory=dict)
    reliability: tuple[ReliabilityResult, ...] = ()
    checks: tuple[CheckResult, ...] = ()
    summary_lines: list[str] = field(default_factory=list)

    @property
    def events(self):
        return self.testbed.records

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


def _summarise(result: RunResult) -> None:
    tb = result.testbed
    lines = result.summary_lines
    lines.append(f"scenario: {result.spec.name}")
    lines.append(f"seed: {result.spec.seed}")
    lines.append(f"topology: {Path(tb.topo.source).name}")  # not its directory: the same run, the same summary
    lines.append(f"entities: {len(tb.net.entities)}")
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
            line = f"transfer {ue_name} {t.doc} {status} segments={t.received} bytes={t.size} ms={took}"
            if status == "failed":
                # APP_ERROR's reason is peer text
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


def run_scenario(
    spec: ScenarioSpec, topo: TopologyConfig | None = None, out_dir=None
) -> RunResult:
    """Execute one named scenario and return its results.

    `urllc_sweep` loops the reliability measurement over every redundancy
    mode; the other scenarios drive UE activity on a single testbed.
    """
    topo = topo or default_topology()

    if spec.name == "urllc_sweep":
        results = tuple(
            run_reliability_measurement(mode, SWEEP_LOSS, SWEEP_PACKETS, spec.seed, topo)
            for mode in Redundancy
        )
        tb = Testbed(topo, seed=spec.seed)  # empty bed: summary context only
        result = RunResult(
            spec=spec, testbed=tb, horizon=0, window=(0, 0), reliability=results
        )
        _summarise(result)
        if out_dir is not None:
            result.write_artifacts(out_dir)
        return result

    if spec.redundancy in (Redundancy.DUAL_CONNECTIVITY,):
        topo = with_second_gnb(topo)

    tb = Testbed(topo, seed=spec.seed)
    settle = tb.params.settle_ms
    horizon = settle + spec.duration_ms
    tb.boot()

    if spec.name in ("single_request", "validate"):
        wanted = min(len(tb.ues), 1)
    elif spec.name == "many_requests":
        wanted = max(spec.ue_count, 1)
    elif spec.name == "idle":
        wanted = 0
    else:
        raise SetupError(f"unknown scenario {spec.name!r}")
    # UE i attaches at T_ATTACH + i, inside the settle phase, and asks for the
    # document REQUEST_SPACING_MS * i into the duration, so transfers finish
    # in-window
    fit = max(0, min(settle - T_ATTACH, (spec.duration_ms - 1) // REQUEST_SPACING_MS + 1))
    if wanted > fit:
        raise SetupError(
            f"{wanted} UEs exceed the {fit} that fit settle_ms={settle},"
            f" duration_ms={spec.duration_ms}"
        )
    active = tb.spawn_ues(wanted) if spec.name == "many_requests" else tb.ues[:wanted]

    for i, ue in enumerate(active):
        tb.net.schedule(T_ATTACH + i, lambda u=ue, m=spec.redundancy: u.attach(m))
        tb.net.schedule(
            settle + REQUEST_SPACING_MS * i, lambda u=ue, d=spec.doc: u.request_document(d)
        )

    tb.run_checked(horizon)

    window = (settle, horizon)
    roster = list(tb.net.entities)
    events = tb.records
    result = RunResult(
        spec=spec,
        testbed=tb,
        horizon=horizon,
        window=window,
        kpi_counts=kpi_packet_counts(events, window[0], window[1], entities=roster),
        throughput=kpi_throughput_matrix(events, window[0], window[1]),
        transfers={ue.name: list(ue.transfers) for ue in tb.ues},
    )
    if spec.name == "validate":
        result.checks = tuple(
            validate_sequences(events, sbi_port=tb.params.sbi_port, ue_pool=tb.params.ue_pool)
        )
    _summarise(result)
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

    Loss goes on the N3 legs only; the UE sends one data unit per virtual
    millisecond and the server counts unique arrivals.
    """
    if n_packets <= 0:
        raise ValueError("n_packets must be positive")
    if not 0.0 <= loss_prob < 1.0:
        raise ValueError(f"loss_prob {loss_prob} outside [0, 1)")
    topo = topology or default_topology()
    if mode is Redundancy.DUAL_CONNECTIVITY:
        topo = with_second_gnb(topo)
    if loss_prob > 0.0:
        topo = with_link_loss(topo, loss_prob)

    tb = Testbed(topo, seed=seed)
    tb.boot()
    if not tb.ues:
        raise SetupError("reliability measurement needs a UE")
    ue = tb.ues[0]
    settle = tb.params.settle_ms
    tb.net.schedule(T_ATTACH, lambda: ue.attach(mode))
    tb.net.schedule(settle, lambda: ue.send_data_burst(n_packets, interval_ms=1))
    tb.run_checked(settle + n_packets + 500)

    if ue.session is None:
        raise FlowError(
            f"no session in mode {mode.name}: {ue.reject_reason or 'still pending'}"
        )
    ue_ip = ue.session.ue_ip
    delivered = tb.server.data_received.get(ue_ip, 0)
    indices = frozenset(tb.server.data_indices.get(ue_ip, ()))
    per_tunnel = {p.teid_ul: 0 for p in ue.session.paths}
    for r in tb.records:
        if r.protocol is Protocol.GTPU and r.outcome == DELIVERED and r.ts >= settle:
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
