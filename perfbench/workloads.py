"""The benchmark's three workloads, their correctness gates and records.

Each workload drives fivegsim only through public entry points. Nothing here
imports fivegsim at module level, because the set-up probe times that import
in a fresh interpreter.
"""
from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PROBE = Path(__file__).resolve().parent / "probe.py"

UES = 500                 # largest population under the 700-UE SetupError limit
DURATION_MS = 10_000
PSA_LOSS = 0.1
PSA_PACKETS = 10_000
MAX_OBSERVED_LOSS = 0.02  # the acceptance-criterion-7 band for PSA_ANCHOR
CHECKS = 6                # validate_sequences runs six checks


class MissingSource(RuntimeError):
    """The checkout holds no fivegsim sources to benchmark."""


def require_src() -> None:
    if not (SRC / "fivegsim" / "__init__.py").is_file():
        raise MissingSource(f"no fivegsim package under {SRC}")


def import_fivegsim():
    """Import fivegsim from this checkout's ``src/``, never from elsewhere."""
    require_src()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import fivegsim

    if Path(fivegsim.__file__).resolve().parent != SRC / "fivegsim":
        raise MissingSource(f"fivegsim was imported from {fivegsim.__file__}, not {SRC}")
    return fivegsim


@dataclass
class Check:
    """What one iteration attempted and which of its operations failed."""

    attempted: int
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def fail(self, message: str, ops: int = 1) -> None:
        self.failed += ops
        self.errors.append(message)


def log_record(fg, events, rejected: int) -> dict:
    """Determinism record of one event log: digest plus simulated statistics."""
    text = fg.nwdaf.export_events_text(events)
    outcomes = Counter(ev.outcome for ev in events)
    return {
        "events_log_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "events": len(events),
        "outcomes": dict(sorted(outcomes.items())),
        "wire_delivered": sum(1 for ev in events if ev.outcome == fg.DELIVERED and ev.is_wire),
        "wire_dropped": sum(1 for ev in events if ev.outcome == fg.DROPPED and ev.is_wire),
        "nwdaf_rejected": rejected,
    }


class Workload:
    """One benchmark workload at one seed.

    ``make_inputs`` runs before anything is timed, ``setup`` is what
    ``setup_s`` times after ``import fivegsim``, and ``run`` is one timed
    iteration. ``check`` gates an iteration's output and ``record`` gives the
    values two runs at one seed must reproduce exactly.
    """

    name = ""
    ops = 1                  # operations one iteration attempts

    def __init__(self, seed: int):
        self.seed = seed
        self.topo = None

    def make_inputs(self) -> None:
        pass

    def setup(self, fg) -> None:
        self.topo = fg.default_topology()

    def run(self, fg):
        raise NotImplementedError

    def check(self, fg, out) -> Check:
        raise NotImplementedError

    def record(self, fg, out, testbeds) -> dict:
        raise NotImplementedError

    def expected_record(self) -> dict | None:
        """A record fixed before the run that the first iteration must match."""
        return None


class Ues500Fetch(Workload):
    """500 UEs register, open a session and fetch the 487,659-byte document."""

    name = "ues500_fetch"
    ops = UES                # one transfer per UE

    def setup(self, fg) -> None:
        super().setup(fg)
        tb = fg.Testbed(self.topo, seed=self.seed)
        tb.boot()
        tb.spawn_ues(UES)

    def spec(self, fg):
        return fg.ScenarioSpec(
            name="many_requests", ue_count=UES, duration_ms=DURATION_MS,
            redundancy=fg.Redundancy.NONE, seed=self.seed,
        )

    def run(self, fg):
        return fg.run_scenario(self.spec(fg), self.topo)

    def check(self, fg, result) -> Check:
        # run_scenario raises FlowError on an invariant violation, which the
        # caller counts as a failed iteration.
        check = Check(attempted=UES)
        transfers = [t for ts in result.transfers.values() for t in ts]
        ok = sum(1 for t in transfers if t.ok)
        if ok != UES:
            check.fail(f"{ok}/{UES} transfers ok ({len(transfers)} started)", UES - ok)
        return check

    def record(self, fg, result, testbeds) -> dict:
        tb = result.testbed
        rec = log_record(fg, result.events, tb.nwdaf.store.rejected)
        rec["transfers_ok"] = sum(1 for ts in result.transfers.values() for t in ts if t.ok)
        return rec


class UrllcPsa10k(Workload):
    """One UE sends 10,000 uplink packets over PSA_ANCHOR with 10% N3 loss."""

    name = "urllc_psa_10k"

    def setup(self, fg) -> None:
        super().setup(fg)
        fg.Testbed(fg.with_link_loss(self.topo, PSA_LOSS), seed=self.seed).boot()

    def run(self, fg):
        return fg.run_reliability_measurement(
            fg.Redundancy.PSA_ANCHOR, PSA_LOSS, PSA_PACKETS, self.seed, self.topo
        )

    def check(self, fg, rr) -> Check:
        check = Check(attempted=1)
        tunnels = rr.per_tunnel_delivered
        if rr.observed_loss > MAX_OBSERVED_LOSS:
            check.fail(f"observed loss {rr.observed_loss:.4f} > {MAX_OBSERVED_LOSS}")
        elif len(tunnels) < 2 or min(tunnels.values()) == 0:
            check.fail(f"a tunnel carried no traffic: {dict(tunnels)}")
        return check

    @staticmethod
    def fingerprint(rr) -> dict:
        indices = ",".join(map(str, sorted(rr.delivered_indices)))
        return {
            "server_delivered": rr.delivered,
            "per_tunnel_delivered": {str(k): v for k, v in sorted(rr.per_tunnel_delivered.items())},
            "delivered_indices_sha256": hashlib.sha256(indices.encode()).hexdigest(),
        }

    def record(self, fg, rr, testbeds) -> dict:
        rec = self.fingerprint(rr)
        if testbeds:
            tb = testbeds[-1]
            rec.update(log_record(fg, tb.nwdaf.store.events, tb.nwdaf.store.rejected))
            rec["loss_draws"] = sum(tb.net._loss_counters.values())
        return rec


class LogReplay(Workload):
    """Import, check, count and re-export the events.log of ues500_fetch."""

    name = "log_replay"
    ops = CHECKS + 1         # six checks plus the round trip

    def make_inputs(self) -> None:
        # A child process runs ues500_fetch, so its memory stays out of this
        # process's peak.
        proc = subprocess.run(
            [sys.executable, str(PROBE), "log", "--seed", str(self.seed)],
            capture_output=True, text=True, check=False, timeout=170,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"log generation failed: {proc.stderr.strip()[-2000:]}")
        self.live = json.loads(proc.stdout)
        self.text = self.live.pop("events_log")
        self.throughput = {(s, d): v for s, d, v in self.live["throughput"]}

    def setup(self, fg) -> None:
        pass

    def run(self, fg):
        nwdaf = fg.nwdaf
        t0, t1 = self.live["window"]
        events = nwdaf.import_events_text(self.text)
        checks = fg.validation.validate_sequences(
            events, sbi_port=self.live["sbi_port"], ue_pool=self.live["ue_pool"]
        )
        counts = nwdaf.kpi_packet_counts(events, t0, t1, entities=self.live["roster"])
        both = nwdaf.kpi_packet_counts(events, t0, t1, semantics="src_or_dst")
        throughput = nwdaf.kpi_throughput_matrix(events, t0, t1)
        return events, checks, counts, both, throughput, nwdaf.export_events_text(events)

    def check(self, fg, out) -> Check:
        events, checks, counts, both, throughput, text = out
        check = Check(attempted=self.ops)
        for c in checks:
            if not c.passed:
                check.fail(c.line())
        if len(checks) != CHECKS:
            check.fail(f"{len(checks)} checks ran, expected {CHECKS}", max(CHECKS - len(checks), 0))
        problems = []
        if text != self.text:
            problems.append("re-export differs from the imported log")
        if counts != self.live["kpi_counts"]:
            problems.append("kpi_packet_counts differ from the live run's kpi_counts")
        if sum(both.values()) != 2 * sum(counts.values()):
            problems.append("src_or_dst counts do not credit both ends")
        if throughput != self.throughput:
            problems.append("kpi_throughput_matrix differs from the live run's")
        if problems:
            check.fail("round trip: " + "; ".join(problems))
        return check

    def record(self, fg, out, testbeds) -> dict:
        return log_record(fg, out[0], self.live["record"]["nwdaf_rejected"])

    def expected_record(self) -> dict:
        return self.live["record"]


WORKLOADS = {w.name: w for w in (Ues500Fetch, UrllcPsa10k, LogReplay)}
