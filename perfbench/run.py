"""fivegsim benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload ues500_fetch --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload log_replay --seed 1 --trace 1
    python3 perfbench/run.py --compare parent.jsonl change.jsonl

With ``--trace 0`` the last line carries the end-to-end metrics, measured
with nothing installed in the package. With ``--trace 1`` it carries the
per-layer metrics of one traced iteration, plus the tracing overhead.
``--out FILE`` appends the full result (samples, determinism record,
provenance) as one JSON line, the input of ``--compare``. See README.md.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import hostspeed
import workloads
from tracing import VALIDATION_CHECKS, Tracer, capture_testbeds

SETUP_REPEATS = 4          # fresh interpreters timed for setup_s, before and after
MIN_SAMPLES = 3
SPAN_DIR = workloads.ROOT / ".perfbench"

# Per-layer metrics, in output order.
LAYER_CALLS = (
    "simnet.send", "wirefmt.encode", "wirefmt.decode", "messages.build", "messages.parse",
    "core_cp.handle", "user_plane.handle", "ran_ue.handle", "urllc.dedup", "nwdaf.ingest",
)
LAYER_SPANS = (
    "simnet.send", "simnet.tap", "simnet.clock", "wirefmt.encode", "wirefmt.decode",
    "messages.build", "messages.parse", "core_cp.handle", "user_plane.handle",
    "ran_ue.handle", "urllc.dedup", "nwdaf.ingest", "nwdaf.import", "nwdaf.export",
    "nwdaf.kpi", "validation", *(f"validation.{c}" for c in VALIDATION_CHECKS),
    "core_cp.timer", "user_plane.timer", "ran_ue.timer", "runner.timer",
    "runner.build", "runner.invariants", "runner.summary", "config.parse",
)
LAYER_COUNTS = (
    "simnet.clock.events", "simnet.loss_draws", "simnet.dropped",
    "wirefmt.encode.bytes", "wirefmt.decode.bytes",
    "core_cp.registrations", "core_cp.sessions",
    "user_plane.doc_bytes", "user_plane.sha256_bytes",
    "ran_ue.sha256_bytes", "ran_ue.held_segment_bytes", "ran_ue.transfers_ok",
    "urllc.eliminated", "urllc.unique_delivered", "urllc.uplink_copies",
    "nwdaf.rejected", "nwdaf.import.bytes", "validation.failed", "trace.spans",
)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def src_loc() -> int:
    return sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in (workloads.SRC / "fivegsim").rglob("*.py")
    )


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = workloads.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance() -> dict:
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_sha": git_sha(),
        "src_loc": src_loc(),
    }


def setup_samples(workload: str, seed: int, n: int) -> list[dict]:
    """Set-up timed in ``n`` fresh interpreters: host seconds and scale each."""
    cmd = [sys.executable, str(workloads.PROBE), "setup", "--workload", workload, "--seed", str(seed)]
    samples = []
    for _ in range(n):
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-2000:]}")
        samples.append(json.loads(proc.stdout))
    return samples


class Bench:
    """One run: iterations, their gates, the determinism record and the result."""

    def __init__(self, fg, wl: workloads.Workload):
        self.fg = fg
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.record: dict | None = None

    def error(self, message: str, ops: int = 1) -> None:
        self.errors.append(message)
        self.failed += ops

    def iterate(self, call):
        """Run and gate one iteration: (host seconds, host-speed scale, output) or None."""
        gc.collect()
        try:
            with hostspeed.Sampler() as host:
                t0 = time.perf_counter()
                out = call()
                seconds = time.perf_counter() - t0
        except Exception as exc:  # the benchmark must report, not crash
            traceback.print_exc(file=sys.stderr)
            self.attempted += self.wl.ops
            self.error(f"{type(exc).__name__}: {exc}", self.wl.ops)
            return None
        check = self.wl.check(self.fg, out)
        self.attempted += check.attempted
        self.failed += check.failed
        self.errors.extend(check.errors)
        return seconds, host.scale, out

    def same_as_first(self, record: dict, what: str) -> None:
        if self.record is None:
            self.record = record
        elif any(self.record.get(k) != v for k, v in record.items()):
            self.error(f"determinism: {what} differs from the first run at this seed")

    def warm_up(self) -> bool:
        """An untimed first iteration that makes the full determinism record."""
        with capture_testbeds(self.fg) as testbeds:
            done = self.iterate(lambda: self.wl.run(self.fg))
        if done is None:
            return False
        record = self.wl.record(self.fg, done[2], testbeds)
        expected = self.wl.expected_record()
        if expected is not None and any(record.get(k) != v for k, v in expected.items()):
            self.error("determinism: replayed log differs from the live run's record")
        self.same_as_first(record, "warm-up record")
        return True

    def timed(self, seconds: float) -> list[tuple[float, float]]:
        """Untraced iterations until the time is used; every output is re-checked."""
        samples: list[tuple[float, float]] = []
        deadline = time.perf_counter() + seconds
        while True:
            done = self.iterate(lambda: self.wl.run(self.fg))
            if done is None:
                break
            samples.append(done[:2])
            self.same_as_first(self.wl.record(self.fg, done[2], []), "iteration output")
            del done
            left = deadline - time.perf_counter()
            if len(samples) >= MIN_SAMPLES and left < statistics.median(s for s, _ in samples):
                break
        return samples

    def traced(self):
        """Trace one set-up and one iteration: (tracer, seconds, scale, output) or None."""
        tracer = Tracer()
        tracer.install()
        try:
            tracer.span("setup", self.wl.setup, self.fg)
            del tracer.testbeds[:]
            done = self.iterate(lambda: tracer.span("iteration", self.wl.run, self.fg))
        finally:
            tracer.uninstall()
        if done is None:
            return None
        record = self.wl.record(self.fg, done[2], tracer.testbeds)
        if record != self.record:
            self.error("traced run: record differs from the untraced run's")
        return (tracer, *done)


def layer_metrics(fg, tracer: Tracer, out, scale: float) -> dict:
    """Per-layer metrics of a traced iteration; times use the same scale as wall_s."""
    calls, self_s = tracer.self_times()
    counts = dict.fromkeys(LAYER_COUNTS, 0)
    counts.update(tracer.counts)
    counts["trace.spans"] = len(tracer.names)
    for tb in tracer.testbeds:
        gnbs = {g.name for g in tb.gnbs}
        counts["simnet.loss_draws"] += sum(tb.net._loss_counters.values())
        counts["simnet.dropped"] += sum(d for _, d in tb.net.link_stats.values())
        counts["core_cp.registrations"] += sum(len(a.ue_registered) for a in tb.amfs)
        counts["core_cp.sessions"] += sum(len(s.sessions) for s in tb.smfs)
        for ue in tb.ues:
            for t in ue.transfers:
                counts["ran_ue.held_segment_bytes"] += sum(len(s) for s in t.segments.values())
                counts["ran_ue.transfers_ok"] += bool(t.ok)
        for r in tb.records:
            if r.outcome == fg.ELIMINATED_DUPLICATE:
                counts["urllc.eliminated"] += 1
            elif r.src in gnbs and r.attrs.get("inner") == "APP_DATA":
                counts["urllc.uplink_copies"] += 1
        counts["urllc.unique_delivered"] += sum(tb.server.data_received.values())
        counts["nwdaf.rejected"] += tb.nwdaf.store.rejected
    if isinstance(out, tuple):  # log_replay's checks
        counts["validation.failed"] = sum(1 for c in out[1] if not c.passed)

    metrics = {f"{n}.calls": (calls.get(n, 0), "count") for n in LAYER_CALLS}
    metrics.update({f"{n}.self_s": (self_s.get(n, 0.0) * scale, "s") for n in LAYER_SPANS})
    other = sum(v for k, v in self_s.items() if k not in LAYER_SPANS)
    metrics["other.self_s"] = (other * scale, "s")
    for name in LAYER_COUNTS:
        metrics[name] = (counts[name], "B" if name.endswith("bytes") else "count")
    copies = counts["urllc.uplink_copies"]
    metrics["urllc.useful_ratio"] = (
        counts["urllc.unique_delivered"] / copies if copies else 0.0, "ratio"
    )
    return metrics


def consistency_errors(bench: Bench, metrics: dict) -> list[str]:
    """Traced counts must equal what the untraced record saw."""
    rec = bench.record
    if bench.wl.name == "log_replay":
        expected = {"nwdaf.import.bytes": len(bench.wl.text.encode())}
    else:
        expected = {
            "simnet.send.calls": rec["wire_delivered"] + rec["wire_dropped"],
            "simnet.dropped": rec["wire_dropped"],
            "nwdaf.ingest.calls": rec["events"] + rec["nwdaf_rejected"],
            "urllc.eliminated": rec["outcomes"].get(bench.fg.ELIMINATED_DUPLICATE, 0),
        }
    return [
        f"traced {name} is {metrics[name][0]}, untraced runs saw {want}"
        for name, want in expected.items()
        if metrics[name][0] != want
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full result as one JSON line to this file")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    args = parser.parse_args(argv)
    if args.compare:
        import compare

        return compare.main(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")

    setup: list[dict] = []
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed)
        workloads.require_src()
        wl.make_inputs()
        if args.trace == 0:
            # the first interpreter compiles bytecode, so its time is dropped
            setup = setup_samples(args.workload, args.seed, SETUP_REPEATS + 1)[1:]
        fg = workloads.import_fivegsim()
        wl.setup(fg)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark cannot start: {exc}", file=sys.stderr)
        return 2

    bench = Bench(fg, wl)
    samples = bench.timed(args.seconds) if bench.warm_up() else []
    walls = [s * k for s, k in samples]
    print(f"workload {wl.name} seed {args.seed} trace {args.trace}")
    metrics: dict = {}
    result: dict = {"workload": wl.name, "seed": args.seed, "trace": args.trace}

    if args.trace == 0 and samples:
        # a second batch after timing spreads setup_s over the run's host phases
        setup += setup_samples(args.workload, args.seed, SETUP_REPEATS)
        wall = statistics.median(walls)
        q1, q3 = quartiles(walls)
        raw = [s for s, _ in samples]
        metrics = {
            "wall_s": (wall, "s"),
            "events_per_s": (bench.record["events"] / wall, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (statistics.median(s["seconds"] * s["scale"] for s in setup), "s"),
            "success_ratio": (1 - bench.failed / max(bench.attempted, 1), "ratio"),
        }
        print(f"  wall_s: median of {len(walls)} iterations, quartiles [{q1:.4f}, {q3:.4f}]")
        print(f"  unscaled host seconds: median {statistics.median(raw):.4f}, min {min(raw):.4f}")
        print(f"  setup_s: median of {len(setup)} fresh interpreters")
        print(f"  failed_ratio {bench.failed}/{bench.attempted}")
        result["samples"] = {"iterations": samples, "setup": setup}
    elif samples:
        traced = bench.traced()
        if traced is not None:
            tracer, seconds, scale, out = traced
            metrics = layer_metrics(fg, tracer, out, scale)
            if tracer.missing:
                # the package changed under the benchmark: report, do not cross-check
                print("  not traced, gone from the package: " + ", ".join(tracer.missing))
            else:
                for message in consistency_errors(bench, metrics):
                    bench.error(message)
            untraced = statistics.median(walls)
            metrics["trace.traced_wall_s"] = (seconds * scale, "s")
            metrics["trace.untraced_wall_s"] = (untraced, "s")
            metrics["trace.overhead_s"] = (seconds * scale - untraced, "s")
            SPAN_DIR.mkdir(exist_ok=True)
            spans = SPAN_DIR / f"spans-{wl.name}-seed{args.seed}.tsv"
            tracer.write(spans)
            print(f"  {len(tracer.names)} spans (unscaled ns) written to {spans.relative_to(workloads.ROOT)}")

    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:>14.6g} {unit}")
    for message in bench.errors:
        print(f"  FAILED: {message}")
    result.update(
        correct=bool(metrics) and bench.failed == 0 and not bench.errors,
        attempted=bench.attempted,
        failed=bench.failed,
        errors=bench.errors,
        record=bench.record,
        provenance=provenance(),
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    )
    print("  record " + json.dumps(bench.record, sort_keys=True))
    print("  provenance " + json.dumps(result["provenance"], sort_keys=True))
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(result, sort_keys=True) + "\n")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
