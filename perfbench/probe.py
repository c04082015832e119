"""Fresh-process helpers for the benchmark (run by run.py, not by hand).

``probe.py setup --workload W --seed N`` times ``import fivegsim`` plus the
workload's set-up in a new interpreter and prints its host seconds and
host-speed scale as JSON.

``probe.py log --seed N`` runs ues500_fetch once and prints its events.log,
KPIs and determinism record as JSON, for log_replay.
"""
import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """(host seconds, host-speed scale) of ``import fivegsim`` plus set-up."""
    # Nothing beyond os/sys/time/signal is imported before the clock starts,
    # so the stdlib modules fivegsim pulls in are paid for inside the
    # measurement.
    import hostspeed

    sys.path.insert(0, SRC)
    with hostspeed.Sampler() as host:
        t0 = time.perf_counter()
        import fivegsim

        imported = time.perf_counter() - t0
        import workloads

        wl = workloads.WORKLOADS[workload](seed)
        t1 = time.perf_counter()
        wl.setup(fivegsim)
        seconds = imported + time.perf_counter() - t1
    return seconds, host.scale


def live_log(seed: int) -> dict:
    import workloads

    fg = workloads.import_fivegsim()
    wl = workloads.Ues500Fetch(seed)
    wl.setup(fg)
    result = wl.run(fg)
    check = wl.check(fg, result)
    if check.failed:
        raise SystemExit("ues500_fetch failed: " + "; ".join(check.errors))
    tb = result.testbed
    return {
        "events_log": fg.nwdaf.export_events_text(result.events),
        "record": workloads.log_record(fg, result.events, tb.nwdaf.store.rejected),
        "window": list(result.window),
        "roster": list(tb.net.entities),
        "kpi_counts": result.kpi_counts,
        "throughput": [[s, d, v] for (s, d), v in sorted(result.throughput.items())],
        "sbi_port": tb.params.sbi_port,
        "ue_pool": tb.params.ue_pool,
    }


def main(argv):
    import argparse
    import json

    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "log"))
    parser.add_argument("--workload", default="ues500_fetch")
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        seconds, scale = setup_seconds(args.workload, args.seed)
        print(json.dumps({"seconds": seconds, "scale": scale}))
    else:
        print(json.dumps(live_log(args.seed)))


if __name__ == "__main__":
    main(sys.argv[1:])
