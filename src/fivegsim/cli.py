"""Command line front end.

Three subcommands: ``run`` executes a scenario and writes artifacts,
``validate`` replays the sequence checks over an exported event log (with
the sbi_port and ue_pool of ``--topology``, if given), and
``kpi`` recomputes packet counts from a log over a chosen window.

Exit codes: 0 success, 1 a run or check failed, 2 bad input or configuration.
A reader that closes stdout early (``| head``) only cuts the output short:
the exit code stands and nothing reaches stderr.
``--log-level`` (default warning) sets which of the package's log lines
reach stderr.
"""
from __future__ import annotations

import argparse
import logging
import os
import sys

from .config import ConfigError, SCENARIO_NAMES, Params, ScenarioSpec, default_topology, load_topology
from .errors import FivegsimError
from .nwdaf import SEMANTICS, SchemaError, import_events, kpi_counts_csv, kpi_packet_counts
from .runner import run_scenario
from .urllc import Redundancy
from .validation import all_passed, validate_sequences


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fivegsim",
        description="Deterministic desk-scale mobile core simulator.",
    )
    parser.add_argument(
        "--log-level", default="warning", choices=("debug", "info", "warning", "error"),
        help="least severe log line shown on stderr",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a scenario")
    run.add_argument("--topology", help="topology file (default: built-in)")
    run.add_argument("--scenario", default="single_request", choices=SCENARIO_NAMES)
    run.add_argument("--ues", type=int, default=1, help="UE population for many_requests")
    run.add_argument("--doc", default="document", help="document to fetch")
    run.add_argument("--duration-ms", type=int, default=10000)
    run.add_argument(
        "--redundancy",
        default="none",
        choices=[m.name.lower() for m in Redundancy],
    )
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--out", help="directory for events.log, KPI CSVs and summary")
    run.set_defaults(func=_cmd_run)

    val = sub.add_parser("validate", help="run sequence checks over an event log")
    val.add_argument("--events", required=True, help="events.log produced by run --out")
    val.add_argument(
        "--topology", help="topology of the run, for its sbi_port and ue_pool (default: built-in)"
    )
    val.set_defaults(func=_cmd_validate)

    kpi = sub.add_parser("kpi", help="recompute packet counts from an event log")
    kpi.add_argument("--events", required=True)
    kpi.add_argument(
        "--window-ms",
        type=int,
        nargs=2,
        metavar=("T0", "T1"),
        required=True,
        help="half-open window [T0, T1)",
    )
    kpi.add_argument("--semantics", default="src_only", choices=SEMANTICS)
    kpi.set_defaults(func=_cmd_kpi)
    return parser


def _emit(text: str) -> None:
    """Write `text` to stdout; a closed pipe ends the output, not the command."""
    try:
        print(text, end="", flush=True)
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit: let that go to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _cmd_run(args) -> int:
    topo = load_topology(args.topology) if args.topology else default_topology()
    spec = ScenarioSpec(
        name=args.scenario,
        ue_count=args.ues,
        doc=args.doc,
        duration_ms=args.duration_ms,
        redundancy=Redundancy.parse(args.redundancy),
        seed=args.seed,
    )
    result = run_scenario(spec, topo, out_dir=args.out)
    _emit(result.summary)
    if result.checks and not all_passed(result.checks):
        return 1
    return 0


def _cmd_validate(args) -> int:
    events = import_events(args.events)
    params = load_topology(args.topology).params if args.topology else Params()
    results = validate_sequences(events, sbi_port=params.sbi_port, ue_pool=params.ue_pool)
    _emit("".join(f"{check.line()}\n" for check in results))
    return 0 if all_passed(results) else 1


def _cmd_kpi(args) -> int:
    events = import_events(args.events)
    t0, t1 = args.window_ms
    if t1 < t0:
        raise ConfigError(f"window [{t0}, {t1}) is empty")
    counts = kpi_packet_counts(events, t0, t1, semantics=args.semantics)
    _emit(kpi_counts_csv(counts))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logger = logging.getLogger("fivegsim")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    logger.addHandler(handler)
    logger.setLevel(args.log_level.upper())
    try:
        return args.func(args)
    except (ConfigError, SchemaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FivegsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        logger.removeHandler(handler)
        logger.setLevel(logging.NOTSET)


if __name__ == "__main__":
    sys.exit(main())
