"""Command line behaviour: artifacts, exit codes, output formats."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fivegsim.cli import main
from fivegsim.config import default_topology
from fivegsim.nwdaf import import_events, kpi_packet_counts

ARTIFACTS = ("events.log", "kpi_counts.csv", "kpi_throughput.csv", "summary.txt")


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    rc = main(["run", "--out", str(out), "--duration-ms", "3000", "--seed", "3"])
    assert rc == 0
    return out


def test_run_writes_all_artifacts(run_dir):
    for name in ARTIFACTS:
        assert (run_dir / name).is_file(), name


def test_run_prints_summary(run_dir, capsys):
    rc = main(["run", "--duration-ms", "3000", "--seed", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "topology:" in out
    assert "transfer UE document ok" in out
    assert (run_dir / "summary.txt").read_text() == out


def test_run_validate_scenario_reports_checks(tmp_path, capsys):
    rc = main(["run", "--scenario", "validate", "--seed", "1", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    for name in ("sbi_registration", "pfcp_association", "ngap_setup_order",
                 "heartbeat_cadence", "registration_chain", "user_plane_routing"):
        assert f"PASS {name}" in out


def test_run_with_redundancy_flag(tmp_path, capsys):
    rc = main(["run", "--redundancy", "n3_replication", "--duration-ms", "3000",
               "--seed", "4", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "transfer UE document ok" in out


def test_validate_passes_on_exported_log(run_dir, capsys):
    rc = main(["validate", "--events", str(run_dir / "events.log")])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert len(lines) == 6
    assert all(line.startswith("PASS ") for line in lines)


def test_validate_fails_on_gutted_log(run_dir, tmp_path, capsys):
    kept = [
        line
        for line in (run_dir / "events.log").read_text().splitlines()
        if "\tGTPU\t" not in line and "\tAPP\t" not in line
    ]
    gutted = tmp_path / "gutted.log"
    gutted.write_text("\n".join(kept) + "\n")
    rc = main(["validate", "--events", str(gutted)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL user_plane_routing: no tunnel traffic in the log" in out


def test_kpi_matches_direct_recomputation(run_dir, capsys):
    log = run_dir / "events.log"
    rc = main(["kpi", "--events", str(log), "--window-ms", "1000", "4000"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert out[0] == "entity,packets"
    got = dict(line.split(",") for line in out[1:])
    want = kpi_packet_counts(import_events(log), 1000, 4000)
    assert got == {name: str(count) for name, count in want.items()}
    assert "UE" in got


def test_kpi_src_or_dst_semantics(run_dir, capsys):
    log = run_dir / "events.log"
    rc = main(["kpi", "--events", str(log), "--window-ms", "1000", "4000",
               "--semantics", "src_or_dst"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    want = kpi_packet_counts(import_events(log), 1000, 4000, semantics="src_or_dst")
    assert dict(line.split(",") for line in out[1:]) == {
        name: str(count) for name, count in want.items()
    }


# -- failure exit codes --------------------------------------------------------------

def test_empty_kpi_window_is_a_usage_error(run_dir, capsys):
    rc = main(["kpi", "--events", str(run_dir / "events.log"),
               "--window-ms", "50", "40"])
    assert rc == 2
    assert "is empty" in capsys.readouterr().err


def test_missing_events_file_is_a_usage_error(tmp_path, capsys):
    rc = main(["validate", "--events", str(tmp_path / "absent.log")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_corrupt_events_file_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.log"
    bad.write_text("this is not an event log\n")
    rc = main(["validate", "--events", str(bad)])
    assert rc == 2
    assert "expected 9 columns" in capsys.readouterr().err


def test_missing_topology_file_is_a_usage_error(tmp_path, capsys):
    rc = main(["run", "--topology", str(tmp_path / "absent.cfg")])
    assert rc == 2


def run_cli_on_default_topology(tmp_path, edit):
    """Run the CLI in a fresh interpreter on an edited copy of the default
    topology."""
    topo = tmp_path / "edited.cfg"
    topo.write_text(edit(Path(default_topology().source).read_text()))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "fivegsim.cli", "run", "--topology", str(topo),
         "--duration-ms", "3000"],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_unrunnable_topology_fails_with_one_error_line(tmp_path):
    # config accepts the topology; the AMF's first AUTH_REQ finds no link
    proc = run_cli_on_default_topology(
        tmp_path, lambda text: text.replace("AMF,AUSF,1,0.0,false\n", "")
    )
    assert proc.returncode == 1
    assert proc.stderr == "error: no link between AMF and AUSF\n"
    assert "Traceback" not in proc.stderr


def test_refused_ue_reports_its_transfer_as_failed(tmp_path):
    # without a UDR the UDM refuses the registration, so the UE has no session
    # when the scenario asks for the document
    proc = run_cli_on_default_topology(
        tmp_path, lambda text: "".join(l for l in text.splitlines(True) if "UDR" not in l)
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert "transfer UE document failed" in proc.stdout
    assert "error=no active session" in proc.stdout


def test_unknown_scenario_rejected_by_the_parser(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--scenario", "coffee_break"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_unknown_subcommand_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
