"""Command line behaviour: artifacts, exit codes, output formats."""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fivegsim import cli
from fivegsim.cli import main
from fivegsim.config import default_topology
from fivegsim.messages import MsgKind
from fivegsim.nwdaf import import_events, kpi_packet_counts
from fivegsim.runner import Testbed
from fivegsim.simnet import DROPPED
from fivegsim.wirefmt import Protocol, WireFormatError

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


def test_a_doc_name_with_a_line_break_stays_on_one_transfer_line(tmp_path, capsys):
    rc = main(["run", "--scenario", "single_request", "--doc", "x\ny", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    [line] = [l for l in out.splitlines() if l.startswith(("transfer ", "y "))]
    assert line.startswith("transfer UE x y failed ") and line.endswith(" error=no such document")


def test_run_validate_scenario_reports_checks(tmp_path, capsys):
    rc = main(["run", "--scenario", "validate", "--seed", "1", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    for name in ("sbi_registration", "pfcp_association", "ngap_setup_order",
                 "heartbeat_cadence", "registration_chain", "user_plane_routing"):
        assert f"PASS {name}" in out


def test_a_validate_run_shorter_than_a_heartbeat_still_passes_6_of_6(capsys):
    """The window [1000, 3000) ends before the first heartbeat, at
    heartbeat_ms=3333: the horizon stretches just past it."""
    rc = main(["run", "--scenario", "validate", "--duration-ms", "2000"])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert "window_ms: [1000, 3334)" in lines
    assert sum(line.startswith("PASS ") for line in lines) == 6


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


@pytest.fixture(scope="module")
def single_request_log(tmp_path_factory):
    out = tmp_path_factory.mktemp("single")
    assert main(["run", "--scenario", "single_request", "--out", str(out)]) == 0
    return (out / "events.log").read_text()


# a digit str.isdigit() accepts but int() refuses; more digits than int() converts;
# one past the 32-bit field; a second spelling of TEID 12
@pytest.mark.parametrize(
    "teid", ["\u00b2", "9" * 5000, "4294967296", "0012"],
    ids=["superscript-two", "5000-digits", "33-bits", "leading-zeros"],
)
def test_validate_fails_on_a_bad_teid(single_request_log, tmp_path, teid, capsys):
    lines = single_request_log.split("\n")
    first = next(i for i, line in enumerate(lines) if "\tGTPU\t" in line)  # the first tunnel packet
    cols = lines[first].split("\t")
    assert cols[0] == str(first) and ",teid=1," in cols[8]
    cols[8] = cols[8].replace(",teid=1,", f",teid={teid},")
    lines[first] = "\t".join(cols)
    bad = tmp_path / "bad_teid.log"
    bad.write_text("\n".join(lines))
    rc = main(["validate", "--events", str(bad)])
    out, err = capsys.readouterr()
    assert rc == 1 and err == ""
    assert f"FAIL user_plane_routing: tunnel packet without a valid teid (event {first})" in out.splitlines()


# every NF's SBI spoke to the registry in the built-in topology
NRF_SPOKES = ("AMF", "SMF", "AUSF", "UDM", "UDR", "PCF", "NSSF", "BSF", "UPF1", "UPF2")


@pytest.mark.parametrize(
    "nf,latency",
    [pytest.param(nf, 14, id=nf) for nf in NRF_SPOKES]
    + [pytest.param(nf, ms, id=f"{nf}-{ms}ms") for ms in (30, 50) for nf in NRF_SPOKES],
)
def test_bring_up_survives_one_slow_registry_spoke(nf, latency, tmp_path, capsys):
    """A slow spoke makes its NF register after the others discovered; the
    registry's status notifications still bring it to them, and the UE
    attaches once every NF that finds peers holds them: at 30 ms or more the
    AMF's or the UDM's own discovery answers come after T_ATTACH."""
    text = Path(default_topology().source).read_text()
    spoke = f"\n{nf},NRF,1,0.0,false\n"
    assert spoke in text
    topo = tmp_path / "slow.cfg"
    topo.write_text(text.replace(spoke, f"\n{nf},NRF,{latency},0.0,false\n"))
    rc = main(["run", "--scenario", "validate", "--topology", str(topo)])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert sum(line.startswith("PASS ") for line in lines) == 6
    assert any(line.startswith("transfer UE document ok ") for line in lines)


def test_a_request_and_a_burst_wait_for_a_late_attach(tmp_path, capsys):
    """The AMF's spoke at 50 ms registers the UE past a 60 ms settle phase:
    the document request and each sweep's burst wait for its session."""
    text = Path(default_topology().source).read_text()
    assert "\nAMF,NRF,1," in text and "\n[params]\n" in text
    topo = tmp_path / "late_attach.cfg"
    late = text.replace("\nAMF,NRF,1,", "\nAMF,NRF,50,").replace("\n[params]\n", "\n[params]\nsettle_ms=60\n")
    topo.write_text(late)
    assert main(["run", "--scenario", "single_request", "--topology", str(topo)]) == 0
    assert any(line.startswith("transfer UE document ok ") for line in capsys.readouterr().out.splitlines())
    assert main(["run", "--scenario", "urllc_sweep", "--topology", str(topo)]) == 0
    lines = capsys.readouterr().out.splitlines()
    swept = [line.split()[1] for line in lines if line.startswith("reliability ")]
    assert swept == ["NONE", "DUAL_CONNECTIVITY", "N3_REPLICATION", "PSA_ANCHOR"]


def test_validate_reads_ports_and_pool_from_the_topology(tmp_path, capsys):
    topo = tmp_path / "sbi8888.cfg"
    topo.write_text(
        Path(default_topology().source).read_text().replace("sbi_port=7777", "sbi_port=8888")
    )
    assert main(["run", "--topology", str(topo), "--duration-ms", "3000", "--out", str(tmp_path)]) == 0
    log = str(tmp_path / "events.log")
    capsys.readouterr()
    assert main(["validate", "--events", log, "--topology", str(topo)]) == 0
    assert all(line.startswith("PASS ") for line in capsys.readouterr().out.splitlines())
    assert main(["validate", "--events", log]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL ")]
    assert [line.split(":")[0] for line in failed] == ["FAIL sbi_registration"]


# SHA-256 of summary.txt from `run --topology topology.cfg --scenario
# urllc_sweep`, the built-in topology copied to topology.cfg, seed 0
URLLC_SWEEP_SUMMARY_SHA256 = "0e87c31bfce0f95e4a7949e49bbf8d69bebc101e99e5019a465161f5d528dd8d"


def sweep_summary(topology: str, capsys) -> str:
    Path(topology).write_text(Path(default_topology().source).read_text())
    rc = main(["run", "--topology", topology, "--scenario", "urllc_sweep", "--out", "out"])
    summary = Path("out", "summary.txt").read_text()
    assert rc == 0 and capsys.readouterr().out == summary
    return summary


def test_urllc_sweep_summary_is_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    summary = sweep_summary("topology.cfg", capsys)
    assert hashlib.sha256(summary.encode()).hexdigest() == URLLC_SWEEP_SUMMARY_SHA256
    # the sweep's runs are its own testbeds; the artifact log has only its header
    [header] = Path("out", "events.log").read_text().splitlines()
    assert header.startswith("# id\t")


def test_urllc_sweep_summary_does_not_name_the_topology_directory(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    summary = sweep_summary(str(tmp_path.resolve() / "topology.cfg"), capsys)
    assert hashlib.sha256(summary.encode()).hexdigest() == URLLC_SWEEP_SUMMARY_SHA256


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


@pytest.mark.parametrize("command", [["validate"], ["kpi", "--window-ms", "0", "10"]])
def test_events_file_that_is_not_utf8_is_a_usage_error(run_dir, tmp_path, command, capsys):
    lines = (run_dir / "events.log").read_bytes().split(b"\n")
    lines[2] = lines[2].replace(b"NRF", b"N\xffF", 1)
    bad = tmp_path / "latin.log"
    bad.write_bytes(b"\n".join(lines))
    rc = main([command[0], "--events", str(bad), *command[1:]])
    assert (rc, capsys.readouterr().err) == (2, "error: line 3: not UTF-8 text\n")


def test_topology_file_that_is_not_utf8_is_a_usage_error(tmp_path, capsys):
    topo = tmp_path / "latin.cfg"
    topo.write_bytes(Path(default_topology().source).read_bytes().replace(b"# Desk", b"# D\xe9sk"))
    rc = main(["run", "--topology", str(topo)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: cannot read topology {topo}: 'utf-8' codec can't decode")
    assert err.count("\n") == 1


def test_out_below_a_file_is_a_usage_error(tmp_path, capsys):
    (tmp_path / "file").write_text("")
    rc = main(["run", "--duration-ms", "3000", "--out", str(tmp_path / "file" / "run")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1


def test_more_ues_than_spawned_addresses_is_a_usage_error(capsys):
    rc = main(["run", "--scenario", "many_requests", "--ues", "65536"])
    assert (rc, capsys.readouterr().err) == (
        2,
        "error: 65536 UEs exceed the limit of 65535: spawned UE k is addressed 172.16.(k >> 8).(k & 0xFF)\n",
    )


def cli_env():
    """The environment a fresh interpreter needs to import this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_python_dash_m_runs_the_cli(tmp_path):
    """`python -m fivegsim` from a checkout is the `fivegsim` command."""
    help_run = subprocess.run(
        [sys.executable, "-m", "fivegsim", "--help"],
        capture_output=True, text=True, env=cli_env(), timeout=120,
    )
    assert help_run.returncode == 0, help_run.stderr
    assert "run" in help_run.stdout and "validate" in help_run.stdout
    out = tmp_path / "idle"
    idle_run = subprocess.run(
        [sys.executable, "-m", "fivegsim", "run", "--scenario", "idle", "--out", str(out)],
        capture_output=True, text=True, env=cli_env(), timeout=120,
    )
    assert idle_run.returncode == 0, idle_run.stderr
    assert (out / "events.log").is_file()


def run_cli_on_default_topology(tmp_path, edit):
    """Run the CLI in a fresh interpreter on an edited copy of the default
    topology."""
    topo = tmp_path / "edited.cfg"
    topo.write_text(edit(Path(default_topology().source).read_text()))
    return subprocess.run(
        [sys.executable, "-m", "fivegsim.cli", "run", "--topology", str(topo),
         "--duration-ms", "3000"],
        capture_output=True, text=True, env=cli_env(), timeout=120,
    )


@pytest.mark.parametrize(
    "command, gutted, code",
    [
        (["kpi", "--window-ms", "1000", "4000"], False, 0),
        (["validate"], False, 0),
        (["validate"], True, 1),  # a failed check keeps its exit code
    ],
    ids=["kpi", "validate", "validate-failing"],
)
def test_a_closed_stdout_ends_the_command_quietly(run_dir, tmp_path, command, gutted, code):
    """A reader that closed the pipe (`| head`) only cuts the output short:
    the command's exit code stands and nothing reaches stderr."""
    events = run_dir / "events.log"
    if gutted:
        events = tmp_path / "gutted.log"
        lines = (run_dir / "events.log").read_text().splitlines(True)
        events.write_text("".join(line for line in lines if "\tGTPU\t" not in line))
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to stdout now fails with EPIPE
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "fivegsim.cli", command[0], "--events", str(events), *command[1:]],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=cli_env(), timeout=120,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (code, "")


def _drop_link(a, b):
    return lambda text: text.replace(f"{a},{b},", "#")


def _drop_every(name):
    """Drop each entity or link line that names `name` in its first two fields."""
    return lambda text: "".join(
        line for line in text.splitlines(True) if name not in line.split(",")[:2]
    )


def _subscriber(imsi, second_ue=False):
    """The one subscriber id becomes `imsi`; `second_ue` declares UE2 on the
    gNB, with no subscriber id of its own."""
    def edit(text):
        text = text.replace("imsi-001010000000001", imsi)
        if second_ue:
            text = text.replace("UE,UE,192.168.0.30\n", "UE,UE,192.168.0.30\nUE,UE2,192.168.0.31\n")
            text = text.replace("UE,gNB,2,0.0,false\n", "UE,gNB,2,0.0,false\nUE2,gNB,2,0.0,false\n")
        return text
    return edit


def _refused(reason, state, ues=1):
    """Each of the run's `ues` UEs is refused and reports a failed transfer."""
    def check(result):
        assert len(result.testbed.ues) == ues
        for ue in result.testbed.ues:
            assert (ue.reject_reason, ue.state) == (reason, state)
            assert (
                f"transfer {ue.name} document failed segments=0 bytes=0 ms=0 error=no active session"
                in result.summary
            )
    return check


def _no_link_rows(protocol, rows):
    """Every drop is a `protocol` packet from a sender to a peer it has no
    link to, the (sender, peer, msg_kind or None) triples are `rows`, and the
    transfer is ok."""
    def check(result):
        drops = [r for r in result.events if r.outcome == DROPPED]
        assert all((r.protocol, r.attrs["reason"]) == (protocol, "no link") for r in drops)
        assert {(r.src, r.attrs["peer"], r.attrs.get("msg_kind")) for r in drops} == rows
        assert all(t.ok for t in result.transfers["UE"])
    return check


def _transfer_ok(result):
    assert all(t.ok for t in result.transfers["UE"])
    assert "transfer UE document ok " in result.summary


def _three_transfers_ok(result):
    assert [ue.name for ue in result.testbed.ues] == ["UE", "UE002", "UE003"]
    assert [t.ok for ts in result.transfers.values() for t in ts] == [True] * 3


def _two_udrs(text):
    """The one UDR becomes UDRB, and UDRA is declared after it and linked
    alike: the UDM asks the lowest nf_id, UDRA."""
    return (
        text.replace("UDR,UDR,192.168.0.17", "UDR,UDRB,192.168.0.17\nUDR,UDRA,192.168.0.24")
        .replace("UDR,NRF,1,0.0,false", "UDRB,NRF,1,0.0,false\nUDRA,NRF,1,0.0,false")
        .replace("UDM,UDR,1,0.0,false", "UDM,UDRB,1,0.0,false\nUDM,UDRA,1,0.0,false")
    )


def _segments(segment_bytes, doc_size=487659):
    """segment_bytes and the size of the built-in document become the given."""
    return lambda text: (
        text.replace("segment_bytes=64000", f"segment_bytes={segment_bytes}")
        .replace("document,487659", f"document,{doc_size}")
    )


def _two_nrfs(text):
    """NRF0 is declared before the NRF, and the PCF's spoke goes to it."""
    return (
        text.replace("NRF,NRF,192.168.0.12", "NRF,NRF0,192.168.0.11\nNRF,NRF,192.168.0.12")
        .replace("PCF,NRF,1,0.0,false", "PCF,NRF0,1,0.0,false")
    )


def _two_servers(text):
    """WEB1, declared first, links to UPF2 only; WEB2 links to UPF1."""
    return (
        text.replace("UPF,UPF2,192.168.0.32", "UPF,UPF2,192.168.0.32\nSERVER,WEB1,192.168.0.40\n"
                     "SERVER,WEB2,192.168.0.42")
        .replace("UPF1,UPF2,1,0.0,false", "UPF1,UPF2,1,0.0,false\nWEB1,UPF2,1,0.0,false\n"
                 "WEB2,UPF1,1,0.0,false")
    )


def _unreliable_n2(result):
    # the AMF answers the setup over an unreliable link with an error and
    # keeps no NGAP association with that gNB
    tb = result.testbed
    [answer] = [r for r in result.events if r.attrs.get("msg_kind") == "NGAP_SETUP_RESP"]
    assert (answer.src, answer.dst) == ("AMF", "gNB")
    assert tb.gnbs[0].ng_ready is False and tb.amfs[0].gnbs == set()
    _refused("no NGAP setup", "DEREGISTERED")(result)


TOPOLOGY_EDITS = [
    pytest.param(_drop_link("AMF", "AUSF"), [], "AMF AMF has no link to any AUSF", None,
                 id="drop-AMF-AUSF-link"),
    pytest.param(_drop_link("UPF2", "NRF"), [], "UPF UPF2 has no link to any NRF", None,
                 id="drop-UPF2-NRF-link"),
    pytest.param(_drop_every("NRF"), [], "topology has no registry function", None,
                 id="drop-every-NRF-line"),
    pytest.param(_drop_every("AMF"), [], "a radio node needs an AMF in the topology", None,
                 id="drop-every-AMF-line"),
    pytest.param(_drop_every("AUSF"), [], None, _refused("no AUSF discovered", "DEREGISTERED"),
                 id="drop-every-AUSF-line"),
    pytest.param(_drop_every("PCF"), [], None, _refused("no PCF discovered", "DEREGISTERED"),
                 id="drop-every-PCF-line"),
    pytest.param(_drop_every("SMF"), [], None, _refused("no SMF discovered", "REGISTERED"),
                 id="drop-every-SMF-line"),
    pytest.param(_drop_every("UDR"), [], None, _refused("no UDR discovered", "DEREGISTERED"),
                 id="drop-every-UDR-line"),
    pytest.param(_drop_link("SMF", "UPF2"), [], None,
                 _no_link_rows(Protocol.PFCP, {("SMF", "UPF2", "PFCP_ASSOC_REQ")}),
                 id="drop-SMF-UPF2-link"),
    pytest.param(lambda text: text.replace("gNB,AMF,1,0.0,true", "gNB,AMF,1,0.0,false"), [],
                 None, _unreliable_n2, id="unreliable-gNB-AMF-link"),
    pytest.param(_drop_link("UPF1", "UPF2"), ["--redundancy", "psa_anchor"], None,
                 _no_link_rows(Protocol.GTPU, {("UPF1", "UPF2", None), ("UPF2", "UPF1", None)}),
                 id="psa-anchor-without-UPF1-UPF2-link"),
    # the PCF registers after the AMF's discovery; its REGISTERED notification
    # puts it in the AMF's view
    pytest.param(lambda text: text.replace("PCF,NRF,1,0.0,false", "PCF,NRF,12,0.0,false"), [],
                 None, _transfer_ok, id="slow-PCF-registration"),
    pytest.param(_drop_every("gNB"), [], "UE UE has no link to any GNB", None,
                 id="drop-every-gNB-line"),
    pytest.param(_drop_every("UDR"), ["--scenario", "many_requests", "--ues", "5"], None,
                 _refused("no UDR discovered", "DEREGISTERED", ues=5), id="many-requests-without-UDR"),
    pytest.param(_subscriber("imsi-001010000000002", second_ue=True),
                 ["--scenario", "many_requests", "--ues", "2"],
                 "UEs UE and UE2 share the IMSI imsi-001010000000002", None,
                 id="subscriber-id-of-a-later-declared-UE"),
    pytest.param(_subscriber("imsi-001010000000003"), ["--scenario", "many_requests", "--ues", "3"],
                 "UEs UE and UE003 share the IMSI imsi-001010000000003", None,
                 id="subscriber-id-of-a-spawned-UE"),
    pytest.param(lambda text: text.replace("NSSF,NSSF,192.168.0.19", "NSSF,NSSF,172.16.0.2"),
                 ["--scenario", "many_requests", "--ues", "2"],
                 "duplicate entity address 172.16.0.2: UE002 collides with NSSF", None,
                 id="address-of-a-spawned-UE"),
    pytest.param(lambda text: text.replace("BSF,BSF,", "BSF,UE002,").replace("BSF,NRF,", "UE002,NRF,"),
                 ["--scenario", "many_requests", "--ues", "2"],
                 "duplicate entity name UE002: UE collides with BSF", None,
                 id="name-of-a-spawned-UE"),
    pytest.param(lambda text: text.replace("ue_pool=10.45.0.0/16", "ue_pool=172.16.0.0/24"),
                 ["--scenario", "many_requests", "--ues", "3"],
                 "entity address 172.16.0.2 collides with the UE pool 172.16.0.0/24", None,
                 id="UE-pool-of-the-spawned-UEs"),
    pytest.param(_two_udrs, ["--scenario", "many_requests", "--ues", "3"], None, _three_transfers_ok,
                 id="spawned-UEs-with-two-UDRs"),
    # a segment's message, envelope and G-PDU header share the GTP-U length field
    pytest.param(_segments(70000), [],
                 "segment_bytes=70000: a segment of document 'document' does not fit one G-PDU:"
                 " TLV value of 70000 bytes overflows the length field", None,
                 id="segment-bytes-70000"),
    pytest.param(_segments(65500), [],
                 "segment_bytes=65500: a segment of document 'document' does not fit one G-PDU:"
                 " inner packet of 65550 bytes overflows the length field", None,
                 id="segment-bytes-65500"),
    pytest.param(_segments(70000, doc_size=5000), [], None, _transfer_ok,
                 id="segment-bytes-70000-for-a-5000-byte-document"),
    pytest.param(_two_nrfs, [], "NRF0 and NRF are both NRFs: a topology has one", None,
                 id="two-NRFs"),
    pytest.param(_two_servers, [], "WEB1 and WEB2 are both SERVERs: a topology has one", None,
                 id="two-SERVERs"),
]


@pytest.mark.parametrize("edit, args, error, check", TOPOLOGY_EDITS)
def test_topology_edit_ends_in_exit_2_or_a_clean_run(
    edit, args, error, check, tmp_path, capsys, monkeypatch
):
    """Config refuses an unwired topology with one error line (exit 2); a
    missing peer kind or link that config allows is met as refusals and
    DROPPED rows in a run that ends with exit 0."""
    topo = tmp_path / "edited.cfg"
    topo.write_text(edit(Path(default_topology().source).read_text()))
    results = []
    run = cli.run_scenario
    monkeypatch.setattr(cli, "run_scenario", lambda *a, **kw: results.append(run(*a, **kw)) or results[-1])
    rc = main(["run", "--topology", str(topo), "--duration-ms", "3000", *args])
    err = capsys.readouterr().err
    if error is not None:
        assert (rc, err, results) == (2, f"error: {error}\n", [])
    else:
        assert (rc, err) == (0, "")
        check(results[0])


def test_a_doc_name_too_long_for_one_request_is_a_usage_error(capsys):
    assert main(["run", "--doc", "d" * 70000]) == 2
    assert capsys.readouterr().err == (
        "error: doc of 70000 characters: its APP_GET does not fit one G-PDU:"
        " TLV value of 70000 bytes overflows the length field\n"
    )


def test_a_wire_format_error_that_escapes_a_run_is_one_error_line(monkeypatch, capsys):
    def escape(*args, **kwargs):
        raise WireFormatError("planted")
    monkeypatch.setattr(cli, "run_scenario", escape)
    assert main(["run"]) == 1
    assert capsys.readouterr().err == "error: planted\n"


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


def test_urllc_sweep_names_the_refusal_of_a_ue_without_a_session(tmp_path, capsys):
    # without a UDR the UE has no session to send its burst over: one error
    # line naming the refusal, exit 1
    topo = tmp_path / "no_udr.cfg"
    text = Path(default_topology().source).read_text()
    topo.write_text("".join(line for line in text.splitlines(True) if "UDR" not in line))
    assert main(["run", "--topology", str(topo), "--scenario", "urllc_sweep"]) == 1
    assert capsys.readouterr().err == "error: no session in mode NONE: no UDR discovered\n"


def test_ue_refused_a_session_names_the_refusal(tmp_path, capsys):
    # a /28 pool holds 13 UE addresses after the network and gateway, so the
    # SMF refuses UE014 to UE020 their sessions
    topo = tmp_path / "small_pool.cfg"
    topo.write_text(
        Path(default_topology().source).read_text().replace("ue_pool=10.45.0.0/16", "ue_pool=10.45.0.0/28")
    )
    rc = main(["run", "--topology", str(topo), "--scenario", "many_requests", "--ues", "20"])
    out, err = capsys.readouterr()
    assert (rc, err) == (0, "")
    for k in range(1, 21):
        # the declared UE is UE, the spawned ones UE002 onwards
        line = f"transfer UE{k:03d} document ".replace("UE001", "UE")
        if k < 14:
            assert line + "ok " in out
        else:
            assert (
                line + "failed segments=0 bytes=0 ms=0"
                " error=no active session (UE address pool exhausted)\n"
            ) in out


def _stray_keepalive_answer(monkeypatch):
    """At t=100 the gNB sends the AMF a keepalive answer, which the AMF does
    not handle and logs at debug level."""
    boot = Testbed.boot

    def boot_and_stray(tb):
        boot(tb)
        gnb, amf = tb.gnbs[0], tb.amfs[0]
        tb.net.schedule(100, lambda: gnb.send(amf.name, MsgKind.NGAP_KEEPALIVE_RESP, result="OK"))

    monkeypatch.setattr(Testbed, "boot", boot_and_stray)


def test_stderr_carries_no_debug_lines_by_default(monkeypatch, capsys):
    _stray_keepalive_answer(monkeypatch)
    assert main(["run", "--duration-ms", "3000"]) == 0
    assert capsys.readouterr().err == ""


def test_log_level_debug_shows_the_package_debug_lines(monkeypatch, capsys):
    _stray_keepalive_answer(monkeypatch)
    assert main(["--log-level", "debug", "run", "--duration-ms", "3000"]) == 0
    out, err = capsys.readouterr()
    assert err == "DEBUG fivegsim.core_cp: AMF: unhandled NGAP NGAP_KEEPALIVE_RESP\n"
    assert "DEBUG" not in out
    # the level does not outlive the command
    assert main(["run", "--duration-ms", "3000"]) == 0
    assert capsys.readouterr().err == ""


def test_unknown_scenario_rejected_by_the_parser(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--scenario", "coffee_break"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_unknown_subcommand_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
