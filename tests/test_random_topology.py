"""Random topologies through the command line.

Each example mutates the built-in topology: it drops entities (with or
without their links) and links, changes latencies, loss and reliable flags,
copies an entity with its links, sets one param to an edge value or replaces
the document list. A random scenario and redundancy mode then run on it
through `cli.main`. Whatever the file holds, the run ends with exit 0, 1 or
2 and no traceback, and a topology config accepts never aborts a run: exit 1
means a failed check (validate) or a reliability run without a session
(urllc_sweep). `fivegsim validate` on a validate run's exported log prints
the run's check lines.
"""
import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fivegsim.cli import main
from fivegsim.config import SCENARIO_NAMES, default_topology
from fivegsim.urllc import Redundancy

# param -> values at or just past an edge of what Params accepts or a run can
# serve; none makes a run slow (no 1 ms heartbeat, no 1-byte segment of the
# built-in document)
_EDGES = {
    "sbi_port": (0, 1, 65535, 65536),
    "heartbeat_ms": (0, 100, 10**9),
    "segment_bytes": (0, 1000, 65485, 65486),
    "settle_ms": (0, 1, 5000),
    "ue_pool": ("10.45.0.0/30", "10.45.0.0/32", "192.168.0.0/24", "10.45.0.0/99"),
    "app_server_ip": ("192.168.0.12", "10.45.0.1", "192.168.0.99"),
    "nwdaf_ip": ("192.168.0.40", "192.168.0.255"),
    "app_port": (0, 65535),
    "gtpu_port": (1, 65536),
    "pfcp_port": (65535,),
    "ngap_port": (0,),
    "rls_port": (1,),
}


def _drop_entity(data, topo):
    if topo["entities"]:
        _, name, _ = topo["entities"].pop(data.draw(st.integers(0, len(topo["entities"]) - 1)))
        if data.draw(st.booleans(), label="with its links"):
            topo["links"] = [l for l in topo["links"] if name not in l[:2]]


def _copy_entity(data, topo):
    if topo["entities"]:
        kind, name, _ = data.draw(st.sampled_from(topo["entities"]))
        copy = f"{name}_{len(topo['entities'])}"
        topo["entities"].append((kind, copy, f"192.168.0.{100 + len(topo['entities'])}"))
        topo["links"] += [
            [copy if end == name else end for end in l[:2]] + l[2:] for l in topo["links"] if name in l[:2]
        ]


def _edit_link(data, topo):
    if topo["links"]:
        link = topo["links"][data.draw(st.integers(0, len(topo["links"]) - 1))]
        column, value = data.draw(st.one_of(
            st.tuples(st.just(2), st.integers(-1, 60)),
            st.tuples(st.just(3), st.sampled_from([0.0, 0.1, 0.5, 1.0, 1.5, float("nan")])),
            st.tuples(st.just(4), st.booleans()),
        ))
        link[column] = value


def _drop_link(data, topo):
    if topo["links"]:
        topo["links"].pop(data.draw(st.integers(0, len(topo["links"]) - 1)))


def _edge_param(data, topo):
    key = data.draw(st.sampled_from(sorted(_EDGES)))
    topo["params"][key] = data.draw(st.sampled_from(_EDGES[key]))


def _replace_documents(data, topo):
    topo["documents"] = data.draw(st.lists(st.tuples(
        st.sampled_from(["document", "d2"]), st.sampled_from([0, 1, 4096, 200000])
    ), max_size=2))


_MUTATIONS = (_drop_entity, _copy_entity, _edit_link, _drop_link, _edge_param, _replace_documents)


def _text(topo) -> str:
    return "".join([
        "[entities]\n", *(f"{kind},{name},{ip}\n" for kind, name, ip in topo["entities"]),
        "[links]\n", *(f"{a},{b},{lat},{loss},{str(rel).lower()}\n" for a, b, lat, loss, rel in topo["links"]),
        "[subscribers]\n", *(f"{imsi}\n" for imsi in topo["subscribers"]),
        "[documents]\n", *(f"{doc},{size}\n" for doc, size in topo["documents"]),
        "[params]\n", *(f"{key}={value}\n" for key, value in topo["params"].items()),
    ])


def _cli(*argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def _checks(output: str) -> list[str]:
    return [line for line in output.splitlines() if line.startswith(("PASS ", "FAIL "))]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.data(),
    st.sampled_from(SCENARIO_NAMES),
    st.sampled_from([mode.name.lower() for mode in Redundancy]),
    st.integers(0, 3),
)
def test_a_mutated_topology_exits_0_1_or_2_without_a_traceback(data, scenario, mode, ues):
    built_in = default_topology()
    topo = {
        "entities": [tuple(e[:3]) for e in built_in.entities],
        "links": [list(l) for l in built_in.links],
        "subscribers": list(built_in.subscribers),
        "documents": list(built_in.documents.items()),
        "params": {},
    }
    for mutate in data.draw(st.lists(st.sampled_from(_MUTATIONS), min_size=1, max_size=3)):
        mutate(data, topo)
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp, "topology.cfg"), Path(tmp, "out")
        path.write_text(_text(topo))
        rc, stdout, stderr = _cli(
            "run", "--topology", str(path), "--scenario", scenario, "--redundancy", mode,
            "--ues", str(ues), "--duration-ms", "3000", "--out", str(out),
        )
        assert rc in (0, 1, 2), stderr
        assert "Traceback" not in stderr
        if rc == 1:
            assert _checks(stdout) if scenario == "validate" else scenario == "urllc_sweep", stderr
        if scenario == "validate" and (out / "events.log").exists():
            _, replayed, _ = _cli("validate", "--events", str(out / "events.log"), "--topology", str(path))
            assert _checks(replayed) == _checks(stdout)
