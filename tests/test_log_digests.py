"""Golden events.log digests: fixed runs must export the same bytes."""
import hashlib
from pathlib import Path

import pytest

from fivegsim.config import ScenarioSpec, default_topology, with_link_loss
from fivegsim.nwdaf import export_events_text
from fivegsim.runner import run_scenario
from fivegsim.urllc import Redundancy

VECTORS = Path(__file__).parent / "vectors" / "events_log_sha256.txt"


def load_digests() -> list:
    out = []
    for line in VECTORS.read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            scenario, ues, mode, loss, digest = line.split()
            # the digest alone tells the rows apart
            out.append(
                pytest.param(
                    scenario, int(ues), mode, float(loss), digest, id=f"{scenario}-{ues}-{digest}"
                )
            )
    return out


@pytest.mark.parametrize("scenario,ues,mode,loss,digest", load_digests())
def test_events_log_matches_golden_digest(scenario, ues, mode, loss, digest):
    topo = with_link_loss(default_topology(), loss) if loss else None
    spec = ScenarioSpec(name=scenario, ue_count=ues, redundancy=Redundancy[mode], seed=0)
    run = run_scenario(spec, topo=topo)
    # one log per run: the fabric's list is what every reader sees
    assert run.events is run.testbed.records is run.testbed.nwdaf.store.events
    text = export_events_text(run.events)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
