"""Golden events.log digests: fixed runs must export the same bytes."""
import hashlib
from pathlib import Path

import pytest

from fivegsim.config import ScenarioSpec
from fivegsim.nwdaf import export_events_text
from fivegsim.runner import run_scenario

VECTORS = Path(__file__).parent / "vectors" / "events_log_sha256.txt"


def load_digests() -> list[tuple[str, int, str]]:
    out = []
    for line in VECTORS.read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            scenario, ues, digest = line.split()
            out.append((scenario, int(ues), digest))
    return out


@pytest.mark.parametrize("scenario,ues,digest", load_digests())
def test_events_log_matches_golden_digest(scenario, ues, digest):
    run = run_scenario(ScenarioSpec(name=scenario, ue_count=ues, seed=0))
    # one log per run: the fabric's list is what every reader sees
    assert run.events is run.testbed.records is run.testbed.nwdaf.store.events
    text = export_events_text(run.events)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
