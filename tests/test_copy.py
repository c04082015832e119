"""A settled testbed is a value: it pickles and deep-copies, and a copy runs on
as the original does, without touching the original."""
import copy
import pickle

import pytest

from fivegsim.config import default_topology
from fivegsim.nwdaf import export_events_text
from fivegsim.runner import _bring_up
from fivegsim.urllc import Redundancy


def run_on(tb, horizon: int) -> str:
    """Give the testbed's UE a document request and a data burst, run it to
    `horizon` and return its exported log."""
    (ue,) = tb.ues
    ue.request_document("document")
    ue.send_data_burst(40, interval_ms=2)
    tb.run_checked(horizon)
    return export_events_text(tb.records)


@pytest.mark.parametrize("loss", [0.0, 0.1])
@pytest.mark.parametrize("mode", list(Redundancy))
def test_a_settled_testbed_copies_and_runs_on_as_the_original(mode, loss):
    """pickle refuses a lambda, a local function and a generator, so none is
    reachable from the testbed: not on its clock, not in its SMF."""
    tb, _, settle = _bring_up(default_topology(), 1, mode, 1, loss)
    tb.run_until(settle)
    settled = export_events_text(tb.records)
    pickled, deep = pickle.loads(pickle.dumps(tb)), copy.deepcopy(tb)
    horizon = settle + 200
    copies = [run_on(pickled, horizon), run_on(deep, horizon)]
    assert export_events_text(tb.records) == settled  # running a copy leaves the original alone
    assert copies == [run_on(tb, horizon)] * 2
    assert tb.ues[0].transfers[0].ok and tb.server.data_received
