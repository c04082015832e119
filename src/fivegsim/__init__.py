"""Deterministic desk-scale mobile core simulator.

One package, four layers: wire formats (`wirefmt`), the event fabric
(`simnet`), the network functions (`core_cp`, `user_plane`, `ran_ue`,
`nwdaf`) and the scenario drivers (`runner`, `validation`, `cli`). A
(topology, scenario, seed) triple fully determines every packet.
"""

from .config import (
    ConfigError,
    Params,
    ScenarioSpec,
    TopologyConfig,
    default_topology,
    load_topology,
    parse_topology,
    with_link_loss,
    with_second_gnb,
)
from .errors import FivegsimError, FlowError
from .nwdaf import (
    EventStore,
    SchemaError,
    export_events,
    import_events,
    kpi_packet_counts,
    kpi_throughput_matrix,
)
from .runner import RunResult, Testbed, run_reliability_measurement, run_scenario
from .simnet import (
    DELIVERED,
    DROPPED,
    ELIMINATED_DUPLICATE,
    Network,
    SimNetError,
    TapRecord,
)
from .urllc import DedupWindow, Redundancy, ReliabilityResult, seq_newer
from .validation import CheckResult, all_passed, validate_sequences
from .wirefmt import (
    Protocol,
    SimPacket,
    WireFormatError,
    decode_packet,
    encode_packet,
    gtpu_decapsulate,
    gtpu_encapsulate,
)

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "ConfigError",
    "DELIVERED",
    "DROPPED",
    "DedupWindow",
    "ELIMINATED_DUPLICATE",
    "EventStore",
    "FivegsimError",
    "FlowError",
    "Network",
    "Params",
    "Protocol",
    "Redundancy",
    "ReliabilityResult",
    "RunResult",
    "ScenarioSpec",
    "SchemaError",
    "SimNetError",
    "SimPacket",
    "TapRecord",
    "Testbed",
    "TopologyConfig",
    "WireFormatError",
    "all_passed",
    "decode_packet",
    "default_topology",
    "encode_packet",
    "export_events",
    "gtpu_decapsulate",
    "gtpu_encapsulate",
    "import_events",
    "kpi_packet_counts",
    "kpi_throughput_matrix",
    "load_topology",
    "parse_topology",
    "run_reliability_measurement",
    "run_scenario",
    "seq_newer",
    "validate_sequences",
    "with_link_loss",
    "with_second_gnb",
]
