"""Acceptance battery: eleven numbered end-to-end guarantees.

Each test checks one behavioural criterion at a stated tolerance and asserts
its own wall budget. Expensive runs are built lazily and shared, so the
first test that needs a run also pays for it inside its budget.
"""
import random
import time

import tlv_elements
from fivegsim.config import ScenarioSpec, default_topology
from fivegsim.messages import MsgKind, Tag, build, parse
from fivegsim.nwdaf import (
    export_events_text,
    import_events,
    write_kpi_counts_csv,
    write_throughput_csv,
)
from fivegsim.runner import Testbed, run_reliability_measurement, run_scenario
from fivegsim.simnet import DELIVERED
from fivegsim.urllc import Redundancy
from fivegsim.validation import REGISTRATION_CHAIN, validate_sequences
from fivegsim.wirefmt import (
    Protocol,
    SimPacket,
    WireFormatError,
    decode_packet,
    encode_packet,
    gtpu_decapsulate,
    gtpu_encapsulate,
)

SCALES = (1, 10, 100, 500)
CONTROL_NFS = ("AUSF", "NSSF", "PCF")
HEARTBEAT_PAIRS = (
    ("AUSF", "NRF"), ("NRF", "AUSF"),
    ("NSSF", "NRF"), ("NRF", "NSSF"),
    ("PCF", "NRF"), ("NRF", "PCF"),
)

TABLE_ENTITIES = [
    ("NRF", "NRF", "192.168.0.12"),
    ("AMF", "AMF", "192.168.0.13"),
    ("SMF", "SMF", "192.168.0.14"),
    ("AUSF", "AUSF", "192.168.0.15"),
    ("UDM", "UDM", "192.168.0.16"),
    ("UDR", "UDR", "192.168.0.17"),
    ("PCF", "PCF", "192.168.0.18"),
    ("NSSF", "NSSF", "192.168.0.19"),
    ("BSF", "BSF", "192.168.0.20"),
    ("UPF", "UPF1", "192.168.0.21"),
    ("GNB", "gNB", "192.168.0.22"),
    ("UE", "UE", "192.168.0.30"),
    ("UPF", "UPF2", "192.168.0.32"),
]

_scaled = {}
_single = {}
_reliability = {}


def scaled_run(n: int):
    if n not in _scaled:
        _scaled[n] = run_scenario(ScenarioSpec(name="many_requests", ue_count=n, seed=7))
    return _scaled[n]


def single_run():
    if "run" not in _single:
        _single["run"] = run_scenario(ScenarioSpec(name="single_request", seed=101))
    return _single["run"]


def reliability(mode: Redundancy):
    if mode not in _reliability:
        _reliability[mode] = run_reliability_measurement(mode, 0.1, 10_000, seed=2026)
    return _reliability[mode]


class Budget:
    """Context manager asserting the wrapped block stays under a wall budget."""

    def __init__(self, seconds: float):
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.monotonic() - self.t0
            assert elapsed < self.seconds, f"took {elapsed:.1f}s, budget {self.seconds}s"
        return False


def test_criterion_01_default_topology_and_upf_discovery():
    """default topology holds the 13 published entities and discovery sees 2 UPFs"""
    with Budget(1.0):
        topo = default_topology()
        triples = sorted((e.kind, e.name, e.ip) for e in topo.entities)
        assert triples == sorted(TABLE_ENTITIES)
        tb = Testbed(topo, seed=0)
        tb.boot()
        tb.run_until(100)
        found = tb.nrf.profiles_of("UPF")
        assert [p.nf_id for p in found] == ["UPF1", "UPF2"]


def test_criterion_02_idle_window_is_heartbeat_only():
    """idle 10s window: UE count 0 and AUSF = NSSF = PCF = 3 heartbeats"""
    with Budget(5.0):
        result = run_scenario(ScenarioSpec(name="idle", duration_ms=10_000, seed=13))
        counts = result.kpi_counts
        assert counts["UE"] == 0
        assert [counts[nf] for nf in CONTROL_NFS] == [3, 3, 3]


def test_criterion_03_control_plane_counts_do_not_scale_with_load():
    """AUSF/NSSF/PCF in-window counts identical for 1 and 500 requesting UEs"""
    with Budget(30.0):
        one, five_hundred = scaled_run(1), scaled_run(500)
        for nf in CONTROL_NFS:
            assert one.kpi_counts[nf] == five_hundred.kpi_counts[nf], nf


def test_criterion_04_data_path_counts_scale_linearly():
    """UE-side counts scale as N x count(1) within 1%; server ratio constant"""
    with Budget(60.0):
        def ue_side(run):
            return sum(run.kpi_counts[ue.name] for ue in run.testbed.ues)

        base_ue = ue_side(scaled_run(1))
        base_server = scaled_run(1).kpi_counts["SERVER"]
        assert base_ue > 0 and base_server > 0
        base_ratio = base_server / base_ue
        for n in SCALES:
            run = scaled_run(n)
            ue_total = ue_side(run)
            assert abs(ue_total - n * base_ue) <= 0.01 * n * base_ue, n
            ratio = run.kpi_counts["SERVER"] / ue_total
            assert abs(ratio - base_ratio) <= 0.01 * base_ratio, n


def test_criterion_05_six_stage_ordering_for_every_request():
    """per request: RLS up, GTP up, server, response, GTP down, RLS down in order"""
    with Budget(10.0):
        run = scaled_run(10)
        delivered = [r for r in run.testbed.records if r.outcome == DELIVERED]
        checked = 0
        for ue in run.testbed.ues:
            assert ue.transfers and all(t.ok for t in ue.transfers), ue.name
            ue_ip = ue.session.ue_ip
            dl_teids = {p.teid_dl for p in ue.session.paths}
            stages = (
                lambda r: r.protocol is Protocol.RLS and r.src == ue.name
                and r.attrs.get("app_kind") == "APP_GET",
                lambda r: r.protocol is Protocol.GTPU
                and r.attrs.get("ue_id") == ue.imsi and r.attrs.get("inner") == "APP_GET",
                lambda r: r.protocol is Protocol.APP and r.dst == "SERVER"
                and r.attrs.get("src_ip") == ue_ip,
                lambda r: r.protocol is Protocol.APP and r.src == "SERVER"
                and r.attrs.get("ue_ip") == ue_ip,
                lambda r: r.protocol is Protocol.GTPU
                and int(r.attrs.get("teid", "-1")) in dl_teids,
                lambda r: r.protocol is Protocol.RLS and r.dst == ue.name
                and r.attrs.get("msg_kind") == "RLS_DATA",
            )
            first = [min(r.ts for r in delivered if want(r)) for want in stages]
            assert first == sorted(first) and len(set(first)) == 6, (ue.name, first)
            checked += 1
        assert checked == 10


def test_criterion_06_validation_checks_localize_mutations():
    """nominal log passes 6/6; each evidence deletion fails exactly its check"""
    with Budget(10.0):
        events = single_run().events
        nominal = validate_sequences(events)
        assert all(r.passed for r in nominal), [r.line() for r in nominal]

        def drop_kinds(kinds):
            return [e for e in events if e.attrs.get("msg_kind") not in kinds]

        mutations = {
            "sbi_registration": drop_kinds({"NF_STATUS_NOTIFY"}),
            "pfcp_association": drop_kinds({"PFCP_ASSOC_REQ", "PFCP_ASSOC_RESP"}),
            "ngap_setup_order": drop_kinds({"NGAP_SETUP_REQ", "NGAP_SETUP_RESP"}),
            "heartbeat_cadence": drop_kinds({"NF_HEARTBEAT_REQ", "NF_HEARTBEAT_RESP"}),
            "registration_chain": drop_kinds(set(REGISTRATION_CHAIN)),
            "user_plane_routing": [
                e for e in events if e.protocol not in (Protocol.GTPU, Protocol.APP)
            ],
        }
        for target, mutated in mutations.items():
            failed = {r.name for r in validate_sequences(mutated) if not r.passed}
            assert failed == {target}, (target, failed)


def test_criterion_07_redundancy_reliability_bounds():
    """at p=0.1 over 10k packets: single path loses ~0.10, replicated ~0.01"""
    with Budget(60.0):
        none = reliability(Redundancy.NONE)
        assert none.sent == 10_000
        assert abs(none.observed_loss - 0.10) <= 0.01, none.observed_loss
        for mode in (Redundancy.N3_REPLICATION, Redundancy.PSA_ANCHOR):
            run = reliability(mode)
            assert abs(run.observed_loss - 0.01) <= 0.005, (mode, run.observed_loss)
        assert reliability(Redundancy.DUAL_CONNECTIVITY).paths_disjoint is True


def test_criterion_08_throughput_scales_on_data_not_heartbeats():
    """UE-gNB aggregate throughput grows 1 to 500 UEs; heartbeat pairs equal"""
    with Budget(60.0):
        one, five_hundred = scaled_run(1), scaled_run(500)

        def ue_gnb_aggregate(run):
            kinds = {name: e.kind for name, e in run.testbed.net.entities.items()}
            return sum(
                bps
                for (src, dst), bps in run.throughput.items()
                if {kinds[src], kinds[dst]} == {"UE", "GNB"}
            )

        assert ue_gnb_aggregate(five_hundred) > ue_gnb_aggregate(one)
        for pair in HEARTBEAT_PAIRS:
            assert one.throughput[pair] == five_hundred.throughput[pair], pair


def test_criterion_09_kpis_match_brute_force_recount(tmp_path):
    """exported log recounted naively reproduces the KPI CSVs byte for byte"""
    with Budget(10.0):
        run = single_run()
        run.write_artifacts(tmp_path)
        events = import_events(tmp_path / "events.log")
        assert len(events) <= 10_000
        t0, t1 = run.window
        counts = {name: 0 for name in run.testbed.net.entities}
        flows = {}
        for ev in events:
            wire = not ev.link_id.startswith("local:")
            if ev.outcome != "DELIVERED" or not wire or not t0 <= ev.ts < t1:
                continue
            if ev.src in counts:
                counts[ev.src] += 1
            key = (ev.src, ev.dst)
            flows[key] = flows.get(key, 0) + ev.size
        seconds = (t1 - t0) / 1000.0
        throughput = {key: total / seconds for key, total in flows.items()}
        assert counts == run.kpi_counts
        assert throughput == run.throughput
        write_kpi_counts_csv(tmp_path / "recount.csv", counts)
        write_throughput_csv(tmp_path / "reflow.csv", throughput)
        assert (tmp_path / "recount.csv").read_bytes() == (tmp_path / "kpi_counts.csv").read_bytes()
        assert (tmp_path / "reflow.csv").read_bytes() == (tmp_path / "kpi_throughput.csv").read_bytes()


def test_criterion_10_codec_round_trips_and_decoder_totality():
    """10k+ random round-trips for packets, tunnels, TLVs; 10k-buffer fuzz"""
    with Budget(60.0):
        rng = random.Random(20260816)

        def rand_ip():
            return ".".join(str(rng.randrange(256)) for _ in range(4))

        protocols = list(Protocol)
        for _ in range(4000):
            pkt = SimPacket(
                protocol=rng.choice(protocols),
                src_ip=rand_ip(),
                dst_ip=rand_ip(),
                src_port=rng.randrange(65536),
                dst_port=rng.randrange(65536),
                payload=rng.randbytes(rng.randrange(300)),
            )
            assert decode_packet(encode_packet(pkt)) == pkt

        for _ in range(4000):
            inner = rng.randbytes(rng.randrange(1, 200))
            teid = rng.randrange(1, 1 << 32)
            seq = rng.randrange(1 << 16) if rng.random() < 0.5 else None
            assert gtpu_decapsulate(gtpu_encapsulate(inner, teid, seq)) == (inner, teid, seq)

        kinds, tags = list(MsgKind), list(Tag)
        for _ in range(4000):
            # any tag, repeats included; parse keeps the first value of each
            kind = rng.choice(kinds)
            elements = [
                (rng.choice(tags) if rng.random() < 0.8 else rng.randrange(1 << 16),
                 rng.randbytes(rng.randrange(40)))
                for _ in range(rng.randrange(6))
            ]
            raw = tlv_elements.encode(kind, elements)
            first = {}
            for tag, value in elements:
                first.setdefault(tag, value)
            msg = parse(raw)
            assert msg.kind is kind and {tag: msg.raw(tag) for tag in first} == first
            if len(first) == len(elements) and all(tag in tags for tag in first):
                assert build(kind, **{Tag(tag).name.lower(): v for tag, v in elements}) == raw

        crashes = 0
        for _ in range(10_000):
            buf = rng.randbytes(rng.randrange(64))
            for decoder in (decode_packet, gtpu_decapsulate, parse):
                try:
                    decoder(buf)
                except WireFormatError:
                    pass
                except Exception:
                    crashes += 1
        assert crashes == 0


def test_criterion_11_identical_seeds_reproduce_logs_byte_for_byte():
    """same scenario and seed twice: exported event logs are byte-identical"""
    with Budget(60.0):
        again = run_scenario(ScenarioSpec(name="single_request", seed=101))
        assert export_events_text(again.events) == export_events_text(single_run().events)

        ten_again = run_scenario(ScenarioSpec(name="many_requests", ue_count=10, seed=7))
        assert export_events_text(ten_again.events) == export_events_text(scaled_run(10).events)

        idle_a = run_scenario(ScenarioSpec(name="idle", duration_ms=3000, seed=99))
        idle_b = run_scenario(ScenarioSpec(name="idle", duration_ms=3000, seed=99))
        assert export_events_text(idle_a.events) == export_events_text(idle_b.events)
