"""Import schema, KPI math, and the event-log round trip."""
import pytest

from fivegsim.errors import SetupError
from fivegsim.nwdaf import (
    KpiReport,
    SchemaError,
    export_events,
    export_events_text,
    import_events,
    import_events_text,
    kpi_packet_counts,
    kpi_throughput_matrix,
    validate_event_fields,
    write_kpi_counts_csv,
    write_throughput_csv,
)
from fivegsim.runner import Testbed
from fivegsim.config import default_topology
from fivegsim.simnet import DELIVERED, DROPPED, Entity, Network, TapRecord
from fivegsim.wirefmt import Protocol, SimPacket

GOOD = dict(
    ts=10, link_id="AMF|NRF", src="AMF", dst="NRF",
    protocol="SBI", size=40, outcome=DELIVERED, attrs={"msg_kind": "NF_REGISTER_REQ"},
)


def ev(event_id=1, **over):
    merged = {**GOOD, **over}
    merged["protocol"] = Protocol[merged["protocol"]]
    return TapRecord(event_id=event_id, **merged)


# -- field validation --------------------------------------------------------------

def test_good_fields_pass():
    validate_event_fields(**GOOD)


@pytest.mark.parametrize(
    "over,message",
    [
        (dict(ts=-1), "non-negative"),
        (dict(ts=True), "non-negative"),
        (dict(ts="5"), "non-negative"),
        (dict(link_id=""), "non-empty"),
        (dict(src="A\nF"), "forbidden whitespace"),
        (dict(dst="B\tC"), "forbidden whitespace"),
        (dict(protocol="QUIC"), "unknown protocol"),
        (dict(size=-4), "non-negative"),
        (dict(size=True), "non-negative"),
        (dict(outcome="LOST"), "unknown outcome"),
        (dict(attrs={"a=b": "x"}), "reserved character"),
        (dict(attrs={"a,b": "x"}), "reserved character"),
        (dict(attrs={"k": "x,y"}), "reserved character"),
        (dict(attrs={"k": "x\ty"}), "reserved character"),
        (dict(attrs={"k": 7}), "non-string"),
        (dict(attrs={"": "x"}), "non-empty"),
    ],
)
def test_bad_fields_rejected(over, message):
    with pytest.raises(SchemaError, match=message):
        validate_event_fields(**{**GOOD, **over})


# -- the fabric's log ----------------------------------------------------------------

def gnb_upf_net():
    net = Network()
    for name, ip in (("gNB", "10.0.0.1"), ("UPF1", "10.0.0.2")):
        net.add_entity(Entity(name, ip, net))
    return net, net.add_link("gNB", "UPF1", 1)


def test_ingest_tap_sanitizes_reserved_characters():
    net, link = gnb_upf_net()
    net.tap_local("UPF1", 20, Protocol.GTPU, DROPPED, src="gNB",
                  attrs={"reason": "bad teid,\ttry\ragain\n"})
    net.send(link, "gNB", SimPacket(Protocol.GTPU, "10.0.0.1", "10.0.0.2", 2152, 2152),
             attrs={"ue_id": "imsi,1\t"})
    assert net.events[0].attrs == {"reason": "bad teid; try again "}
    assert net.events[1].attrs["ue_id"] == "imsi;1 "
    text = export_events_text(net.events)
    assert import_events_text(text) == net.events
    assert export_events_text(import_events_text(text)) == text


def test_ingest_tap_copies_attrs():
    net, link = gnb_upf_net()
    local = {"k": "v"}
    sent = {"k": "v"}
    net.tap_local("UPF1", 1, Protocol.APP, DELIVERED, src="gNB", attrs=local)
    net.send(link, "gNB", SimPacket(Protocol.GTPU, "10.0.0.1", "10.0.0.2", 2152, 2152),
             attrs=sent)
    local["k"] = sent["k"] = "changed"  # the log holds its own copies
    assert [e.attrs["k"] for e in net.events] == ["v", "v"]


# -- KPI math ----------------------------------------------------------------------

@pytest.fixture()
def sample_events():
    return [
        ev(1, ts=10, src="A", dst="B", size=100),
        ev(2, ts=20, src="B", dst="A", size=50),
        ev(3, ts=30, src="A", dst="B", size=100, outcome=DROPPED),
        ev(4, ts=40, src="A", dst="C", size=10, link_id="local:A"),  # non-wire
        ev(5, ts=990, src="C", dst="A", size=30),
        ev(6, ts=1000, src="A", dst="B", size=100),  # at t1: excluded
    ]


def test_packet_counts_src_only(sample_events):
    counts = kpi_packet_counts(sample_events, 0, 1000)
    assert counts == {"A": 1, "B": 1, "C": 1}


def test_packet_counts_src_or_dst_credits_both_ends(sample_events):
    counts = kpi_packet_counts(sample_events, 0, 1000, semantics="src_or_dst")
    assert counts == {"A": 3, "B": 2, "C": 1}
    wire_delivered = 3
    assert sum(counts.values()) == 2 * wire_delivered


def test_packet_counts_entity_roster_restricts_and_zero_fills(sample_events):
    counts = kpi_packet_counts(sample_events, 0, 1000, entities=["A", "D"])
    assert counts == {"A": 1, "D": 0}


def test_packet_counts_window_is_half_open(sample_events):
    assert kpi_packet_counts(sample_events, 10, 11) == {"A": 1}
    assert kpi_packet_counts(sample_events, 11, 990) == {"B": 1}


def test_packet_counts_rejects_bad_args(sample_events):
    with pytest.raises(ValueError, match="semantics"):
        kpi_packet_counts(sample_events, 0, 10, semantics="dst_only")
    with pytest.raises(ValueError, match="bad window"):
        kpi_packet_counts(sample_events, 10, 9)
    assert kpi_packet_counts(sample_events, 10, 10) == {}


def test_throughput_matrix_math(sample_events):
    matrix = kpi_throughput_matrix(sample_events, 0, 1000)
    # one second window: bytes per second equals summed bytes
    assert matrix == {("A", "B"): 100.0, ("B", "A"): 50.0, ("C", "A"): 30.0}
    half = kpi_throughput_matrix(sample_events, 0, 500)
    assert half[("A", "B")] == pytest.approx(200.0)


def test_throughput_matrix_rejects_empty_window(sample_events):
    with pytest.raises(ValueError, match="bad window"):
        kpi_throughput_matrix(sample_events, 10, 10)


def test_kpi_report_total():
    rep = KpiReport(kind="packet_counts", window=(0, 10), entries=(("A", 2), ("B", 3)))
    assert rep.total == 5


# -- log round trip ------------------------------------------------------------------

def logged_traffic():
    return [
        ev(1),
        ev(2, ts=12, link_id="local:UPF1", src="gNB", dst="UPF1",
           protocol="GTPU", size=64, outcome=DROPPED,
           attrs={"reason": "unknown teid", "teid": "9"}),
        ev(3, ts=12, link_id="UE|gNB", src="UE", dst="gNB",
           protocol="RLS", size=120, outcome=DELIVERED, attrs={}),
    ]


def test_export_import_round_trip_is_lossless():
    events = logged_traffic()
    text = export_events_text(events)
    again = import_events_text(text)
    assert again == events
    assert export_events_text(again) == text


def test_export_format_is_exact():
    text = export_events_text([ev(1)])
    assert text == (
        "# id\tts\tlink_id\tsrc\tdst\tprotocol\tsize\toutcome\tattrs\n"
        "1\t10\tAMF|NRF\tAMF\tNRF\tSBI\t40\tDELIVERED\tmsg_kind=NF_REGISTER_REQ\n"
    )


def test_empty_attrs_serialize_as_dash():
    line = export_events_text([ev(1, attrs={})]).splitlines()[1]
    assert line.endswith("\tDELIVERED\t-")


def test_attrs_serialize_sorted_by_key():
    line = export_events_text([ev(1, attrs={"z": "1", "a": "2"})]).splitlines()[1]
    assert line.endswith("\ta=2,z=1")


def test_file_round_trip(tmp_path):
    events = logged_traffic()
    path = tmp_path / "events.log"
    export_events(events, path)
    assert import_events(path) == events


@pytest.mark.parametrize(
    "mutate,message",
    [
        (lambda lines: lines[1].rsplit("\t", 1)[0], "expected 9 columns"),
        (lambda lines: lines[1] + "\textra", "expected 9 columns"),
        (lambda lines: lines[1].replace("1\t10", "x\t10", 1), "non-integer"),
        (lambda lines: lines[1].replace("DELIVERED\tmsg_kind=NF_REGISTER_REQ", "DELIVERED\tmsg_kind"), "malformed attr"),
        (lambda lines: lines[1].replace("\tSBI\t", "\tICMP\t"), "unknown protocol"),
    ],
)
def test_import_rejects_malformed_lines(mutate, message):
    lines = export_events_text([ev(1)]).splitlines()
    lines[1] = mutate(lines)
    with pytest.raises(SchemaError, match=message):
        import_events_text("\n".join(lines))


def test_import_rejects_broken_order():
    lines = export_events_text(logged_traffic()).splitlines()
    dupid = "\n".join([lines[0], lines[1], lines[1]])
    with pytest.raises(SchemaError, match="not increasing"):
        import_events_text(dupid)
    swapped = "\n".join([lines[0], lines[2].replace("2\t12", "1\t12", 1),
                        lines[1].replace("1\t10", "2\t10", 1)])
    with pytest.raises(SchemaError, match="time went backwards"):
        import_events_text(swapped)


def test_import_reports_offending_line_number():
    text = "# header\nnot a record\n"
    with pytest.raises(SchemaError, match="line 2"):
        import_events_text(text)


def test_import_skips_comments_and_blank_lines():
    body = export_events_text([ev(1)])
    assert import_events_text("# extra comment\n\n" + body) == [ev(1)]


# -- CSV writers ----------------------------------------------------------------------

def test_counts_csv_exact_bytes(tmp_path):
    path = tmp_path / "counts.csv"
    write_kpi_counts_csv(path, {"UE": 4, "AMF": 2})
    assert path.read_text() == "entity,packets\nAMF,2\nUE,4\n"


def test_throughput_csv_exact_bytes(tmp_path):
    path = tmp_path / "tp.csv"
    write_throughput_csv(path, {("B", "A"): 1.5, ("A", "B"): 12.0})
    assert path.read_text() == "src,dst,bytes_per_s\nA,B,12.000000\nB,A,1.500000\n"


# -- embedded analytics entity ----------------------------------------------------------

def test_subscription_guards():
    tb = Testbed(default_topology(), seed=0)
    nwdaf = tb.nwdaf
    with pytest.raises(SetupError, match="before registration"):
        nwdaf.subscribe_analytics("AMF")
    nwdaf.registered = True
    with pytest.raises(SetupError, match="unsupported analytics kind"):
        nwdaf.subscribe_analytics("AMF", kind="latency")
    with pytest.raises(SetupError, match="period must be positive"):
        nwdaf.subscribe_analytics("AMF", period_ms=0)


def test_periodic_kpi_feed_reaches_subscriber():
    tb = Testbed(default_topology(), seed=0)
    tb.boot()
    tb.run_until(500)
    tb.nwdaf.subscribe_analytics("PCF", period_ms=200)
    tb.run_until(1500)
    notifies = [
        r for r in tb.records
        if r.attrs.get("msg_kind") == "KPI_NOTIFY" and r.src == "NWDAF" and r.dst == "PCF"
    ]
    assert len(notifies) == 5  # fires at 700, 900, 1100, 1300, 1500
    assert all(r.outcome == DELIVERED for r in notifies)


def test_tap_feed_fills_the_store_during_a_run():
    tb = Testbed(default_topology(), seed=0)
    tb.boot()
    tb.run_until(200)
    store = tb.nwdaf.store
    assert store.events is tb.records
    assert len(store.events) > 0
    assert store.rejected == 0
    kinds = {e.attrs.get("msg_kind") for e in store.events}
    assert "NF_REGISTER_REQ" in kinds
