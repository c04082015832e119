"""Import schema, KPI math, and the event-log round trip."""
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fivegsim.nwdaf import (
    SchemaError,
    export_events,
    export_events_text,
    import_events,
    import_events_text,
    kpi_packet_counts,
    kpi_throughput_matrix,
    write_kpi_counts_csv,
    write_throughput_csv,
)
from fivegsim.runner import Testbed, run_scenario
from fivegsim.config import ScenarioSpec, default_topology
from fivegsim.simnet import _SCRUB, DELIVERED, DROPPED, OUTCOMES, Entity, Network, TapRecord
from fivegsim.wirefmt import Protocol, SimPacket

GOOD = dict(
    ts=10, link_id="AMF|NRF", src="AMF", dst="NRF",
    protocol="SBI", size=40, outcome=DELIVERED, attrs={"msg_kind": "NF_REGISTER_REQ"},
)


def ev(event_id=1, **over):
    merged = {**GOOD, **over}
    merged["protocol"] = Protocol[merged["protocol"]]
    return TapRecord(event_id=event_id, **merged)


# -- the fabric's log ----------------------------------------------------------------

def gnb_upf_net():
    net = Network()
    for name, ip in (("gNB", "10.0.0.1"), ("UPF1", "10.0.0.2")):
        net.add_entity(Entity(name, ip, net))
    net.add_link("gNB", "UPF1", 1)
    return net, net.hop("gNB", "UPF1")


def test_ingest_tap_sanitizes_reserved_characters():
    net, hop = gnb_upf_net()
    net.tap_local("UPF1", 20, Protocol.GTPU, DROPPED, src="gNB",
                  attrs={"reason": "bad teid,\ttry\ragain\n"})
    net.send(hop, SimPacket(Protocol.GTPU, "10.0.0.1", "10.0.0.2", 2152, 2152),
             attrs={"ue_id": "imsi,1\t"})
    assert net.events[0].attrs == {"reason": "bad teid; try again "}
    assert net.events[1].attrs["ue_id"] == "imsi;1 "
    text = export_events_text(net.events)
    assert import_events_text(text) == net.events
    assert export_events_text(import_events_text(text)) == text


def test_ingest_tap_copies_attrs():
    net, hop = gnb_upf_net()
    local = {"k": "v"}
    sent = {"k": "v"}
    net.tap_local("UPF1", 1, Protocol.APP, DELIVERED, src="gNB", attrs=local)
    net.send(hop, SimPacket(Protocol.GTPU, "10.0.0.1", "10.0.0.2", 2152, 2152),
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


def test_file_with_crlf_line_endings_is_rejected(tmp_path):
    path = tmp_path / "events.log"
    path.write_bytes(export_events_text(logged_traffic()).replace("\n", "\r\n").encode())
    with pytest.raises(SchemaError, match="line 1: carriage return"):
        import_events(path)


COLUMNS = ("id", "ts", "link_id", "src", "dst", "protocol", "size", "outcome", "attrs")


def row(**text):
    """The exported row of ev(1), with the named columns replaced by raw text."""
    cols = dict(zip(COLUMNS, export_events_text([ev(1)]).split("\n")[1].split("\t")))
    return "\t".join({**cols, **text}.values())


def test_good_fields_pass():
    assert import_events_text(export_events_text([]) + row() + "\n") == [ev(1)]


# the field rules of a row, each broken in log text; an id names the rule
@pytest.mark.parametrize(
    "over,message",
    [
        pytest.param(dict(ts="-1"), "non-integer", id="over0-non-negative"),
        pytest.param(dict(ts="True"), "non-integer", id="over1-non-negative"),
        pytest.param(dict(link_id=""), "non-empty", id="over3-non-empty"),
        pytest.param(dict(src="A\nF"), "expected 9 columns", id="over4-forbidden whitespace"),
        pytest.param(dict(dst="B\tC"), "expected 9 columns", id="over5-forbidden whitespace"),
        pytest.param(dict(protocol="QUIC"), "unknown protocol", id="over6-unknown protocol"),
        pytest.param(dict(size="-4"), "non-integer", id="over7-non-negative"),
        pytest.param(dict(size="True"), "non-integer", id="over8-non-negative"),
        pytest.param(dict(outcome="LOST"), "unknown outcome", id="over9-unknown outcome"),
        pytest.param(dict(attrs="a,b=x"), "malformed attr", id="over11-reserved character"),
        pytest.param(dict(attrs="k=x,y"), "malformed attr", id="over12-reserved character"),
        pytest.param(dict(attrs="k=x\ty"), "expected 9 columns", id="over13-reserved character"),
        pytest.param(dict(attrs="=x"), "malformed attr", id="over15-non-empty"),
    ],
)
def test_bad_fields_rejected(over, message):
    with pytest.raises(SchemaError, match=f"line 2: .*{message}"):
        import_events_text(export_events_text([]) + row(**over) + "\n")


@pytest.mark.parametrize(
    "mutate,message",
    [
        (lambda lines: lines[1].rsplit("\t", 1)[0], "expected 9 columns"),
        (lambda lines: lines[1] + "\textra", "expected 9 columns"),
        (lambda lines: lines[1].replace("1\t10", "x\t10", 1), "non-integer"),
        (lambda lines: lines[1].replace("DELIVERED\tmsg_kind=NF_REGISTER_REQ", "DELIVERED\tmsg_kind"), "malformed attr"),
        (lambda lines: lines[1].replace("\tSBI\t", "\tICMP\t"), "unknown protocol"),
        pytest.param(lambda _: row(src="A\rF"), "carriage return", id="carriage-return-in-src"),
        # integers have one spelling, so a row re-exports as itself
        pytest.param(lambda _: row(ts="010"), "non-canonical", id="leading-zero-ts"),
        pytest.param(lambda _: row(size="+40"), "non-canonical", id="signed-size"),
        pytest.param(lambda _: row(id="01"), "non-canonical", id="leading-zero-id"),
        pytest.param(lambda _: row(ts="1_0"), "non-canonical", id="underscore-ts"),
        pytest.param(lambda _: row(size="\u0664\u0660"), "non-canonical", id="arabic-indic-size"),
        pytest.param(lambda _: row(id="1" * 5000), "too long", id="id-past-int-limit"),
        # attr keys are sorted and unique
        pytest.param(lambda _: row(attrs="k=a,k=b"), "attr key 'k' not increasing", id="duplicate-attr-key"),
        pytest.param(lambda _: row(attrs="z=1,a=2"), "attr key 'a' not increasing", id="unsorted-attr-keys"),
        # a row with two faults fails the first check in import's order:
        # spelling, protocol, outcome, names, attrs, too long, id order, time order
        pytest.param(lambda _: row(ts="010", protocol="QUIC"), "non-canonical", id="spelling-before-protocol"),
        pytest.param(lambda _: row(size="1" * 5000, attrs="a"), "malformed attr", id="attrs-before-too-long"),
        pytest.param(
            lambda _: row(id="1" * 5000, attrs="z=1,a=2"), "attr key 'a' not increasing",
            id="attr-order-before-too-long",
        ),
    ],
)
def test_import_rejects_malformed_lines(mutate, message):
    lines = export_events_text([ev(1)]).splitlines()
    lines[1] = mutate(lines)
    with pytest.raises(SchemaError, match=f"line 2: .*{message}"):
        import_events_text("\n".join(lines))


def test_a_ts_or_size_met_before_is_still_checked_in_its_row():
    # the second row's ts and size are spellings the first row brought in
    rows = [ev(1, ts=5, size=40), ev(2, ts=40, size=5)]
    assert import_events_text(export_events_text(rows)) == rows
    with pytest.raises(SchemaError, match="line 3: time went backwards"):
        import_events_text(export_events_text([ev(1, ts=40, size=5), ev(2, ts=5, size=40)]))


# the log's separators, the other line breaks str.splitlines() knows, what
# else a row gives meaning to, and other spellings of digits
_CHARS = (
    "\t\n\r,=#-" + "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
    + "01+_ \u0664\u00b2" + "aZ|;:.\u00e9\u4e2d\U0001f600"
)
_EDIT_CHAR = st.sampled_from("\t\n\r,=#01+_ \u0664\x85\u2028aZ")
# text fields as the fabric logs them: through its scrub
_FIELD = st.text(_CHARS, min_size=1, max_size=8).map(lambda t: t.translate(_SCRUB))
_KEY = _FIELD.filter(lambda k: "=" not in k)
_VALUE = st.text(_CHARS, max_size=8).map(lambda t: t.translate(_SCRUB))


@st.composite
def _logs(draw, min_rows=0):
    rows = []
    event_id = ts = 0
    for _ in range(draw(st.integers(min_rows, 4))):
        event_id += draw(st.integers(1, 10**6))
        ts += draw(st.integers(0, 10**6))
        rows.append(TapRecord(
            event_id, ts, draw(_FIELD), draw(_FIELD), draw(_FIELD),
            draw(st.sampled_from(list(Protocol))), draw(st.integers(0, 10**9)),
            draw(st.sampled_from(OUTCOMES)), draw(st.dictionaries(_KEY, _VALUE, max_size=3)),
        ))
    return rows


@given(_logs())
def test_scrubbed_rows_round_trip(rows):
    assert import_events_text(export_events_text(rows)) == rows


def _rows(text):
    """The lines of a log that import reads: not blank, not a comment."""
    return [line for line in text.split("\n") if line and not line.startswith("#")]


@settings(max_examples=300)
@given(_logs(min_rows=1), st.data())
def test_an_edited_row_is_rejected_or_re_exports_as_edited(rows, data):
    """One character inserted, replaced or deleted in a row: import refuses
    the log, or it re-exports with that row as edited. A row the edit made
    blank or a comment is skipped on both sides."""
    text = export_events_text(rows)
    lines = text.split("\n")
    i = data.draw(st.integers(1, len(rows)), label="row")
    line = lines[i]
    cols = line.split("\t")
    col = data.draw(st.sampled_from(range(9)), label="column")
    # from the column's first character to the tab (or line end) after it
    at = sum(len(c) + 1 for c in cols[:col]) + data.draw(
        st.sampled_from(range(len(cols[col]) + 1)), label="at"
    )
    char = data.draw(_EDIT_CHAR, label="char")
    lines[i] = data.draw(st.sampled_from([
        line[:at] + char + line[at:],      # insert
        line[:at] + char + line[at + 1:],  # replace
        line[:at] + line[at + 1:],         # delete
    ]), label="edited")
    edited = "\n".join(lines)
    try:
        again = import_events_text(edited)
    except SchemaError:
        return
    assert _rows(export_events_text(again)) == _rows(edited)


def test_a_cached_pair_keeps_the_key_order_check():
    # the second row's pairs were both met on the first row
    lines = export_events_text([ev(1, attrs={"a": "1"})]).splitlines()
    lines.append(row(id="2", attrs="a=1,a=1"))
    with pytest.raises(SchemaError, match="line 3: attr key 'a' not increasing"):
        import_events_text("\n".join(lines))


@pytest.mark.parametrize("bad", ["a", "=1", "a1"])
def test_a_malformed_pair_on_a_later_row_is_rejected(bad):
    lines = export_events_text([ev(1, attrs={"a": "1"}), ev(2, attrs={"a": "1"})]).splitlines()
    lines.append(row(id="3", attrs=f"a=1,{bad}"))
    lines.append(row(id="4", attrs=bad))
    with pytest.raises(SchemaError, match=f"line 4: malformed attr {bad!r}"):
        import_events_text("\n".join(lines))
    with pytest.raises(SchemaError, match=f"line 4: malformed attr {bad!r}"):
        import_events_text("\n".join(lines[:3] + lines[4:]))


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


# -- shared strings -------------------------------------------------------------------------


def _one_object_per_value(values) -> bool:
    """Whether the equal values among `values` are all one object."""
    first: dict[str, str] = {}
    return all(first.setdefault(v, v) is v for v in values)


@pytest.fixture(scope="module")
def default_run():
    return run_scenario(ScenarioSpec("single_request", seed=1, duration_ms=3000)).events


def test_live_rows_share_their_strings(default_run):
    wire = [r for r in default_run if r.is_wire]
    for key in ("src_port", "dst_port"):
        assert _one_object_per_value(r.attrs[key] for r in wire), key
    assert _one_object_per_value(r.attrs["teid"] for r in wire if "teid" in r.attrs)
    assert _one_object_per_value(r.link_id for r in default_run)


def test_imported_rows_share_their_strings(default_run):
    rows = import_events_text(export_events_text(default_run))
    assert rows == default_run
    assert _one_object_per_value(r.link_id for r in rows)
    assert _one_object_per_value(r.src for r in rows)
    assert _one_object_per_value(v for r in rows for v in r.attrs.values())
    assert _one_object_per_value(k for r in rows for k in r.attrs)
    # and their ints: one per distinct ts and size, past the small-int cache too
    assert _one_object_per_value(r.ts for r in rows)
    assert _one_object_per_value(r.size for r in rows)
    assert len({r.ts for r in rows if r.ts > 256}) < sum(r.ts > 256 for r in rows)


def test_export_writes_rows_to_the_file_without_the_whole_text(default_run, tmp_path):
    # twenty copies of a run's rows: the text runs to megabytes, a row to
    # a few hundred bytes
    events = default_run * 20
    text = export_events_text(events)
    path = tmp_path / "events.log"
    tracemalloc.start()
    try:
        export_events(events, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.read_bytes() == text.encode("utf-8")
    assert peak < len(text) // 10, (peak, len(text))
