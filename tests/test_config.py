"""Topology parsing, validation errors, transforms, scenario specs."""
import ipaddress

import pytest

from fivegsim.cli import main
from fivegsim.config import (
    PEER_KINDS,
    SCENARIO_NAMES,
    SCENARIOS,
    ConfigError,
    EntityDecl,
    Params,
    ScenarioSpec,
    default_topology,
    default_topology_path,
    parse_topology,
    run_roster,
    _validate,
    ue_imsi,
    with_link_loss,
    with_second_gnb,
    with_ues,
)
from fivegsim.runner import run_scenario
from fivegsim.urllc import Redundancy
from fivegsim.wirefmt import Protocol

MINIMAL = """
[entities]
NRF,NRF,192.168.0.12
AMF,AMF,192.168.0.13
UPF,UPF1,192.168.0.21
UPF,UPF2,192.168.0.32
GNB,gNB,192.168.0.22
UE,UE,192.168.0.30

[links]
AMF,NRF,1,0.0,false
UPF1,NRF,1,0.0,false
UPF2,NRF,1,0.0,false
gNB,AMF,1,0.0,true
UE,gNB,2,0.0,false
gNB,UPF1,2,0.0,false
"""


def test_default_topology_entities():
    topo = default_topology()
    triples = {(e.kind, e.name, e.ip) for e in topo.entities}
    assert len(topo.entities) == 13
    assert triples == {
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
    }


def test_default_topology_params_and_extras():
    topo = default_topology()
    assert topo.params.sbi_port == 7777
    assert topo.params.heartbeat_ms == 3333
    assert topo.params.segment_bytes == 64000
    assert topo.params.ue_pool == "10.45.0.0/16"
    assert topo.subscribers == ("imsi-001010000000001",)
    assert topo.documents == {"document": 487659}
    # N2 is the only reliable leg in the file
    reliable = [(l.a, l.b) for l in topo.links if l.reliable]
    assert reliable == [("gNB", "AMF")]


def test_parse_accepts_comments_and_blank_lines():
    topo = parse_topology(MINIMAL)
    assert len(topo.entities) == 6
    assert len(topo.links) == 6
    assert {e.name: e.ip for e in topo.entities}["gNB"] == "192.168.0.22"
    assert [e.name for e in topo.of_kind("UPF")] == ["UPF1", "UPF2"]


@pytest.mark.parametrize(
    "text, message",
    [
        ("[nope]\n", "unknown section"),
        ("NRF,NRF,10.0.0.1\n", "before any section"),
        ("[entities]\nROUTER,R1,10.0.0.1\n", "unknown entity kind"),
        ("[entities]\nNODE,N1,10.0.0.1\n", "unknown entity kind"),  # the base Entity's kind
        ("[entities]\nNRF,NRF,999.0.0.1\n", "cannot parse"),
        ("[entities]\nNRF,NRF\n", "cannot parse"),
        ("[entities]\nNRF,,192.168.0.12\n", "bad entity name"),
        ("[entities]\nNRF,N\tRF,192.168.0.12\n", "bad entity name"),
        ("[entities]\nNRF,N RF,192.168.0.12\n", "bad entity name"),
        # the wire grammars split on these: link ids, rule actions, session
        # paths, discovery answers, rule programs and gNB lists
        ("[entities]\nNRF,N--RF,192.168.0.12\n", "bad entity name"),
        ("[entities]\nNRF,local:NRF,192.168.0.12\n", "bad entity name"),
        ("[entities]\nNRF,N/RF,192.168.0.12\n", "bad entity name"),
        ("[entities]\nNRF,N|RF,192.168.0.12\n", "bad entity name"),
        ("[entities]\nNRF,N;RF,192.168.0.12\n", "bad entity name"),
        ("[params]\nwarp_factor=9\n", "unknown param"),
        ("[params]\nsbi_port=eleven\n", "cannot parse"),
    ],
)
def test_parse_rejects_malformed_lines(text, message):
    with pytest.raises(ConfigError, match=message):
        parse_topology(text)


@pytest.mark.parametrize(
    "edit, error",
    [
        # two link ids would both read NSSF--X--NRF
        pytest.param(
            lambda text: text.replace("NSSF,NSSF,192.168.0.19\n",
                                      "NSSF,NSSF,192.168.0.19\nNSSF,NSSF--X,192.168.0.50\n")
            .replace("BSF,BSF,", "BSF,X--NRF,").replace("BSF,NRF,", "X--NRF,NRF,")
            .replace("NSSF,NRF,1,0.0,false\n",
                     "NSSF,NRF,1,0.0,false\nNSSF--X,NRF,1,0.0,false\nNSSF,X--NRF,1,0.0,false\n"),
            "line 12: bad entity name 'NSSF--X'", id="link-id-clash",
        ),
        # its rule actions, and the log's local rows, split on ":"
        pytest.param(lambda text: text.replace("gNB", "local:gNB"),
                     "line 14: bad entity name 'local:gNB'", id="gnb-named-like-a-local-row"),
    ],
)
def test_a_name_the_wire_grammars_split_exits_2(edit, error, tmp_path, capsys):
    topo = tmp_path / "named.cfg"
    topo.write_text(edit(default_topology_path().read_text()))
    rc = main(["run", "--topology", str(topo), "--duration-ms", "3000"])
    assert (rc, capsys.readouterr().err) == (2, f"error: {error}\n")


# an integer has one spelling, as in events.log and on the wire, and the loss
# column refuses the same '_' and non-ASCII digits: each spelling is refused
# with the line that holds it (int() and float() read every one)
@pytest.mark.parametrize(
    "old, new, line",
    [
        pytest.param("UE,gNB,2,", "UE,gNB,1_0,", 42, id="latency-underscore"),
        pytest.param("UE,gNB,2,", "UE,gNB, +2 ,", 42, id="latency-plus-and-spaces"),
        pytest.param("UE,gNB,2,", "UE,gNB,\u0662,", 42, id="latency-arabic-indic-two"),
        pytest.param("UE,gNB,2,", "UE,gNB,02,", 42, id="latency-leading-zero"),
        pytest.param("UE,gNB,2,", "UE,gNB,-0,", 42, id="latency-minus-zero"),
        pytest.param("UE,gNB,2,0.0,", "UE,gNB,2,0.0_1,", 42, id="loss-underscore"),
        pytest.param("UE,gNB,2,0.0,", "UE,gNB,2,\u0660.\u0665,", 42, id="loss-arabic-indic-half"),
        pytest.param("heartbeat_ms=3333", "heartbeat_ms=3_333", 55, id="param-underscore"),
        pytest.param("document,487659", "document,4_8", 51, id="document-size-underscore"),
        # a subscriber line is one column: the comma is not part of an id
        pytest.param("imsi-001010000000001", "imsi-001010000000001,x", 48, id="two-column-subscriber"),
    ],
)
def test_a_spelling_the_wire_refuses_is_refused_with_its_line(old, new, line):
    text = default_topology_path().read_text()
    assert text.count(old) == 1
    with pytest.raises(ConfigError, match=f"^line {line}: cannot parse ") as err:
        parse_topology(text.replace(old, new))
    assert err.value.line == line


@pytest.mark.parametrize("loss, value", [("0.25", 0.25), ("1e-1", 0.1), ("1", 1.0), ("0", 0.0)])
def test_the_loss_column_keeps_its_decimal_and_exponent_forms(loss, value):
    text = default_topology_path().read_text().replace("UE,gNB,2,0.0,", f"UE,gNB,2,{loss},")
    [radio] = [l for l in parse_topology(text).links if (l.a, l.b) == ("UE", "gNB")]
    assert (radio.latency_ms, radio.loss_prob) == (2, value)


def test_parse_error_carries_line_number():
    bad = "[entities]\nNRF,NRF,192.168.0.12\nROUTER,R1,10.0.0.1\n"
    with pytest.raises(ConfigError, match="line 3") as err:
        parse_topology(bad)
    assert err.value.line == 3


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param("[params]\nue_pool=10.45.0.0/16\nsettle_ms=5\nue_pool=10.46.0.0/16\n",
                     "^line 4: duplicate param 'ue_pool'$", id="param"),
        # a section opened twice is one section
        pytest.param("[params]\nsettle_ms=5\n[documents]\nd,1\n[params]\nsettle_ms = 6\n",
                     "^line 6: duplicate param 'settle_ms'$", id="param-in-a-reopened-section"),
        pytest.param("[documents]\nd,10\ne,20\nd,30\n", "^line 4: duplicate document 'd'$",
                     id="document"),
        pytest.param("[subscribers]\nimsi-1\nimsi-2\nimsi-1\n", "^line 4: duplicate subscriber 'imsi-1'$",
                     id="subscriber"),
    ],
)
def test_a_repeated_key_is_refused_with_its_line(text, message):
    # the second value would silently win
    with pytest.raises(ConfigError, match=message):
        parse_topology(text)


@pytest.mark.parametrize(
    "mutation, message",
    [
        ("NRF,NRF,192.168.0.99", "duplicate entity name"),
        ("UDM,UDM,192.168.0.12", "duplicate entity address"),
        ("UDM,UDM,192.168.0.21", "^duplicate entity address 192.168.0.21: UDM collides with UPF1$"),
        ("UDM,UDM,10.45.0.7", "collides with the UE pool"),
    ],
)
def test_validation_rejects_entity_conflicts(mutation, message):
    with pytest.raises(ConfigError, match=message):
        parse_topology(MINIMAL + "\n[entities]\n" + mutation + "\n")


@pytest.mark.parametrize(
    "link_line, message",
    [
        ("ghost,NRF,1,0.0,false", "unknown entity"),
        ("NRF,NRF,1,0.0,false", "endpoints must differ"),
        ("NRF,AMF,1,0.0,false", "duplicate link"),
        ("UE,UPF1,-1,0.0,false", "negative latency"),
        ("UE,UPF1,1,1.5,false", "outside"),
        ("UE,UPF1,1,nan,false", "loss_prob nan outside"),
        ("UE,UPF1,1,inf,false", "loss_prob inf outside"),
        ("UE,UPF1,1,0.0,maybe", "bad reliable flag"),
    ],
)
def test_validation_rejects_link_conflicts(link_line, message):
    with pytest.raises(ConfigError, match=message):
        parse_topology(MINIMAL + "\n[links]\n" + link_line + "\n")


def test_validation_rejects_duplicate_subscribers_and_bad_documents():
    with pytest.raises(ConfigError, match="duplicate subscriber"):
        parse_topology(MINIMAL + "\n[subscribers]\nimsi-1\nimsi-1\n")
    with pytest.raises(ConfigError, match="negative size"):
        parse_topology(MINIMAL + "\n[documents]\ndoc,-5\n")


def test_empty_topology_rejected():
    with pytest.raises(ConfigError, match="no entities"):
        parse_topology("[entities]\n")


def test_declared_server_needs_a_link_to_a_upf():
    server = "\n[entities]\nSERVER,SRV,192.168.0.40\n"
    with pytest.raises(ConfigError, match="SERVER SRV has no link to any UPF"):
        parse_topology(MINIMAL + server + "[links]\nSRV,gNB,1,0.0,false\n")
    topo = parse_topology(MINIMAL + server + "[links]\nSRV,UPF2,1,0.0,false\n")
    assert [e.name for e in topo.of_kind("SERVER")] == ["SRV"]
    # a topology without a UPF has no uplink to route, so its SERVER may stand alone
    parse_topology("[entities]\nNRF,NRF,192.168.0.12\nSERVER,SRV,192.168.0.40\n")


def test_an_injected_address_clash_names_both_holders():
    with pytest.raises(ConfigError) as err:
        parse_topology(MINIMAL + "[params]\napp_server_ip=192.168.0.12\n")
    assert str(err.value) == "duplicate entity address 192.168.0.12: SERVER collides with NRF"


@pytest.mark.parametrize(
    "links, message",
    [
        ("UPF1,NRF,", "UPF UPF1 has no link to any NRF"),
        ("gNB,UPF1,", "GNB gNB has no link to any UPF"),
        ("UE,gNB,", "UE UE has no link to any GNB"),
        ("gNB,AMF,", "GNB gNB has no link to any AMF"),
    ],
)
def test_every_entity_links_to_each_peer_kind_it_sends_to(links, message):
    with pytest.raises(ConfigError) as err:
        parse_topology(MINIMAL.replace(links, "#"))
    assert str(err.value) == message


def test_injected_entities_are_wired_to_their_peers():
    entities, links = run_roster(default_topology().entities, default_topology().links, Params())
    assert [(e.kind, e.name, e.ip) for e in entities[-2:]] == [
        ("SERVER", "SERVER", "192.168.0.40"), ("NWDAF", "NWDAF", "192.168.0.41"),
    ]
    added = [(l.a, l.b, l.reliable) for l in links[len(default_topology().links):]]
    # each injected entity links to every entity of each of its PEER_KINDS
    assert added == [
        (kind, e.name, True)
        for kind in ("SERVER", "NWDAF")
        for peer in PEER_KINDS[kind]
        for e in entities
        if e.kind == peer
    ]
    assert added == [("SERVER", "UPF1", True), ("SERVER", "UPF2", True), ("NWDAF", "NRF", True)]


# -- params ------------------------------------------------------------------

def test_params_guard_ranges():
    with pytest.raises(ConfigError, match="sbi_port"):
        Params(sbi_port=0)
    with pytest.raises(ConfigError, match="heartbeat_ms"):
        Params(heartbeat_ms=0)
    with pytest.raises(ConfigError, match="segment_bytes"):
        Params(segment_bytes=-1)
    with pytest.raises(ConfigError, match="ue_pool"):
        Params(ue_pool="10.45.0.0/99")
    with pytest.raises(ConfigError, match="app_server_ip"):
        Params(app_server_ip="192.168.0.400")


def test_every_param_is_set_through_the_params_section():
    values = {
        "sbi_port": 7000, "heartbeat_ms": 1000, "segment_bytes": 1200, "ue_pool": "10.46.0.0/16",
        "app_server_ip": "192.168.0.50", "nwdaf_ip": "192.168.0.51", "settle_ms": 2000,
        "app_port": 8080, "gtpu_port": 2153, "pfcp_port": 8806, "ngap_port": 38413, "rls_port": 4998,
    }
    assert set(values) == set(Params._fields)
    assert all(getattr(Params(), name) != value for name, value in values.items())
    text = MINIMAL + "[params]\n" + "".join(f"{name} = {value}\n" for name, value in values.items())
    assert parse_topology(text).params == Params(**values)


def test_address_params_place_the_injected_entities():
    text = default_topology_path().read_text() + "app_server_ip=192.168.0.50\n"
    run = run_scenario(ScenarioSpec(name="single_request"), parse_topology(text))
    tb = run.testbed
    assert (tb.server.name, tb.server.ip) == ("SERVER", "192.168.0.50")
    assert (tb.nwdaf.name, tb.nwdaf.ip) == ("NWDAF", "192.168.0.41")
    assert all(t.ok for t in run.transfers["UE"])
    to_server = {
        ev.attrs["dst_ip"] for ev in run.events
        if ev.protocol is Protocol.APP and ev.dst == "SERVER" and ev.is_wire
    }
    assert to_server == {"192.168.0.50"}


# a NONE segment of the built-in document fills one G-PDU at 65,494 bytes; the
# widest app-level seq (5 digits, as dual connectivity may send) takes 9 more
LARGEST_SEGMENT = 65485


def test_the_largest_accepted_segment_completes_in_every_mode():
    text = default_topology_path().read_text()
    topo = parse_topology(text.replace("segment_bytes=64000", f"segment_bytes={LARGEST_SEGMENT}"))
    for mode in Redundancy:
        run = run_scenario(ScenarioSpec(name="single_request", redundancy=mode), topo)
        assert "transfer UE document ok segments=8 bytes=487659 ms=10" in run.summary_lines, mode
    with pytest.raises(ConfigError, match=(
        f"^segment_bytes={LARGEST_SEGMENT + 1}: a segment of document 'document' does not fit one"
        " G-PDU: inner packet of 65536 bytes overflows the length field$"
    )):
        parse_topology(text.replace("segment_bytes=64000", f"segment_bytes={LARGEST_SEGMENT + 1}"))


@pytest.mark.parametrize(
    "line", ["app_server_ip=192.168.0.12", "nwdaf_ip=10.45.0.2", "nwdaf_ip=192.168.0.40"]
)
def test_injected_addresses_must_not_collide(line):
    with pytest.raises(ConfigError, match="collides"):
        parse_topology(MINIMAL + "\n[params]\n" + line + "\n")


# -- transforms ---------------------------------------------------------------

def test_with_second_gnb_wires_three_legs():
    topo = with_second_gnb(default_topology())
    [added] = [e for e in topo.entities if e.name == "gNB2"]
    assert added.kind == "GNB"
    ends = {frozenset((l.a, l.b)) for l in topo.links}
    assert frozenset(("gNB2", "AMF")) in ends
    assert frozenset(("UE", "gNB2")) in ends
    assert frozenset(("gNB2", "UPF2")) in ends
    n2 = next(l for l in topo.links if frozenset((l.a, l.b)) == frozenset(("gNB2", "AMF")))
    assert n2.reliable


def test_with_second_gnb_is_idempotent():
    once = with_second_gnb(default_topology())
    twice = with_second_gnb(once)
    assert twice is once


def test_with_second_gnb_needs_two_upfs():
    single_upf = parse_topology(
        MINIMAL.replace("UPF,UPF2,192.168.0.32\n", "").replace("UPF2,NRF,1,0.0,false\n", "")
    )
    with pytest.raises(ConfigError, match="two UPFs"):
        with_second_gnb(single_upf)


def test_with_link_loss_targets_n3_only():
    topo = with_link_loss(default_topology(), 0.25)
    by_pair = {frozenset((l.a, l.b)): l for l in topo.links}
    assert by_pair[frozenset(("gNB", "UPF1"))].loss_prob == 0.25
    assert by_pair[frozenset(("gNB", "UPF2"))].loss_prob == 0.25
    # radio, N2, N9 and SBI legs stay clean
    assert by_pair[frozenset(("UE", "gNB"))].loss_prob == 0.0
    assert by_pair[frozenset(("gNB", "AMF"))].loss_prob == 0.0
    assert by_pair[frozenset(("UPF1", "UPF2"))].loss_prob == 0.0
    assert by_pair[frozenset(("AMF", "NRF"))].loss_prob == 0.0


def _grown_then_validated(topo, total):
    """The population grown as with_ues grows it, then the whole roster
    checked by _validate: the verdict with_ues must give by its own checks."""
    ues = topo.of_kind("UE")
    gnbs = {g.name for g in topo.of_kind("GNB")}
    radio = [(g, l) for l in topo.links if ues and ues[0].name in (l.a, l.b) for g in (l.a, l.b) if g in gnbs]
    spawned = [
        EntityDecl("UE", f"UE{k:03d}", f"172.16.{k >> 8}.{k & 0xFF}", ue_imsi(k))
        for k in range(len(ues) + 1, total + 1)
    ]
    return _validate(topo._replace(
        entities=(*topo.entities, *spawned),
        links=(*topo.links, *(l._replace(a=ue.name, b=g) for ue in spawned for g, l in radio)),
        subscribers=(*topo.subscribers, *(u.imsi for u in spawned if u.imsi not in topo.subscribers)),
    ))


def _verdict(fn, *args):
    try:
        return "ok", fn(*args)
    except ConfigError as exc:
        return "error", str(exc)


@pytest.mark.parametrize(
    "edit, total",
    [
        (lambda text: text, 200),
        (lambda text: text + "app_server_ip=172.16.0.5\n", 9),         # the SERVER a run adds
        (lambda text: text + "nwdaf_ip=172.16.0.7\n", 9),              # the NWDAF a run adds
        (lambda text: text.replace("ue_pool=10.45.0.0/16", "ue_pool=172.16.0.0/24"), 3),
        (lambda text: text.replace("NSSF,NSSF,192.168.0.19", "NSSF,NSSF,172.16.0.4"), 5),
        # a name clash at UE005 is reported before an IMSI clash at UE003
        (lambda text: text.replace("BSF,BSF,", "BSF,UE005,").replace("BSF,NRF,", "UE005,NRF,")
         .replace("imsi-001010000000001", "imsi-001010000000003"), 6),
        # no declared UE, so no radio link to copy
        (lambda text: text.replace("UE,UE,192.168.0.30\n", "").replace("UE,gNB,2,0.0,false\n", ""), 2),
    ],
    ids=["default", "server-address", "nwdaf-address", "ue-pool", "entity-address",
         "name-before-imsi", "no-declared-ue"],
)
def test_with_ues_checks_the_new_ues_as_the_whole_roster_check_does(edit, total):
    topo = parse_topology(edit(default_topology_path().read_text()))
    assert _verdict(with_ues, topo, total) == _verdict(_grown_then_validated, topo, total)


def test_growing_100_to_200_ues_parses_only_new_addresses(monkeypatch):
    """Counted as test_per_packet_path_parses_no_addresses counts: the
    addresses already on the roster are not parsed again."""
    grown = with_ues(default_topology(), 100)
    parsed = []

    class CountingAddress(ipaddress.IPv4Address):
        def __init__(self, address):
            parsed.append(str(address))
            super().__init__(address)

    monkeypatch.setattr(ipaddress, "IPv4Address", CountingAddress)
    assert len(with_ues(grown, 200).of_kind("UE")) == 200
    assert len(parsed) <= 100
    assert not set(parsed) & {e.ip for e in grown.entities}


# -- scenario specs ---------------------------------------------------------------

def test_scenario_spec_validation():
    with pytest.raises(ConfigError, match="unknown scenario"):
        ScenarioSpec(name="coffee_break")
    with pytest.raises(ConfigError, match="duration_ms"):
        ScenarioSpec(name="idle", duration_ms=0)
    with pytest.raises(ConfigError, match="ue_count"):
        ScenarioSpec(name="many_requests", ue_count=-1)


def test_many_requests_refuses_an_empty_population():
    # ue_count is the population of many_requests, so 0 would run no UE
    with pytest.raises(ConfigError, match="^many_requests needs ue_count >= 1, got 0$"):
        ScenarioSpec(name="many_requests", ue_count=0)
    # the other scenarios take their population from the scenario table
    assert ScenarioSpec(name="idle", ue_count=0).ue_count == 0


def test_scenario_names_come_from_the_scenario_table():
    assert SCENARIO_NAMES == tuple(SCENARIOS) == (
        "idle", "single_request", "many_requests", "urllc_sweep", "validate"
    )


def test_scenario_spec_defaults():
    spec = ScenarioSpec(name="single_request")
    assert spec.duration_ms == 10000
    assert spec.seed == 0
    assert spec.doc == "document"
