"""Topology and scenario configuration.

The topology format is line-oriented and diff-friendly: '[section]' headers,
'#' comments, and rows of comma-separated columns: [entities] kind,name,ip;
[links] a,b,latency_ms,loss_prob,reliable; [subscribers] imsi, one column;
[documents] name,size; and [params] key=value, a Params field. An integer has
one spelling, as in events.log and on the wire: ASCII digits, no leading zero.

Only this module knows the topology contract. PEER_KINDS is the one list of
node kinds, each with the kinds it sends to; run_roster adds the SERVER and
NWDAF a topology does not declare, and _validate checks that roster once,
including a link from each entity to each PEER_KINDS kind the topology has.
with_ues grows the population past the declared UEs and checks only the
spawned ones, as _validate would check the grown roster. What a run cannot serve is
refused here too: a second NRF or SERVER, and a document segment or a
scenario's request that does not fit one G-PDU.
"""
from __future__ import annotations

import ipaddress
import re
from collections import namedtuple
from functools import cached_property
from pathlib import Path

from .errors import ConfigError
from .messages import MsgKind, build, canonical_int
from .record import Frozen
from .urllc import SEQ_MODULUS, Redundancy
from .wirefmt import Protocol, SimPacket, encode_packet, gtpu_encapsulate

# the one list of node kinds: kind -> the kinds it sends to (3GPP TS 23.501
# reference points: Nnrf, the AMF's N8/N11/N12/N15, the SMF's N4, the gNB's
# N2/N3, radio, N6); a topology declares only these kinds
PEER_KINDS = {
    "NRF": (),
    "AMF": ("NRF", "AUSF", "UDM", "PCF", "SMF"),
    "SMF": ("NRF", "UPF"),
    "UDM": ("NRF", "UDR"),
    **dict.fromkeys(("AUSF", "UDR", "PCF", "NSSF", "BSF", "UPF", "NWDAF"), ("NRF",)),
    "GNB": ("AMF", "UPF"),
    "UE": ("GNB",),
    "SERVER": ("UPF",),
}

# the kinds a run serves one of: CoreEnv names one NRF and one SERVER
_ONE_ONLY = ("NRF", "SERVER")

# the one protocol -> port map; NAS rides the NGAP association
_PORT_PARAM = {
    Protocol.SBI: "sbi_port",
    Protocol.NGAP: "ngap_port",
    Protocol.NAS: "ngap_port",
    Protocol.PFCP: "pfcp_port",
    Protocol.GTPU: "gtpu_port",
    Protocol.RLS: "rls_port",
    Protocol.APP: "app_port",
}


class EntityDecl(namedtuple("EntityDecl", "kind name ip imsi", defaults=("",))):
    """One declared entity; `imsi` is a UE's subscriber identity, "" for
    every other kind."""

    __slots__ = ()


class LinkDecl(namedtuple("LinkDecl", "a b latency_ms loss_prob reliable")):
    __slots__ = ()


# Params field -> its default, in field order
_PARAM_DEFAULTS = {
    "sbi_port": 7777,
    "heartbeat_ms": 3333,
    "segment_bytes": 64000,
    "ue_pool": "10.45.0.0/16",
    "app_server_ip": "192.168.0.40",  # injected SERVER, when not declared
    "nwdaf_ip": "192.168.0.41",  # injected NWDAF, when not declared
    "settle_ms": 1000,
    "app_port": 80,
    "gtpu_port": 2152,
    "pfcp_port": 8805,
    "ngap_port": 38412,
    "rls_port": 4997,
}


class Params(Frozen, namedtuple("Params", _PARAM_DEFAULTS, defaults=_PARAM_DEFAULTS.values())):
    """Tunable knobs shared by every entity in a run."""

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name in dict.fromkeys(_PORT_PARAM.values()):
            port = getattr(self, name)
            if not 0 < port <= 65535:
                raise ConfigError(f"{name} out of range: {port}")
        for name, least in (("heartbeat_ms", 1), ("segment_bytes", 1), ("settle_ms", 0)):
            value = getattr(self, name)
            if value < least:
                raise ConfigError(f"{name} must be {'positive' if least else 'non-negative'}, got {value}")
        try:
            ipaddress.IPv4Network(self.ue_pool)
        except ValueError as exc:
            raise ConfigError(f"bad ue_pool {self.ue_pool!r}: {exc}") from None
        for name in ("app_server_ip", "nwdaf_ip"):
            try:
                ipaddress.IPv4Address(getattr(self, name))
            except ValueError as exc:
                raise ConfigError(f"bad {name}: {exc}") from None
        return self

    @cached_property
    def ports(self) -> dict[Protocol, int]:
        """Protocol -> the port both ends of its messages use; built once, as
        every send indexes it, and not a field (equality, hash, repr, `_fields`)."""
        return {protocol: getattr(self, name) for protocol, name in _PORT_PARAM.items()}


class TopologyConfig(namedtuple(
    "TopologyConfig", "entities links subscribers documents params source", defaults=("<memory>",)
)):
    """A parsed, validated topology: tuples of EntityDecl, LinkDecl and
    subscriber ids, document name -> size, the Params and where it was read."""

    __slots__ = ()

    def of_kind(self, kind: str) -> list[EntityDecl]:
        return [e for e in self.entities if e.kind == kind]


def ue_imsi(k: int, subscribers=()) -> str:
    """The IMSI of the UE at 1-based population position k: the k-th
    [subscribers] id, where a declared UE has one, else imsi-00101 and k in
    ten digits."""
    return subscribers[k - 1] if k <= len(subscribers) else f"imsi-00101{k:010d}"


def run_roster(entities, links, params: Params) -> tuple[list[EntityDecl], list[LinkDecl]]:
    """The entities and links a run builds: the declared ones, plus a SERVER
    at app_server_ip and an NWDAF at nwdaf_ip, each only when the topology
    declares none, linked to every entity of each of its PEER_KINDS."""
    entities, links = list(entities), list(links)
    kinds = {e.kind for e in entities}
    for kind, ip in (("SERVER", params.app_server_ip), ("NWDAF", params.nwdaf_ip)):
        if kind in kinds:
            continue
        entities.append(EntityDecl(kind=kind, name=kind, ip=ip))
        links += [
            LinkDecl(a=kind, b=e.name, latency_ms=1, loss_prob=0.0, reliable=True)
            for peer_kind in PEER_KINDS[kind]
            for e in entities
            if e.kind == peer_kind
        ]
    return entities, links


def _require_one_gpdu(what: str, kind: MsgKind, **fields) -> None:
    """Refuse `what` unless a `kind` message with `fields` and the widest
    app-level seq fits one G-PDU, as the codecs build it."""
    try:
        payload = build(kind, seq=SEQ_MODULUS - 1, **fields)
        gtpu_encapsulate(encode_packet(SimPacket(Protocol.APP, "0.0.0.0", "0.0.0.0", 0, 0, payload)), 0)
    except ValueError as exc:  # a WireFormatError, or text that is not UTF-8
        raise ConfigError(f"{what} does not fit one G-PDU: {exc}") from None


def _validate(topo: TopologyConfig) -> TopologyConfig:
    """`topo` itself once the roster it runs is checked."""
    params = topo.params
    if not topo.entities:
        raise ConfigError(f"{topo.source}: no entities declared")
    kind_of: dict[str, str] = {}  # entity name -> kind
    holders: dict[str, str] = {}  # address -> entity name
    first_of: dict[str, str] = {}  # kind in _ONE_ONLY -> its entity's name
    pool = ipaddress.IPv4Network(params.ue_pool)
    roster, roster_links = run_roster(topo.entities, topo.links, params)
    for e in roster:
        if e.name in kind_of:
            raise ConfigError(f"duplicate entity name {e.name}: {e.kind} collides with {kind_of[e.name]}")
        kind_of[e.name] = e.kind
        if e.ip in holders:
            raise ConfigError(f"duplicate entity address {e.ip}: {e.name} collides with {holders[e.ip]}")
        holders[e.ip] = e.name
        if ipaddress.IPv4Address(e.ip) in pool:
            raise ConfigError(f"entity address {e.ip} collides with the UE pool {params.ue_pool}")
        if e.kind in _ONE_ONLY:
            if e.kind in first_of:
                raise ConfigError(f"{first_of[e.kind]} and {e.name} are both {e.kind}s: a topology has one")
            first_of[e.kind] = e.name
    neighbours: dict[str, set[str]] = {name: set() for name in kind_of}
    for l in roster_links:
        for end in (l.a, l.b):
            if end not in kind_of:
                raise ConfigError(f"link {l.a},{l.b} references unknown entity {end}")
        if l.a == l.b:
            raise ConfigError(f"link endpoints must differ, got {l.a} twice")
        if l.b in neighbours[l.a]:
            raise ConfigError(f"duplicate link between {l.a} and {l.b}")
        neighbours[l.a].add(l.b)
        neighbours[l.b].add(l.a)
        if l.latency_ms < 0:
            raise ConfigError(f"link {l.a},{l.b}: negative latency")
        if not 0.0 <= l.loss_prob <= 1.0:
            raise ConfigError(f"link {l.a},{l.b}: loss_prob {l.loss_prob} outside [0, 1]")
    kinds = set(kind_of.values())
    if "NRF" not in kinds:
        raise ConfigError("topology has no registry function")
    if "GNB" in kinds and "AMF" not in kinds:
        raise ConfigError("a radio node needs an AMF in the topology")
    for e in roster:
        linked = {kind_of[n] for n in neighbours[e.name]}
        for peer in PEER_KINDS[e.kind]:
            # a UE reaches everything through its gNB, so it needs one even
            # where the topology has none
            if (peer in kinds or e.kind == "UE") and peer not in linked:
                raise ConfigError(f"{e.kind} {e.name} has no link to any {peer}")
    holder: dict[str, str] = {}  # IMSI -> UE
    for ue in topo.of_kind("UE"):
        if ue.imsi in holder:
            raise ConfigError(f"UEs {holder[ue.imsi]} and {ue.name} share the IMSI {ue.imsi}")
        holder[ue.imsi] = ue.name
    for doc, size in topo.documents.items():
        if size < 0:
            raise ConfigError(f"document {doc}: negative size")
        seg = params.segment_bytes
        _require_one_gpdu(
            f"segment_bytes={seg}: a segment of document {doc!r}", MsgKind.APP_SEGMENT,
            doc=doc, index=max(size - 1, 0) // seg, data=bytes(min(seg, size)),
        )
    return topo


def _int(text: str) -> int:
    if text[:1] == "-" and text != "-0":  # "-" and a positive integer: a range check names it
        return -canonical_int(text[1:], repr(text))
    return canonical_int(text, repr(text))


def _float(text: str) -> float:
    if "_" in text or not text.isascii():  # what _int refuses too
        raise ValueError(f"{text!r} is not a number")
    return float(text)


def _kind(text: str) -> str:
    if text.upper() not in PEER_KINDS:
        raise ConfigError(f"unknown entity kind {text.upper()}")
    return text.upper()


def _name(text: str) -> str:
    # no name may hold what the texts that carry names split on: event-log
    # fields (whitespace), link ids ("--"), rule actions (":"), session paths
    # ("/"), and discovery answers, rule programs and gNB lists ("|", ";")
    if not text or re.search(r"\s|--|[:/|;]", text):
        raise ConfigError(f"bad entity name {text!r}")
    return text


def _reliable(text: str) -> bool:
    if text.lower() not in ("true", "false", "1", "0"):
        raise ConfigError(f"bad reliable flag {text!r}")
    return text.lower() in ("true", "1")


# section -> what no two rows share as their first column (None: rows may
# repeat), and each column's reader in order; [params] maps key -> reader
_SECTIONS = {
    "entities": (None, (_kind, _name, lambda ip: str(ipaddress.IPv4Address(ip)))),
    "links": (None, (str, str, _int, _float, _reliable)),
    "subscribers": ("subscriber", (str,)),
    "documents": ("document", (str, _int)),
    "params": ("param", {name: _int if type(v) is int else str for name, v in _PARAM_DEFAULTS.items()}),
}


def parse_topology(text: str, source: str = "<memory>") -> TopologyConfig:
    rows: dict[str, dict] = {section: {} for section in _SECTIONS}  # section -> key -> cells
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in _SECTIONS:
                raise ConfigError(f"unknown section [{section}]", lineno)
            continue
        if section is None:
            raise ConfigError(f"content before any section: {line!r}", lineno)
        keyed_by, readers = _SECTIONS[section]
        try:
            if section == "params":
                key, _, value = (f.strip() for f in line.partition("="))
                if key not in readers:
                    raise ConfigError(f"unknown param {key!r}")
                cells = (key, readers[key](value))
            else:
                fields = [f.strip() for f in line.split(",")]
                if len(fields) != len(readers):
                    raise ValueError(f"columns: expected {len(readers)}, got {len(fields)}")
                cells = tuple(read(f) for read, f in zip(readers, fields))
        except ConfigError as exc:
            raise ConfigError(str(exc), lineno) from None
        except ValueError as exc:
            raise ConfigError(f"cannot parse {line!r}: {exc}", lineno) from None
        key = cells[0] if keyed_by else lineno
        if key in rows[section]:
            raise ConfigError(f"duplicate {keyed_by} {key!r}", lineno)
        rows[section][key] = cells
    subscribers = tuple(rows["subscribers"])
    entities = [EntityDecl(*cells) for cells in rows["entities"].values()]
    ues = (i for i, e in enumerate(entities) if e.kind == "UE")
    for k, i in enumerate(ues, start=1):
        entities[i] = entities[i]._replace(imsi=ue_imsi(k, subscribers))
    return _validate(TopologyConfig(
        tuple(entities), tuple(LinkDecl(*cells) for cells in rows["links"].values()), subscribers,
        dict(rows["documents"].values()), Params(**dict(rows["params"].values())), source,
    ))


def load_topology(path: str | Path) -> TopologyConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read topology {path}: {exc}") from None
    return parse_topology(text, source=str(path))


def default_topology_path() -> Path:
    return Path(__file__).parent / "data" / "default_topology.cfg"


def default_topology() -> TopologyConfig:
    return load_topology(default_topology_path())


MAX_UES = 0xFFFF  # spawned UE k is addressed 172.16.(k >> 8).(k & 0xFF)
_SPAWN_NET = 0xAC100000  # 172.16.0.0: spawned UE k's address is _SPAWN_NET + k as an integer
# the standby gNB with_second_gnb adds
_SECOND_GNB = EntityDecl(kind="GNB", name="gNB2", ip="192.168.0.23")
# the kinds at the two ends of the links with_link_loss makes lossy: N3
_LOSSY_KINDS = frozenset({"GNB", "UPF"})


def with_second_gnb(topo: TopologyConfig) -> TopologyConfig:
    """Extend a topology with the standby gNB _SECOND_GNB, wired for dual
    connectivity.

    The new gNB gets a reliable N2 link to the first AMF, a radio link to
    every UE, and an N3 link to the second UPF so the two paths stay
    link-disjoint.
    """
    name = _SECOND_GNB.name
    if any(e.name == name for e in topo.entities):
        return topo
    amfs = topo.of_kind("AMF")
    upfs = topo.of_kind("UPF")
    if not amfs or len(upfs) < 2:
        raise ConfigError("need an AMF and two UPFs to add a standby gNB")
    links = list(topo.links)
    links.append(LinkDecl(a=name, b=amfs[0].name, latency_ms=1, loss_prob=0.0, reliable=True))
    for ue in topo.of_kind("UE"):
        links.append(LinkDecl(a=ue.name, b=name, latency_ms=2, loss_prob=0.0, reliable=False))
    links.append(LinkDecl(a=name, b=upfs[1].name, latency_ms=2, loss_prob=0.0, reliable=False))
    return _validate(topo._replace(entities=(*topo.entities, _SECOND_GNB), links=tuple(links)))


def with_ues(topo: TopologyConfig, total: int) -> TopologyConfig:
    """Grow the population to `total` UEs: `topo` itself when it declares
    that many, else a copy where UE k past the declared ones is UE<k:03d> at
    172.16.(k >> 8).(k & 0xFF), with a copy of each radio link of the first
    UE and the IMSI ue_imsi(k), listed in [subscribers] unless it already is.

    `topo` is checked already, so only the new UEs are: _validate's checks
    that they can fail, in its order and with its texts, against name,
    address and IMSI tables built once."""
    ues = topo.of_kind("UE")
    if total <= len(ues):
        return topo
    if total > MAX_UES:
        raise ConfigError(
            f"{total} UEs exceed the limit of {MAX_UES}: spawned UE k is addressed"
            " 172.16.(k >> 8).(k & 0xFF)"
        )
    first, gnbs = ues[0].name if ues else None, {g.name for g in topo.of_kind("GNB")}
    # (gNB, link) per radio link of the first UE
    radio = [(g, l) for l in topo.links if first in (l.a, l.b) for g in (l.a, l.b) if g in gnbs]
    params, first_k = topo.params, len(ues) + 1
    spawned = [
        EntityDecl("UE", f"UE{k:03d}", f"172.16.{k >> 8}.{k & 0xFF}", ue_imsi(k))
        for k in range(first_k, total + 1)
    ]
    kind_of = {e.name: e.kind for e in topo.entities}
    holders = {e.ip: e.name for e in topo.entities}
    pool = ipaddress.IPv4Network(params.ue_pool)
    lo, hi = int(pool.network_address), int(pool.broadcast_address)
    for k, ue in enumerate(spawned, first_k):
        if ue.name in kind_of:
            raise ConfigError(f"duplicate entity name {ue.name}: UE collides with {kind_of[ue.name]}")
        if ue.ip in holders:
            raise ConfigError(f"duplicate entity address {ue.ip}: {ue.name} collides with {holders[ue.ip]}")
        if lo <= _SPAWN_NET + k <= hi:
            raise ConfigError(f"entity address {ue.ip} collides with the UE pool {params.ue_pool}")
    # the SERVER or NWDAF a run adds comes after the spawned UEs in the roster
    for e in run_roster(topo.entities, (), params)[0][len(topo.entities):]:
        k = int(ipaddress.IPv4Address(e.ip)) - _SPAWN_NET
        if first_k <= k <= total:
            raise ConfigError(f"duplicate entity address {e.ip}: {e.name} collides with UE{k:03d}")
    if not radio:
        raise ConfigError(f"UE {spawned[0].name} has no link to any GNB")
    holder = {ue.imsi: ue.name for ue in ues}
    for ue in spawned:
        if ue.imsi in holder:
            raise ConfigError(f"UEs {holder[ue.imsi]} and {ue.name} share the IMSI {ue.imsi}")
    listed = set(topo.subscribers)
    return topo._replace(
        entities=(*topo.entities, *spawned),
        links=(*topo.links, *(
            LinkDecl(ue.name, gnb, l.latency_ms, l.loss_prob, l.reliable)
            for ue in spawned for gnb, l in radio
        )),
        subscribers=(*topo.subscribers, *(ue.imsi for ue in spawned if ue.imsi not in listed)),
    )


def with_link_loss(topo: TopologyConfig, loss_prob: float) -> TopologyConfig:
    """Return a copy with loss applied to the unreliable links between a gNB
    and a UPF: only the N3 legs become lossy."""
    kind = {e.name: e.kind for e in topo.entities}
    links = tuple(
        l._replace(loss_prob=loss_prob)
        if {kind[l.a], kind[l.b]} == _LOSSY_KINDS and not l.reliable else l
        for l in topo.links
    )
    return topo._replace(links=links)


class Scenario(namedtuple("Scenario", "ues checks sweep", defaults=(False, False))):
    """One row of the scenario table.

    `ues` is the population: at most that many of the declared UEs, or None
    for ScenarioSpec.ue_count, spawned past the declared ones. The runner
    derives the attach and request schedule from the population. `checks`
    puts the six sequence checks in the summary. A `sweep` has no testbed of
    its own: it measures reliability once per redundancy mode.
    """

    __slots__ = ()


SCENARIOS = {
    "idle": Scenario(ues=0),
    "single_request": Scenario(ues=1),
    "many_requests": Scenario(ues=None),
    "urllc_sweep": Scenario(ues=0, sweep=True),
    "validate": Scenario(ues=1, checks=True),
}
SCENARIO_NAMES = tuple(SCENARIOS)


class ScenarioSpec(Frozen, namedtuple(
    "ScenarioSpec", "name ue_count doc duration_ms redundancy seed",
    defaults=(1, "document", 10000, Redundancy.NONE, 0),
)):
    """What to run: scenario name plus its knobs."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.name not in SCENARIO_NAMES:
            raise ConfigError(
                f"unknown scenario {self.name!r} (expected one of {', '.join(SCENARIO_NAMES)})"
            )
        if self.duration_ms <= 0:
            raise ConfigError(f"duration_ms must be positive, got {self.duration_ms}")
        if self.ue_count < 0:
            raise ConfigError(f"ue_count must be non-negative, got {self.ue_count}")
        if self.ue_count == 0 and SCENARIOS[self.name].ues is None:
            raise ConfigError(f"{self.name} needs ue_count >= 1, got 0")
        _require_one_gpdu(f"doc of {len(self.doc)} characters: its APP_GET", MsgKind.APP_GET, doc=self.doc)
        return self
