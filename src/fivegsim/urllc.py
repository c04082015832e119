"""Redundant user-plane transmission and duplicate elimination.

Three mechanisms are modeled on top of ordinary PDU sessions:

* DUAL_CONNECTIVITY: two disjoint paths through two gNBs and two UPFs; the
  endpoints replicate and eliminate (UE uplink, server downlink).
* N3_REPLICATION: one gNB and one UPF joined by two GTP-U tunnels; the gNB
  and UPF replicate/eliminate at the tunnel ends.
* PSA_ANCHOR: per-UPF tunnels that converge on a common PSA UPF, which
  eliminates uplink duplicates and replicates downlink.

Replicated copies of one user packet always carry the same sequence number;
elimination keeps the first arrival inside a 1,024-wide window over a 16-bit
wrapping sequence space.

This module holds what the modes share: the mode names, the window, the
sequence arithmetic and the measurement result. How a mode lays out its
tunnel legs is the SMF's decision alone (core_cp.Smf.plan_paths); the UPF
rule programs and the UE's replication are read off those legs.
"""
from __future__ import annotations

from enum import Enum

from .record import Frozen, Record

SEQ_MODULUS = 1 << 16
DEDUP_WINDOW = 1024
_HALF = SEQ_MODULUS // 2


class Redundancy(Enum):
    NONE = "NONE"
    DUAL_CONNECTIVITY = "DUAL_CONNECTIVITY"
    N3_REPLICATION = "N3_REPLICATION"
    PSA_ANCHOR = "PSA_ANCHOR"

    @classmethod
    def parse(cls, name: str) -> "Redundancy":
        """Read a command-line spelling: blanks and case do not matter.
        Messages name a mode exactly (core_cp.read_mode)."""
        try:
            return cls[name.strip().upper()]
        except KeyError:
            valid = ", ".join(m.name for m in cls)
            raise ValueError(f"unknown redundancy mode {name!r} (expected one of {valid})") from None


def seq_newer(a: int, b: int) -> bool:
    """Serial-number comparison: is a strictly newer than b, mod 2**16."""
    return a != b and ((a - b) % SEQ_MODULUS) < _HALF


class DedupWindow:
    """One redundant end's sequence state over a wrapping 16-bit space: the
    numbers it sends, and a first-arrival filter over those it receives.

    stamp() numbers the end's next send: 0, 1, ... mod 2**16. accept(seq)
    returns True for the first copy of a sequence number and False for any
    later copy still inside the window. Sequences that have fallen out of
    the window cannot be proven duplicate and pass.
    """

    def __init__(self, window: int = DEDUP_WINDOW):
        self.window = window
        self.highest: int | None = None
        self._seen: set[int] = set()
        self._next = 0

    def stamp(self) -> int:
        seq = self._next
        self._next = (seq + 1) % SEQ_MODULUS
        return seq

    def accept(self, seq: int) -> bool:
        # per packet, so seq_newer and the in-window test,
        # (highest - s) % SEQ_MODULUS < window, are written out inline
        seq %= SEQ_MODULUS
        highest, seen, window = self.highest, self._seen, self.window
        if highest is None:
            self.highest = seq
            seen.add(seq)
            return True
        if seq in seen and (highest - seq) % SEQ_MODULUS < window:
            return False
        if 0 < (seq - highest) % SEQ_MODULUS < _HALF:
            self.highest = highest = seq
            if len(seen) > 2 * window:
                seen = self._seen = {s for s in seen if (highest - s) % SEQ_MODULUS < window}
        if (highest - seq) % SEQ_MODULUS < window:
            seen.add(seq)
        return True


class ReliabilityResult(Frozen, Record):
    """Outcome of one delivery-reliability measurement. Read-only but not a
    tuple, so a caller can still tell it from a tuple of outputs by type;
    unhashable, as its per-tunnel dict is."""

    _fields = (
        "mode", "loss_prob", "sent", "delivered", "per_tunnel_delivered", "paths_disjoint", "delivered_indices",
    )
    __slots__ = _fields
    _defaults = {"per_tunnel_delivered": dict, "paths_disjoint": True, "delivered_indices": frozenset()}

    def _replace(self, **changes) -> ReliabilityResult:
        return ReliabilityResult(**{**dict(zip(self._fields, self._values())), **changes})

    @property
    def delivery_ratio(self) -> float:
        return self.delivered / self.sent if self.sent else 0.0

    @property
    def observed_loss(self) -> float:
        return 1.0 - self.delivery_ratio

