"""Simulated TCAM header classifier.

Models a ternary CAM: every rule is expanded into parallel (mask, value)
entries over a fixed key layout, and a lookup conceptually compares all
entries at once, returning the highest-priority hit. In software we scan
the entries, but the *modelled* lookup latency is constant — the cost
model (``repro.sim.costmodel``) charges one TCAM cycle per packet
regardless of rule count, which is what makes the hardware-assisted OBI
split of Figures 5-6 worthwhile.

Range fields (L4 ports) are expanded into the minimal set of
prefix-masks covering the range, as real TCAM compilers do; the
``entry_count`` property exposes the resulting table occupancy.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.classify.header import HeaderRuleSet
from repro.core.classify.rules import HeaderRule, PortRange, match_fields
from repro.net.packet import Packet


def range_to_prefix_masks(lo: int, hi: int, width: int = 16) -> list[tuple[int, int]]:
    """Decompose [lo, hi] into minimal (value, mask) prefix pairs.

    Standard TCAM range expansion: at most ``2*width - 2`` entries.
    """
    if lo > hi:
        raise ValueError("empty range")
    pairs: list[tuple[int, int]] = []
    full = (1 << width) - 1
    while lo <= hi:
        # Largest aligned block starting at lo that fits within [lo, hi].
        size = lo & -lo if lo else 1 << width
        while size > hi - lo + 1:
            size >>= 1
        mask = full & ~(size - 1)
        pairs.append((lo, mask))
        lo += size
    return pairs


@dataclass(frozen=True, slots=True)
class TcamEntry:
    """One ternary entry: key & mask == value means hit."""

    value: int
    mask: int
    port: int
    priority: int


# Key layout: src_ip(32) | dst_ip(32) | src_port(16) | dst_port(16) |
#             proto(8) | vlan(16) | dscp(8) — 128 bits total.
_KEY_WIDTH = 128


def _pack_key(src_ip: int, dst_ip: int, src_port: int, dst_port: int,
              proto: int, vlan: int, dscp: int) -> int:
    key = src_ip
    key = (key << 32) | dst_ip
    key = (key << 16) | src_port
    key = (key << 16) | dst_port
    key = (key << 8) | proto
    key = (key << 16) | vlan
    key = (key << 8) | dscp
    return key


def _exact_field(value: int | None, width: int) -> list[tuple[int, int]]:
    if value is None:
        return [(0, 0)]
    return [(value, (1 << width) - 1)]


def _port_field(port_range: PortRange) -> list[tuple[int, int]]:
    if port_range == PortRange.ANY:
        return [(0, 0)]
    return range_to_prefix_masks(port_range.lo, port_range.hi)


class TcamMatcher:
    """TCAM-style matcher over expanded ternary entries."""

    implementation = "tcam"

    #: Modelled lookup latency in cycles, independent of entry count.
    LOOKUP_CYCLES = 1

    def __init__(self, ruleset: HeaderRuleSet, capacity: int | None = None) -> None:
        self.ruleset = ruleset
        self.entries: list[TcamEntry] = []
        for priority, rule in enumerate(ruleset.rules):
            self._expand(priority, rule)
        if capacity is not None and len(self.entries) > capacity:
            raise ValueError(
                f"ruleset needs {len(self.entries)} TCAM entries, "
                f"capacity is {capacity}"
            )

    @property
    def entry_count(self) -> int:
        return len(self.entries)

    def _expand(self, priority: int, rule: HeaderRule) -> None:
        src_pairs = [(rule.src.value, rule.src.mask)]
        dst_pairs = [(rule.dst.value, rule.dst.mask)]
        sport_pairs = _port_field(rule.src_port)
        dport_pairs = _port_field(rule.dst_port)
        proto_pairs = _exact_field(rule.proto, 8)
        vlan_pairs = _exact_field(rule.vlan, 16)
        dscp_pairs = _exact_field(rule.dscp, 8)
        for src_v, src_m in src_pairs:
            for dst_v, dst_m in dst_pairs:
                for sp_v, sp_m in sport_pairs:
                    for dp_v, dp_m in dport_pairs:
                        for pr_v, pr_m in proto_pairs:
                            for vl_v, vl_m in vlan_pairs:
                                for ds_v, ds_m in dscp_pairs:
                                    self.entries.append(TcamEntry(
                                        value=_pack_key(src_v, dst_v, sp_v, dp_v, pr_v, vl_v, ds_v),
                                        mask=_pack_key(src_m, dst_m, sp_m, dp_m, pr_m, vl_m, ds_m),
                                        port=rule.port,
                                        priority=priority,
                                    ))

    def match(self, packet: Packet) -> int:
        fields = match_fields(packet)
        if fields is None:
            # Non-IP: only rules that are full wildcards can match.
            for rule in self.ruleset.rules:
                if rule.is_catch_all:
                    return rule.port
            return self.ruleset.default_port
        src, dst, proto, dscp, vlan, src_port, dst_port = fields
        key = _pack_key(src, dst, src_port or 0, dst_port or 0, proto, vlan or 0, dscp)
        best: TcamEntry | None = None
        for entry in self.entries:
            if key & entry.mask == entry.value:
                if best is None or entry.priority < best.priority:
                    best = entry
        return best.port if best is not None else self.ruleset.default_port
