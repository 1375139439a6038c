"""Header-classification rules: field matches, intersection, coverage.

A :class:`HeaderRule` matches on the classic 5-tuple plus VLAN id and
DSCP. Rules support the two operations the OpenBox classifier merge needs
(paper §2.2.1):

* :meth:`HeaderRule.intersect` — the cross-product step: the rule matched
  by packets that match *both* inputs (None if that set is empty);
* :meth:`HeaderRule.covers` — shadow detection: if an earlier rule covers
  a later one, the later rule can never match and is removed
  ("empty rules caused by priority considerations").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar

from repro.net.ip import int_to_ip, parse_cidr
from repro.net.packet import Packet


@dataclass(frozen=True, slots=True)
class Prefix:
    """An IPv4 prefix match (value/mask). A zero mask matches anything."""

    value: int
    mask: int

    ANY: ClassVar["Prefix"]  # populated below

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        value, mask = parse_cidr(text)
        return cls(value, mask)

    def matches(self, address: int) -> bool:
        return (address & self.mask) == self.value

    def intersect(self, other: "Prefix") -> "Prefix | None":
        """The prefix matched by both, or None if disjoint.

        For prefixes, one must contain the other for the intersection to
        be non-empty; the result is the more specific of the two.
        """
        narrow, wide = (self, other) if self.mask >= other.mask else (other, self)
        return narrow if wide.matches(narrow.value) else None

    def covers(self, other: "Prefix") -> bool:
        return self.mask <= other.mask and self.matches(other.value)

    @property
    def prefix_len(self) -> int:
        return bin(self.mask).count("1")

    def __str__(self) -> str:
        if self.mask == 0:
            return "*"
        return f"{int_to_ip(self.value)}/{self.prefix_len}"


Prefix.ANY = Prefix(0, 0)


@dataclass(frozen=True, slots=True)
class PortRange:
    """An inclusive L4 port range."""

    lo: int
    hi: int

    ANY: ClassVar["PortRange"]  # populated below

    def __post_init__(self) -> None:
        if not 0 <= self.lo <= self.hi <= 65535:
            raise ValueError(f"invalid port range: [{self.lo}, {self.hi}]")

    @classmethod
    def exact(cls, port: int) -> "PortRange":
        return cls(port, port)

    def matches(self, port: int) -> bool:
        return self.lo <= port <= self.hi

    def intersect(self, other: "PortRange") -> "PortRange | None":
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        return PortRange(lo, hi) if lo <= hi else None

    def covers(self, other: "PortRange") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def __str__(self) -> str:
        if self.lo == 0 and self.hi == 65535:
            return "*"
        if self.lo == self.hi:
            return str(self.lo)
        return f"{self.lo}-{self.hi}"


PortRange.ANY = PortRange(0, 65535)


def _intersect_exact(a: int | None, b: int | None) -> tuple[bool, int | None]:
    """Intersect two optional exact-match fields (None = wildcard).

    Returns ``(non_empty, merged_value)``.
    """
    if a is None:
        return True, b
    if b is None or a == b:
        return True, a
    return False, None


def _covers_exact(a: int | None, b: int | None) -> bool:
    return a is None or a == b


#: ``(src, dst, proto, dscp, vlan, src_port, dst_port)`` of an IPv4
#: packet; ``vlan`` is None when untagged, the ports when there is no L4.
MatchFields = tuple[int, int, int, int, int | None, int | None, int | None]


def match_fields(packet: Packet) -> MatchFields | None:
    """The header fields rules match on, read once; None for non-IP."""
    ipv4 = packet.ipv4
    if ipv4 is None:
        return None
    eth = packet.eth
    tag = eth.vlan if eth is not None else None
    vlan = tag.vid if tag is not None else None
    l4 = packet.l4
    if l4 is None:
        return ipv4.src, ipv4.dst, ipv4.proto, ipv4.dscp, vlan, None, None
    return ipv4.src, ipv4.dst, ipv4.proto, ipv4.dscp, vlan, l4.src_port, l4.dst_port


@dataclass(frozen=True, slots=True)
class HeaderRule:
    """One priority-ordered classification rule mapping a match to a port."""

    src: Prefix = Prefix.ANY
    dst: Prefix = Prefix.ANY
    src_port: PortRange = PortRange.ANY
    dst_port: PortRange = PortRange.ANY
    proto: int | None = None
    vlan: int | None = None
    dscp: int | None = None
    port: int = 0

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------
    def matches(self, packet: Packet) -> bool:
        return self.matches_fields(match_fields(packet))

    def matches_fields(self, fields: MatchFields | None) -> bool:
        """Match against a packet's :func:`match_fields` (None: non-IP).

        Inlines :meth:`Prefix.matches` and :meth:`PortRange.matches`: a
        trie lookup on a 2000-rule firewall checks ~106 rules per packet,
        and calling them would add ~9 µs per packet (about a fifth of the
        cold per-packet cost on a shared 2-vCPU x86 host).
        """
        if fields is None:
            return self.is_catch_all
        src, dst, proto, dscp, vlan, src_port, dst_port = fields
        if src & self.src.mask != self.src.value or dst & self.dst.mask != self.dst.value:
            return False
        if self.proto is not None and proto != self.proto:
            return False
        if self.dscp is not None and dscp != self.dscp:
            return False
        if self.vlan is not None and vlan != self.vlan:
            return False
        if src_port is None:
            # No L4 header: only port wildcards match.
            return self.src_port == PortRange.ANY and self.dst_port == PortRange.ANY
        return (
            self.src_port.lo <= src_port <= self.src_port.hi
            and self.dst_port.lo <= dst_port <= self.dst_port.hi
        )

    @property
    def is_catch_all(self) -> bool:
        return (
            self.src == Prefix.ANY
            and self.dst == Prefix.ANY
            and self.src_port == PortRange.ANY
            and self.dst_port == PortRange.ANY
            and self.proto is None
            and self.vlan is None
            and self.dscp is None
        )

    # ------------------------------------------------------------------
    # Merge-algebra
    # ------------------------------------------------------------------
    def intersect(self, other: "HeaderRule", port: int) -> "HeaderRule | None":
        """Field-wise intersection; ``port`` becomes the merged output port."""
        src = self.src.intersect(other.src)
        if src is None:
            return None
        dst = self.dst.intersect(other.dst)
        if dst is None:
            return None
        src_port = self.src_port.intersect(other.src_port)
        if src_port is None:
            return None
        dst_port = self.dst_port.intersect(other.dst_port)
        if dst_port is None:
            return None
        ok, proto = _intersect_exact(self.proto, other.proto)
        if not ok:
            return None
        ok, vlan = _intersect_exact(self.vlan, other.vlan)
        if not ok:
            return None
        ok, dscp = _intersect_exact(self.dscp, other.dscp)
        if not ok:
            return None
        return HeaderRule(
            src=src, dst=dst, src_port=src_port, dst_port=dst_port,
            proto=proto, vlan=vlan, dscp=dscp, port=port,
        )

    def covers(self, other: "HeaderRule") -> bool:
        """True if every packet matching ``other`` also matches ``self``."""
        return (
            self.src.covers(other.src)
            and self.dst.covers(other.dst)
            and self.src_port.covers(other.src_port)
            and self.dst_port.covers(other.dst_port)
            and _covers_exact(self.proto, other.proto)
            and _covers_exact(self.vlan, other.vlan)
            and _covers_exact(self.dscp, other.dscp)
        )

    def same_match(self, other: "HeaderRule") -> bool:
        """True if the two rules match exactly the same packet set."""
        return self.covers(other) and other.covers(self)

    # ------------------------------------------------------------------
    # Serialization (the protocol wire format for rule configs)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {"port": self.port}
        if self.src != Prefix.ANY:
            data["src_ip"] = str(self.src)
        if self.dst != Prefix.ANY:
            data["dst_ip"] = str(self.dst)
        if self.src_port != PortRange.ANY:
            data["src_port"] = [self.src_port.lo, self.src_port.hi]
        if self.dst_port != PortRange.ANY:
            data["dst_port"] = [self.dst_port.lo, self.dst_port.hi]
        for name in ("proto", "vlan", "dscp"):
            value = getattr(self, name)
            if value is not None:
                data[name] = value
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "HeaderRule":
        def port_range(value: Any) -> PortRange:
            if value is None:
                return PortRange.ANY
            if isinstance(value, int):
                return PortRange.exact(value)
            lo, hi = value
            return PortRange(int(lo), int(hi))

        return cls(
            src=Prefix.parse(data["src_ip"]) if "src_ip" in data else Prefix.ANY,
            dst=Prefix.parse(data["dst_ip"]) if "dst_ip" in data else Prefix.ANY,
            src_port=port_range(data.get("src_port")),
            dst_port=port_range(data.get("dst_port")),
            proto=data.get("proto"),
            vlan=data.get("vlan"),
            dscp=data.get("dscp"),
            port=int(data.get("port", 0)),
        )

    def __str__(self) -> str:
        proto = "*" if self.proto is None else str(self.proto)
        return (
            f"[{proto} {self.src}:{self.src_port} -> {self.dst}:{self.dst_port}"
            f" => port {self.port}]"
        )
