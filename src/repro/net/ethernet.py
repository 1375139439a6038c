"""Ethernet II framing and 802.1Q VLAN tags."""

from __future__ import annotations

import functools
import re
import struct
from dataclasses import dataclass, field

_MAC_RE = re.compile(r"^([0-9a-fA-F]{2}[:\-]){5}[0-9a-fA-F]{2}$")


class EtherType:
    """Well-known EtherType values (host-order integers)."""

    IPV4 = 0x0800
    ARP = 0x0806
    VLAN = 0x8100
    IPV6 = 0x86DD
    NSH = 0x894F


@dataclass(frozen=True, slots=True)
class MacAddress:
    """A 48-bit MAC address, stored as 6 raw bytes."""

    raw: bytes

    def __post_init__(self) -> None:
        if len(self.raw) != 6:
            raise ValueError(f"MAC address must be 6 bytes, got {len(self.raw)}")

    @classmethod
    def parse(cls, text: str) -> "MacAddress":
        """Parse a colon- or dash-separated MAC string like ``aa:bb:cc:dd:ee:ff``."""
        if not _MAC_RE.match(text):
            raise ValueError(f"invalid MAC address: {text!r}")
        return cls(bytes(int(part, 16) for part in re.split("[:-]", text)))

    @classmethod
    def broadcast(cls) -> "MacAddress":
        return cls(b"\xff" * 6)

    @property
    def is_broadcast(self) -> bool:
        return self.raw == b"\xff" * 6

    @property
    def is_multicast(self) -> bool:
        return bool(self.raw[0] & 0x01)

    def __str__(self) -> str:
        return ":".join(f"{b:02x}" for b in self.raw)

    def __int__(self) -> int:
        return int.from_bytes(self.raw, "big")


# Frames repeat a handful of MACs and MacAddress is immutable, so
# parsing shares one instance per address instead of building two per
# frame.
_mac = functools.lru_cache(maxsize=4096)(MacAddress)


@dataclass(slots=True)
class VlanTag:
    """An 802.1Q tag: priority (PCP), drop-eligible (DEI), and VLAN id."""

    vid: int
    pcp: int = 0
    dei: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.vid < 4096:
            raise ValueError(f"VLAN id out of range: {self.vid}")
        if not 0 <= self.pcp < 8:
            raise ValueError(f"VLAN PCP out of range: {self.pcp}")

    @property
    def tci(self) -> int:
        """The 16-bit Tag Control Information field."""
        return (self.pcp << 13) | (int(self.dei) << 12) | self.vid

    @classmethod
    def from_tci(cls, tci: int) -> "VlanTag":
        return cls(vid=tci & 0x0FFF, pcp=(tci >> 13) & 0x7, dei=bool((tci >> 12) & 1))


@dataclass(slots=True)
class EthernetHeader:
    """An Ethernet II header, optionally carrying a stack of 802.1Q tags.

    ``ethertype`` is always the *inner* EtherType (the payload protocol);
    VLAN tags, if present, are serialized between the source MAC and the
    inner EtherType in stack order.
    """

    dst: MacAddress
    src: MacAddress
    ethertype: int
    vlan_tags: list[VlanTag] = field(default_factory=list)

    HEADER_LEN = 14
    VLAN_TAG_LEN = 4

    @property
    def header_len(self) -> int:
        return self.HEADER_LEN + self.VLAN_TAG_LEN * len(self.vlan_tags)

    @property
    def vlan(self) -> VlanTag | None:
        """The outermost VLAN tag, or None if the frame is untagged."""
        return self.vlan_tags[0] if self.vlan_tags else None

    def push_vlan(self, tag: VlanTag) -> None:
        """Push ``tag`` as the new outermost 802.1Q tag."""
        self.vlan_tags.insert(0, tag)

    def pop_vlan(self) -> VlanTag:
        """Pop and return the outermost 802.1Q tag."""
        if not self.vlan_tags:
            raise ValueError("cannot pop VLAN tag from untagged frame")
        return self.vlan_tags.pop(0)

    @classmethod
    def parse(cls, data: bytes | memoryview, offset: int = 0) -> "EthernetHeader":
        """Parse an Ethernet header (and any stacked VLAN tags) from ``data``."""
        buf = bytes(data)
        if len(buf) - offset < cls.HEADER_LEN:
            raise ValueError("truncated Ethernet header")
        dst = _mac(buf[offset : offset + 6])
        src = _mac(buf[offset + 6 : offset + 12])
        pos = offset + 12
        tags: list[VlanTag] = []
        (ethertype,) = struct.unpack_from("!H", buf, pos)
        pos += 2
        while ethertype == EtherType.VLAN:
            if len(buf) - pos < 4:
                raise ValueError("truncated 802.1Q tag")
            (tci, ethertype) = struct.unpack_from("!HH", buf, pos)
            tags.append(VlanTag.from_tci(tci))
            pos += 4
        return cls(dst, src, ethertype, tags)

    def serialize(self) -> bytes:
        parts = [self.dst.raw, self.src.raw]
        for tag in self.vlan_tags:
            parts.append(struct.pack("!HH", EtherType.VLAN, tag.tci))
        parts.append(struct.pack("!H", self.ethertype))
        return b"".join(parts)
