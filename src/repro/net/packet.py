"""The Packet type: a mutable frame buffer with lazily parsed header views.

A :class:`Packet` is what flows through an OpenBox processing graph. It
wraps the raw frame bytes and offers cached, lazily parsed header objects
(:attr:`eth`, :attr:`ipv4`, :attr:`l4`) plus the OpenBox *metadata storage*
(:attr:`metadata`) — the short-lived per-packet key-value store defined by
the protocol (paper §3.4.2).

Mutating a header view marks the packet dirty; :meth:`rebuild` re-serializes
the frame (recomputing lengths and checksums). Blocks that modify headers
call :meth:`mark_dirty` via the helpers here, so downstream blocks always
observe consistent bytes.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Any

from repro.net.ethernet import EtherType, EthernetHeader
from repro.net.ip import IpProto, Ipv4Header, int_to_ip
from repro.net.tcp import TcpHeader
from repro.net.udp import UdpHeader

_packet_ids = itertools.count(1)
_PROTO_NAMES = {IpProto.TCP: "tcp", IpProto.UDP: "udp"}


@functools.lru_cache(maxsize=4096)
def _flow_text(proto: int, src: int, dst: int, ports: str) -> str:
    """The flow part of :meth:`Packet.summary`. Packets of one flow
    repeat it, so each flow's addresses are formatted once."""
    name = _PROTO_NAMES.get(proto) or str(proto)
    return f"{name} {int_to_ip(src)}->{int_to_ip(dst)}{ports}"


@dataclass
class Packet:
    """A network packet traversing the OpenBox data plane."""

    data: bytes
    timestamp: float = 0.0
    ingress_port: str | None = None
    metadata: dict[str, Any] = field(default_factory=dict)
    packet_id: int = field(default_factory=_packet_ids.__next__)

    _eth: EthernetHeader | None = field(default=None, repr=False)
    _ipv4: Ipv4Header | None = field(default=None, repr=False)
    _l4: TcpHeader | UdpHeader | None = field(default=None, repr=False)
    _parsed: bool = field(default=False, repr=False)
    _dirty: bool = field(default=False, repr=False)

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------
    # Parsing
    # ------------------------------------------------------------------
    def _parse(self) -> None:
        if self._parsed:
            return
        self._parsed = True
        data = self.data
        try:
            eth = self._eth = EthernetHeader.parse(data)
        except ValueError:
            return
        if eth.ethertype != EtherType.IPV4:
            return
        offset = eth.header_len
        try:
            ipv4 = self._ipv4 = Ipv4Header.parse(data, offset)
        except ValueError:
            return
        offset += ipv4.header_len
        try:
            if ipv4.proto == IpProto.TCP:
                self._l4 = TcpHeader.parse(data, offset)
            elif ipv4.proto == IpProto.UDP:
                self._l4 = UdpHeader.parse(data, offset)
        except ValueError:
            self._l4 = None

    @property
    def eth(self) -> EthernetHeader | None:
        """The Ethernet header view, or None if the frame is malformed."""
        self._parse()
        return self._eth

    @property
    def ipv4(self) -> Ipv4Header | None:
        """The IPv4 header view, or None for non-IPv4 frames."""
        self._parse()
        return self._ipv4

    @property
    def l4(self) -> TcpHeader | UdpHeader | None:
        """The TCP or UDP header view, or None."""
        self._parse()
        return self._l4

    @property
    def tcp(self) -> TcpHeader | None:
        l4 = self.l4
        return l4 if isinstance(l4, TcpHeader) else None

    @property
    def udp(self) -> UdpHeader | None:
        l4 = self.l4
        return l4 if isinstance(l4, UdpHeader) else None

    @property
    def payload_offset(self) -> int:
        """Byte offset of the L4 payload (or end of deepest parsed header)."""
        self._parse()
        offset = 0
        if self._eth is not None:
            offset += self._eth.header_len
        if self._ipv4 is not None:
            offset += self._ipv4.header_len
        if self._l4 is not None:
            offset += self._l4.header_len if isinstance(self._l4, TcpHeader) else UdpHeader.HEADER_LEN
        return offset

    @property
    def payload(self) -> bytes:
        """The L4 payload bytes (empty for header-only packets)."""
        return self.data[self.payload_offset :]

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def mark_dirty(self) -> None:
        """Record that a header view was modified; bytes must be rebuilt."""
        self._parse()
        self._dirty = True

    def set_payload(self, payload: bytes) -> None:
        """Replace the L4 payload and rebuild the frame."""
        self._parse()
        prefix_end = self.payload_offset
        self.data = self.data[:prefix_end] + payload
        self._dirty = True
        self.rebuild()

    def rebuild(self) -> None:
        """Re-serialize modified headers back into :attr:`data`.

        Recomputes the IPv4 total length + checksum and the L4 checksum.
        No-op if the packet was never marked dirty.
        """
        if not self._dirty:
            return
        self._parse()
        eth, ipv4, l4 = self._eth, self._ipv4, self._l4
        payload = self.payload
        parts: list[bytes] = []
        if eth is not None:
            parts.append(eth.serialize())
        if ipv4 is not None:
            l4_bytes = b""
            if isinstance(l4, TcpHeader):
                l4_bytes = l4.serialize(payload, src_ip=ipv4.src, dst_ip=ipv4.dst)
            elif isinstance(l4, UdpHeader):
                l4_bytes = l4.serialize(payload, src_ip=ipv4.src, dst_ip=ipv4.dst)
            else:
                l4_bytes = payload
            if l4 is not None:
                parts.append(ipv4.serialize(payload_len=len(l4_bytes)))
                parts.append(l4_bytes)
            else:
                parts.append(ipv4.serialize(payload_len=len(payload)))
                parts.append(payload)
        elif eth is not None:
            parts.append(self.data[eth.header_len :])
        else:
            parts.append(self.data)
        self.data = b"".join(parts)
        self._dirty = False

    def clone(self) -> "Packet":
        """Deep-ish copy: fresh buffer + copied metadata, new packet id.

        Used by blocks that emit a packet to multiple output ports.
        """
        self.rebuild()
        return Packet(
            data=self.data,
            timestamp=self.timestamp,
            ingress_port=self.ingress_port,
            metadata=dict(self.metadata),
        )

    def invalidate(self) -> None:
        """Drop cached header views; next access re-parses :attr:`data`."""
        self._eth = None
        self._ipv4 = None
        self._l4 = None
        self._parsed = False
        self._dirty = False

    def summary(self) -> str:
        """One-line human-readable description, for logs and debugging."""
        self._parse()
        ipv4, l4 = self._ipv4, self._l4
        if ipv4 is None:
            return f"pkt#{self.packet_id} len={len(self.data)} non-ip"
        ports = f" {l4.src_port}->{l4.dst_port}" if l4 is not None else ""
        flow = _flow_text(ipv4.proto, ipv4.src, ipv4.dst, ports)
        return f"pkt#{self.packet_id} len={len(self.data)} {flow}"
