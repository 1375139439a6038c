"""IPv4 header parsing, serialization and helpers."""

from __future__ import annotations

import socket
import struct
from dataclasses import dataclass

from repro.net.checksum import internet_checksum

_U32 = struct.Struct("!I")


class IpProto:
    """Well-known IP protocol numbers."""

    ICMP = 1
    TCP = 6
    UDP = 17


def ip_to_int(text: str) -> int:
    """Convert dotted-quad ``text`` to a host-order 32-bit integer."""
    parts = text.split(".")
    if len(parts) != 4:
        raise ValueError(f"invalid IPv4 address: {text!r}")
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise ValueError(f"invalid IPv4 address: {text!r}")
        value = (value << 8) | octet
    return value


def int_to_ip(value: int) -> str:
    """Convert a 32-bit integer to dotted-quad notation."""
    if not 0 <= value <= 0xFFFFFFFF:
        raise ValueError(f"IPv4 address out of range: {value}")
    return socket.inet_ntoa(_U32.pack(value))


def parse_cidr(text: str) -> tuple[int, int]:
    """Parse ``a.b.c.d/len`` into ``(network, mask)`` host-order integers.

    A bare address is treated as a /32.
    """
    if "/" in text:
        addr_text, plen_text = text.split("/", 1)
        plen = int(plen_text)
    else:
        addr_text, plen = text, 32
    if not 0 <= plen <= 32:
        raise ValueError(f"invalid prefix length in {text!r}")
    mask = 0 if plen == 0 else (0xFFFFFFFF << (32 - plen)) & 0xFFFFFFFF
    return ip_to_int(addr_text) & mask, mask


@dataclass(slots=True)
class Ipv4Header:
    """An IPv4 header (without a full options codec; options kept as bytes)."""

    src: int
    dst: int
    proto: int
    total_length: int = 0
    ttl: int = 64
    identification: int = 0
    dscp: int = 0
    ecn: int = 0
    flags: int = 0
    frag_offset: int = 0
    checksum: int = 0
    options: bytes = b""

    MIN_HEADER_LEN = 20

    FLAG_DF = 0b010
    FLAG_MF = 0b001

    @property
    def header_len(self) -> int:
        return self.MIN_HEADER_LEN + len(self.options)

    @property
    def ihl(self) -> int:
        return self.header_len // 4

    @property
    def dont_fragment(self) -> bool:
        return bool(self.flags & self.FLAG_DF)

    @property
    def more_fragments(self) -> bool:
        return bool(self.flags & self.FLAG_MF)

    @classmethod
    def parse(cls, data: bytes | memoryview, offset: int = 0) -> "Ipv4Header":
        buf = bytes(data)
        if len(buf) - offset < cls.MIN_HEADER_LEN:
            raise ValueError("truncated IPv4 header")
        (ver_ihl, tos, total_length, identification, flags_frag, ttl, proto,
         checksum, src, dst) = struct.unpack_from("!BBHHHBBHII", buf, offset)
        version = ver_ihl >> 4
        if version != 4:
            raise ValueError(f"not an IPv4 packet (version={version})")
        ihl = ver_ihl & 0x0F
        if ihl < 5:
            raise ValueError(f"invalid IHL: {ihl}")
        header_len = ihl * 4
        if len(buf) - offset < header_len:
            raise ValueError("truncated IPv4 options")
        # Positional, in field order: keyword binding of twelve fields
        # costs more than the rest of the parse.
        return cls(
            src,
            dst,
            proto,
            total_length,
            ttl,
            identification,
            tos >> 2,
            tos & 0x3,
            (flags_frag >> 13) & 0x7,
            flags_frag & 0x1FFF,
            checksum,
            buf[offset + cls.MIN_HEADER_LEN : offset + header_len],
        )

    def serialize(self, payload_len: int | None = None) -> bytes:
        """Serialize the header, recomputing total length and checksum.

        If ``payload_len`` is given, ``total_length`` is set to
        ``header_len + payload_len``; otherwise the stored value is kept.
        """
        if len(self.options) % 4:
            raise ValueError("IPv4 options must be padded to 32-bit words")
        if payload_len is not None:
            self.total_length = self.header_len + payload_len
        tos = (self.dscp << 2) | self.ecn
        flags_frag = ((self.flags & 0x7) << 13) | (self.frag_offset & 0x1FFF)
        header = struct.pack(
            "!BBHHHBBHII",
            (4 << 4) | self.ihl,
            tos,
            self.total_length,
            self.identification,
            flags_frag,
            self.ttl,
            self.proto,
            0,
            self.src,
            self.dst,
        ) + self.options
        self.checksum = internet_checksum(header)
        return header[:10] + struct.pack("!H", self.checksum) + header[12:]

    @property
    def src_text(self) -> str:
        return int_to_ip(self.src)

    @property
    def dst_text(self) -> str:
        return int_to_ip(self.dst)
