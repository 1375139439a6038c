"""TCP header parsing and serialization."""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.net.checksum import internet_checksum, pseudo_header_sum
from repro.net.ip import IpProto


class TcpFlags:
    """TCP flag bits."""

    FIN = 0x01
    SYN = 0x02
    RST = 0x04
    PSH = 0x08
    ACK = 0x10
    URG = 0x20
    ECE = 0x40
    CWR = 0x80

    _NAMES = {
        FIN: "FIN", SYN: "SYN", RST: "RST", PSH: "PSH",
        ACK: "ACK", URG: "URG", ECE: "ECE", CWR: "CWR",
    }

    @classmethod
    def to_text(cls, flags: int) -> str:
        """Render a flags byte like ``SYN|ACK``."""
        names = [name for bit, name in cls._NAMES.items() if flags & bit]
        return "|".join(names) if names else "-"


@dataclass(slots=True)
class TcpHeader:
    """A TCP header; options carried as raw bytes."""

    src_port: int
    dst_port: int
    seq: int = 0
    ack: int = 0
    flags: int = 0
    window: int = 65535
    checksum: int = 0
    urgent: int = 0
    options: bytes = b""

    MIN_HEADER_LEN = 20

    @property
    def header_len(self) -> int:
        return self.MIN_HEADER_LEN + len(self.options)

    @property
    def data_offset(self) -> int:
        return self.header_len // 4

    def has_flag(self, flag: int) -> bool:
        return bool(self.flags & flag)

    @classmethod
    def parse(cls, data: bytes | memoryview, offset: int = 0) -> "TcpHeader":
        buf = bytes(data)
        if len(buf) - offset < cls.MIN_HEADER_LEN:
            raise ValueError("truncated TCP header")
        (src_port, dst_port, seq, ack, off_flags, window, checksum,
         urgent) = struct.unpack_from("!HHIIHHHH", buf, offset)
        data_offset = (off_flags >> 12) & 0xF
        if data_offset < 5:
            raise ValueError(f"invalid TCP data offset: {data_offset}")
        header_len = data_offset * 4
        if len(buf) - offset < header_len:
            raise ValueError("truncated TCP options")
        # Positional, in field order (cheaper than keyword binding).
        return cls(
            src_port,
            dst_port,
            seq,
            ack,
            off_flags & 0x1FF,
            window,
            checksum,
            urgent,
            buf[offset + cls.MIN_HEADER_LEN : offset + header_len],
        )

    def serialize(
        self,
        payload: bytes = b"",
        src_ip: int | None = None,
        dst_ip: int | None = None,
    ) -> bytes:
        """Serialize the header followed by ``payload``.

        When ``src_ip``/``dst_ip`` are given, the checksum is computed over
        the IPv4 pseudo-header, header and payload; otherwise the stored
        checksum value is written verbatim.
        """
        if len(self.options) % 4:
            raise ValueError("TCP options must be padded to 32-bit words")
        off_flags = (self.data_offset << 12) | (self.flags & 0x1FF)
        header = struct.pack(
            "!HHIIHHHH",
            self.src_port,
            self.dst_port,
            self.seq,
            self.ack,
            off_flags,
            self.window,
            0,
            self.urgent,
        ) + self.options
        if src_ip is not None and dst_ip is not None:
            total_len = len(header) + len(payload)
            initial = pseudo_header_sum(src_ip, dst_ip, IpProto.TCP, total_len)
            self.checksum = internet_checksum(header + payload, initial)
        segment = header[:16] + struct.pack("!H", self.checksum) + header[18:]
        return segment + payload
