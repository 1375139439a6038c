"""OpenBox protocol message types.

Every message is a dataclass with a transaction id (``xid``) used by the
controller's multiplexer to correlate responses with application requests
(paper §4.1: "The controller handles multiplexing of requests and
demultiplexing of responses"). Messages serialize to plain dicts; the
wire format is JSON (paper §3.3: "protocol messages are encoded with
JSON").
"""

from __future__ import annotations

import base64
import threading
from dataclasses import dataclass, field, fields
from typing import Any, ClassVar


class _XidCounter:
    """Process-wide xid allocator that can be advanced after recovery.

    Receivers deduplicate requests by xid (PROTOCOL.md §6), so a
    restarted controller must never re-issue xids its peers may still
    hold in their dedup caches — the journal persists a high-watermark
    and :func:`advance_xids` jumps past it on recovery.
    """

    def __init__(self) -> None:
        self._value = 0
        self._lock = threading.Lock()

    def next(self) -> int:
        with self._lock:
            self._value += 1
            return self._value

    def advance(self, past: int) -> None:
        with self._lock:
            self._value = max(self._value, int(past))

    def current(self) -> int:
        with self._lock:
            return self._value


_xids = _XidCounter()


def next_xid() -> int:
    """Allocate a process-wide unique transaction id."""
    return _xids.next()


def advance_xids(past: int) -> None:
    """Ensure future xids are allocated strictly after ``past``.

    Called during controller recovery with the journaled high-watermark,
    so retransmit deduplication on OBIs stays sound across restarts.
    """
    _xids.advance(past)


def xid_watermark() -> int:
    """The highest xid allocated so far (journaled on every deploy)."""
    return _xids.current()


@dataclass
class Message:
    """Base class: concrete messages declare ``TYPE`` and their fields."""

    TYPE: ClassVar[str] = ""

    xid: int = field(default_factory=next_xid)

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {"type": self.TYPE}
        for spec in fields(self):
            data[spec.name] = getattr(self, spec.name)
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Message":
        names = {spec.name for spec in fields(cls)}
        kwargs = {key: value for key, value in data.items() if key in names}
        return cls(**kwargs)


_MESSAGE_TYPES: dict[str, type[Message]] = {}


def register_message(cls: type[Message]) -> type[Message]:
    """Class decorator adding the message to the codec registry."""
    if not cls.TYPE:
        raise ValueError(f"{cls.__name__} must define TYPE")
    if cls.TYPE in _MESSAGE_TYPES:
        raise ValueError(f"duplicate message type: {cls.TYPE}")
    _MESSAGE_TYPES[cls.TYPE] = cls
    return cls


def message_class(type_name: str) -> type[Message] | None:
    return _MESSAGE_TYPES.get(type_name)


# ----------------------------------------------------------------------
# Session establishment and liveness
# ----------------------------------------------------------------------

@register_message
@dataclass
class Hello(Message):
    """OBI → OBC: first message after connecting.

    ``capabilities`` lists, per supported abstract block type, the
    concrete implementations the OBI offers (paper §3.1: the OBI
    "declares its implementation block types and their corresponding
    abstract block in the Hello message").
    """

    TYPE: ClassVar[str] = "Hello"

    obi_id: str = ""
    version: str = ""
    segment: str = ""
    capabilities: dict[str, list[str]] = field(default_factory=dict)
    supports_custom_modules: bool = False
    capacity_hint: float = 0.0
    #: Where the OBC should send downstream requests (the OBI's local
    #: REST server, paper §4.2); empty for in-process transports.
    callback_url: str = ""
    #: Recovery handshake (PROTOCOL.md §10): the version epoch and
    #: canonical digest of the graph the OBI is currently running (0/""
    #: when nothing is deployed), and the highest controller generation
    #: the OBI has witnessed — lets a recovered controller reconcile
    #: without blind re-pushes, and lets the OBI detect stale peers.
    graph_version: int = 0
    graph_digest: str = ""
    controller_generation: int = 0


@register_message
@dataclass
class HelloResponse(Message):
    """OBC → OBI: acknowledges a Hello (PROTOCOL.md §10).

    Carries the controller's current generation so the OBI can arm its
    split-brain guard (messages stamped with a lower generation are
    rejected as ``stale_generation``).
    """

    TYPE: ClassVar[str] = "HelloResponse"

    ok: bool = True
    detail: str = ""
    controller_generation: int = 0
    keepalive_interval: float = 10.0


@register_message
@dataclass
class KeepAlive(Message):
    """OBI → OBC: periodic liveness beacon (interval set by the OBC).

    Doubles as the anti-entropy report: each beacon restates what the
    OBI is running (version epoch + canonical graph digest) and the
    highest controller generation it has seen, so the controller's
    reconciliation loop can compare intended vs. reported state without
    an extra round trip.
    """

    TYPE: ClassVar[str] = "KeepAlive"

    obi_id: str = ""
    graph_version: int = 0
    graph_digest: str = ""
    controller_generation: int = 0


# ----------------------------------------------------------------------
# Capabilities and statistics
# ----------------------------------------------------------------------

@register_message
@dataclass
class ListCapabilitiesRequest(Message):
    TYPE: ClassVar[str] = "ListCapabilitiesRequest"


@register_message
@dataclass
class ListCapabilitiesResponse(Message):
    TYPE: ClassVar[str] = "ListCapabilitiesResponse"

    capabilities: dict[str, list[str]] = field(default_factory=dict)
    supports_custom_modules: bool = False


@register_message
@dataclass
class GlobalStatsRequest(Message):
    """OBC → OBI: request system-load information (paper Table 3)."""

    TYPE: ClassVar[str] = "GlobalStatsRequest"


@register_message
@dataclass
class GlobalStatsResponse(Message):
    TYPE: ClassVar[str] = "GlobalStatsResponse"

    obi_id: str = ""
    cpu_load: float = 0.0
    memory_used: int = 0
    memory_total: int = 0
    packets_processed: int = 0
    bytes_processed: int = 0
    uptime: float = 0.0


# ----------------------------------------------------------------------
# Processing-graph deployment
# ----------------------------------------------------------------------

@register_message
@dataclass
class SetProcessingGraphRequest(Message):
    """OBC → OBI: deploy a (merged) processing graph.

    ``graph`` is the serialized :class:`~repro.core.graph.ProcessingGraph`.
    """

    TYPE: ClassVar[str] = "SetProcessingGraphRequest"

    graph: dict[str, Any] = field(default_factory=dict)
    #: Split-brain guard (PROTOCOL.md §10): the sending controller's
    #: generation. 0 means "unversioned" (legacy senders) and is always
    #: accepted; otherwise an OBI rejects generations older than the
    #: highest it has seen with ``stale_generation``.
    controller_generation: int = 0
    #: Canonical digest of ``graph`` as the controller computed it; the
    #: OBI recomputes and refuses on mismatch (wire-corruption guard).
    graph_digest: str = ""


@register_message
@dataclass
class SetProcessingGraphResponse(Message):
    TYPE: ClassVar[str] = "SetProcessingGraphResponse"

    ok: bool = True
    detail: str = ""
    #: What the OBI is now running: lets the controller update its
    #: reported-state view without waiting for the next keepalive.
    graph_version: int = 0
    graph_digest: str = ""


# ----------------------------------------------------------------------
# Read / write handles
# ----------------------------------------------------------------------

@register_message
@dataclass
class ReadRequest(Message):
    """OBC → OBI: invoke a read handle on a block (paper §3.2)."""

    TYPE: ClassVar[str] = "ReadRequest"

    block: str = ""
    handle: str = ""


@register_message
@dataclass
class ReadResponse(Message):
    TYPE: ClassVar[str] = "ReadResponse"

    block: str = ""
    handle: str = ""
    value: Any = None


@register_message
@dataclass
class WriteRequest(Message):
    """OBC → OBI: invoke a write handle on a block (paper §3.2)."""

    TYPE: ClassVar[str] = "WriteRequest"

    block: str = ""
    handle: str = ""
    value: Any = None


@register_message
@dataclass
class WriteResponse(Message):
    TYPE: ClassVar[str] = "WriteResponse"

    block: str = ""
    handle: str = ""
    ok: bool = True


# ----------------------------------------------------------------------
# Custom module injection
# ----------------------------------------------------------------------

@register_message
@dataclass
class AddCustomModuleRequest(Message):
    """OBC → OBI: inject a custom module (paper §3.2.1).

    ``module_binary`` is base64 on the wire (a compiled Click module in
    the paper's implementation; Python source in this reproduction).
    ``block_types`` declares the new blocks the module implements, in the
    same schema as built-in block types; ``translation`` carries the
    information needed to translate OpenBox configs to the module's
    lower-level notation.
    """

    TYPE: ClassVar[str] = "AddCustomModuleRequest"

    module_name: str = ""
    module_binary: str = ""
    block_types: list[dict[str, Any]] = field(default_factory=list)
    translation: dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_binary(
        cls,
        module_name: str,
        binary: bytes,
        block_types: list[dict[str, Any]],
        translation: dict[str, Any] | None = None,
        **kwargs: Any,
    ) -> "AddCustomModuleRequest":
        return cls(
            module_name=module_name,
            module_binary=base64.b64encode(binary).decode("ascii"),
            block_types=block_types,
            translation=translation or {},
            **kwargs,
        )

    def binary(self) -> bytes:
        return base64.b64decode(self.module_binary)


@register_message
@dataclass
class AddCustomModuleResponse(Message):
    TYPE: ClassVar[str] = "AddCustomModuleResponse"

    module_name: str = ""
    ok: bool = True
    detail: str = ""


# ----------------------------------------------------------------------
# Upstream events
# ----------------------------------------------------------------------

@register_message
@dataclass
class Alert(Message):
    """OBI → OBC: an Alert block fired (paper §3.4: upstream events)."""

    TYPE: ClassVar[str] = "Alert"

    obi_id: str = ""
    block: str = ""
    origin_app: str = ""
    message: str = ""
    severity: str = "info"
    packet_summary: str = ""
    count: int = 1


@dataclass
class ObservabilitySnapshotResponse(Message):
    """One instance's observability state (PROTOCOL.md §9).

    Not a wire message: the §13 telemetry stream is the only upstream
    channel. This is the shape its two local producers return — the
    controller-side fold (``TelemetryBus.snapshot_response``) and the
    OBI's own registry read (``OpenBoxInstance.observability_snapshot``).

    ``metrics`` is the registry snapshot shape of
    :meth:`repro.observability.metrics.MetricsRegistry.snapshot`;
    ``traces`` is a list of serialized ``PacketTrace`` dicts whose spans
    carry per-block ``origin_app`` attribution. Everything is plain
    JSON — no wall-clock values appear in metric keys, so snapshots
    from different OBIs merge and diff cleanly.
    """

    TYPE: ClassVar[str] = "ObservabilitySnapshotResponse"

    obi_id: str = ""
    graph_version: int = 0
    metrics: dict[str, Any] = field(default_factory=dict)
    traces: list[dict[str, Any]] = field(default_factory=list)
    #: Trace-sampling accounting: packets considered / actually traced.
    packets_seen: int = 0
    packets_sampled: int = 0
    sample_rate: float = 0.0


@register_message
@dataclass
class LogMessage(Message):
    """OBI → OBC/log service: a Log block fired."""

    TYPE: ClassVar[str] = "Log"

    obi_id: str = ""
    block: str = ""
    origin_app: str = ""
    message: str = ""
    packet_summary: str = ""


# ----------------------------------------------------------------------
# External services & synchronization
# ----------------------------------------------------------------------

@register_message
@dataclass
class SetExternalServices(Message):
    """OBC → OBI: addresses of the log and storage services (paper §3.1)."""

    TYPE: ClassVar[str] = "SetExternalServices"

    log_server: str = ""
    storage_server: str = ""
    keepalive_interval: float = 10.0


@register_message
@dataclass
class PacketHistoryRequest(Message):
    """OBC → OBI: fetch the recent per-packet traversal records.

    The OpenBox answer to SDN packet-history debugging (paper §6 cites
    "I know what your packet did last hop"): each record names the exact
    block path a packet took, its verdict, outputs, and alerts.
    """

    TYPE: ClassVar[str] = "PacketHistoryRequest"

    #: Return at most this many most-recent records (0 = all retained).
    limit: int = 0


@register_message
@dataclass
class PacketHistoryResponse(Message):
    TYPE: ClassVar[str] = "PacketHistoryResponse"

    records: list[dict[str, Any]] = field(default_factory=list)


@register_message
@dataclass
class ExportStateRequest(Message):
    """OBC → OBI: snapshot the session storage (OpenNF-style migration)."""

    TYPE: ClassVar[str] = "ExportStateRequest"


@register_message
@dataclass
class ExportStateResponse(Message):
    TYPE: ClassVar[str] = "ExportStateResponse"

    #: One entry per flow: {"key": five-tuple dict, "session": entries,
    #: "created_at": float, "last_seen": float}.
    state: list[dict[str, Any]] = field(default_factory=list)


@register_message
@dataclass
class ImportStateRequest(Message):
    """OBC → OBI: install exported session state before flows arrive."""

    TYPE: ClassVar[str] = "ImportStateRequest"

    state: list[dict[str, Any]] = field(default_factory=list)


@register_message
@dataclass
class ImportStateResponse(Message):
    TYPE: ClassVar[str] = "ImportStateResponse"

    flows_imported: int = 0
    #: Entries refused by validation, keyed by reason ("malformed",
    #: "expired", "capacity"); empty on a complete transfer.
    rejected: dict[str, int] = field(default_factory=dict)


@register_message
@dataclass
class StateCheckpointRequest(Message):
    """OBC → OBI: export session state *with* its generation (§11).

    The checkpoint form of ExportStateRequest: the orchestrator's
    snapshot stage uses it so a later handoff can be generation-fenced
    against a ghost OBI's stale state.
    """

    TYPE: ClassVar[str] = "StateCheckpointRequest"


@register_message
@dataclass
class StateCheckpointResponse(Message):
    TYPE: ClassVar[str] = "StateCheckpointResponse"

    obi_id: str = ""
    #: The exporting table's incarnation (bumped on every restore).
    state_generation: int = 0
    #: export_entries() schema, including per-entry "age", "version",
    #: and "protected".
    state: list[dict[str, Any]] = field(default_factory=list)


@register_message
@dataclass
class StateHandoffRequest(Message):
    """OBC → OBI: install a dead peer's last checkpoint (failover, §11).

    The survivor fences on ``(source_obi, state_generation)``: a
    handoff older than one it already imported from the same source is
    rejected as stale — a partitioned ghost OBI's checkpoint can never
    overwrite the state a newer incarnation handed off.
    """

    TYPE: ClassVar[str] = "StateHandoffRequest"

    source_obi: str = ""
    state_generation: int = 0
    state: list[dict[str, Any]] = field(default_factory=list)


@register_message
@dataclass
class StateHandoffResponse(Message):
    TYPE: ClassVar[str] = "StateHandoffResponse"

    accepted: bool = True
    #: True when the handoff was fenced as stale (generation below the
    #: highest already imported from the same source OBI).
    stale: bool = False
    flows_imported: int = 0
    rejected: dict[str, int] = field(default_factory=dict)


# ----------------------------------------------------------------------
# Controller high availability (PROTOCOL.md §12)
# ----------------------------------------------------------------------

@register_message
@dataclass
class LeaseAnnounce(Message):
    """Leader → standby/OBI: "I hold the leadership lease".

    ``epoch`` is the lease epoch, which **is** the controller
    generation for lease-managed controllers — one monotonic fencing
    token for both replication and the data plane. ``endpoints`` is the
    ordered list of controller endpoints an OBI should try when
    re-homing after leader loss (the announcing leader first).
    Receivers fence: an announce with an epoch below the highest
    witnessed is answered ``stale_generation``.
    """

    TYPE: ClassVar[str] = "LeaseAnnounce"

    leader_id: str = ""
    epoch: int = 0
    #: Seconds of lease validity remaining at send time (advisory: lets
    #: a standby size its takeover patience without a shared clock).
    lease_remaining: float = 0.0
    endpoints: list[str] = field(default_factory=list)


@register_message
@dataclass
class JournalStream(Message):
    """Leader → standby: a batch of journal records past the replica's
    acknowledged cursor (PROTOCOL.md §12).

    ``snapshot`` True means the batch replaces the replica's journal
    wholesale — sent when the replica's cursor predates a compaction
    (its segment no longer exists) or on first contact. The replica
    fences on ``epoch`` exactly like an OBI fences deploys: a stream
    from a lower epoch than the highest witnessed is rejected
    ``stale_generation`` (a deposed leader must not overwrite the
    replica that may be about to succeed it).
    """

    TYPE: ClassVar[str] = "JournalStream"

    leader_id: str = ""
    epoch: int = 0
    snapshot: bool = False
    #: Position after applying ``records`` (segment = the leader
    #: journal's compaction incarnation, offset = record count).
    segment: int = 0
    offset: int = 0
    records: list[dict[str, Any]] = field(default_factory=list)


@register_message
@dataclass
class ReplicaAck(Message):
    """Standby → leader: durable replication progress (PROTOCOL.md §12).

    Acknowledges the cursor position the replica has *fsynced*; the
    leader uses it to track lag and to resume streaming after its own
    restart. ``epoch`` echoes the highest epoch the replica has
    witnessed — a leader seeing its own epoch exceeded there knows it
    has been superseded without waiting for an OBI to fence it.
    """

    TYPE: ClassVar[str] = "ReplicaAck"

    replica_id: str = ""
    epoch: int = 0
    segment: int = 0
    offset: int = 0


@register_message
@dataclass
class BarrierRequest(Message):
    """OBC → OBI: flush — respond only after all prior messages applied."""

    TYPE: ClassVar[str] = "BarrierRequest"


@register_message
@dataclass
class BarrierResponse(Message):
    TYPE: ClassVar[str] = "BarrierResponse"


@register_message
@dataclass
class ErrorMessage(Message):
    """Either direction: request failed; ``xid`` echoes the request."""

    TYPE: ClassVar[str] = "Error"

    code: str = ""
    detail: str = ""


# ----------------------------------------------------------------------
# Streaming telemetry (PROTOCOL.md §13)
# ----------------------------------------------------------------------

@register_message
@dataclass
class TelemetrySubscribe(Message):
    """OBC → OBI: open or refresh a telemetry subscription (§13).

    The OBI registers (or resumes) the named subscriber cursor on its
    telemetry ring and answers with a :class:`TelemetryStream` — the
    first batch, starting with a baseline record for a brand-new or
    gap-afflicted cursor. ``controller_generation`` rides the standard
    split-brain fence (§10): a subscribe from a deposed controller is
    rejected ``stale_generation`` before it can redirect the stream.
    """

    TYPE: ClassVar[str] = "TelemetrySubscribe"

    subscriber: str = "controller"
    #: Topic filter: any subset of {"metrics", "traces", "alerts"}
    #: (empty = all). Baselines ride the metrics topic.
    topics: list[str] = field(default_factory=list)
    #: Resume position: -1 resumes the OBI-side cursor (0 for a new
    #: subscriber, i.e. replay retained history); >= 0 sets it exactly.
    cursor: int = -1
    #: Max records per TelemetryStream batch (backpressure credit).
    window: int = 64
    #: One-shot drain: ignore ``window`` and return everything pending
    #: (``telemetry_snapshot`` uses this).
    drain: bool = False
    controller_generation: int = 0


@register_message
@dataclass
class TelemetryStream(Message):
    """OBI → OBC (push) or subscribe response: one cursored batch (§13).

    ``records`` each carry their ring ``seq``; the consumer folds only
    seqs above its cursor, so at-least-once redelivery after a
    reconnect deduplicates cleanly. ``lost`` counts records evicted
    before this batch could be read — never silent; the OBI emits a
    fresh baseline record after any gap so the consumer cannot stay
    stale. ``epoch`` is the controller generation the subscription was
    registered under; a consumer at a higher generation rejects the
    batch (NACK ``stale_generation``) so a stream started by a deposed
    controller dies at the first fence.
    """

    TYPE: ClassVar[str] = "TelemetryStream"

    obi_id: str = ""
    subscriber: str = "controller"
    #: Each record: {"seq": int, "kind": "baseline|metrics|trace|alert", ...}
    records: list[dict[str, Any]] = field(default_factory=list)
    #: Records evicted unread before this batch (counted gap).
    lost: int = 0
    #: Records still retained past this batch (drain loops stop at 0).
    pending: int = 0
    #: Highest ring seq this batch covers *inclusive* — may exceed the
    #: last record's seq when topic-filtered records were skipped; the
    #: consumer acks ``through_seq`` so filtered history is not replayed.
    through_seq: int = 0
    epoch: int = 0


@register_message
@dataclass
class TelemetryAck(Message):
    """OBC → OBI: consume/refuse a pushed TelemetryStream batch (§13).

    ``ok`` True acknowledges durably folding through ``cursor`` — the
    OBI advances the subscriber cursor and may evict acked records.
    ``ok`` False is a NACK: the OBI rewinds the cursor to ``cursor``
    and replays from there on the next publish (at-least-once).
    ``window`` re-extends backpressure credit for the next batch.
    """

    TYPE: ClassVar[str] = "TelemetryAck"

    subscriber: str = "controller"
    ok: bool = True
    cursor: int = 0
    window: int = 64
    error: str = ""
