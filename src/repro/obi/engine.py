"""The OBI execution engine — a push-based element engine (Click analog).

The paper's OBI wraps the Click modular router; this module is the
Python equivalent. A :class:`ProcessingGraph` is translated into a wired
set of :class:`Element` instances (one per block) and packets are pushed
through the wiring. The OpenBox protocol deliberately hides Click's
push/pull distinction (paper §2.1), so everything here is push.

For every injected packet the engine records a :class:`PacketOutcome`:
which output devices received which packets, whether it was dropped, the
side effects raised (alerts/logs), and the block path traversed — the
path is what the simulator's cost model consumes to compute latency and
throughput, since "the number of blocks in the graph has no effect on
OBI performance. The significant parameter is the length of paths".
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.graph import ProcessingGraph
from repro.net.packet import Packet
from repro.obi.fastpath import DecisionRecorder, flow_key
from repro.obi.storage import SessionStorage
from repro.observability.metrics import SIZE_BUCKETS


@dataclass
class AlertEvent:
    """An Alert block fired while processing a packet."""

    block: str
    origin_app: str | None
    message: str
    severity: str
    packet_summary: str


@dataclass
class LogEvent:
    """A Log block fired while processing a packet."""

    block: str
    origin_app: str | None
    message: str
    packet_summary: str


@dataclass
class ErrorEvent:
    """An element raised while processing a packet (contained fault)."""

    block: str
    origin_app: str | None
    error: str
    #: Containment applied: ``drop`` | ``bypass`` | ``punt``.
    policy: str
    packet_summary: str


@dataclass
class PacketOutcome:
    """Everything that happened to one injected packet."""

    outputs: list[tuple[str, Packet]] = field(default_factory=list)
    dropped: bool = False
    punted: bool = False
    #: Shed by the OBI's admission gate before reaching the graph.
    shed: bool = False
    alerts: list[AlertEvent] = field(default_factory=list)
    logs: list[LogEvent] = field(default_factory=list)
    #: Contained element faults (diagnostics; the externally observable
    #: consequence — drop/bypass/punt — is reflected in the fields above).
    errors: list[ErrorEvent] = field(default_factory=list)
    path: list[str] = field(default_factory=list)

    @property
    def forwarded(self) -> bool:
        return bool(self.outputs)

    def effects_key(self) -> tuple:
        """Canonical view of externally observable behaviour.

        Used by equivalence tests: two graph executions are equivalent iff
        their effects keys match (outputs with bytes, drop/punt status,
        and the multiset of alerts/logs with origins).
        """
        outputs = sorted((dev, bytes(pkt.data)) for dev, pkt in self.outputs)
        alerts = sorted(
            (event.origin_app or "", event.message, event.severity)
            for event in self.alerts
        )
        logs = sorted((event.origin_app or "", event.message) for event in self.logs)
        return (tuple(outputs), self.dropped, self.punted, tuple(alerts), tuple(logs))


@dataclass
class EngineContext:
    """Shared services available to elements while processing.

    ``now`` is the engine clock (simulated time may be injected by the
    network simulator); ``session`` is the OBI-wide session storage;
    the sinks collect side effects into the current PacketOutcome.
    """

    clock: Callable[[], float]
    session: SessionStorage
    log_service: Any = None
    storage_service: Any = None
    current: PacketOutcome | None = None
    #: Fault-containment layer (:class:`repro.obi.robustness.EngineRobustness`);
    #: None disables containment and restores fail-fast traversal.
    robustness: Any = None
    #: Fast-path state for the packet in flight (set by Engine.process):
    #: the cached element-name -> port map being replayed, or the
    #: :class:`~repro.obi.fastpath.DecisionRecorder` building one.
    decisions: dict[str, int] | None = None
    recorder: Any = None
    #: Active :class:`~repro.observability.tracing.PacketTrace` for the
    #: packet in flight; None (the overwhelmingly common case) means the
    #: traversal pays one None-check per element visit and nothing else.
    trace: Any = None

    @property
    def now(self) -> float:
        return self.clock()


class Element:
    """Base class for engine elements (one per processing block).

    Subclasses implement :meth:`process`, returning a list of
    ``(output_port, packet)`` pairs; the engine pushes each pair to the
    wired successor. Returning an empty list absorbs the packet.
    """

    #: May a visit to this element be part of a cached flow decision?
    #: False poisons the flow (no positive cache entry is installed):
    #: set by elements whose behaviour is stateful or payload-dependent
    #: in a way the flow key cannot capture. Resolved per instance by
    #: the translation layer (config override > block-type spec > this
    #: class default).
    cacheable: bool = True
    #: True for classifiers whose routing decision is a pure function
    #: of the flow key: the fast path records their decision once and
    #: replays it (via :meth:`replay_decision`) for later packets of
    #: the flow, skipping the match computation.
    caches_decision: bool = False
    #: Set by MetadataClassifier elements to the metadata key they
    #: route on; the engine folds these into the flow key (the
    #: "metadata scope" of the deployed graph).
    metadata_key: str | None = None
    #: True for stateful classifiers (conntrack) that decide for
    #: themselves when a decision is safe to record — the engine's
    #: automatic single-emission recording is skipped, and the element
    #: calls ``context.recorder.record(...)`` in the states where its
    #: verdict really is a pure function of flow key + flow state (and
    #: declares that state via ``recorder.note_flow_state``).
    records_own_decision: bool = False
    #: Write handles that cannot change routing decisions: a write to
    #: one skips the whole-cache invalidation in Engine.write_handle.
    #: Subclasses extend this only for handles that are provably
    #: routing-neutral (counter resets, flushes whose state changes
    #: already invalidate per flow).
    ROUTING_NEUTRAL_HANDLES: frozenset[str] = frozenset({"reset_counts"})

    def __init__(self, name: str, config: dict[str, Any], origin_app: str | None = None) -> None:
        self.name = name
        self.config = config
        self.origin_app = origin_app
        self.count = 0
        self.byte_count = 0
        self._outputs: dict[int, "Element"] = {}
        self.context: EngineContext | None = None

    # ------------------------------------------------------------------
    # Wiring (set up by the Engine)
    # ------------------------------------------------------------------
    def wire(self, port: int, successor: "Element") -> None:
        if port in self._outputs:
            raise ValueError(f"element {self.name} port {port} already wired")
        self._outputs[port] = successor

    def attach(self, context: EngineContext) -> None:
        self.context = context

    # ------------------------------------------------------------------
    # Processing
    # ------------------------------------------------------------------
    def push(self, packet: Packet) -> None:
        """Run ``packet`` through this element and everything downstream.

        Traversal is an explicit depth-first stack (not recursion), so
        arbitrarily deep processing graphs execute safely; the visiting
        order matches Click's immediate push semantics.
        """
        stack: list[tuple["Element", Packet, int]] = [(self, packet, -1)]
        # Per-traversal state lives on the engine context (only
        # Engine.process writes it) and the OBI sets the degradation
        # flags between packets: re-read them only when the context
        # changes.
        context = outcome = trace = decisions = recorder = guard = None
        degraded = False
        while stack:
            element, current, parent = stack.pop()
            if element.context is not context:
                context = element.context
                if context is None:
                    outcome = trace = decisions = recorder = guard = None
                    degraded = False
                else:
                    outcome = context.current
                    trace = context.trace
                    decisions = context.decisions
                    recorder = context.recorder
                    guard = context.robustness
                    degraded = guard is not None and guard.degraded
            if decisions is not None:
                # Fast path: replay the cached decision instead of
                # matching. Only decision-cached classifiers are
                # skipped — every other element runs normally below, so
                # data-dependent effects stay identical to a slow run.
                # Handle-visible state (count/byte_count/path and the
                # classifier's own tallies via replay_decision) is kept
                # byte-identical to the slow path.
                port = (
                    decisions.get(element.name)
                    if element.caches_decision and element.cacheable
                    else None
                )
                if port is not None:
                    element.count += 1
                    element.byte_count += len(current.data)
                    if outcome is not None:
                        outcome.path.append(element.name)
                    element.replay_decision(port, current)
                    if trace is not None:
                        span = trace.enter(
                            element.name, element.origin_app, parent, context.now
                        )
                        span.replayed = True
                        span.ports.append(port)
                        span.exit = context.now
                        trace.fastpath = True
                        parent = span.index
                    successor = element._outputs.get(port)
                    if successor is not None:
                        stack.append((successor, current, parent))
                    continue
            if guard is not None and (guard.breakers or degraded):
                # Quarantined element or overload-degraded bypass: the
                # element is skipped and containment emissions used
                # instead (it neither counts the packet nor appears on
                # the path — it did not process anything). Breakers
                # exist only once an element has faulted, so a healthy
                # OBI skips this check.
                contained = guard.intercept(element, current, outcome)
                if contained is not None:
                    if recorder is not None:
                        # A quarantine/degradation detour is transient
                        # state, not a property of the flow: never
                        # install a decision recorded around one.
                        recorder.poison()
                    if trace is not None:
                        span = trace.enter(
                            element.name, element.origin_app, parent, context.now
                        )
                        span.event = (
                            "degraded-bypass"
                            if guard.degraded and element.config.get("degradable")
                            else "quarantine-bypass"
                        )
                        span.ports.extend(port for port, _ in contained)
                        parent = span.index
                    for port, out_packet in reversed(contained):
                        successor = element._outputs.get(port)
                        if successor is not None:
                            stack.append((successor, out_packet, parent))
                    continue
            element.count += 1
            element.byte_count += len(current.data)
            if outcome is not None:
                outcome.path.append(element.name)
            span = (
                trace.enter(element.name, element.origin_app, parent, context.now)
                if trace is not None
                else None
            )
            if guard is not None:
                try:
                    emissions = element.process(current)
                except Exception as exc:  # noqa: BLE001 — containment boundary
                    if recorder is not None:
                        recorder.poison()
                    emissions = guard.contain(element, current, exc, outcome)
                    if span is not None:
                        span.event = f"fault:{guard.policy.error_policy}"
                else:
                    if guard.breakers:
                        guard.on_success(element)
            else:
                emissions = element.process(current)
            if span is not None:
                span.exit = context.now
                span.ports.extend(port for port, _ in emissions)
                parent = span.index
            if recorder is not None:
                if not element.cacheable:
                    recorder.poison()
                elif (
                    element.caches_decision
                    and not element.records_own_decision
                    and len(emissions) == 1
                ):
                    recorder.record(element.name, emissions[0][0])
            # Reversed so the first emission is processed first (DFS).
            for port, out_packet in reversed(emissions):
                successor = element._outputs.get(port)
                if successor is not None:
                    stack.append((successor, out_packet, parent))
                # An unwired port absorbs the packet — matching a
                # processing graph with a dangling classifier outcome.

    def process(self, packet: Packet) -> list[tuple[int, Packet]]:
        """Transform/route ``packet``; default is pass-through on port 0."""
        return [(0, packet)]

    def replay_decision(self, port: int, packet: Packet) -> None:
        """Restore per-decision bookkeeping when the fast path skips
        :meth:`process` (e.g. a classifier's match_counts); count,
        byte_count, and the outcome path are handled by the engine."""

    # ------------------------------------------------------------------
    # Handles (paper §3.2)
    # ------------------------------------------------------------------
    def read_handle(self, name: str) -> Any:
        if name == "count":
            return self.count
        if name == "byte_count":
            return self.byte_count
        raise KeyError(f"element {self.name} has no read handle {name!r}")

    def write_handle(self, name: str, value: Any) -> None:
        if name == "reset_counts":
            self.count = 0
            self.byte_count = 0
            return
        raise KeyError(f"element {self.name} has no write handle {name!r}")


class Engine:
    """A wired element pipeline executing one processing graph."""

    def __init__(
        self,
        graph: ProcessingGraph,
        elements: dict[str, Element],
        context: EngineContext,
        flow_cache: Any = None,
        tracer: Any = None,
        metrics: Any = None,
    ) -> None:
        """Use :func:`repro.obi.translation.build_engine` to construct."""
        self.graph = graph
        self.elements = elements
        self.context = context
        #: Flow-decision fast path (:mod:`repro.obi.fastpath`); None
        #: disables it and every packet takes the full traversal.
        self.flow_cache = flow_cache
        #: Sampled tracing (:class:`~repro.observability.tracing.PacketTracer`);
        #: None is the hard off-switch.
        self.tracer = tracer
        self.metrics = metrics
        # Hot-path telemetry is plain-int accumulation; export_metrics()
        # mirrors the totals into the registry at snapshot time (same
        # pattern as the flow cache), so per-packet cost is a handful of
        # integer adds whether or not a registry is attached.
        self.dropped_total = 0
        self.punted_total = 0
        self.alerts_total = 0
        self.faults_total = 0
        #: Raw path-length counts (index = path length, clamped); folded
        #: into the SIZE_BUCKETS histogram at export.
        self._path_counts = [0] * 193
        if metrics is not None:
            self._m_packets = metrics.counter("engine_packets_total")
            self._m_dropped = metrics.counter("engine_dropped_total")
            self._m_punted = metrics.counter("engine_punted_total")
            self._m_alerts = metrics.counter("engine_alerts_total")
            self._m_faults = metrics.counter("engine_element_faults_total")
            self._m_path = metrics.histogram("engine_path_length", SIZE_BUCKETS)
        else:
            self._m_packets = None
            self._m_dropped = None
            self._m_punted = None
            self._m_alerts = None
            self._m_faults = None
            self._m_path = None
        # Export watermarks: what has already been mirrored, so exports
        # are additive (the registry outlives this engine across graph
        # redeployments).
        self._exported_packets = 0
        self._exported_dropped = 0
        self._exported_punted = 0
        self._exported_alerts = 0
        self._exported_faults = 0
        self._exported_path = [0] * 193
        #: Metadata keys this graph routes on: part of the flow key, so
        #: two packets of one 5-tuple that carry different upstream
        #: classification results never share a cache entry.
        self._metadata_scope = tuple(sorted({
            element.metadata_key
            for element in elements.values()
            if element.metadata_key
        }))
        self.entry_name = graph.entry_point()
        # A partially committed graph (e.g. a translation that dropped
        # blocks) may not have an element for the entry point. Tolerate
        # that at construction so the two-phase verify stage can inspect
        # and reject it; process() fails fast without counting anything.
        self._entry = elements.get(self.entry_name)
        for element in elements.values():
            element.attach(context)
        self.packets_processed = 0
        self.bytes_processed = 0

    @property
    def entry_resolved(self) -> bool:
        """True iff the graph's entry point translated into a live element."""
        return self._entry is not None

    def process(self, packet: Packet) -> PacketOutcome:
        """Push one packet through the graph and collect its outcome."""
        if self._entry is None:
            # Refuse *before* touching the counters: a packet that never
            # entered the graph must not inflate packets/bytes_processed.
            raise KeyError(
                f"entry element {self.entry_name!r} missing from engine"
            )
        outcome = PacketOutcome()
        context = self.context
        context.current = outcome
        tracer = self.tracer
        trace = None
        if tracer is not None and tracer.should_sample():
            try:
                summary = packet.summary()
            except Exception:  # noqa: BLE001 — the packet may be hostile
                summary = f"unparseable frame len={len(packet.data)}"
            trace = tracer.begin(summary)
            context.trace = trace
        cache = self.flow_cache
        recorder = None
        if cache is not None:
            guard = context.robustness
            key = None
            if guard is None or not guard.fastpath_blocked:
                key = flow_key(packet, self._metadata_scope)
            if key is None:
                cache.bypassed += 1
            else:
                entry = cache.lookup(key)
                if entry is None:
                    recorder = DecisionRecorder(key)
                    context.recorder = recorder
                elif entry.uncacheable:
                    cache.uncacheable_hits += 1
                else:
                    cache.hits += 1
                    context.decisions = entry.decisions
        try:
            self._entry.push(packet)
        finally:
            context.current = None
            context.decisions = None
            context.recorder = None
            context.trace = None
        if recorder is not None:
            # Reached only when push() completed: a traversal that
            # unwound (robustness disabled) installs nothing. An
            # abandoned recording (the traversal transitioned the flow
            # state it read) installs nothing either — the next packet
            # records afresh against the settled state.
            cache.misses += 1
            if not recorder.abandoned:
                cache.install(recorder.key, recorder.finish())
        if trace is not None:
            tracer.finish(trace, outcome)
        self.packets_processed += 1
        self.bytes_processed += len(packet.data)
        if outcome.dropped:
            self.dropped_total += 1
        if outcome.punted:
            self.punted_total += 1
        if outcome.alerts:
            self.alerts_total += len(outcome.alerts)
        if outcome.errors:
            self.faults_total += len(outcome.errors)
        length = len(outcome.path)
        self._path_counts[length if length < 192 else 192] += 1
        return outcome

    def export_metrics(self) -> None:
        """Mirror accumulated telemetry into the metrics registry.

        Additive and idempotent: only the delta since the previous export
        is applied, so the registry keeps accumulating across graph
        redeployments (each deploy builds a fresh engine against the same
        OBI-owned registry). No-op without a registry.
        """
        if self._m_packets is None:
            return
        self._m_packets.inc(self.packets_processed - self._exported_packets)
        self._exported_packets = self.packets_processed
        self._m_dropped.inc(self.dropped_total - self._exported_dropped)
        self._exported_dropped = self.dropped_total
        self._m_punted.inc(self.punted_total - self._exported_punted)
        self._exported_punted = self.punted_total
        self._m_alerts.inc(self.alerts_total - self._exported_alerts)
        self._exported_alerts = self.alerts_total
        self._m_faults.inc(self.faults_total - self._exported_faults)
        self._exported_faults = self.faults_total
        hist = self._m_path
        exported = self._exported_path
        for length, count in enumerate(self._path_counts):
            delta = count - exported[length]
            if delta:
                slot = bisect.bisect_left(hist.boundaries, length)
                hist.counts[slot] += delta
                hist.count += delta
                hist.sum += delta * length
                exported[length] = count

    def element(self, name: str) -> Element:
        try:
            return self.elements[name]
        except KeyError:
            raise KeyError(f"no element named {name!r} in engine") from None

    def read_handle(self, block: str, handle: str) -> Any:
        return self.element(block).read_handle(handle)

    def write_handle(self, block: str, handle: str, value: Any) -> None:
        element = self.element(block)
        element.write_handle(handle, value)
        # Any handle write may change routing (rule replacement, shaper
        # rates): recorded decisions are no longer trustworthy. Handles
        # an element declares routing-neutral (counter resets, state
        # flushes that invalidate per flow) are exempt — they were the
        # dominant source of full-cache invalidation storms.
        if (
            self.flow_cache is not None
            and handle not in element.ROUTING_NEUTRAL_HANDLES
        ):
            self.flow_cache.invalidate_all("write-handle")
