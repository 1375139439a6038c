"""The OpenBox controller (OBC) core.

Responsibilities (paper §3.3):

* accept OBI connections (Hello handshake), track capabilities;
* determine which application graphs apply to each OBI, merge them with
  the graph-merge algorithm, and deploy the merged graph;
* demultiplex upstream events (alerts by origin application, keepalives
  to the stats tracker, responses by transaction id);
* serve the northbound API: application registration, read/write
  requests with callbacks, stats requests, redeployment on logic change.
"""

from __future__ import annotations

import collections
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.controller.aggregator import AggregationResult, GraphAggregator
from repro.controller.apps import OpenBoxApplication
from repro.controller.journal import JournalState, ReplayResult, StateJournal
from repro.controller.results import (
    AppStatsView,
    HandleError,
    HandleReadResult,
    HandleWriteResult,
)
from repro.controller.segments import SegmentHierarchy
from repro.controller.stats import ObiStatsTracker
from repro.controller.xid import RequestMultiplexer
from repro.core.graph import canonical_graph_digest
from repro.core.merge import MergePolicy
from repro.durable import Storage
from repro.observability.metrics import default_registry
from repro.protocol.codec import PROTOCOL_VERSION
from repro.transport.base import ChannelClosed
from repro.protocol.errors import ErrorCode, ProtocolError
from repro.protocol.messages import (
    Alert,
    ErrorMessage,
    GlobalStatsRequest,
    GlobalStatsResponse,
    Hello,
    HelloResponse,
    KeepAlive,
    LogMessage,
    Message,
    ObservabilitySnapshotResponse,
    ReadRequest,
    ReadResponse,
    SetProcessingGraphRequest,
    SetProcessingGraphResponse,
    TelemetryAck,
    TelemetryStream,
    TelemetrySubscribe,
    WriteRequest,
    WriteResponse,
    advance_xids,
    xid_watermark,
)
from repro.telemetry.bus import TelemetryBus, Watch


@dataclass
class ObiHandle:
    """The controller's record of one connected OBI."""

    obi_id: str
    segment: str
    capabilities: dict[str, list[str]]
    channel: Any
    supports_custom_modules: bool = False
    capacity_hint: float = 1.0
    callback_url: str = ""
    deployed: AggregationResult | None = None
    connected_at: float = 0.0
    #: Deployment generation, bumped on every successful SetProcessingGraph.
    generation: int = 0
    #: Canonical digest of the graph the controller intends this OBI to
    #: run (journaled; the anti-entropy loop's "should be" side).
    intended_digest: str = ""
    #: What the OBI last claimed to be running (Hello/KeepAlive/deploy
    #: response) — the anti-entropy loop's "is" side.
    reported_digest: str = ""
    reported_graph_version: int = 0
    #: Highest controller generation the OBI acknowledged seeing.
    reported_generation: int = 0


class OpenBoxController:
    """A logically-centralized OpenBox controller."""

    #: Origin stamped on controller-generated alerts (deploy failures).
    CONTROLLER_ORIGIN = "_controller"

    def __init__(
        self,
        merge_policy: MergePolicy | None = None,
        clock: Callable[[], float] | None = None,
        auto_deploy: bool = True,
        max_deploy_failures: int = 100,
        journal: StateJournal | None = None,
    ) -> None:
        self.clock = clock or time.monotonic
        self.segments = SegmentHierarchy()
        self.aggregator = GraphAggregator(self.segments, merge_policy)
        self.mux = RequestMultiplexer()
        # Forgetting an OBI sweeps its pending xid requests; liveness
        # math rides the same injectable monotonic clock as everything
        # else, never the wall clock.
        self.stats = ObiStatsTracker(mux=self.mux, clock=self.clock)
        self.applications: dict[str, OpenBoxApplication] = {}
        self.obis: dict[str, ObiHandle] = {}
        self.auto_deploy = auto_deploy
        self.alerts: list[Alert] = []
        self.logs: list[LogMessage] = []
        #: Split-brain fencing epoch: bumped (durably, before any message
        #: is sent) every time a controller recovers from a journal, so
        #: OBIs can reject a stale predecessor's pushes.
        self.generation = 1
        #: Set when a peer rejected us as stale (another controller with
        #: a higher generation owns the fleet) — stop pushing.
        self.superseded = False
        #: OBIs the journal says existed before a crash, keyed by obi_id:
        #: {"segment", "callback_url", "digest", "graph_version"}. Moved
        #: into live handles as each OBI re-establishes contact.
        self.expected_obis: dict[str, dict[str, Any]] = {}
        #: Replay diagnostics from :meth:`recover` (None on fresh start).
        self.recovered_from: ReplayResult | None = None
        self.recovery_warnings: list[str] = []
        self.journal = journal
        #: True while in journaled-read-only degraded mode: the journal
        #: storage refused a write, so state-mutating southbound pushes
        #: are fenced (OBIs keep forwarding on headless semantics) until
        #: :meth:`try_resume_journal` rebuilds a fresh durable segment.
        self.degraded = False
        self.degraded_since = 0.0
        #: Journal records shed while degraded (drop accounting; the
        #: rebuilt segment snapshots live state, so nothing is lost).
        self.journal_dropped_records = 0
        #: Successful returns from degraded mode.
        self.journal_resumes = 0
        #: Bounded audit of deploy rejections (obi_id, detail); the full
        #: count lives in :attr:`failed_deployments`.
        self.deploy_failures: collections.deque[tuple[str, str]] = collections.deque(
            maxlen=max_deploy_failures
        )
        self.failed_deployments = 0
        #: Consecutive deploy failures per OBI, reset on success; the
        #: orchestrator's failover stage treats a persistently failing
        #: instance like a dead one.
        self.consecutive_deploy_failures: dict[str, int] = {}
        # Control-plane loop metrics on the process-wide registry (the
        # controller has no per-OBI registry; per-OBI series arrive on
        # the telemetry stream instead).
        registry = default_registry()
        self._m_deploys = registry.counter("controller_deployments_total")
        self._m_deploy_failures = registry.counter(
            "controller_deploy_failures_total"
        )
        self._m_alerts = registry.counter("controller_alerts_received_total")
        self._m_stats_polls = registry.counter("controller_stats_polls_total")
        self._m_obsv_polls = registry.counter(
            "controller_observability_polls_total"
        )
        self._m_app_requests = registry.counter("controller_app_requests_total")
        self._m_deploy_latency = registry.histogram("controller_deploy_seconds")
        #: Streaming telemetry (PROTOCOL.md §13): pushed TelemetryStream
        #: batches fold here; watch()/subscribe() fan matching events out
        #: to northbound consumers without any polling sweep.
        self.telemetry = TelemetryBus()
        #: Per-OBI subscription parameters the controller asked for
        #: (window/topics), echoed back in every ack.
        self._telemetry_subscriptions: dict[str, dict[str, Any]] = {}
        #: Pending NACK rewinds (obi_id -> cursor): the next pushed batch
        #: from that OBI is refused and its cursor rewound — the ops/test
        #: hook for forcing an at-least-once replay.
        self._pending_nacks: dict[str, int] = {}
        self._m_streams = registry.counter("controller_telemetry_streams_total")
        self._m_stream_records = registry.counter(
            "controller_telemetry_records_total"
        )
        if journal is not None:
            # A fresh journaled controller durably claims generation 1.
            # (Last in __init__: a storage failure here lands on the
            # fully-wired degraded path, not a half-built object.)
            self._journal(
                {"rec": "generation", "generation": self.generation}, flush=True
            )

    # ------------------------------------------------------------------
    # Durable state (PROTOCOL.md §10)
    # ------------------------------------------------------------------
    def _journal(self, record: dict[str, Any], flush: bool = False) -> None:
        """Append a record to the journal (no-op when not journaling).

        A storage failure (ENOSPC, EIO, a dead handle) does **not**
        crash the control loop: the controller enters journaled-read-only
        degraded mode — the record is shed (counted), deploys are fenced,
        and a ``_controller`` alert fires. Nothing is ultimately lost:
        :meth:`try_resume_journal` rebuilds the journal from live state
        once storage heals.
        """
        if self.journal is None:
            return
        if self.degraded:
            self.journal_dropped_records += 1
            return
        try:
            self.journal.append(record)
            if flush:
                self.journal.flush()
            self.journal.maybe_compact(self._journal_state())
        except (OSError, ValueError) as exc:
            # ValueError covers writes through a handle a failed compact
            # had to close; both mean the same thing — storage is gone.
            self.journal_dropped_records += 1
            self._enter_degraded(str(exc) or type(exc).__name__)

    def _enter_degraded(self, detail: str) -> None:
        """Shed to journaled-read-only mode and raise the operator alert."""
        if self.degraded:
            return
        self.degraded = True
        self.degraded_since = self.clock()
        self._handle_alert(Alert(
            obi_id="",
            origin_app=self.CONTROLLER_ORIGIN,
            message=(
                f"journal storage failed ({detail}); controller entering "
                "journaled-read-only degraded mode — deploys fenced, OBIs "
                "continue on headless semantics until storage heals"
            ),
            severity="critical",
        ))

    def try_resume_journal(self) -> bool:
        """Attempt to leave degraded mode (called from the orchestrator).

        One successful :meth:`StateJournal.rebuild` — a fresh fsync'd
        segment snapshotting the *live* controller state, which absorbed
        every record shed while degraded — makes the journal whole and
        lifts the deploy fence. Returns True when no longer degraded.
        """
        if not self.degraded:
            return True
        if self.journal is None:
            self.degraded = False
            return True
        try:
            self.journal.rebuild(self._journal_state())
        except OSError:
            return False
        self.degraded = False
        self.journal_resumes += 1
        self._handle_alert(Alert(
            obi_id="",
            origin_app=self.CONTROLLER_ORIGIN,
            message=(
                "journal storage healed; rebuilt as fresh segment "
                f"{self.journal.segment} ({self.journal_dropped_records} "
                "records shed while degraded, state re-snapshotted)"
            ),
            severity="info",
        ))
        return True

    def _journal_state(self) -> JournalState:
        """The controller's current logical state, for compaction."""
        state = JournalState(generation=self.generation)
        state.apps = {
            name: {"priority": app.priority}
            for name, app in self.applications.items()
        }
        state.segments = self.segments.all_paths()
        for obi_id, handle in self.obis.items():
            state.obis[obi_id] = {
                "segment": handle.segment,
                "callback_url": handle.callback_url,
                "digest": handle.intended_digest,
                "graph_version": handle.generation,
            }
        for obi_id, info in self.expected_obis.items():
            state.obis.setdefault(obi_id, dict(info))
        state.xid_high = xid_watermark()
        return state

    def close(self) -> None:
        """Flush and close the journal (a SIGKILL never gets to call
        this — that is what replay is for — but clean shutdowns should)."""
        if self.journal is not None:
            self.journal.close()

    @classmethod
    def recover(
        cls,
        path: str,
        applications: list[OpenBoxApplication] | tuple = (),
        merge_policy: MergePolicy | None = None,
        clock: Callable[[], float] | None = None,
        auto_deploy: bool = True,
        fsync_every: int = 8,
        compact_every: int = 256,
        storage: "Storage | None" = None,
    ) -> "OpenBoxController":
        """Rebuild a controller from its journal after a crash.

        Replays snapshot + tail (longest valid prefix), restores segment
        topology and per-OBI intended state, advances the xid allocator
        past the journaled high-watermark, durably bumps the controller
        generation *before* anything is sent (split-brain fencing), and
        re-registers the supplied application objects (code cannot live
        in a journal — the journal only validates the set by name).

        OBIs are *not* contacted here: they reappear in ``self.obis`` as
        they re-Hello (or are re-dialed via their journaled callback
        URLs), and the anti-entropy loop converges each one — adopting
        its reported graph when it already matches intent, re-pushing
        when it does not.
        """
        replay = StateJournal.replay(path)
        state = replay.state
        controller = cls(
            merge_policy=merge_policy,
            clock=clock,
            auto_deploy=auto_deploy,
        )
        controller.recovered_from = replay
        controller.generation = state.generation + 1
        advance_xids(state.xid_high)
        for segment_path in state.segments:
            controller.segments.add(segment_path)
        controller.expected_obis = {
            obi_id: dict(info) for obi_id, info in state.obis.items()
        }
        # Fence the new generation durably before any message goes out.
        controller.journal = StateJournal(
            path, fsync_every=fsync_every, compact_every=compact_every,
            storage=storage,
        )
        controller._journal(
            {"rec": "generation", "generation": controller.generation,
             "xid_high": xid_watermark()},
            flush=True,
        )
        # Re-register application code; deployment waits for reconnects.
        previous_auto = controller.auto_deploy
        controller.auto_deploy = False
        supplied: set[str] = set()
        for app in applications:
            controller.register_application(app)
            supplied.add(app.name)
        controller.auto_deploy = previous_auto
        for missing in sorted(set(state.apps) - supplied):
            controller.recovery_warnings.append(
                f"journal names application {missing!r} but it was not "
                "supplied to recover(); its graphs will not be deployed"
            )
        for extra in sorted(supplied - set(state.apps)):
            controller.recovery_warnings.append(
                f"application {extra!r} was not in the journal; treating "
                "it as newly registered"
            )
        if replay.truncated:
            controller.recovery_warnings.append(
                f"journal tail was corrupt ({replay.bad_line!r}); recovered "
                f"the longest valid prefix ({replay.records} records)"
            )
        return controller

    def adopt_epoch(self, epoch: int) -> None:
        """Adopt a lease epoch as the controller generation (§12).

        For lease-managed controllers the store-minted epoch *is* the
        fencing token OBIs check, so a freshly promoted standby raises
        its generation to the lease epoch — journaled and fsynced
        before returning, i.e. before any OBI can see a message
        stamped with it. Adopting an epoch at or below the current
        generation is a no-op (a renewal never moves the fence).
        """
        if epoch <= self.generation:
            return
        self.generation = int(epoch)
        self._journal(
            {"rec": "generation", "generation": self.generation,
             "xid_high": xid_watermark()},
            flush=True,
        )

    @property
    def epoch(self) -> int:
        """Alias: the generation viewed as a lease epoch (§12)."""
        return self.generation

    # ------------------------------------------------------------------
    # Northbound: application management
    # ------------------------------------------------------------------
    def register_application(self, app: OpenBoxApplication) -> None:
        if app.name in self.applications:
            raise ValueError(f"application {app.name!r} already registered")
        for statement in app.statements():
            # Scope sanity at registration time: a statement naming a
            # segment no current or future OBI of the known topology can
            # fall under would silently match nothing forever — fail
            # loudly instead. An empty hierarchy declines to judge
            # (registering apps before any OBI connects is supported).
            if statement.segment and not self.segments.could_match(
                statement.segment
            ):
                raise ValueError(
                    f"application {app.name!r} statement scopes segment "
                    f"{statement.segment!r}, which matches no known segment "
                    f"(known: {self.segments.all_paths() or ['<none>']}); "
                    "declare it with segments.add() first"
                )
        self.applications[app.name] = app
        app.controller = self
        self._journal({
            "rec": "app", "op": "register",
            "name": app.name, "priority": app.priority,
        })
        app.on_start(self)
        if self.auto_deploy:
            self.redeploy_all()

    def unregister_application(self, name: str) -> None:
        app = self.applications.pop(name, None)
        if app is not None:
            app.controller = None
            self._journal({"rec": "app", "op": "unregister", "name": name})
            if self.auto_deploy:
                self.redeploy_all()

    def redeploy_app(self, app: OpenBoxApplication) -> None:
        """An application's logic changed; redeploy affected OBIs."""
        for handle in self.obis.values():
            if any(
                statement.applies_to(handle.obi_id, handle.segment, self.segments)
                for statement in app.statements()
            ):
                self.deploy(handle.obi_id)

    # ------------------------------------------------------------------
    # Southbound: OBI lifecycle
    # ------------------------------------------------------------------
    def handle_message(self, message: Message) -> Message | None:
        """Entry point for everything arriving from the data plane."""
        try:
            return self._dispatch(message)
        except ProtocolError as exc:
            return ErrorMessage(xid=message.xid, code=exc.code, detail=exc.detail)

    def _dispatch(self, message: Message) -> Message | None:
        if isinstance(message, Hello):
            return self._handle_hello(message)
        if isinstance(message, KeepAlive):
            self.stats.record_keepalive(message.obi_id, self.clock())
            handle = self.obis.get(message.obi_id)
            if handle is not None:
                handle.reported_digest = message.graph_digest
                handle.reported_graph_version = message.graph_version
                handle.reported_generation = max(
                    handle.reported_generation, message.controller_generation
                )
                if message.controller_generation > self.generation:
                    self.superseded = True
            return None
        if isinstance(message, Alert):
            self._handle_alert(message)
            return None
        if isinstance(message, LogMessage):
            self.logs.append(message)
            return None
        if isinstance(message, TelemetryStream):
            return self._handle_telemetry_stream(message)
        # Anything else is a response to an app-initiated request.
        if self.mux.dispatch(message):
            return None
        raise ProtocolError(
            ErrorCode.UNKNOWN_MESSAGE,
            f"controller cannot handle unsolicited {message.TYPE}",
        )

    def _handle_hello(self, hello: Hello) -> Message:
        if hello.version.split(".")[0] != PROTOCOL_VERSION.split(".")[0]:
            raise ProtocolError(
                ErrorCode.UNSUPPORTED_VERSION,
                f"OBI speaks {hello.version}, controller speaks {PROTOCOL_VERSION}",
            )
        if hello.controller_generation > self.generation:
            # The OBI has already obeyed a newer controller: this one is
            # the stale side of a split brain. Record it and stand down.
            self.superseded = True
        handle = ObiHandle(
            obi_id=hello.obi_id,
            segment=hello.segment,
            capabilities=hello.capabilities,
            channel=None,
            supports_custom_modules=hello.supports_custom_modules,
            capacity_hint=hello.capacity_hint,
            callback_url=hello.callback_url,
            connected_at=self.clock(),
            reported_digest=hello.graph_digest,
            reported_graph_version=hello.graph_version,
            reported_generation=hello.controller_generation,
        )
        existing = self.obis.get(hello.obi_id)
        if existing is not None:
            handle.channel = existing.channel
            handle.deployed = existing.deployed
            handle.intended_digest = existing.intended_digest
            handle.generation = existing.generation
        expected = self.expected_obis.pop(hello.obi_id, None)
        if expected is not None:
            # A journaled OBI coming back after our crash: restore the
            # pre-crash intent so anti-entropy can judge convergence.
            handle.intended_digest = expected.get("digest", "")
            handle.generation = int(expected.get("graph_version", 0))
        self.obis[hello.obi_id] = handle
        self.segments.add(hello.segment)
        self._journal({"rec": "segment", "path": hello.segment})
        self._journal({
            "rec": "obi", "obi_id": hello.obi_id,
            "segment": hello.segment, "callback_url": hello.callback_url,
            "xid_high": xid_watermark(),
        }, flush=True)
        self.stats.register(hello.obi_id, self.clock())
        for app in self.applications.values():
            app.on_obi_connected(hello.obi_id)
        if self.auto_deploy and handle.channel is not None:
            self.reconcile_obi(hello.obi_id)
        return HelloResponse(
            xid=hello.xid,
            ok=True,
            detail="hello ack",
            controller_generation=self.generation,
        )

    def connect_obi(self, obi_id: str, channel: Any) -> None:
        """Bind the downstream channel for an OBI (after its Hello).

        With the in-process transport the same channel carries both
        directions; with REST this is a RestPeerChannel to the OBI's
        callback URL.
        """
        handle = self._handle_of(obi_id)
        handle.channel = channel
        if self.auto_deploy:
            self.reconcile_obi(obi_id)

    def disconnect_obi(self, obi_id: str) -> None:
        if self.obis.pop(obi_id, None) is not None:
            for app in self.applications.values():
                app.on_obi_disconnected(obi_id)
            self._journal({"rec": "obi_forgotten", "obi_id": obi_id})
        self.stats.forget(obi_id)

    def _handle_of(self, obi_id: str) -> ObiHandle:
        handle = self.obis.get(obi_id)
        if handle is None:
            raise ProtocolError(ErrorCode.NOT_CONNECTED, f"unknown OBI {obi_id!r}")
        return handle

    def _handle_alert(self, alert: Alert) -> None:
        """Demultiplex an alert to its originating application (§6)."""
        self.alerts.append(alert)
        self._m_alerts.inc()
        app = self.applications.get(alert.origin_app)
        if app is not None:
            app.on_alert(alert)

    # ------------------------------------------------------------------
    # Deployment
    # ------------------------------------------------------------------
    def compute_deployment(self, obi_id: str) -> AggregationResult | None:
        """The merged graph that should run on ``obi_id`` right now."""
        handle = self._handle_of(obi_id)
        return self.aggregator.aggregate(
            list(self.applications.values()), handle.obi_id, handle.segment
        )

    def _record_deploy_failure(self, obi_id: str, detail: str) -> None:
        """Track a failed deployment and surface it on the alert path."""
        self.deploy_failures.append((obi_id, detail))
        self.failed_deployments += 1
        self._m_deploy_failures.inc()
        self.consecutive_deploy_failures[obi_id] = (
            self.consecutive_deploy_failures.get(obi_id, 0) + 1
        )
        self._handle_alert(Alert(
            obi_id=obi_id,
            origin_app=self.CONTROLLER_ORIGIN,
            message=f"deployment to {obi_id!r} failed: {detail}",
            severity="error",
        ))

    def deploy(self, obi_id: str) -> AggregationResult | None:
        """Merge and push the applicable graphs to one OBI."""
        if self.degraded:
            # Journaled-read-only: a deploy the journal cannot record is
            # a deploy a recovered controller would not know about —
            # exactly the intent-divergence the journal exists to
            # prevent. OBIs keep forwarding on what they already run.
            raise ProtocolError(
                ErrorCode.DEGRADED,
                f"deploy to {obi_id!r} fenced: controller is in "
                "journaled-read-only degraded mode (journal storage "
                "failed); will resume when storage heals",
            )
        handle = self._handle_of(obi_id)
        if handle.channel is None:
            raise ProtocolError(ErrorCode.NOT_CONNECTED, f"OBI {obi_id!r} has no channel")
        result = self.compute_deployment(obi_id)
        if result is None:
            return None
        graph_dict = result.graph.to_dict()
        digest = canonical_graph_digest(graph_dict)
        started = self.clock()
        try:
            response = handle.channel.request(SetProcessingGraphRequest(
                graph=graph_dict,
                controller_generation=self.generation,
                graph_digest=digest,
            ))
        except ChannelClosed as exc:
            self._record_deploy_failure(obi_id, f"channel failed: {exc}")
            raise ProtocolError(
                ErrorCode.NOT_CONNECTED, f"OBI {obi_id!r} unreachable: {exc}"
            ) from exc
        finally:
            self._m_deploy_latency.observe(self.clock() - started)
        if isinstance(response, SetProcessingGraphResponse) and response.ok:
            handle.deployed = result
            handle.generation += 1
            handle.intended_digest = digest
            handle.reported_digest = response.graph_digest or digest
            handle.reported_graph_version = (
                response.graph_version or handle.generation
            )
            handle.reported_generation = max(
                handle.reported_generation, self.generation
            )
            self.consecutive_deploy_failures.pop(obi_id, None)
            self._m_deploys.inc()
            self._journal({
                "rec": "deploy", "obi_id": obi_id, "digest": digest,
                "graph_version": handle.generation,
                "xid_high": xid_watermark(),
            }, flush=True)
            return result
        code = str(getattr(response, "code", ""))
        if code == ErrorCode.STALE_GENERATION:
            # The OBI has obeyed a newer controller; we are the stale
            # side of a split brain. Record it and stop claiming the
            # fleet — do not count this as an OBI-side deploy failure.
            self.superseded = True
            raise ProtocolError(
                ErrorCode.STALE_GENERATION,
                f"OBI {obi_id!r} rejected generation {self.generation}: "
                f"{getattr(response, 'detail', '')}",
            )
        detail = getattr(response, "detail", "") or code
        self._record_deploy_failure(obi_id, str(detail))
        raise ProtocolError(
            ErrorCode.INVALID_GRAPH, f"OBI {obi_id!r} rejected graph: {detail}"
        )

    def reconcile_obi(self, obi_id: str) -> AggregationResult | None:
        """Converge one OBI on the intended graph (anti-entropy primitive).

        Computes what *should* run, then compares canonical digests: if
        the OBI already reports exactly that graph (e.g. it kept serving
        headless across a controller crash), the deployment is **adopted**
        — controller-side bookkeeping and the journal are updated with no
        southbound push, so recovery causes no duplicate deploy side
        effects. Otherwise it falls through to a normal :meth:`deploy`.
        """
        handle = self._handle_of(obi_id)
        result = self.compute_deployment(obi_id)
        if result is None:
            return None
        digest = canonical_graph_digest(result.graph.to_dict())
        if handle.reported_digest and handle.reported_digest == digest:
            handle.deployed = result
            handle.intended_digest = digest
            if handle.generation == 0:
                handle.generation = max(1, handle.reported_graph_version)
            self._journal({
                "rec": "deploy", "obi_id": obi_id, "digest": digest,
                "graph_version": handle.generation,
                "xid_high": xid_watermark(),
            }, flush=True)
            return result
        return self.deploy(obi_id)

    def redeploy_all(self) -> None:
        """Deploy to every connected OBI; one failing OBI (recorded via
        the deploy-failure path) must not block deployment to the rest."""
        errors: list[ProtocolError] = []
        for obi_id, handle in list(self.obis.items()):
            if handle.channel is not None:
                try:
                    self.deploy(obi_id)
                except ProtocolError as exc:
                    errors.append(exc)
        if errors and len(errors) == sum(
            1 for h in self.obis.values() if h.channel is not None
        ):
            # Every single OBI refused: the new application logic itself
            # is bad — surface it to the registering caller.
            raise errors[0]

    # ------------------------------------------------------------------
    # Northbound: application-initiated requests (multiplexed, §4.1)
    # ------------------------------------------------------------------
    def _send_request(
        self,
        app: OpenBoxApplication,
        obi_id: str,
        message: Message,
        callback: Callable[[Message], None] | None,
        error_callback: Callable[[ErrorMessage], None] | None = None,
    ) -> None:
        handle = self._handle_of(obi_id)
        if handle.channel is None:
            raise ProtocolError(ErrorCode.NOT_CONNECTED, f"OBI {obi_id!r} has no channel")
        if callback is not None:
            self.mux.register(
                message.xid, app.name, callback, self.clock(),
                error_callback=error_callback,
                obi_id=obi_id,
            )
        try:
            response = handle.channel.request(message)
        except ChannelClosed as exc:
            # Fail the pending entry immediately (fires the app's error
            # callback) instead of leaking it until expiry.
            if callback is not None:
                self.mux.dispatch(ErrorMessage(
                    xid=message.xid,
                    code=ErrorCode.NOT_CONNECTED,
                    detail=f"OBI {obi_id!r} unreachable: {exc}",
                ))
            raise ProtocolError(
                ErrorCode.NOT_CONNECTED, f"OBI {obi_id!r} unreachable: {exc}"
            ) from exc
        # The transports are synchronous RPC, so the response arrives
        # immediately; route it through the demultiplexer exactly as an
        # asynchronously delivered response would be.
        if callback is not None:
            self.mux.dispatch(response)

    def resolve_blocks(self, app_name: str, obi_id: str, block: str) -> list[str]:
        """Deployed block names realizing application block ``block``.

        Merging renames (and may clone) application blocks, so requests
        are routed via each deployed block's ``origin_block``/``origin_app``
        provenance. A block merged *across* applications (e.g. a
        cross-product classifier) is no longer individually addressable —
        by design, since its state belongs to several tenants (paper §6).
        """
        handle = self._handle_of(obi_id)
        if handle.deployed is None:
            return []
        graph = handle.deployed.graph
        if block in graph.blocks and graph.blocks[block].origin_app == app_name:
            return [block]
        return [
            deployed.name for deployed in graph.blocks.values()
            if deployed.origin_block == block and deployed.origin_app == app_name
        ]

    def _resolve_targets(
        self, app: OpenBoxApplication, obi_id: str, block: str
    ) -> tuple[ObiHandle, list[str]]:
        """Channel + deployed clone names for an app's block, or raise."""
        targets = self.resolve_blocks(app.name, obi_id, block)
        if not targets:
            raise ProtocolError(
                ErrorCode.UNKNOWN_BLOCK,
                f"application {app.name!r} has no deployed block {block!r} on {obi_id!r}",
            )
        handle = self._handle_of(obi_id)
        if handle.channel is None:
            raise ProtocolError(
                ErrorCode.NOT_CONNECTED, f"OBI {obi_id!r} has no channel"
            )
        return handle, targets

    def app_read(
        self,
        app: OpenBoxApplication,
        obi_id: str,
        block: str,
        handle_name: str,
    ) -> HandleReadResult:
        """Read a handle on an application's block; returns a typed result.

        If merging cloned the block, ``result.values`` holds every
        clone's value and ``result.value`` aggregates them (single value
        / sum of numerics / list). Per-clone failures land in
        ``result.errors`` instead of raising.
        """
        obi, targets = self._resolve_targets(app, obi_id, block)
        self._m_app_requests.inc()
        started = self.clock()
        result = HandleReadResult(
            app_name=app.name, obi_id=obi_id, block=block, handle=handle_name
        )
        for target in targets:
            try:
                response = obi.channel.request(
                    ReadRequest(block=target, handle=handle_name)
                )
            except ChannelClosed as exc:
                result.errors.append(HandleError(
                    obi_id=obi_id,
                    block=target,
                    handle=handle_name,
                    code=ErrorCode.NOT_CONNECTED,
                    detail=str(exc),
                ))
                continue
            if isinstance(response, ReadResponse):
                result.values[target] = response.value
            else:
                result.errors.append(HandleError(
                    obi_id=obi_id,
                    block=target,
                    handle=handle_name,
                    code=getattr(response, "code", ErrorCode.INTERNAL_ERROR),
                    detail=getattr(response, "detail", f"unexpected {response.TYPE}"),
                ))
        result.latency = self.clock() - started
        return result

    def app_write(
        self,
        app: OpenBoxApplication,
        obi_id: str,
        block: str,
        handle_name: str,
        value: Any,
    ) -> HandleWriteResult:
        """Write a handle on an application's block (all deployed clones)."""
        obi, targets = self._resolve_targets(app, obi_id, block)
        self._m_app_requests.inc()
        started = self.clock()
        result = HandleWriteResult(
            app_name=app.name, obi_id=obi_id, block=block, handle=handle_name
        )
        for target in targets:
            try:
                response = obi.channel.request(
                    WriteRequest(block=target, handle=handle_name, value=value)
                )
            except ChannelClosed as exc:
                result.errors.append(HandleError(
                    obi_id=obi_id,
                    block=target,
                    handle=handle_name,
                    code=ErrorCode.NOT_CONNECTED,
                    detail=str(exc),
                ))
                continue
            if isinstance(response, WriteResponse):
                if response.ok:
                    result.written.append(target)
                else:
                    result.errors.append(HandleError(
                        obi_id=obi_id,
                        block=target,
                        handle=handle_name,
                        code=ErrorCode.HANDLE_NOT_WRITABLE,
                        detail="OBI refused the write",
                    ))
            else:
                result.errors.append(HandleError(
                    obi_id=obi_id,
                    block=target,
                    handle=handle_name,
                    code=getattr(response, "code", ErrorCode.INTERNAL_ERROR),
                    detail=getattr(response, "detail", f"unexpected {response.TYPE}"),
                ))
        result.latency = self.clock() - started
        return result

    def app_stats(
        self,
        app: OpenBoxApplication,
        obi_id: str,
    ) -> AppStatsView:
        """Fetch GlobalStats for an application; returns a typed view.

        Success is also recorded on the stats tracker and delivered to
        the app's ``on_stats`` hook.
        """
        handle = self._handle_of(obi_id)
        if handle.channel is None:
            raise ProtocolError(
                ErrorCode.NOT_CONNECTED, f"OBI {obi_id!r} has no channel"
            )
        self._m_app_requests.inc()
        started = self.clock()
        view = AppStatsView(app_name=app.name, obi_id=obi_id)
        try:
            response = handle.channel.request(GlobalStatsRequest())
        except ChannelClosed as exc:
            view.error = HandleError(
                obi_id=obi_id, code=ErrorCode.NOT_CONNECTED, detail=str(exc)
            )
            view.latency = self.clock() - started
            return view
        view.latency = self.clock() - started
        if isinstance(response, GlobalStatsResponse):
            view.stats = response
            self.stats.record_stats(response, self.clock())
            app.on_stats(response)
        else:
            view.error = HandleError(
                obi_id=obi_id,
                code=getattr(response, "code", ErrorCode.INTERNAL_ERROR),
                detail=getattr(response, "detail", f"unexpected {response.TYPE}"),
            )
        return view

    # ------------------------------------------------------------------
    # Controller-initiated statistics polling
    # ------------------------------------------------------------------
    def poll_stats(self, obi_id: str) -> GlobalStatsResponse | None:
        """Fetch and record GlobalStats from one OBI."""
        handle = self._handle_of(obi_id)
        if handle.channel is None:
            return None
        self._m_stats_polls.inc()
        response = handle.channel.request(GlobalStatsRequest())
        if isinstance(response, GlobalStatsResponse):
            self.stats.record_stats(response, self.clock())
            return response
        return None

    # ------------------------------------------------------------------
    # Streaming telemetry (PROTOCOL.md §13)
    # ------------------------------------------------------------------
    def _handle_telemetry_stream(self, stream: TelemetryStream) -> Message:
        """Fold one pushed batch; the response is the ack (or a fence).

        A stream stamped with an epoch below this controller's
        generation was opened by a deposed predecessor — it is refused
        ``stale_generation`` so the OBI tears the subscription down
        (the live controller re-subscribes under its own epoch).
        """
        if stream.epoch and stream.epoch < self.generation:
            return TelemetryAck(
                xid=stream.xid,
                subscriber=stream.subscriber,
                ok=False,
                cursor=0,
                error=ErrorCode.STALE_GENERATION,
            )
        if stream.epoch > self.generation:
            # The OBI subscribed under a newer controller: we are the
            # stale side. Record it; the data itself is still folded.
            self.superseded = True
        rewind = self._pending_nacks.pop(stream.obi_id, None)
        if rewind is not None:
            self.telemetry.reset(stream.obi_id, rewind)
            return TelemetryAck(
                xid=stream.xid,
                subscriber=stream.subscriber,
                ok=False,
                cursor=rewind,
            )
        handle = self.obis.get(stream.obi_id)
        segment = handle.segment if handle is not None else ""
        folded = self.telemetry.apply_stream(stream, segment=segment)
        self._m_streams.inc()
        self._m_stream_records.inc(folded)
        snapshot = self.telemetry.snapshot_response(stream.obi_id)
        if snapshot is not None:
            # Feed the per-OBI stats view (liveness, overload evidence)
            # on every fold — the stream is the only upstream channel.
            self.stats.record_observability(snapshot, self.clock())
        subscription = self._telemetry_subscriptions.get(stream.obi_id, {})
        return TelemetryAck(
            xid=stream.xid,
            subscriber=stream.subscriber,
            ok=True,
            cursor=self.telemetry.last_seq(stream.obi_id),
            window=int(subscription.get("window", 64)),
        )

    def subscribe_telemetry(
        self,
        obi_id: str,
        topics: list[str] | None = None,
        window: int = 64,
        cursor: int | None = None,
        drain: bool = False,
    ) -> TelemetryStream | None:
        """Open (or refresh) the telemetry subscription on one OBI.

        The response — the first batch — is folded before returning.
        ``cursor`` None picks the safe default: resume the OBI-side
        cursor when this controller has folded state for the OBI, else
        start from 0 so a freshly promoted controller replays the OBI's
        retained history (any evicted prefix arrives as a counted gap
        plus a fresh baseline — degraded but never silently wrong).
        """
        handle = self._handle_of(obi_id)
        if handle.channel is None:
            return None
        if cursor is None:
            cursor = -1 if self.telemetry.last_seq(obi_id) else 0
        self._telemetry_subscriptions[obi_id] = {
            "topics": list(topics or []),
            "window": window,
        }
        response = handle.channel.request(TelemetrySubscribe(
            subscriber="controller",
            topics=list(topics or []),
            cursor=cursor,
            window=window,
            drain=drain,
            controller_generation=self.generation,
        ))
        if isinstance(response, ErrorMessage):
            if response.code == ErrorCode.STALE_GENERATION:
                self.superseded = True
            return None
        if isinstance(response, TelemetryStream):
            self._handle_telemetry_stream(response)
            return response
        return None

    def _ack_telemetry(self, obi_id: str) -> None:
        """Push the folded high-water mark back as the OBI-side cursor.

        Needed after a subscribe/drain round trip: the batch arrived as
        the *response* to our request, so the OBI never saw our ack and
        its cursor has not moved yet.
        """
        handle = self.obis.get(obi_id)
        if handle is None or handle.channel is None:
            return
        subscription = self._telemetry_subscriptions.get(obi_id, {})
        try:
            handle.channel.request(TelemetryAck(
                subscriber="controller",
                ok=True,
                cursor=self.telemetry.last_seq(obi_id),
                window=int(subscription.get("window", 64)),
            ))
        except ChannelClosed:
            # The cursor stays put; the records replay on reconnect.
            pass

    def request_telemetry_rewind(self, obi_id: str, cursor: int = 0) -> None:
        """Refuse the next pushed batch and rewind to ``cursor``.

        The NACK path of §13: the next TelemetryStream from ``obi_id``
        is answered ``ok=False`` with this cursor, the OBI rewinds, and
        the interval replays (folding is idempotent, so the re-delivery
        is harmless). ``cursor=0`` also discards the folded state and
        rebuilds it from the baseline the replay starts with.
        """
        self._pending_nacks[obi_id] = cursor

    def watch(
        self,
        topics: list[str] | None = None,
        obi_ids: list[str] | None = None,
        segments: list[str] | None = None,
        apps: list[str] | None = None,
        max_pending: int = 1024,
    ) -> Watch:
        """Northbound iterator subscription over telemetry events.

        Events are delivered as they are folded from pushed streams;
        segment filters match whole subtrees ("core" matches
        "core/east"). Close the watch when done.
        """
        return self.telemetry.watch(
            topics=topics,
            obi_ids=obi_ids,
            segments=segments,
            apps=apps,
            max_pending=max_pending,
        )

    def subscribe(
        self,
        callback: Callable[[dict[str, Any]], None],
        topics: list[str] | None = None,
        obi_ids: list[str] | None = None,
        segments: list[str] | None = None,
        apps: list[str] | None = None,
    ) -> Callable[[], None]:
        """Northbound callback subscription; returns an unsubscribe hook."""
        return self.telemetry.subscribe(
            callback,
            topics=topics,
            obi_ids=obi_ids,
            segments=segments,
            apps=apps,
        )

    def telemetry_snapshot(
        self, obi_id: str, include_traces: bool = True, max_traces: int = 0
    ) -> ObservabilitySnapshotResponse | None:
        """One-shot: drain the OBI's telemetry ring, return folded state.

        Subscribe-with-drain, ack, and read back the folded per-OBI
        state in the §9 snapshot shape.
        """
        handle = self._handle_of(obi_id)
        if handle.channel is None:
            return None
        self._m_obsv_polls.inc()
        stream = self.subscribe_telemetry(obi_id, drain=True)
        if stream is None:
            return None
        self._ack_telemetry(obi_id)
        return self.telemetry.snapshot_response(
            obi_id, include_traces=include_traces, max_traces=max_traces
        )

    def attribute_trace(
        self, obi_id: str, trace: dict[str, Any]
    ) -> dict[str, list[dict[str, Any]]]:
        """Group a serialized trace's spans by originating application.

        Attribution rides the ``origin_app`` provenance the aggregator
        stamps before merging, cross-checked against the deployment the
        controller pushed: a span whose block no longer exists in the
        deployed graph (trace from an older generation) still groups by
        its recorded origin. Blocks the merge synthesized across tenants
        group under ``""``.
        """
        handle = self._handle_of(obi_id)
        origins = (
            handle.deployed.origin_map() if handle.deployed is not None else {}
        )
        grouped: dict[str, list[dict[str, Any]]] = {}
        for span in trace.get("spans", []):
            origin = span.get("origin_app") or origins.get(span.get("block")) or ""
            grouped.setdefault(origin, []).append(span)
        return grouped
