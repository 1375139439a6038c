"""OBI liveness and load tracking.

The controller "can request system information, such as CPU load and
memory usage, from OBIs. It can use this information to scale and
provision additional service instances, or merge the tasks of multiple
underutilized instances and take some of them down" (paper §3.3).

:class:`ObiStatsTracker` records keepalives and the latest GlobalStats
per OBI; the scaling manager consumes its view, and the orchestrator's
failover stage consumes :meth:`ObiStatsTracker.dead_obis` — liveness is
evidenced by *any* message from the OBI (keepalive, a stats response,
or a telemetry stream), so a silent-but-polled instance is not declared dead while
one that answers nothing for ``liveness_timeout`` is.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.observability.metrics import merge_snapshots
from repro.protocol.messages import (
    GlobalStatsResponse,
    ObservabilitySnapshotResponse,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.controller.xid import RequestMultiplexer


@dataclass
class ObiLoadView:
    """The controller's current knowledge about one OBI."""

    obi_id: str
    last_keepalive: float = 0.0
    #: Last time *any* evidence of liveness arrived (keepalive, stats,
    #: or a telemetry stream).
    last_heard: float = 0.0
    keepalives: int = 0
    last_stats: GlobalStatsResponse | None = None
    stats_history: list[tuple[float, float]] = field(default_factory=list)
    #: True while the OBI reports overload evidence: running degraded or
    #: actively shedding packets since the previous telemetry fold.
    overloaded: bool = False
    #: Latest folded telemetry state (PROTOCOL.md §13, in the §9 shape):
    #: the OBI's metrics registry plus its recent sampled packet traces.
    last_observability: ObservabilitySnapshotResponse | None = None

    @property
    def cpu_load(self) -> float:
        return self.last_stats.cpu_load if self.last_stats is not None else 0.0

    def add_sample(self, now: float, load: float, limit: int) -> None:
        """Append a load sample, enforcing ``limit`` on every append."""
        self.stats_history.append((now, load))
        excess = len(self.stats_history) - limit
        if excess > 0:
            del self.stats_history[:excess]

    def smoothed_load(self, window: int = 5) -> float:
        """Mean of the last ``window`` CPU-load samples (0 if none)."""
        recent = self.stats_history[-window:]
        if not recent:
            return 0.0
        return sum(load for _ts, load in recent) / len(recent)

    def effective_load(self, window: int = 5) -> float:
        """Load as the scaling loop should see it.

        An OBI shedding packets at its admission gate is at capacity no
        matter what its smoothed CPU samples say (samples lag, and a shed
        packet consumes no CPU) — overload evidence pins the effective
        load to 1.0 so the scale-up threshold is guaranteed to trip.
        """
        smoothed = self.smoothed_load(window)
        return 1.0 if self.overloaded else smoothed


class ObiStatsTracker:
    """Tracks liveness and load for every connected OBI.

    When constructed with the controller's :class:`RequestMultiplexer`,
    forgetting an OBI also sweeps every request still pending against
    it, so callbacks fail fast instead of leaking until expiry.
    """

    def __init__(
        self,
        liveness_timeout: float = 30.0,
        history_limit: int = 1000,
        mux: "RequestMultiplexer | None" = None,
        clock: "Callable[[], float] | None" = None,
    ) -> None:
        if history_limit < 1:
            raise ValueError("history_limit must be >= 1")
        self.liveness_timeout = liveness_timeout
        self.history_limit = history_limit
        self.mux = mux
        # Injectable monotonic clock: liveness math must never read the
        # wall clock directly, so virtual-time tests stay deterministic.
        self.clock = clock or time.monotonic
        self._views: dict[str, ObiLoadView] = {}
        #: Audit log of declared failures: (obi_id, when declared).
        self.failures: list[tuple[str, float]] = []

    def register(self, obi_id: str, now: float) -> ObiLoadView:
        view = self._views.get(obi_id)
        if view is None:
            view = ObiLoadView(obi_id=obi_id, last_keepalive=now, last_heard=now)
            self._views[obi_id] = view
        return view

    def forget(self, obi_id: str) -> None:
        self._views.pop(obi_id, None)
        if self.mux is not None:
            self.mux.cancel_for_obi(obi_id)

    def record_failure(self, obi_id: str, now: float) -> None:
        """Audit that ``obi_id`` was declared failed at ``now``."""
        self.failures.append((obi_id, now))

    def record_keepalive(self, obi_id: str, now: float) -> None:
        view = self.register(obi_id, now)
        view.last_keepalive = now
        view.last_heard = max(view.last_heard, now)
        view.keepalives += 1

    def record_stats(self, stats: GlobalStatsResponse, now: float) -> None:
        view = self.register(stats.obi_id, now)
        view.last_stats = stats
        view.last_heard = max(view.last_heard, now)
        view.add_sample(now, stats.cpu_load, self.history_limit)

    def record_observability(
        self, snapshot: ObservabilitySnapshotResponse, now: float
    ) -> None:
        """Fold an OBI's telemetry state into its view (liveness too —
        an instance streaming telemetry is plainly alive).

        Overload evidence is shedding *progress* (``obi_packets_shed_total``
        grew since the previous fold) or currently-degraded mode (the
        ``obi_degraded`` gauge); a historical shed counter alone does not
        keep an OBI marked overloaded forever.
        """
        view = self.register(snapshot.obi_id, now)
        previous = view.last_observability
        shed = snapshot.metrics["counters"].get("obi_packets_shed_total", 0)
        shed_before = (
            previous.metrics["counters"].get("obi_packets_shed_total", 0)
            if previous is not None else 0
        )
        degraded = snapshot.metrics["gauges"].get("obi_degraded", 0)
        view.overloaded = degraded == 1 or shed > shed_before
        view.last_observability = snapshot
        view.last_heard = max(view.last_heard, now)

    def aggregate_observability(self) -> dict[str, Any]:
        """Fleet-wide view of the latest snapshot from every OBI.

        Counters and gauges sum across instances, same-shape histograms
        merge bucket-wise (:func:`repro.observability.metrics.merge_snapshots`),
        and every retained trace is tagged with its source OBI.
        """
        snapshots = [
            view.last_observability
            for view in self._views.values()
            if view.last_observability is not None
        ]
        traces: list[dict[str, Any]] = []
        for snapshot in snapshots:
            for trace in snapshot.traces:
                tagged = dict(trace)
                tagged["obi_id"] = snapshot.obi_id
                traces.append(tagged)
        return {
            "obis": {
                snapshot.obi_id: {
                    "graph_version": snapshot.graph_version,
                    "packets_seen": snapshot.packets_seen,
                    "packets_sampled": snapshot.packets_sampled,
                    "sample_rate": snapshot.sample_rate,
                }
                for snapshot in snapshots
            },
            "metrics": merge_snapshots([s.metrics for s in snapshots]),
            "traces": traces,
        }

    def view(self, obi_id: str) -> ObiLoadView | None:
        return self._views.get(obi_id)

    def all_views(self) -> list[ObiLoadView]:
        return list(self._views.values())

    def is_live(self, obi_id: str, now: float | None = None) -> bool:
        if now is None:
            now = self.clock()
        view = self._views.get(obi_id)
        return view is not None and now - view.last_heard <= self.liveness_timeout

    def live_obis(self, now: float | None = None) -> list[str]:
        if now is None:
            now = self.clock()
        return [
            view.obi_id for view in self._views.values()
            if now - view.last_heard <= self.liveness_timeout
        ]

    def dead_obis(self, now: float | None = None) -> list[str]:
        if now is None:
            now = self.clock()
        return [
            view.obi_id for view in self._views.values()
            if now - view.last_heard > self.liveness_timeout
        ]
