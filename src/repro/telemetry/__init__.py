"""Streaming telemetry bus: push-based observability at fleet scale.

The one upstream channel for OBI health and observability. A pull
sweep would cost the controller a round trip per OBI on every tick,
whether or not anything changed. Here OBIs *push* cursored records
(sparse metric deltas, sampled trace spans, alerts) through a bounded
:class:`~repro.telemetry.ring.TelemetryRing`, the controller folds them
into per-OBI snapshot state (:class:`~repro.telemetry.bus.TelemetryBus`)
and exposes a ``watch()``/``subscribe()`` northbound API — so cost
scales with *change rate*, not OBI count.

Wire format: ``TelemetrySubscribe`` / ``TelemetryStream`` /
``TelemetryAck`` (PROTOCOL.md §13). Delivery is at-least-once: records
carry ring sequence numbers, the subscriber's cursor dedupes replays,
and eviction is never silent (drop accounting + rebaseline).
"""

from repro.telemetry.ring import TelemetryRing
from repro.telemetry.records import (
    RECORD_KINDS,
    TOPIC_ALERTS,
    TOPIC_METRICS,
    TOPIC_TRACES,
    alert_record,
    baseline_record,
    fold_records,
    metrics_delta_record,
    record_topic,
    trace_record,
)
from repro.telemetry.publisher import TelemetryPublisher
from repro.telemetry.bus import TelemetryBus, TopicFilter, Watch

__all__ = [
    "TelemetryRing",
    "TelemetryPublisher",
    "TelemetryBus",
    "TopicFilter",
    "Watch",
    "RECORD_KINDS",
    "TOPIC_METRICS",
    "TOPIC_TRACES",
    "TOPIC_ALERTS",
    "alert_record",
    "baseline_record",
    "fold_records",
    "metrics_delta_record",
    "record_topic",
    "trace_record",
]
