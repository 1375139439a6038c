"""The layer boundaries the traced run wraps, and the per-layer ledger.

Each entry of :func:`patches` wraps one public entry point of a layer
in a span (see :mod:`perfbench.spans`). :func:`ledger` turns the
recorded spans and counts into the ``per_layer`` metrics: packet-path
layers as self time per packet of the measured stretch, deploy-path
layers as self time per ``OpenBoxController.deploy`` over the whole
traced run (its set-up included, so the packet workloads report the
cost of their one deploy).
"""

from __future__ import annotations

from typing import Any, Callable

import repro.controller.aggregator as aggregator_module
import repro.controller.obc as obc_module
import repro.controller.optimizer as optimizer_module
import repro.core.merge as merge_module
import repro.obi.engine as engine_module
import repro.obi.instance as instance_module
from repro.controller.obc import OpenBoxController
from repro.core.classify.payload import HeaderPayloadRuleSet
from repro.core.classify.regex import RegexRuleSet
from repro.core.classify.trie import TrieMatcher
from repro.core.graph import ProcessingGraph
from repro.net.packet import Packet
from repro.obi.engine import Engine
from repro.obi.instance import OpenBoxInstance
from repro.protocol.messages import Alert, SetProcessingGraphRequest, TelemetryStream

from perfbench.spans import SpanRecorder, self_times

#: Per-packet layers: metric -> span name (self ns per packet).
PACKET_LAYERS = {
    "net.parse_ns": "net.parse",
    "fastpath.flow_key_ns": "fastpath.flow_key",
    "engine.self_ns": "engine.process",
    "classify.header_ns": "classify.header",
    "classify.payload_ns": "classify.payload",
    "obi.ingress_ns": "obi.ingress",
    "controller.alert_ns": "controller.alert",
}
#: Per-deploy layers: metric -> span name (self ms per deploy).
DEPLOY_LAYERS = {
    "controller.aggregate_ms": "controller.aggregate",
    "merge.normalize_ms": "merge.normalize",
    "merge.concat_ms": "merge.concat",
    "merge.compress_ms": "merge.compress",
    "merge.dedup_ms": "merge.dedup",
    "optimizer.optimize_ms": "optimizer.optimize",
    "graph.codec_ms": "graph.codec",
    "graph.digest_ms": "graph.digest",
    "translation.build_engine_ms": "translation.build_engine",
    "obi.set_graph_ms": "obi.set_graph",
}
#: Per-layer metrics taken per deploy (the rest are per packet or run).
DEPLOY_METRICS = frozenset(DEPLOY_LAYERS) | {"merge.blocks_out", "merge.diameter_reduction"}
#: Counts reset at the start of the measured stretch.
PACKET_COUNTS = (
    "classify.header_calls", "classify.payload_bytes", "alerts",
    "telemetry.records", "telemetry.publishes",
)


def patches(rec: SpanRecorder) -> list[tuple[Any, str, Callable]]:
    """``(owner, attribute, make_wrapper)`` for every traced boundary."""

    def span(name: str, **hooks: Any) -> Callable[[Callable], Callable]:
        return lambda fn: rec.wrap(fn, name, **hooks)

    def on_controller_message(_result: Any, _self: Any, message: Any) -> None:
        if isinstance(message, Alert):
            rec.count("alerts")
        elif isinstance(message, TelemetryStream):
            rec.count("telemetry.records", len(message.records))

    def on_merge(result: Any, *_args: Any) -> None:
        rec.count("merge.results")
        rec.count("merge.blocks_out", len(result.graph.blocks))
        rec.count("merge.diameter_reduction", result.diameter_reduction)

    return [
        # Packet path.
        (Packet, "_parse", span("net.parse", skip=lambda packet: packet._parsed)),
        (engine_module, "flow_key", span("fastpath.flow_key")),
        (Engine, "process", span("engine.process")),
        (TrieMatcher, "match", span(
            "classify.header",
            after=lambda _r, _m, _p: rec.count("classify.header_calls"),
        )),
        (RegexRuleSet, "classify", span(
            "classify.payload",
            after=lambda _r, _s, payload: rec.count(
                "classify.payload_bytes", len(payload)
            ),
        )),
        (HeaderPayloadRuleSet, "classify", span(
            "classify.payload",
            after=lambda _r, _s, packet: rec.count(
                "classify.payload_bytes", len(packet.payload)
            ),
        )),
        (OpenBoxInstance, "inject_batch", span("obi.ingress")),
        (OpenBoxController, "handle_message", span(
            "controller.alert",
            when=lambda _self, message: isinstance(message, Alert),
            after=on_controller_message,
        )),
        (OpenBoxInstance, "publish_telemetry", span(
            "telemetry.publish",
            after=lambda _r, _s: rec.count("telemetry.publishes"),
        )),
        # Deploy path.
        (OpenBoxController, "compute_deployment", span("controller.aggregate")),
        (merge_module, "normalize_to_tree", span("merge.normalize")),
        (merge_module, "concatenate_trees", span("merge.concat")),
        (merge_module, "compress_tree", span("merge.compress")),
        (merge_module, "deduplicate", span("merge.dedup")),
        (aggregator_module, "merge_graphs", span(
            "merge.graphs", when=lambda *_args: False, after=on_merge,
        )),
        (optimizer_module, "optimize_graph", span("optimizer.optimize")),
        (ProcessingGraph, "to_dict", span("graph.codec")),
        (ProcessingGraph, "from_dict", span("graph.codec")),
        (obc_module, "canonical_graph_digest", span("graph.digest")),
        (instance_module, "canonical_graph_digest", span("graph.digest")),
        (instance_module, "build_engine", span("translation.build_engine")),
        (OpenBoxInstance, "handle_message", span(
            "obi.set_graph",
            when=lambda _self, message: isinstance(
                message, SetProcessingGraphRequest
            ),
        )),
    ]


def ledger(
    rec: SpanRecorder,
    measure_from: int,
    packets: int,
    deploys: int,
    cache: dict[str, float],
    speed: float,
) -> dict[str, float]:
    """Per-layer metrics from a traced run.

    ``measure_from`` is the index of the first span of the measured
    stretch, ``packets`` the packets it sent, ``deploys`` the deploys
    of the whole traced run, ``cache`` the flow-cache counter deltas
    of the measured stretch and ``speed`` its host speed, which scales
    every time as in the end-to-end figures.
    """
    measured = {name: ns * speed for name, ns in self_times(rec.spans, measure_from).items()}
    whole = {name: ns * speed for name, ns in self_times(rec.spans).items()}
    counts = rec.counts
    per_packet = max(packets, 1)
    per_deploy = max(deploys, 1)
    metrics: dict[str, float] = {}
    for metric, name in PACKET_LAYERS.items():
        metrics[metric] = measured.get(name, 0) / per_packet
    for metric, name in DEPLOY_LAYERS.items():
        metrics[metric] = whole.get(name, 0) / 1e6 / per_deploy
    lookups = cache["hits"] + cache["misses"] + cache["uncacheable_hits"]
    metrics["fastpath.hit_ratio"] = cache["hits"] / lookups if lookups else 0.0
    metrics["fastpath.invalidations"] = cache["invalidations"] * 1000.0 / per_packet
    metrics["classify.header_calls"] = counts["classify.header_calls"] / per_packet
    metrics["classify.payload_bytes"] = counts["classify.payload_bytes"] / per_packet
    metrics["obi.alerts_per_packet"] = counts["alerts"] / per_packet
    publishes = max(counts["telemetry.publishes"], 1)
    metrics["telemetry.publish_us"] = measured.get("telemetry.publish", 0) / 1e3 / publishes
    metrics["telemetry.records_per_publish"] = counts["telemetry.records"] / publishes
    merges = max(counts["merge.results"], 1)
    metrics["merge.blocks_out"] = counts["merge.blocks_out"] / merges
    metrics["merge.diameter_reduction"] = counts["merge.diameter_reduction"] / merges
    roots = sum(ns for name, ns in measured.items() if name.startswith("bench."))
    named = sum(ns for name, ns in measured.items() if not name.startswith("bench."))
    metrics["trace.coverage"] = named / (named + roots) if named + roots else 0.0
    return metrics
