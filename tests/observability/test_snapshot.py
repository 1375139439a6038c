"""Observability snapshot round-trips: inproc AND REST.

The §9 snapshot shape, obtained through the §13 one-shot drain
(``telemetry_snapshot``) — the only upstream channel.
"""

import pytest

from repro.bootstrap import (
    connect_inproc,
    connect_obi_rest,
    serve_controller_rest,
)
from repro.controller.apps import AppStatement, FunctionApplication
from repro.controller.obc import OpenBoxController
from repro.net.builder import make_tcp_packet
from repro.obi.instance import ObiConfig, OpenBoxInstance
from repro.protocol.messages import ObservabilitySnapshotResponse
from tests.conftest import build_firewall_graph


def _register_fw(controller):
    controller.register_application(FunctionApplication(
        "fw", lambda: [AppStatement(graph=build_firewall_graph("fw"),
                                    segment="corp")],
    ))


def _drive(obi, n=5):
    for index in range(n):
        obi.process_packet(
            make_tcp_packet("44.0.0.1", "2.2.2.2", 1000 + index, 443)
        )


class TestInprocRoundTrip:
    @pytest.fixture
    def plane(self):
        controller = OpenBoxController()
        obi = OpenBoxInstance(ObiConfig(
            obi_id="obi-1", segment="corp", trace_sample_rate=1.0
        ))
        connect_inproc(controller, obi)
        _register_fw(controller)
        return controller, obi

    def test_poll_returns_metrics_and_traces(self, plane):
        controller, obi = plane
        _drive(obi)
        snapshot = controller.telemetry_snapshot("obi-1", max_traces=3)
        assert isinstance(snapshot, ObservabilitySnapshotResponse)
        assert snapshot.metrics["counters"]["engine_packets_total"] == 5
        assert snapshot.packets_seen == 5
        assert snapshot.packets_sampled == 5
        assert len(snapshot.traces) == 3

    def test_poll_recorded_in_stats_tracker(self, plane):
        controller, obi = plane
        _drive(obi)
        controller.telemetry_snapshot("obi-1")
        view = controller.stats.view("obi-1")
        assert view.last_observability is not None
        assert view.last_observability.graph_version == obi.graph_version

    def test_include_traces_false_omits_traces(self, plane):
        controller, obi = plane
        _drive(obi)
        snapshot = controller.telemetry_snapshot("obi-1", include_traces=False)
        assert snapshot.traces == []
        assert snapshot.metrics["counters"]["engine_packets_total"] == 5

    def test_poll_all_and_fleet_aggregation(self):
        controller = OpenBoxController()
        obis = []
        for index in (1, 2):
            obi = OpenBoxInstance(ObiConfig(
                obi_id=f"obi-{index}", segment="corp", trace_sample_rate=1.0
            ))
            connect_inproc(controller, obi)
            obis.append(obi)
        _register_fw(controller)
        for obi in obis:
            _drive(obi, n=4)
        snapshots = {
            obi_id: controller.telemetry_snapshot(obi_id, max_traces=2)
            for obi_id in controller.obis
        }
        assert set(snapshots) == {"obi-1", "obi-2"}
        fleet = controller.stats.aggregate_observability()
        assert fleet["metrics"]["counters"]["engine_packets_total"] == 8
        assert set(fleet["obis"]) == {"obi-1", "obi-2"}
        assert all(trace["obi_id"] in {"obi-1", "obi-2"}
                   for trace in fleet["traces"])

    def test_disabled_tracing_still_reports_metrics(self):
        controller = OpenBoxController()
        obi = OpenBoxInstance(ObiConfig(obi_id="obi-1", segment="corp"))
        connect_inproc(controller, obi)
        _register_fw(controller)
        _drive(obi)
        snapshot = controller.telemetry_snapshot("obi-1")
        assert snapshot.sample_rate == 0.0
        assert snapshot.traces == []
        assert snapshot.packets_seen == 5  # falls back to offered count
        assert snapshot.metrics["counters"]["engine_packets_total"] == 5


class TestRestRoundTrip:
    @pytest.fixture
    def rest_plane(self):
        controller = OpenBoxController()
        controller_endpoint = serve_controller_rest(controller)
        obi = OpenBoxInstance(ObiConfig(
            obi_id="rest-obi", segment="corp", trace_sample_rate=1.0
        ))
        obi_endpoint, _upstream = connect_obi_rest(obi, controller_endpoint.url)
        yield controller, obi
        obi_endpoint.close()
        controller_endpoint.close()

    def test_snapshot_survives_json_wire(self, rest_plane):
        controller, obi = rest_plane
        _register_fw(controller)
        _drive(obi)
        snapshot = controller.telemetry_snapshot("rest-obi", max_traces=2)
        assert isinstance(snapshot, ObservabilitySnapshotResponse)
        # Counters, histogram shapes, and trace spans all crossed HTTP.
        assert snapshot.metrics["counters"]["engine_packets_total"] == 5
        hist = snapshot.metrics["histograms"]["engine_path_length"]
        assert hist["count"] == 5
        assert len(hist["counts"]) == len(hist["boundaries"]) + 1
        trace = snapshot.traces[-1]
        assert trace["spans"]
        assert {span["block"] for span in trace["spans"]} <= set(
            controller.obis["rest-obi"].deployed.graph.blocks
        )
        # Transport counters observed the exchange on the shared registry.
        from repro.observability.metrics import default_registry
        counters = default_registry().snapshot()["counters"]
        assert counters.get("transport_sent_total{transport=rest}", 0) > 0
