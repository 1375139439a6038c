"""End-to-end streaming telemetry (PROTOCOL.md §13).

Controller and OBI wired over the in-process channel: subscribe,
push, fold, ack. The invariants under test are the ones the design
leans on — at-least-once delivery whose replays dedupe by cursor,
counted (never silent) loss, a folded state byte-identical to a direct
read of the same registry, window backpressure, NACK-driven rewind,
and generation fencing on both sides of the stream.
"""

import json

from repro.bootstrap import connect_inproc, reconnect_inproc, rehome_inproc
from repro.controller.obc import OpenBoxController
from repro.net.builder import make_tcp_packet
from repro.obi.instance import ObiConfig, OpenBoxInstance
from repro.protocol.errors import ErrorCode
from repro.protocol.messages import (
    Alert,
    ErrorMessage,
    SetProcessingGraphRequest,
    TelemetryStream,
)
from tests.conftest import build_firewall_graph
from tests.obi.test_instance_robustness import FakeClock


def alert_packet(src="44.0.0.1"):
    return make_tcp_packet(src, "192.168.0.9", 1234, 22)


def pass_packet():
    return make_tcp_packet("44.0.0.1", "192.168.0.9", 9999, 12345)


def connected(**config_kwargs):
    clock = FakeClock()
    controller = OpenBoxController(clock=clock)
    obi = OpenBoxInstance(
        ObiConfig(obi_id="o1", segment="corp", **config_kwargs), clock=clock
    )
    pair = connect_inproc(controller, obi)
    response = obi.handle_message(
        SetProcessingGraphRequest(graph=build_firewall_graph().to_dict())
    )
    assert not isinstance(response, ErrorMessage)
    return controller, obi, pair, clock


def metrics_json(metrics):
    return json.dumps(metrics, sort_keys=True)


def assert_push_equals_pull(controller, obi, obi_id="o1"):
    """Folded metric totals must be byte-identical to a direct read.

    One flush publish first: the subscribe/ack round trips themselves
    land in the OBI's dispatch histogram *after* their collect ran, so
    the comparison is made at a quiescent point.
    """
    obi.publish_telemetry()
    pushed = controller.telemetry.snapshot_response(obi_id)
    pulled = obi.observability_snapshot(include_traces=False)
    assert metrics_json(pushed.metrics) == metrics_json(pulled.metrics)


class TestSubscribeAndFold:
    def test_subscribe_first_batch_is_a_baseline(self):
        controller, obi, _, _ = connected()
        stream = controller.subscribe_telemetry("o1")
        assert isinstance(stream, TelemetryStream)
        assert stream.records[0]["kind"] == "baseline"
        assert_push_equals_pull(controller, obi)

    def test_push_feeds_existing_stats_views(self):
        controller, obi, _, clock = connected()
        controller.subscribe_telemetry("o1")
        controller._ack_telemetry("o1")
        obi.process_packet(pass_packet())
        assert obi.publish_telemetry().ok
        view = controller.stats.view("o1")
        assert view.last_observability is not None
        assert (view.last_observability.metrics["counters"]
                ["engine_packets_total"] >= 1)

    def test_incremental_deltas_match_full_poll(self):
        controller, obi, _, _ = connected()
        controller.subscribe_telemetry("o1")
        controller._ack_telemetry("o1")
        for _ in range(3):
            obi.process_packet(pass_packet())
            obi.process_packet(alert_packet())
            assert obi.publish_telemetry().ok
        assert_push_equals_pull(controller, obi)
        assert controller.telemetry.state("o1")["lost_total"] == 0

    def test_idle_publisher_goes_quiet(self):
        controller, obi, _, _ = connected()
        controller.subscribe_telemetry("o1")
        controller._ack_telemetry("o1")
        obi.process_packet(pass_packet())
        assert obi.publish_telemetry() is not None
        sent = obi.telemetry.streams_sent
        # No data-plane change between publishes: no stream travels at
        # all — push cost follows change rate, not publish cadence.
        assert obi.publish_telemetry() is None
        assert obi.publish_telemetry() is None
        assert obi.telemetry.streams_sent == sent

    def test_one_shot_snapshot_advances_cursor_across_calls(self):
        controller, obi, _, _ = connected()
        first = controller.telemetry_snapshot("o1")
        assert first is not None
        obi.process_packet(pass_packet())
        second = controller.telemetry_snapshot("o1")
        assert (second.metrics["counters"]["engine_packets_total"]
                > first.metrics["counters"].get("engine_packets_total", 0))
        assert controller.telemetry.state("o1")["duplicates"] == 0
        # The drain folds exactly what a direct poll at the same moment
        # would have returned.
        pulled = obi.observability_snapshot(include_traces=False)
        third = controller.telemetry_snapshot("o1")
        assert metrics_json(third.metrics) == metrics_json(pulled.metrics)


class TestReconnectReplay:
    def test_at_least_once_across_outage(self):
        controller, obi, pair, _ = connected()
        controller.subscribe_telemetry("o1")
        controller._ack_telemetry("o1")
        obi.process_packet(pass_packet())
        obi.process_packet(alert_packet())
        assert obi.publish_telemetry().ok

        pair.close()
        # Changes accumulate in the ring during the outage; the failed
        # push leaves the cursor unmoved (the ack never arrived).
        obi.process_packet(pass_packet())
        obi.process_packet(pass_packet())
        assert obi.publish_telemetry() is None

        reconnect_inproc(controller, obi, pair)
        stream = controller.subscribe_telemetry("o1")
        assert stream is not None
        state = controller.telemetry.state("o1")
        assert state["lost_total"] == 0
        assert len(state["alerts"]) == 1
        assert_push_equals_pull(controller, obi)

    def test_replay_from_zero_dedupes_by_cursor(self):
        controller, obi, _, _ = connected()
        controller.subscribe_telemetry("o1")
        controller._ack_telemetry("o1")
        obi.process_packet(alert_packet())
        assert obi.publish_telemetry().ok
        before = metrics_json(controller.telemetry.state("o1")["metrics"])
        alerts_before = len(controller.telemetry.state("o1")["alerts"])

        # Full replay of retained history: every record is a duplicate.
        controller.subscribe_telemetry("o1", cursor=0)
        state = controller.telemetry.state("o1")
        assert controller.telemetry.duplicates > 0
        assert metrics_json(state["metrics"]) == before
        assert len(state["alerts"]) == alerts_before


class TestHeadlessRehome:
    def test_headless_history_replays_to_adopted_controller(self):
        controller, obi, _, clock = connected(headless_after=30.0)
        controller.subscribe_telemetry("o1")
        controller._ack_telemetry("o1")
        obi.process_packet(pass_packet())
        assert obi.publish_telemetry().ok

        clock.advance(31.0)
        assert obi.is_headless()
        obi.process_packet(alert_packet())
        obi.process_packet(pass_packet())
        # Headless publishes still collect (ring accumulates, bounded)
        # but nothing travels.
        assert obi.publish_telemetry() is None

        successor = OpenBoxController(clock=clock)
        successor.adopt_epoch(2)
        result = rehome_inproc(obi, [("dead", None), ("c2", successor)])
        assert result is not None and result[0] == "c2"

        # The successor has no folded state: it subscribes from zero and
        # replays the OBI's entire retained history — nothing lost.
        stream = successor.subscribe_telemetry("o1")
        assert stream is not None
        state = successor.telemetry.state("o1")
        assert state["lost_total"] == 0
        assert len(state["alerts"]) == 1
        assert_push_equals_pull(successor, obi)


class TestBackpressure:
    def test_window_caps_each_batch_until_drained(self):
        controller, obi, _, _ = connected()
        controller.subscribe_telemetry("o1", window=1)
        controller._ack_telemetry("o1")
        # Flush the residue of the handshake round trips so the counted
        # rounds below cover exactly the seeded backlog.
        while obi.publish_telemetry() is not None:
            pass
        for index in range(3):
            obi.telemetry.note_alert(Alert(
                obi_id="o1", block="fw_alert", origin_app="fw",
                message=f"hit {index}", severity="warning",
            ))
        assert obi.telemetry.ring.pending("controller") == 3

        rounds = 0
        folded_before = controller.telemetry.records_folded
        while obi.publish_telemetry() is not None:
            rounds += 1
            assert rounds <= 10
        # One record per round trip: the slow subscriber's credit held.
        assert rounds == 3
        assert controller.telemetry.records_folded == folded_before + 3
        assert obi.telemetry.ring.pending("controller") == 0

    def test_ack_can_widen_the_window(self):
        controller, obi, _, _ = connected()
        controller.subscribe_telemetry("o1", window=1)
        controller._ack_telemetry("o1")
        while obi.publish_telemetry() is not None:
            pass
        controller._telemetry_subscriptions["o1"]["window"] = 8
        for index in range(4):
            obi.telemetry.note_alert(Alert(
                obi_id="o1", block="fw_alert", origin_app="fw",
                message=f"hit {index}", severity="warning",
            ))
        # First push is still window-1; its ack re-credits to 8, so the
        # second push carries the remaining backlog at once.
        assert obi.publish_telemetry().ok
        assert obi.telemetry.subscription["window"] == 8
        assert obi.publish_telemetry().ok
        assert obi.publish_telemetry() is None


class TestNackRewind:
    def test_rewind_to_zero_rebuilds_state_from_replay(self):
        controller, obi, _, _ = connected()
        controller.subscribe_telemetry("o1")
        controller._ack_telemetry("o1")
        obi.process_packet(alert_packet())
        assert obi.publish_telemetry().ok
        expected = metrics_json(
            controller.telemetry.state("o1")["metrics"]
        )

        controller.request_telemetry_rewind("o1", cursor=0)
        obi.process_packet(pass_packet())
        nack = obi.publish_telemetry()
        assert nack is not None and not nack.ok
        assert obi.telemetry.nacks == 1
        assert obi.telemetry.ring.cursor("controller") == 0
        # The folded state was discarded with the NACK...
        assert controller.telemetry.state("o1")["metrics"]["counters"] == {}

        # ...and the replayed interval rebuilds it, byte-identical to a
        # direct read (modulo the packet processed after the rewind request).
        assert obi.publish_telemetry().ok
        assert_push_equals_pull(controller, obi)
        rebuilt = controller.telemetry.state("o1")["metrics"]
        assert metrics_json(rebuilt) != expected  # newer, never older


class TestEpochFencing:
    def test_deposed_epoch_stream_is_fenced_and_torn_down(self):
        controller, obi, _, clock = connected()
        controller.subscribe_telemetry("o1")
        controller._ack_telemetry("o1")

        successor = OpenBoxController(clock=clock)
        successor.adopt_epoch(2)
        assert rehome_inproc(obi, [("c2", successor)]) is not None

        # The publisher still carries the old controller's epoch 1: the
        # successor refuses the stream and the OBI stops pushing.
        obi.process_packet(pass_packet())
        nack = obi.publish_telemetry()
        assert nack is not None and not nack.ok
        assert nack.error == ErrorCode.STALE_GENERATION
        assert obi.telemetry.subscription is None
        assert obi.publish_telemetry() is None

        # A fresh subscribe under the live epoch restores the flow.
        assert successor.subscribe_telemetry("o1") is not None
        obi.process_packet(pass_packet())
        assert obi.publish_telemetry().ok
        assert_push_equals_pull(successor, obi)

    def test_newer_epoch_marks_this_controller_superseded(self):
        controller, _, _, _ = connected()
        ack = controller.handle_message(TelemetryStream(
            obi_id="o1", subscriber="controller", records=[],
            through_seq=0, epoch=controller.generation + 1,
        ))
        assert ack.ok
        assert controller.superseded


class TestNorthboundWatch:
    def test_watch_sees_alert_events_from_pushed_streams(self):
        controller, obi, _, _ = connected()
        watch = controller.watch(topics=["alerts"], segments=["corp"])
        elsewhere = controller.watch(topics=["alerts"], segments=["dmz"])
        controller.subscribe_telemetry("o1")
        controller._ack_telemetry("o1")
        obi.process_packet(alert_packet())
        assert obi.publish_telemetry().ok
        events = watch.take()
        assert len(events) == 1
        assert events[0]["record"]["alert"]["origin_app"] == "fw"
        assert events[0]["obi_id"] == "o1"
        assert len(elsewhere) == 0
        watch.close()
        elsewhere.close()

    def test_callback_subscription_replaces_polling(self):
        controller, obi, _, _ = connected()
        seen = []
        unsubscribe = controller.subscribe(seen.append, apps=["fw"])
        controller.subscribe_telemetry("o1")
        controller._ack_telemetry("o1")
        obi.process_packet(alert_packet())
        assert obi.publish_telemetry().ok
        assert [e["topic"] for e in seen] == ["alerts"]
        unsubscribe()
