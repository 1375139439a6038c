"""Headless data plane: OBI behavior during controller absence.

When controller silence exceeds ``headless_after`` the OBI keeps
serving packets on its last committed graph, buffers upstream events in
a bounded drop-accounted ring, and replays them (oldest first, loss
reported) once contact returns. The split-brain generation guard rides
the same machinery.
"""

import pytest

from repro.bootstrap import connect_inproc, reconnect_inproc
from repro.controller.obc import OpenBoxController
from repro.net.builder import make_tcp_packet
from repro.obi.headless import HeadlessBuffer
from repro.obi.instance import ObiConfig, OpenBoxInstance
from repro.protocol.blocks_spec import OBI_PSEUDO_BLOCK
from repro.protocol.errors import ErrorCode
from repro.protocol.messages import (
    Alert,
    ErrorMessage,
    ReadRequest,
    SetProcessingGraphRequest,
)
from repro.transport.base import ChannelClosed
from tests.conftest import build_firewall_graph

from tests.obi.test_instance_robustness import FakeClock


def alert_packet():
    return make_tcp_packet("44.0.0.1", "192.168.0.9", 1234, 22)


def pass_packet():
    return make_tcp_packet("44.0.0.1", "192.168.0.9", 9999, 12345)


def connected(clock, **config_kwargs):
    controller = OpenBoxController()
    obi = OpenBoxInstance(
        ObiConfig(obi_id="o1", segment="corp", **config_kwargs), clock=clock
    )
    connect_inproc(controller, obi)
    response = obi.handle_message(
        SetProcessingGraphRequest(graph=build_firewall_graph().to_dict())
    )
    assert not isinstance(response, ErrorMessage)
    return controller, obi


def subscribed(clock, **config_kwargs):
    """``connected`` plus a live controller telemetry subscription."""
    controller, obi = connected(clock, **config_kwargs)
    controller.subscribe_telemetry("o1")
    controller._ack_telemetry("o1")
    return controller, obi


class TestHeadlessBuffer:
    def test_fifo_with_eviction_accounting(self):
        buffer = HeadlessBuffer(capacity=2)
        assert buffer.push("a")
        assert buffer.push("b")
        assert not buffer.push("c")  # evicts "a"
        assert buffer.dropped == 1
        entries, dropped = buffer.drain()
        assert entries == ["b", "c"]
        assert dropped == 1
        assert buffer.dropped == 0  # episode counter reset
        assert buffer.dropped_total == 1  # lifetime counter retained
        assert buffer.buffered_total == 3

    def test_requeue_front_preserves_order_and_evicts_newest(self):
        buffer = HeadlessBuffer(capacity=3)
        buffer.push("d")
        buffer.requeue_front(["a", "b", "c"])
        # Over capacity: the *newest* entry goes, the requeued history
        # (the oldest events, already promised by the drop count) stays.
        assert buffer.dropped == 1
        entries, _ = buffer.drain()
        assert entries == ["a", "b", "c"]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            HeadlessBuffer(capacity=0)


class TestHeadlessTransition:
    def test_silence_past_threshold_goes_headless(self):
        clock = FakeClock()
        _, obi = connected(clock, headless_after=30.0)
        assert not obi.is_headless()
        clock.advance(31.0)
        assert obi.is_headless()
        assert obi.headless_episodes == 1
        # The transition is edge-counted once, not per check.
        assert obi.is_headless()
        assert obi.headless_episodes == 1

    def test_zero_threshold_disables_headless(self):
        clock = FakeClock()
        _, obi = connected(clock, headless_after=0.0)
        clock.advance(10_000.0)
        assert not obi.is_headless()

    def test_downstream_traffic_is_liveness_evidence(self):
        clock = FakeClock()
        _, obi = connected(clock, headless_after=30.0)
        clock.advance(29.0)
        obi.handle_message(ReadRequest(block=OBI_PSEUDO_BLOCK, handle="degraded"))
        clock.advance(29.0)
        assert not obi.is_headless()

    def test_packets_keep_flowing_headless(self):
        clock = FakeClock()
        _, obi = connected(clock, headless_after=30.0)
        clock.advance(31.0)
        assert obi.is_headless()
        outcome = obi.process_packet(pass_packet())
        assert not outcome.dropped
        assert outcome.outputs


class TestBufferingAndReplay:
    def test_alerts_buffered_while_headless(self):
        clock = FakeClock()
        controller, obi = connected(clock, headless_after=30.0)
        before = len(controller.alerts)
        clock.advance(31.0)
        obi.process_packet(alert_packet())
        assert len(controller.alerts) == before
        assert len(obi.headless_buffer) == 1

    def test_health_reports_buffered_while_headless(self):
        clock = FakeClock()
        controller, obi = subscribed(clock, headless_after=30.0)
        folded = controller.telemetry.last_seq("o1")
        clock.advance(31.0)
        obi.process_packet(pass_packet())
        # The stream is held back, not delivered: a half-connected OBI
        # must not feed the controller's scaling loop.
        assert obi.publish_telemetry() is None
        assert controller.telemetry.last_seq("o1") == folded
        assert obi.telemetry.ring.pending("controller") > 0

    def test_replay_on_reconnect_in_order(self):
        clock = FakeClock()
        controller, obi = subscribed(clock, headless_after=30.0)
        before_alerts = len(controller.alerts)
        clock.advance(31.0)
        obi.process_packet(alert_packet())
        clock.advance(5.0)
        assert obi.publish_telemetry() is None
        sent_before = obi.alerts_sent

        obi.reconnect()

        assert not obi.is_headless()
        assert len(obi.headless_buffer) == 0
        assert len(controller.alerts) == before_alerts + 1
        # The held-back telemetry is delivered once contact is back.
        assert obi.publish_telemetry().ok
        view = controller.stats.view("o1")
        assert (view.last_observability.metrics["counters"]
                ["engine_packets_total"] == 1)
        # Replayed alerts count toward the sent counter.
        assert obi.alerts_sent == sent_before + 1

    def test_drop_accounting_reported_after_replay(self):
        clock = FakeClock()
        controller, obi = connected(clock, headless_after=30.0,
                                    headless_buffer=2)
        before = len(controller.alerts)
        clock.advance(31.0)
        assert obi.is_headless()
        for _ in range(5):
            clock.advance(1.0)
            obi.process_packet(alert_packet())
        assert len(obi.headless_buffer) == 2
        assert obi.headless_buffer.dropped == 3

        obi.reconnect()

        # Two surviving alerts delivered, plus one summary alert telling
        # the controller exactly what was lost.
        delivered = controller.alerts[before:]
        assert len(delivered) == 3
        summaries = [a for a in delivered if "dropped while headless"
                     in a.message]
        assert len(summaries) == 1
        assert summaries[0].count == 3
        assert obi.headless_buffer.dropped_total == 3

    def test_failed_replay_requeues_and_stays_headless(self):
        clock = FakeClock()
        controller, obi = connected(clock, headless_after=30.0)
        before = len(controller.alerts)
        clock.advance(31.0)
        for _ in range(3):
            clock.advance(1.0)
            obi.process_packet(alert_packet())

        class DeadChannel:
            def notify(self, message):
                raise ChannelClosed("still down")

            def request(self, message, timeout=None):
                raise ChannelClosed("still down")

            def set_handler(self, handler):
                pass

        live = obi._channel
        obi._channel = DeadChannel()
        obi.note_controller_heard()  # tries to replay, channel dies again
        assert obi.is_headless()
        assert len(obi.headless_buffer) == 3  # nothing lost

        obi._channel = live
        obi.note_controller_heard()
        assert not obi.is_headless()
        assert len(controller.alerts) == before + 3

    def test_headless_read_handles(self):
        clock = FakeClock()
        _, obi = connected(clock, headless_after=30.0, headless_buffer=1)
        clock.advance(31.0)
        obi.process_packet(alert_packet())
        obi.process_packet(alert_packet())  # evicts the first alert

        def read(handle):
            response = obi.handle_message(
                ReadRequest(block=OBI_PSEUDO_BLOCK, handle=handle)
            )
            assert not isinstance(response, ErrorMessage), handle
            return response.value

        # Reading through the downstream channel is itself liveness
        # evidence, so the first read reports the headless state and
        # replays the buffer as a side effect.
        assert read("headless_dropped") == 1
        assert read("headless_episodes") == 1
        assert read("headless") is False  # the read ended the episode
        assert read("headless_entries") == 0


class TestGenerationGuard:
    def test_stale_generation_rejected_and_uncached(self):
        clock = FakeClock()
        _, obi = connected(clock)
        graph = build_firewall_graph().to_dict()
        accepted = obi.handle_message(
            SetProcessingGraphRequest(graph=graph, controller_generation=5)
        )
        assert not isinstance(accepted, ErrorMessage)
        assert obi.highest_controller_generation == 5

        stale = SetProcessingGraphRequest(graph=graph, controller_generation=3)
        response = obi.handle_message(stale)
        assert isinstance(response, ErrorMessage)
        assert response.code == ErrorCode.STALE_GENERATION
        assert obi.stale_generation_rejections == 1

        # The rejection was not cached: the same xid from a legitimate
        # controller is processed fresh, not answered with the stale
        # controller's error.
        retry = SetProcessingGraphRequest(
            xid=stale.xid, graph=graph, controller_generation=5
        )
        assert not isinstance(obi.handle_message(retry), ErrorMessage)

    def test_generation_zero_is_legacy_and_accepted(self):
        clock = FakeClock()
        _, obi = connected(clock)
        obi.handle_message(SetProcessingGraphRequest(
            graph=build_firewall_graph().to_dict(), controller_generation=5
        ))
        response = obi.handle_message(SetProcessingGraphRequest(
            graph=build_firewall_graph().to_dict()
        ))
        assert not isinstance(response, ErrorMessage)

    def test_keepalive_and_hello_carry_recovery_fields(self):
        clock = FakeClock()
        controller, obi = connected(clock)
        obi.send_keepalive()
        handle = controller.obis["o1"]
        assert handle.reported_digest == obi.graph_digest
        assert handle.reported_graph_version == obi.graph_version
        hello = obi.hello_message()
        assert hello.graph_digest == obi.graph_digest
        assert hello.controller_generation == obi.highest_controller_generation


class TestGraphDigest:
    def test_commit_records_digest_of_received_graph(self):
        from repro.core.graph import canonical_graph_digest

        clock = FakeClock()
        _, obi = connected(clock)
        assert obi.graph_digest == canonical_graph_digest(
            build_firewall_graph().to_dict()
        )

    def test_wire_corruption_detected_by_digest_cross_check(self):
        clock = FakeClock()
        _, obi = connected(clock)
        version = obi.graph_version
        response = obi.handle_message(SetProcessingGraphRequest(
            graph=build_firewall_graph().to_dict(),
            graph_digest="sha256:" + "0" * 64,
        ))
        assert isinstance(response, ErrorMessage)
        assert response.code == ErrorCode.INVALID_GRAPH
        assert "digest mismatch" in response.detail
        assert obi.graph_version == version  # two-phase apply rolled back


class TestScalingFreeze:
    def test_headless_obi_does_not_feed_liveness_loop(self):
        # A headless OBI's silence makes it *look* dead to the
        # controller's liveness sweep — which is the point: no stale
        # half-connected instance feeds scaling or failover decisions
        # until it reconnects and replays.
        clock = FakeClock()
        controller = OpenBoxController(clock=clock)
        obi = OpenBoxInstance(
            ObiConfig(obi_id="o1", segment="corp", headless_after=30.0),
            clock=clock,
        )
        connect_inproc(controller, obi)
        assert controller.stats.is_live("o1", now=clock())
        clock.advance(120.0)
        assert obi.is_headless()
        assert not controller.stats.is_live("o1", now=clock())
        obi.reconnect()
        obi.send_keepalive()
        assert controller.stats.is_live("o1", now=clock())
