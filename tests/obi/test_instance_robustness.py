"""Instance-level robustness: admission gate, `_obi` handles, alerts, health.

The OBI wraps the engine's containment layer with overload control
(token-bucket admission + deterministic shedding), alert-storm
suppression on the upstream channel, and the ``_obi`` pseudo-block
through which the controller reads all of it.
"""

import pytest

from repro.bootstrap import connect_inproc
from repro.controller.obc import OpenBoxController
from repro.net.builder import make_tcp_packet
from repro.obi.engine import Element
from repro.obi.instance import ObiConfig, OpenBoxInstance
from repro.obi.robustness import FaultPolicy, OverloadPolicy
from repro.protocol.blocks_spec import OBI_PSEUDO_BLOCK, OBI_READ_HANDLES
from repro.protocol.errors import ErrorCode
from repro.protocol.messages import (
    ErrorMessage,
    ReadRequest,
    ReadResponse,
    SetProcessingGraphRequest,
)

from tests.conftest import build_firewall_graph


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


class FaultyElement(Element):
    def process(self, packet):
        if self.config.get("fail"):
            raise RuntimeError("element exploded")
        return [(0, packet)]


def alert_packet():
    """Hits the firewall's fw_alert branch (dst port 22)."""
    return make_tcp_packet("44.0.0.1", "192.168.0.9", 1234, 22)


def pass_packet():
    return make_tcp_packet("44.0.0.1", "192.168.0.9", 9999, 12345)


def connected(config: ObiConfig, clock=None):
    controller = OpenBoxController()
    obi = OpenBoxInstance(config, clock=clock)
    connect_inproc(controller, obi)
    response = obi.handle_message(
        SetProcessingGraphRequest(graph=build_firewall_graph().to_dict())
    )
    assert not isinstance(response, ErrorMessage)
    return controller, obi


class TestObiReadHandles:
    def test_all_declared_handles_readable_without_graph(self):
        obi = OpenBoxInstance(ObiConfig(obi_id="o1"))
        for handle in OBI_READ_HANDLES:
            response = obi.handle_message(
                ReadRequest(block=OBI_PSEUDO_BLOCK, handle=handle)
            )
            assert isinstance(response, ReadResponse), handle
            assert response.block == OBI_PSEUDO_BLOCK

    def test_unknown_obi_handle_rejected(self):
        obi = OpenBoxInstance(ObiConfig(obi_id="o1"))
        response = obi.handle_message(
            ReadRequest(block=OBI_PSEUDO_BLOCK, handle="bogus")
        )
        assert isinstance(response, ErrorMessage)
        assert response.code == ErrorCode.UNKNOWN_HANDLE

    def test_handles_reflect_counters(self):
        clock = FakeClock()
        config = ObiConfig(obi_id="o1", fault_policy=FaultPolicy(
            quarantine_threshold=2, quarantine_cooldown=60.0))
        controller, obi = connected(config, clock=clock)
        obi.factory.register_custom("HeaderPayloadRewriter", FaultyElement)
        from repro.core.blocks import Block
        from repro.core.graph import ProcessingGraph
        graph = ProcessingGraph("g")
        read = Block("FromDevice", name="r", config={"devname": "in"})
        boom = Block("HeaderPayloadRewriter", name="boom", config={"fail": True})
        out = Block("ToDevice", name="o", config={"devname": "out"})
        graph.add_blocks([read, boom, out])
        graph.connect(read, boom)
        graph.connect(boom, out)
        obi.handle_message(SetProcessingGraphRequest(graph=graph.to_dict()))
        for _ in range(3):
            obi.process_packet(pass_packet())
            clock.advance(1.0)

        def read_handle(handle):
            return obi.handle_message(
                ReadRequest(block=OBI_PSEUDO_BLOCK, handle=handle)
            ).value

        assert read_handle("errors_total") == 2  # third packet hit quarantine
        assert read_handle("quarantined_blocks") == ["boom"]
        assert len(read_handle("poison_quarantine")) == 2
        assert read_handle("alerts_sent") >= 1


class TestAdmissionGate:
    def make_obi(self, seed=0, clock=None):
        config = ObiConfig(obi_id=f"o-{seed}", overload=OverloadPolicy(
            admission_rate=1.0, admission_burst=8.0,
            overload_watermark=0.5, shed_seed=seed, pressure_shed_rate=0.5,
        ))
        return connected(config, clock=clock)

    def shed_pattern(self, seed):
        clock = FakeClock()
        _controller, obi = self.make_obi(seed=seed, clock=clock)
        pattern = []
        for _ in range(30):
            outcome = obi.inject(pass_packet())
            pattern.append(outcome.shed)
        return pattern, obi

    def test_shed_set_is_seed_deterministic(self):
        first, _ = self.shed_pattern(seed=7)
        second, _ = self.shed_pattern(seed=7)
        assert first == second
        assert any(first)  # the burst is 8: a 30-packet burst must shed

    def test_different_seed_different_shed_set(self):
        base, _ = self.shed_pattern(seed=7)
        other, _ = self.shed_pattern(seed=8)
        # Same bucket dynamics, different pressure-band decisions.
        assert base != other

    def test_shed_packets_never_reach_engine(self):
        _pattern, obi = self.shed_pattern(seed=7)
        assert obi.packets_offered == 30
        assert obi.packets_processed + obi.packets_shed == 30
        assert obi.engine.packets_processed == obi.packets_processed

    def test_exhausted_bucket_sheds_everything(self):
        clock = FakeClock()
        _controller, obi = self.make_obi(seed=0, clock=clock)
        for _ in range(50):
            obi.inject(pass_packet())
        outcome = obi.inject(pass_packet())
        assert outcome.shed and outcome.dropped
        assert obi.robustness.degraded

    def test_degraded_mode_bypasses_degradable_blocks(self):
        clock = FakeClock()
        config = ObiConfig(obi_id="o1", overload=OverloadPolicy(
            admission_rate=1.0, admission_burst=4.0, overload_watermark=1.1,
        ))
        controller, obi = connected(config, clock=clock)
        from repro.core.blocks import Block
        from repro.core.graph import ProcessingGraph
        graph = ProcessingGraph("g")
        read = Block("FromDevice", name="r", config={"devname": "in"})
        deep = Block("HeaderPayloadRewriter", name="dpi",
                     config={"degradable": True, "substitutions": []})
        out = Block("ToDevice", name="o", config={"devname": "out"})
        graph.add_blocks([read, deep, out])
        graph.connect(read, deep)
        graph.connect(deep, out)
        obi.handle_message(SetProcessingGraphRequest(graph=graph.to_dict()))
        # Watermark 1.1 puts the gate in the pressure band immediately.
        outcome = obi.inject(pass_packet())
        assert [dev for dev, _p in outcome.outputs] == ["out"]
        assert "dpi" not in outcome.path
        assert obi.robustness.degraded_bypasses == 1


class TestAlertSuppression:
    def test_rate_limited_alerts_are_suppressed_and_summarized(self):
        clock = FakeClock()
        config = ObiConfig(obi_id="o1", alert_rate_limit=1.0, alert_burst=2.0)
        controller, obi = connected(config, clock=clock)
        for _ in range(10):
            obi.process_packet(alert_packet())
        # Burst of 2: two alerts through, eight suppressed.
        assert obi.alerts_sent == 2
        assert len(controller.alerts) == 2
        assert obi.read_obi_handle("alerts_suppressed") == 8
        obi.flush_alerts()
        summary = controller.alerts[-1]
        assert summary.block == OBI_PSEUDO_BLOCK
        assert "8 alerts suppressed" in summary.message
        assert summary.count == 8
        # Summaries reset: a second flush emits nothing new.
        sent = obi.alerts_sent
        obi.flush_alerts()
        assert obi.alerts_sent == sent

    def test_unlimited_by_default(self):
        controller, obi = connected(ObiConfig(obi_id="o1"))
        for _ in range(5):
            obi.process_packet(alert_packet())
        assert obi.alerts_sent == 5
        assert obi.read_obi_handle("alerts_suppressed") == 0

    def test_quarantine_alert_bypasses_rate_limit(self):
        clock = FakeClock()
        config = ObiConfig(
            obi_id="o1",
            alert_rate_limit=0.001, alert_burst=1.0,
            fault_policy=FaultPolicy(quarantine_threshold=3,
                                     quarantine_cooldown=60.0),
        )
        controller, obi = connected(config, clock=clock)
        obi.factory.register_custom("HeaderPayloadRewriter", FaultyElement)
        from repro.core.blocks import Block
        from repro.core.graph import ProcessingGraph
        graph = ProcessingGraph("g")
        read = Block("FromDevice", name="r", config={"devname": "in"})
        boom = Block("HeaderPayloadRewriter", name="boom", config={"fail": True})
        out = Block("ToDevice", name="o", config={"devname": "out"})
        graph.add_blocks([read, boom, out])
        graph.connect(read, boom)
        graph.connect(boom, out)
        obi.handle_message(SetProcessingGraphRequest(graph=graph.to_dict()))
        for _ in range(5):
            obi.process_packet(pass_packet())
            clock.advance(0.01)
        critical = [a for a in controller.alerts if a.severity == "critical"]
        assert len(critical) == 1
        assert critical[0].block == "boom"
        assert "quarantined" in critical[0].message


def subscribed(config: ObiConfig, clock=None):
    """A connected OBI whose controller holds a telemetry subscription."""
    controller, obi = connected(config, clock=clock)
    controller.subscribe_telemetry(config.obi_id)
    controller._ack_telemetry(config.obi_id)
    return controller, obi


class TestHealthReporting:
    """Health travels upstream on the telemetry stream (PROTOCOL.md §13)."""

    def test_health_report_reaches_controller_view(self):
        clock = FakeClock()
        config = ObiConfig(obi_id="o1", overload=OverloadPolicy(
            admission_rate=1.0, admission_burst=2.0))
        controller, obi = subscribed(config, clock=clock)
        for _ in range(10):
            obi.inject(pass_packet())
        assert obi.publish_telemetry().ok
        view = controller.stats.view("o1")
        assert view.last_observability is not None
        assert view.last_observability.obi_id == "o1"
        counters = view.last_observability.metrics["counters"]
        assert counters["obi_packets_shed_total"] > 0
        assert view.overloaded
        assert view.effective_load() == 1.0

    def test_overload_clears_without_fresh_evidence(self):
        clock = FakeClock()
        config = ObiConfig(obi_id="o1", overload=OverloadPolicy(
            admission_rate=1000.0, admission_burst=64.0))
        controller, obi = subscribed(config, clock=clock)
        for _ in range(10):
            obi.inject(pass_packet())
        obi.publish_telemetry()
        assert not controller.stats.view("o1").overloaded
        # Saturate, publish, then recover and publish again. The 1000 s
        # clock jump below would trip headless mode (which holds the
        # stream back instead of delivering it) — disable it; this test
        # is about overload hysteresis, not controller absence.
        config2 = ObiConfig(obi_id="o2", headless_after=0.0,
                            overload=OverloadPolicy(
                                admission_rate=1.0, admission_burst=2.0))
        controller2, obi2 = subscribed(config2, clock=clock)
        for _ in range(10):
            obi2.inject(pass_packet())
        obi2.publish_telemetry()
        assert controller2.stats.view("o2").overloaded
        clock.advance(1000.0)
        obi2.inject(pass_packet())  # bucket refilled: admitted, healthy
        assert obi2.publish_telemetry().ok
        assert not controller2.stats.view("o2").overloaded

    def test_shed_progress_alone_is_overload_evidence(self):
        # A zero watermark never flags degraded once a packet is admitted
        # again, so only the shed-counter rule can mark this OBI.
        clock = FakeClock()
        config = ObiConfig(obi_id="o1", overload=OverloadPolicy(
            admission_rate=1.0, admission_burst=2.0, overload_watermark=0.0))
        controller, obi = subscribed(config, clock=clock)
        for _ in range(10):
            obi.inject(pass_packet())
        clock.advance(10.0)
        assert not obi.inject(pass_packet()).shed
        assert obi.publish_telemetry().ok
        view = controller.stats.view("o1")
        assert view.last_observability.metrics["gauges"]["obi_degraded"] == 0
        assert view.overloaded
        obi.inject(pass_packet())
        assert obi.publish_telemetry().ok
        assert not view.overloaded

    def test_health_report_is_liveness_evidence(self):
        clock = FakeClock()
        controller, obi = subscribed(ObiConfig(obi_id="o1"), clock=clock)
        obi.inject(pass_packet())
        now = controller.clock()
        assert obi.publish_telemetry().ok
        view = controller.stats.view("o1")
        assert view.last_heard >= now


class TestEntryVerify:
    def test_two_phase_verify_rejects_unresolved_entry(self, monkeypatch):
        """Regression: a staged engine whose entry point failed to resolve
        must be rejected in the verify phase, keeping the old graph."""
        import repro.obi.instance as instance_mod

        controller, obi = connected(ObiConfig(obi_id="o1"))
        version_before = obi.graph_version
        real_build = instance_mod.build_engine

        def sabotaged_build(graph, **kwargs):
            engine = real_build(graph, **kwargs)
            engine.elements.pop(engine.entry_name)
            engine._entry = None
            return engine

        monkeypatch.setattr(instance_mod, "build_engine", sabotaged_build)
        response = obi.handle_message(
            SetProcessingGraphRequest(graph=build_firewall_graph("fw2").to_dict())
        )
        assert isinstance(response, ErrorMessage)
        assert response.code == ErrorCode.INVALID_GRAPH
        assert "entry point" in response.detail
        # Old graph still serving; rollback audited.
        assert obi.graph_version == version_before
        assert obi.graph_rollbacks == 1
        assert obi.process_packet(pass_packet()).forwarded
