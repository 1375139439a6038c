"""End-to-end scaling: load spikes provision replicas; steering follows.

Reproduces the control loop behind the paper's Figure 7(c): the
controller watches OBI load, provisions a second OBI running the same
merged graph, and the steering layer rebalances flows onto it.
"""

import pytest

from repro.apps.firewall import FirewallApp, parse_firewall_rules
from repro.bootstrap import connect_inproc
from repro.controller.obc import OpenBoxController
from repro.controller.scaling import ScalingManager, ScalingPolicy
from repro.controller.steering import ServiceChain, SteeringHop, TrafficSteering
from repro.core.blocks import Block
from repro.core.graph import ProcessingGraph
from repro.net.builder import make_tcp_packet
from repro.obi.instance import ObiConfig, OpenBoxInstance
from repro.obi.robustness import OverloadPolicy
from repro.protocol.messages import GlobalStatsResponse, SetProcessingGraphRequest
from repro.sim.traffic import TraceConfig, TrafficGenerator


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


class ObiProvisioner:
    """Provisions real OpenBoxInstance replicas attached to a controller."""

    def __init__(self, controller: OpenBoxController, steering: TrafficSteering):
        self.controller = controller
        self.steering = steering
        self.instances: dict[str, OpenBoxInstance] = {}
        self._counter = 0

    def provision(self, like_obi_id: str) -> str:
        self._counter += 1
        template = self.controller.obis[like_obi_id]
        new_id = f"{like_obi_id}-r{self._counter}"
        obi = OpenBoxInstance(
            ObiConfig(obi_id=new_id, segment=template.segment)
        )
        connect_inproc(self.controller, obi)
        self.instances[new_id] = obi
        return new_id

    def deprovision(self, obi_id: str) -> None:
        self.controller.disconnect_obi(obi_id)
        self.instances.pop(obi_id, None)


@pytest.fixture
def scaled_world():
    controller = OpenBoxController()
    primary = OpenBoxInstance(ObiConfig(obi_id="fw-obi", segment="corp"))
    connect_inproc(controller, primary)
    controller.register_application(FirewallApp(
        "fw", parse_firewall_rules("allow any any any any any"),
        segment="corp", alert_only=True,
    ))

    steering = TrafficSteering()
    steering.register_chain(
        ServiceChain("corp", [SteeringHop("fw-group", ["fw-obi"])]), default=True
    )
    provisioner = ObiProvisioner(controller, steering)
    manager = ScalingManager(
        controller.stats, provisioner, ScalingPolicy(cooldown=0.0)
    )
    manager.register_group("fw-group", ["fw-obi"])
    return controller, primary, steering, provisioner, manager


def _report_load(controller, obi_id, load, samples=5):
    for index in range(samples):
        controller.stats.record_stats(
            GlobalStatsResponse(obi_id=obi_id, cpu_load=load), float(index)
        )


class TestScalingEndToEnd:
    def test_overload_provisions_and_deploys_replica(self, scaled_world):
        controller, _primary, steering, provisioner, manager = scaled_world
        _report_load(controller, "fw-obi", 0.95)
        actions = manager.evaluate(now=100.0)
        assert actions and actions[0].kind == "scale_up"

        replica_id = actions[0].obi_id
        replica = provisioner.instances[replica_id]
        # The replica received the same merged graph automatically.
        assert replica.engine is not None
        assert replica.process_packet(
            make_tcp_packet("1.1.1.1", "2.2.2.2", 5, 80)
        ).forwarded

        # Steering updated: flows now spread over both replicas.
        steering.update_replicas("fw-group", manager.group_members("fw-group"))
        chosen = {
            steering.route(make_tcp_packet("1.1.1.1", "2.2.2.2", sport, 80))[0]
            for sport in range(100)
        }
        assert chosen == {"fw-obi", replica_id}

    def test_underload_deprovisions(self, scaled_world):
        controller, _primary, _steering, provisioner, manager = scaled_world
        _report_load(controller, "fw-obi", 0.95)
        action = manager.evaluate(now=100.0)[0]
        replica_id = action.obi_id
        _report_load(controller, "fw-obi", 0.01)
        _report_load(controller, replica_id, 0.01)
        down = manager.evaluate(now=200.0)
        assert down and down[0].kind == "scale_down"
        assert down[0].obi_id not in provisioner.instances
        assert manager.group_members("fw-group") == ["fw-obi"] or \
            len(manager.group_members("fw-group")) == 1

    def test_scaled_group_throughput_in_simulator(self, scaled_world):
        """The replicas' combined capacity is what Table 2's OpenBox rows
        measure; verify via the cost-model runner on this live group."""
        from repro.sim.runner import measure_merged
        from repro.sim.traffic import TraceConfig, TrafficGenerator

        controller, _primary, _steering, _prov, manager = scaled_world
        _report_load(controller, "fw-obi", 0.95)
        manager.evaluate(now=100.0)
        replicas = len(manager.group_members("fw-group"))
        assert replicas == 2

        app = FirewallApp(
            "fw", parse_firewall_rules("allow any any any any any"), alert_only=True
        )
        packets = TrafficGenerator(TraceConfig(num_packets=100)).packets()
        one = measure_merged([app], packets, replicas=1)
        scaled = measure_merged([app], packets, replicas=replicas)
        assert scaled.throughput_mbps == pytest.approx(
            replicas * one.throughput_mbps, rel=0.01
        )


def _degradable_graph() -> ProcessingGraph:
    """read -> dpi (degradable) -> out: the dpi stage is shed first."""
    graph = ProcessingGraph("gated")
    read = Block("FromDevice", name="read", config={"devname": "in"})
    dpi = Block("HeaderPayloadRewriter", name="dpi",
                config={"degradable": True, "substitutions": []})
    out = Block("ToDevice", name="out", config={"devname": "out"})
    graph.add_blocks([read, dpi, out])
    graph.connect(read, dpi)
    graph.connect(dpi, out)
    return graph


def _gated_obi(overload: OverloadPolicy):
    clock = FakeClock()
    controller = OpenBoxController(clock=clock)
    obi = OpenBoxInstance(
        ObiConfig(obi_id="gated-obi", segment="corp", overload=overload),
        clock=clock,
    )
    connect_inproc(controller, obi)
    obi.handle_message(
        SetProcessingGraphRequest(graph=_degradable_graph().to_dict())
    )
    return controller, obi, clock


def _drive_burst(obi, clock, num_packets=200, rate=1000.0, trace_seed=42):
    """Offer a seeded constant-rate burst, advancing the OBI clock with
    each arrival so the admission bucket drains deterministically."""
    generator = TrafficGenerator(TraceConfig(seed=trace_seed))
    outcomes = []
    for packet in generator.overload_burst(num_packets, rate=rate, start=clock.t):
        clock.t = packet.timestamp
        outcomes.append(obi.inject(packet))
    return outcomes


class TestOverloadEndToEnd:
    """Figure 9-10 territory: saturation is detected locally (shed +
    degrade), reported upstream, and drives the provisioning loop."""

    def _shed_indexes(self, shed_seed):
        overload = OverloadPolicy(
            admission_rate=100.0, admission_burst=16.0,
            overload_watermark=0.5, shed_seed=shed_seed,
            pressure_shed_rate=0.3,
        )
        _controller, obi, clock = _gated_obi(overload)
        outcomes = _drive_burst(obi, clock)
        return [i for i, o in enumerate(outcomes) if o.shed], obi

    def test_shed_set_is_fixed_by_seed(self):
        first, obi = self._shed_indexes(shed_seed=11)
        second, _ = self._shed_indexes(shed_seed=11)
        other, _ = self._shed_indexes(shed_seed=12)
        assert first  # 1000 pps offered against 100 pps admitted must shed
        assert first == second
        assert first != other
        assert obi.packets_offered == 200
        assert obi.packets_processed + obi.packets_shed == 200

    def test_degradable_stage_bypassed_before_hard_shedding(self):
        # No pressure shedding: the only sheds are exhausted-bucket ones,
        # so degradation observably precedes the first lost packet.
        overload = OverloadPolicy(
            admission_rate=100.0, admission_burst=16.0,
            overload_watermark=0.5, pressure_shed_rate=0.0,
        )
        _controller, obi, clock = _gated_obi(overload)
        outcomes = _drive_burst(obi, clock)
        bypassed = [
            i for i, o in enumerate(outcomes)
            if not o.shed and o.forwarded and "dpi" not in o.path
        ]
        shed = [i for i, o in enumerate(outcomes) if o.shed]
        assert bypassed and shed
        assert bypassed[0] < shed[0]
        # Full service while the bucket is above the watermark.
        assert all("dpi" in o.path for o in outcomes[: bypassed[0]])
        assert obi.robustness.degraded_bypasses == len(bypassed)

    def test_overload_health_report_drives_scale_up(self):
        overload = OverloadPolicy(admission_rate=100.0, admission_burst=16.0)
        controller, obi, clock = _gated_obi(overload)
        steering = TrafficSteering()
        steering.register_chain(
            ServiceChain("corp", [SteeringHop("gated-group", ["gated-obi"])]),
            default=True,
        )
        provisioner = ObiProvisioner(controller, steering)
        manager = ScalingManager(
            controller.stats, provisioner, ScalingPolicy(cooldown=0.0)
        )
        manager.register_group("gated-group", ["gated-obi"])

        # CPU samples alone look healthy: no scaling decision yet.
        _report_load(controller, "gated-obi", 0.05)
        assert manager.evaluate(now=clock.t) == []

        controller.subscribe_telemetry("gated-obi")
        controller._ack_telemetry("gated-obi")
        _drive_burst(obi, clock)
        assert obi.packets_shed > 0
        assert obi.publish_telemetry().ok

        # Shedding evidence pins effective load to 1.0 and overrides the
        # lagging CPU view, so the same loop now provisions a replica.
        view = controller.stats.view("gated-obi")
        assert view.overloaded
        assert view.effective_load() == 1.0
        actions = manager.evaluate(now=clock.t)
        assert actions and actions[0].kind == "scale_up"
        assert actions[0].obi_id in provisioner.instances
        assert set(manager.group_members("gated-group")) == {
            "gated-obi", actions[0].obi_id
        }
