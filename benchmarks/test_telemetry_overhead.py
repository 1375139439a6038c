"""Streaming telemetry vs a snapshot sweep: controller-side cost per tick.

A 50-OBI fleet on in-process channels, each tick touching only a small
subset of instances (K changed out of N). A sweep of the one-shot pull
API, ``controller.telemetry_snapshot(obi_id)``, costs the controller
O(N) every tick — a subscribe-with-drain, an ack, and a folded-state
read per OBI, changed or not. The §13 push path costs the controller
only the K streams that actually carry changes: quiet OBIs send
nothing at all.

Controller-side cost per tick: for the sweep, the wall time of the
sweep itself — the controller issues every request and blocks on every
round trip, so the whole sweep is controller time regardless of where
the snapshot is computed; for push, the metered time inside the
controller's message handler — streams arrive OBI-initiated, so that
is all the controller ever does.
The poll/push ratio is machine-independent and is gated against the
checked-in baseline ``benchmarks/BENCH_telemetry.json`` (fails on a
>30% regression). Correctness rides along: after the ticks, every
OBI's folded subscriber state must be byte-identical to a direct read
of the same registry.

Scale: set ``OPENBOX_BENCH_SCALE=ci`` for the reduced CI run (same
fleet width — the N/K shape is what matters — fewer ticks).
"""

from __future__ import annotations

import json
import os
import pathlib
import time

from benchmarks.conftest import RESULTS_DIR, write_result
from repro.bootstrap import connect_inproc
from repro.controller.obc import OpenBoxController
from repro.net.builder import make_tcp_packet
from repro.obi.instance import ObiConfig, OpenBoxInstance
from repro.protocol.messages import ErrorMessage, SetProcessingGraphRequest

BASELINE_PATH = pathlib.Path(__file__).parent / "BENCH_telemetry.json"

#: Largest tolerated drop of the poll/push cost ratio vs the baseline.
MAX_RATIO_REGRESSION = 0.30
#: Absolute floor: push must beat the sweep outright at N=50, K=5.
MIN_RATIO = 2.0

_SCALES = {
    # obis, changed per tick, ticks, packets per changed obi per tick
    "full": (50, 5, 30, 4),
    "ci": (50, 5, 10, 4),
}

FIREWALL_GRAPH = None  # built once in _fleet()

RULES = """
deny  tcp 10.0.0.0/8 any any 23
alert tcp any        any any 22
allow any any        any any any
"""


class _Meter:
    """Wraps a message handler, accumulating time spent inside it."""

    def __init__(self, inner):
        self.inner = inner
        self.spent = 0.0

    def __call__(self, message):
        start = time.perf_counter()
        try:
            return self.inner(message)
        finally:
            self.spent += time.perf_counter() - start

    def take(self) -> float:
        spent, self.spent = self.spent, 0.0
        return spent


def _scale():
    return _SCALES[os.environ.get("OPENBOX_BENCH_SCALE", "full")]


def _fleet(num_obis):
    from repro.apps.firewall import FirewallApp, parse_firewall_rules

    graph = FirewallApp(
        "fw", parse_firewall_rules(RULES), alert_only=True
    ).build_graph().to_dict()
    controller = OpenBoxController()
    obis, ctrl_meters = [], []
    for index in range(num_obis):
        obi = OpenBoxInstance(
            ObiConfig(obi_id=f"obi-{index}", segment="bench")
        )
        pair = connect_inproc(controller, obi)
        response = obi.handle_message(SetProcessingGraphRequest(graph=graph))
        assert not isinstance(response, ErrorMessage)
        ctrl_meter = _Meter(controller.handle_message)
        pair.left.set_handler(ctrl_meter)
        obis.append(obi)
        ctrl_meters.append(ctrl_meter)
    return controller, obis, ctrl_meters


def _packet(tick, index):
    return make_tcp_packet(
        f"44.0.{tick % 250}.{index % 250}", "192.168.0.9", 1234, 12345
    )


def _drive_changes(obis, tick, changed, packets_per):
    """Touch K instances; the rest of the fleet stays quiet."""
    width = len(obis)
    for offset in range(changed):
        obi = obis[(tick * changed + offset) % width]
        for index in range(packets_per):
            obi.process_packet(_packet(tick, index))


def test_push_cost_tracks_change_rate_not_fleet_width():
    num_obis, changed, ticks, packets_per = _scale()
    controller, obis, ctrl_meters = _fleet(num_obis)

    # --- snapshot sweep: the controller drives N drains per tick -----
    poll_cost = 0.0
    for tick in range(ticks):
        _drive_changes(obis, tick, changed, packets_per)
        start = time.perf_counter()
        for obi_id in controller.obis:
            controller.telemetry_snapshot(obi_id, include_traces=False)
        poll_cost += time.perf_counter() - start

    # --- §13 push: only the K changed OBIs reach the controller -------
    for obi in obis:
        assert controller.subscribe_telemetry(obi.config.obi_id) is not None
        controller._ack_telemetry(obi.config.obi_id)
    for obi in obis:  # flush handshake residue so ticks start quiescent
        while obi.publish_telemetry() is not None:
            pass

    push_cost = 0.0
    streams_before = controller.telemetry.streams_received
    for tick in range(ticks):
        _drive_changes(obis, tick, changed, packets_per)
        for meter in ctrl_meters:
            meter.take()
        for obi in obis:
            obi.publish_telemetry()
        push_cost += sum(meter.take() for meter in ctrl_meters)
    streams = controller.telemetry.streams_received - streams_before

    # Quiet OBIs sent nothing: stream volume follows the change rate.
    assert streams <= ticks * (changed + 1)

    # Correctness: every folded subscriber state byte-identical to a
    # direct read of the same registry.
    for obi in obis:
        while obi.publish_telemetry() is not None:
            pass
        folded = controller.telemetry.snapshot_response(obi.config.obi_id)
        pulled = obi.observability_snapshot(include_traces=False)
        assert (json.dumps(folded.metrics, sort_keys=True)
                == json.dumps(pulled.metrics, sort_keys=True)), obi.config.obi_id

    ratio = poll_cost / push_cost if push_cost else float("inf")
    result = {
        "scale": os.environ.get("OPENBOX_BENCH_SCALE", "full"),
        "obis": num_obis,
        "changed_per_tick": changed,
        "ticks": ticks,
        "poll_ms_per_tick": round(poll_cost / ticks * 1e3, 3),
        "push_ms_per_tick": round(push_cost / ticks * 1e3, 3),
        "ratio": round(ratio, 2),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_telemetry.json").write_text(
        json.dumps(result, indent=2) + "\n"
    )
    write_result(
        "telemetry_overhead",
        (
            f"fleet of {num_obis} OBIs, {changed} changed/tick: "
            f"poll sweep {result['poll_ms_per_tick']:.2f} ms/tick "
            f"(controller-side), push {result['push_ms_per_tick']:.2f} "
            f"ms/tick — {ratio:.1f}x cheaper\n"
        ),
    )

    assert ratio >= MIN_RATIO, (
        f"push costs the controller {1 / ratio:.1f}x the sweep — expected "
        f"at least {MIN_RATIO:.0f}x cheaper at N={num_obis}, K={changed}"
    )
    baseline = json.loads(BASELINE_PATH.read_text())
    floor = baseline["ratio"] * (1.0 - MAX_RATIO_REGRESSION)
    assert ratio >= floor, (
        f"poll/push cost ratio {ratio:.1f}x regressed more than "
        f"{MAX_RATIO_REGRESSION:.0%} vs baseline {baseline['ratio']:.1f}x "
        f"(floor {floor:.1f}x)"
    )
