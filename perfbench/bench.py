"""Workloads, set-up and the closed measurement loops.

Load comes from one process and one thread. OBIs are wired to the
controller with ``connect_inproc`` (no REST, no server threads) and
run with ``reconfigure_poll_delay`` 0. Every workload is a closed loop:
the next 32-packet burst goes to ``OpenBoxInstance.inject_batch`` only
after the previous one returned. The controller subscribes to each
OBI's telemetry and the generator calls ``publish_telemetry()`` every
``PUBLISH_EVERY`` bursts, as a running OBI would.

Timed regions hold only the program's work: building the ``Packet``
objects of a burst, ``inject_batch``, ``publish_telemetry`` and
``OpenBoxController.deploy``. Correctness checks, input generation and
the host-speed probes (:mod:`perfbench.probe`) run between them; every
timing is scaled by the host speed measured around it.
"""

from __future__ import annotations

import collections
import contextlib
import gc
import hashlib
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any

from repro.apps.firewall import FirewallApp, parse_firewall_rules
from repro.apps.ips import IpsApp, parse_snort_rules
from repro.bootstrap import connect_inproc
from repro.controller.obc import OpenBoxController
from repro.core.merge import naive_merge
from repro.net.builder import make_tcp_packet
from repro.net.packet import Packet
from repro.net.tcp import TcpFlags
from repro.obi.instance import ObiConfig, OpenBoxInstance
from repro.sim.rulesets import (
    SNORT_VARIABLES,
    generate_firewall_rules,
    generate_snort_web_rules,
)
from repro.sim.traffic import TraceConfig, TrafficGenerator

from perfbench import probe
from perfbench.oracle import Oracle, OutcomeDigest
from perfbench.spans import SpanRecorder

BURST = 32
#: Bursts between two ``publish_telemetry`` calls on an OBI.
PUBLISH_EVERY = 16
#: Timed nanoseconds per throughput window on the packet workloads;
#: ``pps`` is the median of the windows' rates.
WINDOW_NS = 400_000_000
#: Packets and deploy digests folded into the outcome digest.
DIGEST_RECORDS = 2048
#: ``redeploy`` keeps running past ``--seconds`` until it holds this
#: many deploys (enough for a supported p90), up to ``DEADLINE_FACTOR``.
MIN_DEPLOYS = 100
DEADLINE_FACTOR = 4.0
#: ``redeploy``: bursts each OBI gets between two policy updates, and
#: how many blocked sources stay in the rule list (the oldest is
#: removed when a new one is added, so the rule count stays fixed).
BURSTS_PER_UPDATE = 4
BLOCK_WINDOW = 4


@dataclass(frozen=True)
class Spec:
    """One workload's shape."""

    name: str
    fw_rules: int
    ips: bool
    obis: int
    #: "warm": minimum-size frames over few flows; "campus": the
    #: TrafficGenerator campus trace.
    traffic: str
    #: Policy updates with traffic in between (``redeploy``) instead of
    #: a warmed packet loop.
    updates: bool
    #: Also compare outcomes with a naive merge of the apps' graphs.
    naive_check: bool
    #: Times the system is built in an end-to-end run (once before the
    #: measured loop, the rest spread over it); ``setup_s`` is their
    #: median. At least 10, so that on the packet workloads, whose
    #: deploys are these set-ups' deploys, ``deploy_p90_ms`` is not the
    #: maximum.
    setup_reps: int


SPECS = {
    "fw_warm": Spec(
        "fw_warm", fw_rules=4560, ips=False, obis=1, traffic="warm",
        updates=False, naive_check=False, setup_reps=11,
    ),
    "fw_ips_campus": Spec(
        "fw_ips_campus", fw_rules=4560, ips=True, obis=1, traffic="campus",
        updates=False, naive_check=True, setup_reps=10,
    ),
    "redeploy": Spec(
        "redeploy", fw_rules=250, ips=True, obis=2, traffic="campus",
        updates=True, naive_check=False, setup_reps=7,
    ),
}

#: IPS rule count (Snort web rules) wherever the IPS runs.
IPS_RULES = 120
#: Generator seeds of the fixed rule files (those of the repository's
#: fast-path benchmark and the Snort generator's default).
FW_RULES_SEED = 4560
IPS_RULES_SEED = 2971
#: ``fw_warm`` traffic: flows, packets per flow (each a distinct frame).
WARM_FLOWS = 64
WARM_PACKETS_PER_FLOW = 16
#: Campus pool size (``fw_ips_campus``, ``redeploy``); ~10 packets a flow.
#: Frame pools have an odd size, so that cycling through them in
#: 32-frame bursts gives a different burst make-up on every pass; with
#: a multiple of 32 the same few heaviest bursts would set the tail.
CAMPUS_POOL = 4095

_INTERNAL = ("10.{}.{}.{}", "172.16.{}.{}", "192.168.{}.{}")
_EXTERNAL = ("203.0.{}.{}", "198.51.{}.{}", "100.64.{}.{}")
_SERVICES = (22, 25, 53, 80, 443, 445, 1433, 3306, 3389, 8080)


def _address(rnd: random.Random, families: tuple[str, ...]) -> str:
    family = rnd.choice(families)
    return family.format(*(rnd.randrange(1, 255) for _ in range(family.count("{}"))))


def warm_frames(rnd: random.Random) -> list[bytes]:
    """Minimum-size TCP frames (no payload) over ``WARM_FLOWS`` flows.

    Addresses come from the same network families the generated
    firewall rules use, so a share of the flows hits alert rules and
    exercises the upstream alert path. Packets of one flow differ in
    their sequence numbers; the pool is shuffled and one frame dropped
    to make its size odd.
    """
    frames = []
    for _ in range(WARM_FLOWS):
        inward = rnd.random() < 0.5
        src = _address(rnd, _EXTERNAL if inward else _INTERNAL)
        dst = _address(rnd, _INTERNAL if inward else _EXTERNAL)
        sport, dport = rnd.randrange(1024, 65535), rnd.choice(_SERVICES)
        seq = rnd.randrange(1 << 32)
        for step in range(WARM_PACKETS_PER_FLOW):
            frames.append(make_tcp_packet(
                src, dst, sport, dport, flags=TcpFlags.ACK,
                seq=(seq + step) & 0xFFFFFFFF,
            ).data)
    rnd.shuffle(frames)
    return frames[:-1]


@dataclass
class Inputs:
    """Everything generated from the seed: rule files and frames."""

    fw_rules_text: str
    ips_rules_text: str
    frames: list[bytes]
    #: Source prefixes ``redeploy`` blocks, in order.
    block_cidrs: list[str]

    def digest(self) -> str:
        digest = hashlib.sha256()
        digest.update(self.fw_rules_text.encode())
        digest.update(self.ips_rules_text.encode())
        for frame in self.frames:
            digest.update(len(frame).to_bytes(4, "big") + frame)
        digest.update(",".join(self.block_cidrs).encode())
        return digest.hexdigest()[:16]


def make_inputs(spec: Spec, seed: int) -> Inputs:
    """Rule files are fixed, like the paper's vendor firewall ruleset and
    Snort web rules; ``seed`` draws the traffic and the blocked sources.
    Rule sets drawn per seed differ in their number of regex rules and
    in the size of the merged classifier, which would add input variance
    to every figure; what the workloads vary is the traffic."""
    rnd = random.Random(seed)
    fw_text = generate_firewall_rules(spec.fw_rules, seed=FW_RULES_SEED)
    ips_text = (
        generate_snort_web_rules(IPS_RULES, seed=IPS_RULES_SEED) if spec.ips else ""
    )
    cidrs: list[str] = []
    if spec.traffic == "warm":
        frames = warm_frames(rnd)
    else:
        config = TraceConfig(
            seed=rnd.randrange(1 << 31),
            num_packets=CAMPUS_POOL,
            num_flows=CAMPUS_POOL // 10,
        )
        packets = TrafficGenerator(config).packets()
        frames = [packet.data for packet in packets]
        sources = sorted({
            ".".join(str(packet.ipv4.src >> shift & 0xFF) for shift in (24, 16, 8))
            for packet in packets
        })
        cidrs = [f"{prefix}.0/24" for prefix in rnd.sample(sources, min(64, len(sources)))]
    return Inputs(fw_text, ips_text, frames, cidrs)


class DeployTimer:
    """Times every ``OpenBoxController.deploy`` (installed per controller)."""

    def __init__(self, recorder: SpanRecorder | None) -> None:
        self.recorder = recorder
        self.samples_ms: list[float] = []
        self.failed = 0

    def install(self, controller: OpenBoxController) -> None:
        deploy = controller.deploy

        def timed(obi_id: str) -> Any:
            root = (
                self.recorder.root("bench.deploy")
                if self.recorder is not None else contextlib.nullcontext()
            )
            start = time.perf_counter_ns()
            try:
                with root:
                    return deploy(obi_id)
            except Exception:
                self.failed += 1
                raise
            finally:
                self.samples_ms.append((time.perf_counter_ns() - start) / 1e6)

        controller.deploy = timed  # type: ignore[method-assign]


@dataclass
class System:
    """A controller, its OBIs and the registered applications."""

    controller: OpenBoxController
    obis: list[OpenBoxInstance]
    fw: FirewallApp
    ips: IpsApp | None


def build_system(spec: Spec, inputs: Inputs, timer: DeployTimer) -> System:
    """The timed set-up: controller, apps, OBIs, first merge and deploy."""
    controller = OpenBoxController()
    timer.install(controller)
    fw = FirewallApp(
        "fw", parse_firewall_rules(inputs.fw_rules_text), alert_only=True
    )
    controller.register_application(fw)
    ips = None
    if spec.ips:
        ips = IpsApp("ips", parse_snort_rules(inputs.ips_rules_text, SNORT_VARIABLES))
        controller.register_application(ips)
    obis = []
    for index in range(spec.obis):
        obi = OpenBoxInstance(ObiConfig(obi_id=f"obi{index}", segment="campus"))
        connect_inproc(controller, obi)
        controller.subscribe_telemetry(obi.config.obi_id)
        obis.append(obi)
    return System(controller, obis, fw, ips)


@dataclass
class Phase:
    """What one measured stretch of a run collected.

    Figures are gathered per window and scaled by the window's host
    speed (:mod:`perfbench.probe`) when it closes; ``raw_window_pps``
    keeps the unscaled rates.
    """

    burst_us: list[float] = field(default_factory=list)
    window_pps: list[float] = field(default_factory=list)
    raw_window_pps: list[float] = field(default_factory=list)
    deploy_ms: list[float] = field(default_factory=list)
    speeds: list[float] = field(default_factory=list)
    packets: int = 0
    _burst_ns: list[int] = field(default_factory=list)
    _deploy_ms: list[float] = field(default_factory=list)
    _packets: int = 0
    _busy_ns: int = 0
    _probe: float = 0.0

    def add_burst(self, packets: int, burst_ns: int, busy_ns: int) -> None:
        """One burst: its ``inject_batch`` time and its whole timed region."""
        self.packets += packets
        self._packets += packets
        self._burst_ns.append(burst_ns)
        self._busy_ns += busy_ns

    def add_deploys(self, samples_ms: list[float]) -> None:
        self._deploy_ms.extend(samples_ms)

    @property
    def window_full(self) -> bool:
        return self._busy_ns >= WINDOW_NS

    def open_window(self) -> None:
        self._probe = probe.probe()

    def close_window(self) -> None:
        after = probe.probe()
        speed = probe.speed(self._probe, after)
        self._probe = after
        if self._packets and self._busy_ns:
            raw = self._packets / (self._busy_ns / 1e9)
            self.raw_window_pps.append(raw)
            self.window_pps.append(raw / speed)
        self.burst_us.extend(ns / 1e3 * speed for ns in self._burst_ns)
        self.deploy_ms.extend(ms * speed for ms in self._deploy_ms)
        self.speeds.append(speed)
        self._burst_ns, self._deploy_ms = [], []
        self._packets = self._busy_ns = 0

    @property
    def pps(self) -> float:
        return statistics.median(self.window_pps) if self.window_pps else 0.0

    @property
    def speed(self) -> float:
        return statistics.median(self.speeds) if self.speeds else 1.0


class Run:
    """One workload run: set-up, warm-up, measured loop, checks."""

    def __init__(
        self, spec: Spec, inputs: Inputs, recorder: SpanRecorder | None = None
    ) -> None:
        self.spec = spec
        self.inputs = inputs
        self.recorder = recorder
        self.timer = DeployTimer(recorder)
        self.oracle = Oracle(inputs.frames)
        self.outcome_digest = OutcomeDigest(DIGEST_RECORDS)
        self.system: System | None = None
        self.setup_s: list[float] = []
        self.raw_setup_s: list[float] = []
        #: Deploy latencies of every set-up (kept and spare builds).
        self.setup_deploy_ms: list[float] = []
        self.spare_deploys = 0
        self.spare_deploy_failures = 0
        self._spares_done = 0
        self._spare_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0
        self._cursor = 0
        self._bursts = 0
        self._digest: str = ""
        self._naive_digest: str = ""

    # -- helpers -------------------------------------------------------
    def _untimed(self) -> contextlib.AbstractContextManager:
        """Check work: its spans are discarded in a traced run."""
        if self.recorder is None:
            return contextlib.nullcontext()
        return self.recorder.excluded()

    def _root(self, name: str) -> contextlib.AbstractContextManager:
        if self.recorder is None:
            return contextlib.nullcontext()
        return self.recorder.root(name)

    def _next_indices(self) -> list[int]:
        size = len(self.inputs.frames)
        start = self._cursor
        self._cursor = (start + BURST) % size
        return [(start + offset) % size for offset in range(BURST)]

    # -- set-up --------------------------------------------------------
    def setup(self) -> None:
        """Build the system the run measures (one timed set-up)."""
        self.system = self._timed_build(self.timer)
        with self._untimed():
            self._check_digests()
            self._digest = self.oracle.add_graph(self._deployed_graph())
            if self.spec.naive_check:
                # Paper §2.2.1: the merged graph behaves like the apps'
                # graphs chained naively.
                system = self.system
                assert system.ips is not None
                naive = naive_merge([system.fw.build_graph(), system.ips.build_graph()])
                self._naive_digest = self.oracle.add_graph(naive)

    def _timed_build(self, timer: DeployTimer) -> System:
        """Build a system; its set-up time and deploys, host-speed scaled."""
        gc.collect()  # no earlier garbage is collected inside the timing
        first = len(timer.samples_ms)
        before = probe.probe()
        start = time.perf_counter()
        system = build_system(self.spec, self.inputs, timer)
        elapsed = time.perf_counter() - start
        speed = probe.speed(before, probe.probe())
        self.setup_s.append(elapsed * speed)
        self.raw_setup_s.append(elapsed)
        self.setup_deploy_ms.extend(ms * speed for ms in timer.samples_ms[first:])
        return system

    def spare_setup(self) -> None:
        """One more timed set-up, discarded: spreads ``setup_s`` samples
        over the run instead of taking them all in one stretch."""
        timer = DeployTimer(None)
        self._timed_build(timer)
        self.spare_deploys += len(timer.samples_ms)
        self.spare_deploy_failures += timer.failed
        gc.collect()

    def _active(self, started: float) -> float:
        """Seconds since ``started``, not counting spare set-ups."""
        return time.perf_counter() - started - self._spare_s

    def _run_spares(self, started: float, seconds: float, spares: int) -> bool:
        """Run the spare set-ups owed by now, ``spares`` spread evenly over
        ``seconds`` of measuring (all of them once the time is up).
        Returns whether any ran."""
        due = spares if seconds <= 0 else min(
            spares, int(self._active(started) / seconds * spares + 0.5)
        )
        ran = self._spares_done < due
        while self._spares_done < due:
            begun = time.perf_counter()
            self.spare_setup()
            self._spares_done += 1
            self._spare_s += time.perf_counter() - begun
        return ran

    def _deployed_graph(self) -> Any:
        assert self.system is not None
        handle = self.system.controller.obis[self.system.obis[0].config.obi_id]
        return handle.deployed.graph

    def _check_digests(self) -> None:
        """Each OBI runs exactly the graph the controller intends."""
        assert self.system is not None
        for obi in self.system.obis:
            handle = self.system.controller.obis[obi.config.obi_id]
            if not (
                handle.intended_digest
                and handle.reported_digest == handle.intended_digest
                and obi.graph_digest == handle.intended_digest
            ):
                self.mismatches += 1
                self.oracle.mismatches.append(
                    f"{obi.config.obi_id}: reports {obi.graph_digest[:19]}, "
                    f"controller intends {handle.intended_digest[:19]}"
                )
            self.outcome_digest.add(handle.intended_digest)

    # -- packets -------------------------------------------------------
    def burst(self, obi: OpenBoxInstance, phase: Phase | None) -> None:
        """One closed-loop burst; ``phase`` None is unmeasured warm-up."""
        frames = self.inputs.frames
        indices = self._next_indices()
        start = time.perf_counter_ns()
        with self._root("bench.burst"):
            packets = [Packet(data=frames[index]) for index in indices]
            sent = time.perf_counter_ns()
            try:
                outcomes = obi.inject_batch(packets)
            except Exception as exc:  # noqa: BLE001 — a raising burst is counted as failed, not fatal
                outcomes = []
                self.oracle.mismatches.append(f"inject_batch raised {exc!r}")
            done = time.perf_counter_ns()
        self._bursts += 1
        if self._bursts % PUBLISH_EVERY == 0:
            with self._root("bench.publish"):
                obi.publish_telemetry()
        end = time.perf_counter_ns()
        if phase is not None:
            phase.add_burst(len(packets), done - sent, end - start)
        self.attempted += len(packets)
        with self._untimed():
            self._account(indices, outcomes, phase)

    def _account(self, indices: list[int], outcomes: list, phase: Phase | None) -> None:
        self.failed += len(indices) - len(outcomes)
        self.failed += sum(1 for o in outcomes if o.shed or o.errors)
        label = f"{self.spec.name} burst {self._bursts}"
        self.mismatches += self.oracle.check(self._digest, indices, outcomes, label)
        if self._naive_digest:
            self.mismatches += self.oracle.check(
                self._naive_digest, indices, outcomes, label + " (naive merge)"
            )
        if phase is not None:
            for outcome in outcomes:
                self.outcome_digest.add(outcome.effects_key())

    def warm(self) -> None:
        """Send the whole frame pool once through every OBI, unmeasured."""
        assert self.system is not None
        with self._untimed():
            self.oracle.prime(self._digest, list(range(len(self.inputs.frames))))
            if self._naive_digest:
                self.oracle.prime(
                    self._naive_digest, list(range(len(self.inputs.frames)))
                )
        for obi in self.system.obis:
            for _ in range(-(-len(self.inputs.frames) // BURST)):
                self.burst(obi, None)

    def measure_packets(self, seconds: float, spares: int = 0) -> Phase:
        assert self.system is not None
        obi = self.system.obis[0]
        phase = Phase()
        started = time.perf_counter()
        phase.open_window()
        while self._active(started) < seconds:
            while not phase.window_full:
                self.burst(obi, phase)
            phase.close_window()
            if self._run_spares(started, seconds, spares):
                phase.open_window()
        self._run_spares(started, 0.0, spares)
        return phase

    # -- deploys -------------------------------------------------------
    def measure_redeploy(
        self, seconds: float, min_deploys: int, spares: int = 0
    ) -> Phase:
        """Policy updates (``block_source``), each followed by traffic."""
        system = self.system
        assert system is not None
        phase = Phase()
        blocked: collections.deque = collections.deque()
        start = time.perf_counter()
        first_sample = len(self.timer.samples_ms)
        update = 0
        phase.open_window()
        while True:
            active = self._active(start)
            deploys = len(self.timer.samples_ms) - first_sample
            if active >= seconds * DEADLINE_FACTOR or (
                active >= seconds and deploys >= min_deploys
            ):
                break
            if len(blocked) == BLOCK_WINDOW:
                system.fw.rules.remove(blocked.popleft())
            cidr = self.inputs.block_cidrs[update % len(self.inputs.block_cidrs)]
            update += 1
            try:
                system.fw.block_source(cidr)
            except Exception as exc:  # noqa: BLE001 — counted via the deploy timer
                self.oracle.mismatches.append(f"update {update} raised {exc!r}")
            blocked.append(system.fw.rules[0])
            phase.add_deploys(self.timer.samples_ms[first_sample + deploys:])
            with self._untimed():
                previous = self._digest
                self._check_digests()
                self._digest = self.oracle.add_graph(self._deployed_graph())
                if previous != self._digest:
                    self.oracle.forget(previous)
            for obi in system.obis:
                for _ in range(BURSTS_PER_UPDATE):
                    self.burst(obi, phase)
            phase.close_window()
            if self._run_spares(start, seconds, spares):
                phase.open_window()
        self._run_spares(start, 0.0, spares)
        return phase

    def start(self) -> None:
        """Set up, then warm every flow unless the workload swaps graphs
        (each swap empties the decision cache anyway)."""
        self.setup()
        if not self.spec.updates:
            self.warm()

    def measure(self, seconds: float, min_deploys: int = 0, spares: int = 0) -> Phase:
        if self.spec.updates:
            return self.measure_redeploy(seconds, min_deploys, spares)
        return self.measure_packets(seconds, spares)

    def totals(self) -> tuple[int, int]:
        """(attempted, failed) over packets and deploys of this run."""
        attempted = self.attempted + len(self.timer.samples_ms) + self.spare_deploys
        failed = self.failed + self.timer.failed + self.spare_deploy_failures
        return attempted, failed

    def teardown(self) -> None:
        self.system = None
        gc.collect()


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cache_totals(system: System) -> dict[str, float]:
    totals: dict[str, float] = collections.Counter()
    for obi in system.obis:
        if obi.flow_cache is not None:
            stats = obi.flow_cache.stats()
            for key in ("hits", "misses", "uncacheable_hits", "invalidations"):
                totals[key] += stats[key]
    return totals

