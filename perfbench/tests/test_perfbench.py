"""The benchmark's own checks: span arithmetic, percentile rule, oracle.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import itertools

import pytest

from perfbench import bench, stats
from perfbench.spans import SpanRecorder, self_times


def _recorder() -> SpanRecorder:
    ticks = itertools.count(0, 10)
    return SpanRecorder(clock=lambda: next(ticks))


def test_self_time_subtracts_direct_children_only():
    rec = _recorder()
    with rec.root("burst"):             # 0 .. 90
        outer = rec.begin("engine")     # 10 .. 80
        inner = rec.begin("classify")   # 20 .. 50
        leaf = rec.begin("parse")       # 30 .. 40
        rec.end(leaf)
        rec.end(inner)
        sibling = rec.begin("parse")    # 60 .. 70
        rec.end(sibling)
        rec.end(outer)
    totals = self_times(rec.spans)
    assert totals == {"burst": 20, "engine": 30, "classify": 20, "parse": 20}
    assert sum(totals.values()) == 90   # self times tile the root span
    assert {span[4] for span in rec.spans} == {1}   # one burst id


def test_self_time_window_keeps_children_recorded_before_it():
    rec = _recorder()
    first = rec.begin("deploy")         # 0 .. 30
    child = rec.begin("merge")          # 10 .. 20
    rec.end(child)
    rec.end(first)
    second = rec.begin("deploy")        # 40 .. 70
    child = rec.begin("merge")          # 50 .. 60
    rec.end(child)
    rec.end(second)
    assert self_times(rec.spans, since=2) == {"deploy": 20, "merge": 10}


def test_wrap_records_span_and_installed_restores():
    class Target:
        def work(self, value):
            return value * 2

    rec = _recorder()
    original = Target.__dict__["work"]
    with rec.installed([(Target, "work", lambda fn: rec.wrap(fn, "layer.work"))]):
        assert Target().work(21) == 42
        with rec.excluded():
            Target().work(1)
    assert Target.__dict__["work"] is original
    assert [span[0] for span in rec.spans] == ["layer.work"]


@pytest.mark.parametrize("n, expected", [
    (0, None), (10, None), (19, None), (20, 50.0), (99, 50.0),
    (100, 90.0), (999, 90.0), (1000, 99.0), (10000, 99.9),
])
def test_highest_supported_percentile_needs_ten_samples_beyond(n, expected):
    assert stats.highest_supported(n) == expected
    if expected is not None:
        assert stats.beyond(n, expected) >= stats.MIN_BEYOND


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(100, 0, -1)]
    assert stats.percentile(values, 50) == 50.0
    assert stats.percentile(values, 90) == 90.0
    assert stats.percentile(values, 99) == 99.0
    assert stats.percentile([7.0], 99) == 7.0


def test_inputs_are_a_function_of_the_seed():
    spec = bench.Spec(
        "fw_warm", fw_rules=50, ips=False, obis=1, traffic="warm", updates=False,
        naive_check=False, setup_reps=1,
    )
    assert bench.make_inputs(spec, 7).digest() == bench.make_inputs(spec, 7).digest()
    assert bench.make_inputs(spec, 7).digest() != bench.make_inputs(spec, 8).digest()


def _small_run(seed: int = 3) -> bench.Run:
    spec = bench.Spec(
        "fw_warm", fw_rules=50, ips=False, obis=1, traffic="warm", updates=False,
        naive_check=False, setup_reps=1,
    )
    run = bench.Run(spec, bench.make_inputs(spec, seed))
    run.start()
    return run


def test_correctness_check_passes_on_the_program():
    run = _small_run()
    phase = run.measure_packets(0.05)
    assert phase.packets > 0
    assert run.mismatches == 0 and not run.oracle.mismatches


def test_negative_control_perturbed_reference_fails_the_check():
    run = _small_run()
    index = run._cursor                           # next packet's frame
    expected = run.oracle.expected(run._digest, index)
    run.oracle._memo[run._digest][index] = bytes(b ^ 0xFF for b in expected)
    run.burst(run.system.obis[0], None)
    assert run.mismatches == 1
    assert "cache-less reference" in run.oracle.mismatches[0]
