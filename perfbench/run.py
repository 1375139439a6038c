"""OpenBox end-to-end benchmark: packet path and deploy path.

Run one workload from the repository root::

    python3 perfbench/run.py --workload fw_warm --seed 1 --seconds 15 --trace 0

or every workload, each in its own process (``peak_rss_mb`` is per
process)::

    python3 perfbench/run.py --workload all --seed 1 --seconds 15

``--trace 0`` prints the end-to-end metrics, every timing scaled to a
reference host speed measured around it (``perfbench/probe.py``; the
raw figures and the speed are printed too); ``--trace 1`` runs the
workload untraced and then traced, and prints the per-layer ledger
(self time per layer, counts, ``trace.coverage``, ``trace.overhead``)
and writes the recorded spans to ``.perfbench_out/``. Every line but the
last is a human-readable table with sample counts and the input and
outcome digests; the last line is one JSON object. The exit code is 1
when any correctness check failed and 2 when the program cannot be
imported. Workloads, metrics and the layer each metric should move are
listed in ``BENCHMARK.json`` and ``perfbench/predictions.json``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("fw_warm", "fw_ips_campus", "redeploy")
#: Share of ``--seconds`` a traced run spends untraced (the baseline
#: for ``trace.overhead``); the rest is traced.
UNTRACED_SHARE = 0.4


def _import_program() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import repro  # noqa: F401 — fails when the program's sources are absent


def _metric(metrics: dict, table: list, name: str, value: float, unit: str,
            samples: int | str) -> None:
    metrics[name] = {"value": value, "unit": unit}
    table.append(f"  {name:32s} {value:14.4f} {unit:10s} n={samples}")


def _timing(metrics: dict, table: list, stem: str, values: list[float],
            unit: str, pcts: tuple[float, ...]) -> None:
    from perfbench import stats

    top = stats.highest_supported(len(values))
    support = f"{len(values)} (supported up to p{top:g})" if top else f"{len(values)} (unsupported)"
    for pct in pcts:
        value = stats.percentile(values, pct) if values else 0.0
        _metric(metrics, table, f"{stem}_p{pct:g}_{unit}", value, unit, support)


def run_end_to_end(name: str, seed: int, seconds: float) -> tuple[dict, list[str], bool]:
    from perfbench import bench

    spec = bench.SPECS[name]
    inputs = bench.make_inputs(spec, seed)
    run = bench.Run(spec, inputs)
    run.start()
    phase = run.measure(seconds, bench.MIN_DEPLOYS, spares=spec.setup_reps - 1)
    # Packet workloads deploy only while setting up.
    deploys = phase.deploy_ms if spec.updates else run.setup_deploy_ms

    metrics: dict = {}
    table = [f"workload {name} seed {seed}: inputs {inputs.digest()} "
             f"outcomes {run.outcome_digest.hexdigest()} "
             f"({run.outcome_digest.count} records)"]
    _metric(metrics, table, "pps", phase.pps, "pkt/s",
            f"{phase.packets} pkts in {len(phase.window_pps)} windows")
    _timing(metrics, table, "burst", phase.burst_us, "us", (50, 99))
    _timing(metrics, table, "deploy", deploys, "ms", (50, 90))
    _metric(metrics, table, "setup_s", statistics.median(run.setup_s), "s",
            len(run.setup_s))
    _metric(metrics, table, "peak_rss_mb", bench.peak_rss_mb(), "MB", 1)
    table.append(f"  host speed {phase.speed:.3f} (median of {len(phase.speeds)} "
                 f"windows); unscaled: pps {statistics.median(phase.raw_window_pps):.1f}, "
                 f"setup_s {statistics.median(run.raw_setup_s):.4f}")
    attempted, failed = run.totals()
    table.append(f"  failed_ratio {failed / max(attempted, 1):.6f} "
                 f"({failed} of {attempted}; packets and deploys)")
    return _result(metrics, table, run, attempted, failed)


def run_traced(name: str, seed: int, seconds: float) -> tuple[dict, list[str], bool]:
    from perfbench import bench, layers
    from perfbench.spans import SpanRecorder

    spec = bench.SPECS[name]
    inputs = bench.make_inputs(spec, seed)

    baseline = bench.Run(spec, inputs)
    baseline.start()
    untraced = baseline.measure(seconds * UNTRACED_SHARE)
    baseline.teardown()

    rec = SpanRecorder()
    with rec.installed(layers.patches(rec)):
        run = bench.Run(spec, inputs, rec)
        run.start()
        assert run.system is not None
        for key in layers.PACKET_COUNTS:
            rec.counts[key] = 0
        mark = len(rec.spans)
        before = bench.cache_totals(run.system)
        phase = run.measure(seconds * (1 - UNTRACED_SHARE))
        after = bench.cache_totals(run.system)
    cache = {key: after[key] - before[key] for key in after}
    deploys = len(run.timer.samples_ms)
    ledger = layers.ledger(rec, mark, phase.packets, deploys, cache, phase.speed)
    ledger["trace.overhead"] = untraced.pps / phase.pps if phase.pps else 0.0

    metrics: dict = {}
    table = [f"workload {name} seed {seed} (traced): inputs {inputs.digest()} "
             f"outcomes {run.outcome_digest.hexdigest()} "
             f"({run.outcome_digest.count} records)",
             f"  {phase.packets} traced pkts, {deploys} deploys, "
             f"{len(rec.spans)} spans; untraced {untraced.pps:.0f} pkt/s, "
             f"traced {phase.pps:.0f} pkt/s; host speed {phase.speed:.3f}"]
    units = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    for entry in units:
        metric = entry["name"]
        per = f"{deploys} deploys" if metric in layers.DEPLOY_METRICS else f"{phase.packets} pkts"
        _metric(metrics, table, metric, ledger[metric], entry["unit"], per)
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    rec.write(str(out / f"{name}-seed{seed}.spans.jsonl"))
    attempted, failed = (a + b for a, b in zip(baseline.totals(), run.totals()))
    run.mismatches += baseline.mismatches
    run.oracle.mismatches.extend(baseline.oracle.mismatches)
    return _result(metrics, table, run, attempted, failed)


def _result(metrics: dict, table: list[str], run, attempted: int,
            failed: int) -> tuple[dict, list[str], bool]:
    correct = run.mismatches == 0 and not run.oracle.mismatches
    table.append(f"  correctness: {run.oracle.checked} outcome checks, "
                 f"{run.mismatches} mismatches")
    table.extend(f"  MISMATCH {line}" for line in run.oracle.mismatches)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, table, correct


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process; exit 1 if any failed."""
    status = 0
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(pathlib.Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        sys.stdout.write(child.stdout)
        sys.stderr.write(child.stderr)
        if child.returncode != 0:
            status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    try:
        _import_program()
    except ImportError as exc:
        print(f"cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    runner = run_traced if args.trace else run_end_to_end
    result, table, correct = runner(args.workload, args.seed, args.seconds)
    print("\n".join(table))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
