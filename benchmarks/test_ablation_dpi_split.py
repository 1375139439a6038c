"""Ablations — DPI engine choice and the Figure 6 hardware split.

1. **RegexRuleSet vs a bare per-pattern scan**: real wall-clock payload
   scan rates as the pattern count grows. The RegexClassifier's rule set
   is an ordered list of C-speed substring checks, so it should cost
   little more than the bare ``needle in payload`` loop it wraps.
2. **Split processing**: the modelled benefit of offloading the merged
   graph's header classification to a TCAM OBI (Figures 5-6) versus
   running everything in software.
"""

import time

import pytest

from benchmarks.conftest import write_result
from repro.controller.split import split_at_classifier
from repro.core.classify.regex import RegexPattern, RegexRuleSet
from repro.core.merge import merge_graphs
from repro.obi.translation import build_engine
from repro.sim.costmodel import CostModel, VmSpec, measure_engine
from repro.sim.rulesets import _WEB_ATTACK_TOKENS


def _patterns(count):
    tokens = list(_WEB_ATTACK_TOKENS)
    return [
        RegexPattern(pattern=f"{tokens[i % len(tokens)]}-{i}", port=1)
        for i in range(count)
    ]


def _rate(scan, payloads, budget=0.25):
    start = time.perf_counter()
    scanned = 0
    while time.perf_counter() - start < budget:
        for payload in payloads:
            scan(payload)
            scanned += len(payload)
    return scanned / (time.perf_counter() - start)


def test_ablation_dpi_engine(benchmark):
    payloads = [
        b"GET /index.html HTTP/1.1\r\nHost: www.example.edu\r\n\r\n" + b"x" * 600,
        b"POST /api HTTP/1.1\r\nHost: api.example.edu\r\n\r\n" + b"y" * 300,
    ]
    lines = [f"{'patterns':>9s} {'ruleset MB/s':>13s} {'per-pattern MB/s':>17s} "
             f"{'ratio':>6s}"]
    ratios = {}
    for count in (10, 50, 200):
        specs = _patterns(count)
        ruleset = RegexRuleSet(specs)
        naive_needles = [spec.pattern.encode() for spec in specs]

        ruleset_rate = _rate(ruleset.classify, payloads)
        naive_rate = _rate(
            lambda payload: any(needle in payload for needle in naive_needles),
            payloads,
        )
        ratios[count] = ruleset_rate / naive_rate
        lines.append(f"{count:9d} {ruleset_rate / 1e6:13.1f} {naive_rate / 1e6:17.1f} "
                     f"{ratios[count]:5.2f}x")
    write_result("ablation_dpi_engine", "\n".join(lines) + "\n")

    # The rule set's bookkeeping (priority order, nocase and regex kinds)
    # must not cost more than the scan itself at any pattern count.
    for count, ratio in ratios.items():
        assert ratio >= 0.5, f"{count} patterns: rule set at {ratio:.2f}x the bare scan"

    ruleset = RegexRuleSet(_patterns(200))
    benchmark(ruleset.classify, payloads[0])


def test_ablation_hardware_split(benchmark, paper_workload):
    """Model the Figure 6 split: TCAM classify stage + software rest."""
    graphs = [
        paper_workload["firewall1"].build_graph(),
        paper_workload["ips"].build_graph(),
    ]
    packets = paper_workload["packets"][:300]
    merged = merge_graphs(graphs).graph
    classifier = next(
        block.name for block in merged.blocks.values()
        if block.type == "HeaderClassifier"
    )
    split = split_at_classifier(merged, classifier, spi=1)

    model, vm = CostModel(), VmSpec()

    unsplit_engine = build_engine(merged.copy(rename=True))
    unsplit = measure_engine(unsplit_engine, packets, model).throughput_bps(vm) / 1e6

    # Two-stage pipeline: the TCAM OBI's NSH-encapsulated outputs feed
    # the software OBI, so stage two sees the true path mix.
    from repro.sim.costmodel import GraphCostProfile, VmMeasurement
    first_engine = build_engine(split.first)
    second_engine = build_engine(split.second)
    first_profile = GraphCostProfile(split.first, model)
    second_profile = GraphCostProfile(split.second, model)
    first_measure, second_measure = VmMeasurement(), VmMeasurement()
    for packet in packets:
        clone = packet.clone()
        outcome = first_engine.process(clone)
        first_measure.add(len(packet) * 8,
                          first_profile.path_cost(outcome.path, packet),
                          len(outcome.path))
        for _dev, wire in outcome.outputs:
            wire.metadata.clear()
            stage_two = second_engine.process(wire)
            second_measure.add(len(wire) * 8,
                               second_profile.path_cost(stage_two.path, wire),
                               len(stage_two.path))
    classify_stage = first_measure.throughput_bps(vm) / 1e6
    process_stage = second_measure.throughput_bps(vm) / 1e6
    chained = min(classify_stage, process_stage)

    write_result("ablation_hardware_split", "\n".join([
        f"{'configuration':34s} {'Mbps (1 VM each)':>17s}",
        f"{'software, unsplit merged graph':34s} {unsplit:17.0f}",
        f"{'split: TCAM classify stage':34s} {classify_stage:17.0f}",
        f"{'split: software process stage':34s} {process_stage:17.0f}",
        f"{'split chain (bottleneck)':34s} {chained:17.0f}",
        "",
        "The TCAM stage classifies at constant cost, so the software",
        "stage sheds the per-packet classification work: its throughput",
        f"exceeds the unsplit graph's by "
        f"{(process_stage / unsplit - 1) * 100:.0f}%.",
    ]) + "\n")

    # The software half is faster than the unsplit graph (classification
    # offloaded), and the TCAM stage is never the bottleneck.
    assert process_stage > unsplit * 1.1
    assert classify_stage > process_stage

    engine = build_engine(split.first.copy(rename=True))
    probe = packets[:50]

    def classify_batch():
        for packet in probe:
            engine.process(packet.clone())

    benchmark(classify_batch)
