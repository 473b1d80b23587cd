"""Tests of the benchmark itself: tampered outputs count as failed ops, and
the span wrapper patches every binding and survives missing functions."""

import json

import horocorr.cli
import horocorr.verify
import pytest

import run as bench
import spans
import workloads


def _ops(names, tmp_path):
    ops = {op.name: op for op in workloads.build("crossings", 0, tmp_path)}
    return [ops[name] for name in names]


def test_tampered_crossing_count_is_a_failed_op(tmp_path, monkeypatch):
    ops = _ops(["cli.embed-check.alpha", "cli.gauss-degree.alpha"], tmp_path)
    honest = bench.Tally()
    for op in ops:
        honest.run_op(op)
    assert honest.failed_frac == 0.0

    real = workloads.run_cli

    def tampered(argv):
        code, out, err = real(argv)
        return code, out, err.replace("106 crossings", "105 crossings")

    monkeypatch.setattr(workloads, "run_cli", tampered)
    tally = bench.Tally()
    for op in ops:
        tally.run_op(op)
    assert tally.attempted == 2 and tally.failed == 1
    assert tally.failed_frac > 0.0
    assert "105, expected 106" in tally.failures[0]


@pytest.mark.parametrize("old,new", [
    ("crossings 8 at t=0", "crossings 7 at t=0"),
    ("(106 crossings remain)", "(1 crossings remain)"),
    ("winding stays [3]", "winding stays [1]"),
])
def test_tampered_unfolding_diagnosis_fails(old, new):
    details = ("crossings 8 at t=0, 250 at t=5 (m=8192); count trend 8->106 "
               "at m=1024 (increasing); winding stays [3] under the flow; "
               "bisection said: not embedded by t_max = 5.0 "
               "(106 crossings remain)")
    for text, ok in ((details, True), (details.replace(old, new), False)):
        result = horocorr.verify.CheckResult(
            "unfolding", False, 250.0, 0.0, text, 2.0)
        outcome = workloads.Outcome(False)
        workloads._unfolding_diagnosis(result, outcome)
        assert outcome.ok is ok


def test_spans_patch_every_binding_and_restore():
    original = horocorr.cli.gauss_winding
    tracer = spans.Tracer().install()
    try:
        assert horocorr.cli.gauss_winding is not original
        code, out, _ = workloads.run_cli(
            ["gauss-degree", "alpha", "--samples", "512"])
    finally:
        tracer.uninstall()
    assert (code, out.strip()) == (0, "3")
    assert horocorr.cli.gauss_winding is original
    assert tracer.stats["analysis.gauss_winding"].calls == 1
    assert tracer.stats["analysis.gauss_winding"].points == 512
    assert tracer.stats["analysis.gallery"].calls >= 1
    assert tracer.absent == []


def test_missing_function_is_reported_absent(monkeypatch):
    monkeypatch.setattr(spans, "FUNCTIONS", spans.FUNCTIONS + (
        ("analysis", "no_such_stage", "analysis.gallery", spans._one),))
    tracer = spans.Tracer().install()
    tracer.uninstall()
    assert tracer.absent == ["analysis.no_such_stage"]


def _declared(kind):
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_reported_metrics_match_benchmark_json():
    ops = [workloads.Op("noop", "", lambda: workloads.Outcome(True))]
    _, e2e, _ = bench.end_to_end(ops, 0.0, setup_once=lambda: 1.0)
    _, layers, _ = bench.per_layer(ops, 0.0)
    for reported, kind in ((e2e, "end_to_end"), (layers, "per_layer")):
        units = {name: m["unit"] for name, m in reported.items()}
        assert units == _declared(kind)
