"""Acceptance battery: one test per numbered check in the verify registry.

Each test prints the check's summary line and asserts its verdict.  The
unfolding check judges a negative result: the profile curve's direction map
winds three times and the winding survives the normal flow, so its
self-crossings cannot clear; the check passes when the measured counts, the
winding and the refused bisection reproduce that obstruction.

The README's Quick start runs here too, so that an API change cannot leave
the first example broken.  weingarten-calculus streams its large samples in
row blocks; the tests below hold it to the one-shot draw it replaces, and
every check, and the mesh crossing scan, to a tracemalloc budget.
"""

import argparse
import re
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from horocorr import verify
from horocorr.analysis import make_example, self_intersections
from horocorr.cli import build_parser
from horocorr.minkowski import _last_axis_sum
from horocorr.verify import CRITERIA
from horocorr.weingarten import hr_inequality, t_map

IDS = [f"criterion-{i+1:02d}-{name}" for i, (name, _) in enumerate(CRITERIA)]

BATTERY = (
    "gauss-degree", "curvature-cross-oracle", "minkowski-constraints",
    "pullback-identity", "ricatti-consistency", "boundary-expansion",
    "band-reproductions", "unfolding", "weingarten-calculus",
    "degenerate-collapse", "boundary-at-infinity",
)


@pytest.mark.parametrize("name,check", CRITERIA, ids=IDS)
def test_criterion(name, check):
    result = check()
    print(result.line())
    assert result.passed, result.line()


def test_lines_match_the_golden_file():
    # every line with its runtime stripped, as tests/data/verify_lines.txt
    # holds it: a change that moves a printed digit updates the file and says why
    golden = Path(__file__).parent / "data" / "verify_lines.txt"
    lines = [re.sub(r" \[[0-9.]+ ms\]", "", result.line()) for result in verify.run_all()]
    assert lines == golden.read_text().splitlines()


def test_registry_names_the_battery_in_order():
    names = [name for name, _ in CRITERIA]
    assert len(set(names)) == len(names)
    assert tuple(names) == BATTERY
    commands = next(action for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    only = next(action for action in commands.choices["verify"]._actions
                if action.dest == "only")
    assert list(only.choices) == names


def test_time_limit_fails_a_right_check(monkeypatch):
    # the winding is still 3; only the 5 s limit of gauss-degree is crossed
    check = dict(CRITERIA)["gauss-degree"]
    assert check().passed
    clock = iter([0.0, 6.0])
    monkeypatch.setattr(verify, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
    result = check()
    assert not result.passed
    assert result.runtime == 6.0
    assert (result.max_error, result.details) == (0.0, "winding 3 at 4096 samples, 3 at 8192")
    assert "[6000.0 ms]" in result.line()


def test_readme_quick_start_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"^```python\n(.*?)^```", readme, re.S | re.M)
    assert block is not None, "README.md has no python block"
    exec(compile(block.group(1), "README.md", "exec"), {})


@pytest.mark.parametrize("rows", [2 * verify._BLOCK_ROWS, 10_000, 100])
def test_uniform_blocks_concatenate_to_one_draw(rows):
    streamed, one_shot = np.random.default_rng(26), np.random.default_rng(26)
    blocks = list(verify._uniform_blocks(streamed, -0.5, 0.49, (rows, 4)))
    assert max(len(b) for b in blocks) <= verify._BLOCK_ROWS
    assert np.array_equal(np.concatenate(blocks), one_shot.uniform(-0.5, 0.49, size=(rows, 4)))
    assert np.array_equal(streamed.uniform(size=7), one_shot.uniform(size=7))


def _one_shot_order_gap(rng):
    draws = rng.uniform(-1.0 + 1e-6, 10.0, size=(100_000, 4))
    lhs, rhs = hr_inequality(draws)
    return float(np.max(lhs - rhs))


def _one_shot_trace_margin(rng):
    lam = rng.uniform(-0.5, 0.49, size=(300_000, 4))
    lam = lam[np.flatnonzero(_last_axis_sum(lam) >= 0.0)[:100_000]]
    kap = t_map(lam, "c_to_k")
    return float(np.min(_last_axis_sum(kap)) - 4.0), len(lam)


@pytest.mark.parametrize("seed", [26, 0, 1])
def test_streamed_calculus_matches_one_shot(seed, monkeypatch):
    # the check's draw order: order sample, three (1000, 3) draws, trace
    # sample, then the (200, 3) semigroup rows
    streamed, one_shot = np.random.default_rng(seed), np.random.default_rng(seed)
    assert verify._order_gap(streamed) == _one_shot_order_gap(one_shot)
    for _ in range(3):
        assert np.array_equal(streamed.uniform(size=(1000, 3)), one_shot.uniform(size=(1000, 3)))
    assert verify._trace_margin(streamed) == _one_shot_trace_margin(one_shot)
    assert np.array_equal(streamed.uniform(size=(200, 3)), one_shot.uniform(size=(200, 3)))

    check = dict(CRITERIA)["weingarten-calculus"]
    result = check(seed=seed)
    monkeypatch.setattr(verify, "_order_gap", _one_shot_order_gap)
    monkeypatch.setattr(verify, "_trace_margin", _one_shot_trace_margin)
    oracle = check(seed=seed)
    assert (result.passed, result.max_error, result.details) == \
        (oracle.passed, oracle.max_error, oracle.details)


def traced_peak_mb(run):
    # tracemalloc peak of run() in MB (1e6 bytes)
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_every_check_within_memory_budget():
    # weingarten-calculus held 18.9 MB when it drew its 1.6 M uniforms as
    # whole arrays
    peaks = {name: traced_peak_mb(check) for name, check in CRITERIA}
    over = {name: peak for name, peak in peaks.items()
            if peak > (2.0 if name == "weingarten-calculus" else 8.0)}
    assert not over, peaks


def test_mesh_scan_within_memory_budget():
    # the scan held 6.63 MB when its box sweep expanded all 144,167
    # candidates of this mesh at once; a first scan runs untraced, so that
    # the modules numpy imports on first use (numpy.ma, 1.1 MB) do not count
    mesh = make_example("alpha-product").payload.flowed(5.0)
    self_intersections(mesh)
    peak = traced_peak_mb(lambda: self_intersections(mesh))
    assert peak <= 2.0, peak
