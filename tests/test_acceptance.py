"""Acceptance battery: one test per numbered check in the verify registry.

Each test prints the check's summary line and asserts its verdict.  The
unfolding check judges a negative result: the profile curve's direction map
winds three times and the winding survives the normal flow, so its
self-crossings cannot clear; the check passes when the measured counts, the
winding and the refused bisection reproduce that obstruction.

The README's Quick start runs here too, so that an API change cannot leave
the first example broken.
"""

import argparse
import re
from pathlib import Path
from types import SimpleNamespace

import pytest

from horocorr import verify
from horocorr.cli import build_parser
from horocorr.verify import CRITERIA

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
