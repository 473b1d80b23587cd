"""Acceptance battery: one test per numbered check in the verify registry.

Each test prints the check's summary line and asserts its verdict.  The
unfolding check judges a negative result: the profile curve's direction map
winds three times and the winding survives the normal flow, so its
self-crossings cannot clear; the check passes when the measured counts, the
winding and the refused bisection reproduce that obstruction.

The README's Quick start runs here too, so that an API change cannot leave
the first example broken.
"""

import re
from pathlib import Path

import pytest

from horocorr.verify import CRITERIA

IDS = [f"criterion-{i+1:02d}-{name}" for i, (name, _) in enumerate(CRITERIA)]


@pytest.mark.parametrize("name,check", CRITERIA, ids=IDS)
def test_criterion(name, check):
    result = check()
    print(result.line())
    assert result.passed, result.line()


def test_readme_quick_start_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"^```python\n(.*?)^```", readme, re.S | re.M)
    assert block is not None, "README.md has no python block"
    exec(compile(block.group(1), "README.md", "exec"), {})
