"""The benchmark's pinned outputs as a tier-1 check.

One full-size pass of each workload at the recorded seed, through the
benchmark's own task lists (`bench/workloads.py`) and pass runner, checked by
`run.verify` against `bench/expected.json`: every task's invariants, every
recorded result (floats within the recorded tolerance, so a drift in the
`nil:*` orbit deviations shows here) and the extra checks.  No timing.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_recorded_seed_pass_matches_expected(name, tmp_path):
    expected = run.load_expected(name, run.DEFAULT_SEED)
    assert expected is not None, f"nothing recorded for {name}"
    wl = workloads.WORKLOADS[name](run.DEFAULT_SEED, tmp_path)
    wl.generate()
    _, outcomes = run.run_pass(wl.tasks)
    attempted, failed, problems, _ = run.verify(wl, [outcomes], expected)
    assert attempted == len(wl.tasks) + len(wl.extra_checks(outcomes))
    assert failed == 0, problems
