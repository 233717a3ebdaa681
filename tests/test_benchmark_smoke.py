"""One case of each benchmark workload, solved and checked.

The benchmark's workloads (perfbench/workloads.py) call supercalc's public
API; this catches a change to that API before a benchmark run does.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_case_of_each_workload_passes_its_checks(name):
    workload = WORKLOADS[name]
    case = workload.build(5)[0]
    checks = workload.check(case, workload.solve(case))
    assert checks
    assert all(check.passed for check in checks), checks
