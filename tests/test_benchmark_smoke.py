"""One case of each benchmark workload, solved and checked, untraced and traced.

The benchmark's workloads (perfbench/workloads.py) call supercalc's public
API, and its traced run (perfbench/tracing.py) wraps supercalc's functions
and methods by name; this catches a change to either before a benchmark run
does.
"""

import sys
from pathlib import Path

import pytest

from supercalc import grassmann as gr

from helpers import same_bytes

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_case_of_each_workload_passes_its_checks(name):
    workload = WORKLOADS[name]
    case = workload.build(5)[0]
    checks = workload.check(case, workload.solve(case))
    assert checks
    assert all(check.passed for check in checks), checks


def test_berezinian_outputs_do_not_depend_on_the_pair_blocks(monkeypatch):
    # a product over the pair block of its operands' parities leaves out only
    # exact zeros, so the whole table must give the same bytes
    workload = WORKLOADS["berezinian_dense"]
    case = workload.build(5)[0]
    blocked = workload.solve(case)
    monkeypatch.setattr(gr, "_pair_block", lambda L, pj, pk: gr._pair_table(L))
    whole = workload.solve(case)
    assert len(blocked) == len(whole) == 4
    assert all(same_bytes(a, b) for a, b in zip(blocked, whole))


def test_berezinian_outputs_do_not_depend_on_the_pair_blocks_with_a_warm_memo(monkeypatch):
    # the same, with every entry's vector read from the memo of dense vectors
    # (grassmann._MEMO) that a first solve filled
    workload = WORKLOADS["berezinian_dense"]
    case = workload.build(5)[0]
    cold = workload.solve(case)
    blocked = workload.solve(case)
    monkeypatch.setattr(gr, "_pair_block", lambda L, pj, pk: gr._pair_table(L))
    whole = workload.solve(case)
    assert all(same_bytes(a, b) for a, b in zip(cold, blocked, strict=True))
    assert all(same_bytes(a, b) for a, b in zip(blocked, whole, strict=True))


@pytest.fixture(scope="module")
def traced():
    """The tracer and the checks of one seed-5 case of each workload, solved
    with the benchmark's tracer installed and active."""
    tracer = tracing.Tracer()
    tracing.install(tracer, callers=(workloads,))
    try:
        checks = {}
        for index, name in enumerate(sorted(WORKLOADS)):
            workload = WORKLOADS[name]
            # built after install, as in the traced run, so that objects made
            # at set-up carry the wrappers
            case = workload.build(5)[0]
            tracer.begin(index)
            try:
                output = workload.solve(case)
            finally:
                tracer.end()
            checks[name] = workload.check(case, output)
    finally:
        tracer.uninstall()
    return tracer, checks


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_traced_case_of_each_workload_passes_its_checks(traced, name):
    checks = traced[1][name]
    assert checks
    assert all(check.passed for check in checks), checks


def test_every_traced_function_is_found(traced):
    tracer = traced[0]
    assert tracer.missing == []
    assert tracer.calls
