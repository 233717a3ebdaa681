"""Shared expression nodes and the per-point memo of their values.

``ExprFunction`` builds each derivative tree from shared nodes
(``superspace._shared``): a subtree that repeats, within one tree or across
functions, is one object.  A point's Taylor basis keeps the value of each
node evaluated there (``_TaylorBasis.memo``), so every node is evaluated once
per point.  A memoised value must have the bytes of a plain evaluation.
"""

import gc
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from supercalc import grassmann as gr
from supercalc import superspace as ss
from supercalc.grassmann import GrassmannDomainError, Supernumber
from supercalc.superspace import (
    ExprFunction,
    SuperFunction,
    SuperPoint,
    continue_body,
    expr_body,
)

from helpers import same_bytes

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from workloads import WORKLOADS  # noqa: E402


# ---------------------------------------------------------------------------
# random trees with repeated subtrees
# ---------------------------------------------------------------------------

_CONSTANTS = [0j, -0j, complex(0.0, -0.0), complex(-0.0, 0.0), 1 + 0j,
              -1.5 + 2j, 1j, 0.25 - 0.5j]


@st.composite
def trees(draw):
    """A tree built bottom-up from a list of nodes, each made from nodes
    earlier in the list, so that later nodes hold earlier ones many times.
    Constants are made anew each time, so equal constants are distinct
    objects until shared."""
    nodes = [ss._Var(0), ss._Var(1)]
    for _ in range(draw(st.integers(1, 10))):
        pick = st.integers(0, len(nodes) - 1).map(lambda i: nodes[i])
        kind = draw(st.sampled_from(["const", "add", "mul", "pow", "call"]))
        if kind == "const":
            node = ss._Const(draw(st.sampled_from(_CONSTANTS)))
        elif kind == "add":
            node = ss._Add(draw(pick), draw(pick))
        elif kind == "mul":
            node = ss._Mul(draw(pick), draw(pick))
        elif kind == "pow":
            node = ss._Pow(draw(pick), draw(st.integers(-3, 3)))
        else:
            node = ss._Call(draw(st.sampled_from(sorted(ss._CALL_VALUE))), draw(pick))
        nodes.append(node)
    return nodes[-1]


_body = st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False)


def outcome(fn):
    """The value fn returns, as type and bytes, or the type of what it raises."""
    try:
        with np.errstate(all="ignore"):
            v = fn()
    except (ArithmeticError, ValueError) as exc:
        return type(exc)
    return type(v), np.asarray(v).tobytes()


@settings(max_examples=150)
# sharing -0j with 0j would turn this sum's imaginary 0.0 into -0.0
@example(ss._Add(ss._Const(-0j), ss._Pow(ss._Const(0j), 1)), 1.0, 0j, [0j, 1, 2], False)
@given(trees(), _body, _body,
       st.lists(_body | st.just(0j), min_size=3, max_size=3),
       st.booleans())
def test_memoised_values_equal_plain_ones_bit_for_bit(tree, a, b, nodes, mixed):
    shared = ss._shared(tree)
    batch = np.array(nodes, dtype=complex)
    for q in [(a, b), (batch, b if mixed else batch[::-1].copy())]:
        memo = {}
        assert outcome(lambda: shared.value(q, memo)) == outcome(lambda: tree.value(q))
        # a second read of the same memo answers from it, with the same bytes
        assert outcome(lambda: shared.value(q, memo)) == outcome(lambda: tree.value(q))
        assert all(not v.flags.writeable for _, v in memo.values()
                   if isinstance(v, np.ndarray))


# ---------------------------------------------------------------------------
# sharing
# ---------------------------------------------------------------------------

def test_equal_subtrees_of_different_functions_are_one_object():
    one_over = ExprFunction("1/(q1 - 1j*q2)", 2).expr
    scaled = ExprFunction("-1j/(q1 - 1j*q2)", 2).expr
    assert ExprFunction("1/(q1 - 1j*q2)", 2).expr is one_over
    assert scaled.b is one_over
    # the exp(u) that the chain rule repeats is the function's own exp(u)
    f = ExprFunction("2*exp(-(q1^2))", 1)
    exp_u = f.expr.b
    assert isinstance(exp_u, ss._Call)
    for alpha in [(1,), (2,), (3,)]:
        assert any(node is exp_u for node in nodes_of(f._expr_for(alpha)))
        assert not any(node == exp_u and node is not exp_u
                       for node in nodes_of(f._expr_for(alpha)))


def nodes_of(e):
    """Every node of the tree e, once per path to it."""
    yield e
    for value in vars(e).values():
        if isinstance(value, ss.Expr):
            yield from nodes_of(value)


def test_constants_are_shared_by_their_bits():
    assert ss._shared(ss._Const(0j)) is ss._shared(ss._Const(complex(0.0, 0.0)))
    assert ss._shared(ss._Const(0j)) is not ss._shared(ss._Const(-0j))
    assert ss._shared(ss._Const(-0j)) is not ss._shared(ss._Const(complex(0.0, -0.0)))
    # == merges them, which is why the table keys on bits
    assert ss._Const(0j) == ss._Const(-0j)


def test_shared_nodes_are_freed_with_the_last_tree_that_holds_them():
    gc.collect()
    before = len(ss._NODES)
    f = ExprFunction("sin(q1 * 8.125e-3) * cos(q1 * 8.125e-3)", 1)
    f.deriv_value((3,), (0.5,))
    assert len(ss._NODES) > before
    node = weakref.ref(f.expr)
    del f
    gc.collect()
    assert node() is None
    assert len(ss._NODES) == before


# ---------------------------------------------------------------------------
# the memo of a point
# ---------------------------------------------------------------------------

def batch_point(bodies):
    x = Supernumber(3, {0: np.array(bodies, dtype=complex), 0b11: 0.5})
    return SuperPoint((x,), (Supernumber(3, {0b100: 1.0}),))


def gaussian_like():
    return SuperFunction(1, 1, {0: expr_body("3*exp(-q1^2)", 1),
                                0b1: expr_body("-exp(-q1^2)", 1)})


def counting_exp(monkeypatch):
    calls = []
    scalar_exp, batch_exp = ss._CALL_VALUE["exp"]

    def counted(v):
        calls.append(v)
        return batch_exp(v)

    monkeypatch.setitem(ss._CALL_VALUE, "exp", (scalar_exp, counted))
    return calls


def test_one_exp_per_point_across_derivatives_and_coefficients(monkeypatch):
    calls = counting_exp(monkeypatch)
    f = gaussian_like()
    P = batch_point([0.25, -0.5])
    out = f.evaluate(P)
    assert len(calls) == 1
    # each coefficient continued alone, on a basis of its own, gives the same
    # bytes at one exp each
    even, odd = (continue_body(f.coefficients[mask], P.x) for mask in (0, 0b1))
    assert len(calls) == 3
    assert same_bytes(out, gr.zero(3) + even + P.theta[0] * odd)


def test_np_exp_runs_once_per_fsm_solve(monkeypatch):
    workload = WORKLOADS["fsm_transport"]
    case = workload.build(5)[0]
    calls = counting_exp(monkeypatch)
    value = workload.solve(case)
    assert all(check.passed for check in workload.check(case, value))
    assert len(calls) == 1


def test_two_points_each_get_their_own_values():
    f = gaussian_like()
    P, Q = batch_point([0.25, -0.5]), batch_point([1.5, 2.0])
    at_p, at_q = f.evaluate(P), f.evaluate(Q)
    assert same_bytes(f.evaluate(P), at_p)
    assert not same_bytes(at_p, at_q)
    fresh = gaussian_like()
    assert same_bytes(fresh.evaluate(batch_point([1.5, 2.0])), at_q)
    assert same_bytes(fresh.evaluate(batch_point([0.25, -0.5])), at_p)
    assert P._basis().memo.keys() == Q._basis().memo.keys()


def test_memo_arrays_are_read_only_and_freed_with_their_point():
    f = gaussian_like()
    P = batch_point([0.25, -0.5])
    out = f.evaluate(P)
    values = [v for _, v in P._basis().memo.values()]
    assert values and all(isinstance(v, np.ndarray) and not v.flags.writeable
                          for v in values)
    with pytest.raises(ValueError):
        values[0][0] = 1.0
    refs = [weakref.ref(v) for v in values]
    del P, out, values
    gc.collect()
    assert all(r() is None for r in refs)


# ---------------------------------------------------------------------------
# errors of a continuation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text, body, message", [
    ("1/q1", 0.0, "0.0 to a negative or complex power"),
    ("q1^-2", 0.0, "0.0 to a negative or complex power"),
    ("log(q1)", 0.0, "math domain error"),
    ("exp(q1)", 800.0, "math range error"),
    ("exp(q1)*1e308*1e10", 1.0, "not finite"),
])
def test_a_continuation_that_fails_at_the_body_raises_a_domain_error(text, body, message):
    x = Supernumber(2, {0: body, 3: 1.0})
    with pytest.raises(GrassmannDomainError, match=message):
        continue_body(expr_body(text, 1), [x])


def test_batch_zero_test_counts_nan_and_ignores_empty_batches():
    assert gr._nonzero(np.array([0j, complex("nan")]))
    assert gr._nonzero(np.array([0j, -0j, 1e-300]))
    assert not gr._nonzero(np.array([0j, -0j, complex(-0.0, -0.0)]))
    assert not gr._nonzero(np.array([], dtype=complex))
