"""Results the package builds without validation keep the element invariants.

Internal results skip the public constructor's checks (see the Supernumber
docstring), so every such result is checked here directly: each mask below
2^L, each coefficient exactly ``complex`` or a 1-D complex array, and no
coefficient 0 (at every node, for a batch).
"""

import numpy as np
import pytest

from supercalc import grassmann as gr
from supercalc.berezin import _on_nodes, _weighted_sum
from supercalc.grassmann import Supernumber
from supercalc.superlinalg import mat_inverse_even
from supercalc.superspace import continue_body, expr_body

NODES = 5


def assert_clean(X):
    assert type(X) is Supernumber and type(X.L) is int and X.L >= 0
    for m, c in X._terms.items():
        assert type(m) is int and 0 <= m < 1 << X.L, m
        if isinstance(c, np.ndarray):
            assert c.dtype == complex and c.shape == (NODES,), c
            assert c.any(), m
        else:
            assert type(c) is complex, type(c)
            assert c != 0, m


def random_element(rng, L, batch, density=0.5):
    """Random element built through the public constructor; with batch set,
    about half its coefficients carry NODES nodes."""
    terms = {}
    for m in range(1 << L):
        if rng.random() < density:
            if batch and rng.random() < 0.5:
                terms[m] = rng.standard_normal(NODES) + 1j * rng.standard_normal(NODES)
            else:
                terms[m] = complex(rng.standard_normal(), rng.standard_normal())
    return Supernumber(L, terms)


def dict_loop_product(monkeypatch, a, b):
    with monkeypatch.context() as m:
        m.setattr(gr, "_TABLE_MAX_L", -1)
        return a * b


def trusted_results(X, Y, monkeypatch):
    """Every internally built result of X and Y (same L) that the invariant covers."""
    L = X.L
    out = [X + Y, X - Y, Y - X, -X, X + 2, 3.5 - X, X + (-X),
           dict_loop_product(monkeypatch, X, Y), X * Y, Y * X, X * 0,
           2 * X, 1.5j * X, np.float64(0.5) * X, np.complex128(2 - 1j) * X,
           np.array(3.0) * X, np.arange(NODES) * X, np.zeros(NODES) * X, 0 * X,
           X / 4, X / np.float64(-2.0), X / (1 + 1j),
           gr.soul(X), gr.conjugate(X), X.embed(L + 2), X.embed(L),
           gr.chop(X, 0.5), gr.zero(L), gr.one(L)]
    out += [gr.degree_filter(X, k) for k in range(L + 1)]
    out += [gr.gen_left_derivative(X, i) for i in range(L)]
    for low in range(L + 1):
        out += list(gr.seed_parts(X, low).values())
    even, odd, _ = gr.seed([X, Y], [X], L)
    return out + list(even) + list(odd)


@pytest.mark.parametrize("L", range(9))
@pytest.mark.parametrize("batch", [False, True])
def test_trusted_results_keep_the_invariants(L, batch, monkeypatch):
    rng = np.random.default_rng([L, batch])
    for _ in range(3):
        X = random_element(rng, L, batch)
        Y = random_element(rng, L, batch)
        assert_clean(X)
        assert_clean(Y)
        for R in trusted_results(X, Y, monkeypatch):
            assert_clean(R)


def test_table_kernel_results_keep_the_invariants():
    rng = np.random.default_rng(17)
    for L in (6, 7, 8):
        X = random_element(rng, L, False, density=0.9)
        Y = random_element(rng, L, False, density=0.9)
        kernel = gr._table_product(X, Y)
        assert kernel is not None
        assert_clean(kernel)
        assert_clean(X * Y)
        # a product that is 0 at every mask stores nothing
        assert gr._table_product(X, gr.zero(L)).is_zero()


def test_cancelling_sums_store_nothing():
    rng = np.random.default_rng(19)
    for batch in (False, True):
        X = random_element(rng, 5, batch, density=1.0)
        assert (X + (-X)).is_zero()
        assert (X - X).is_zero()
        assert gr.gen_left_derivative(X - X, 0).is_zero()


def test_batch_that_cancels_at_every_node_is_dropped():
    a = np.arange(1.0, NODES + 1)
    X = Supernumber(3, {0: 1.0, 0b011: a, 0b101: 2.0})
    Y = Supernumber(3, {0b011: -a})
    total = X + Y
    assert_clean(total)
    assert set(total._terms) == {0, 0b101}
    assert (np.zeros(NODES) * X).is_zero()


def test_batch_that_cancels_at_some_nodes_is_kept():
    a = np.arange(1.0, NODES + 1)
    partial = np.where(np.arange(NODES) < 2, -a, 0.0)
    X = Supernumber(3, {0b011: a})
    total = X + Supernumber(3, {0b011: partial})
    assert_clean(total)
    assert np.array_equal(total.coefficient(0b011), [0, 0, 3, 4, 5])
    mask = np.arange(NODES) % 2
    assert np.array_equal((mask * X).coefficient(0b011), mask * a)


def test_batch_helpers_of_other_modules_keep_the_invariants():
    rng = np.random.default_rng(23)
    X = random_element(rng, 4, True, density=0.8)
    weights = rng.standard_normal(NODES)
    summed = _weighted_sum(weights, X)
    assert_clean(summed)
    assert all(type(c) is complex for c in summed._terms.values())
    assert _weighted_sum(np.zeros(NODES), X).is_zero()


# Each operation below makes a 0 and must drop it itself, since its result is
# stored as given.

@pytest.mark.parametrize("batch", [False, True])
def test_dict_loop_product_that_cancels_or_underflows_keeps_the_invariants(batch):
    b = np.arange(1.0, NODES + 1) if batch else 1.0
    odd = Supernumber(4, {0b0001: b, 0b0010: 2.0})
    # (b s0 + 2 s1)^2 = 2b (s0 s1 + s1 s0) = 0
    assert_clean(odd * odd)
    assert (odd * odd).is_zero()
    # the s0 s2 term is 1e-400, below the smallest subnormal
    tiny = Supernumber(4, {0b0001: 1e-200 * b, 0b0010: 1.0})
    out = tiny * Supernumber(4, {0b0100: 1e-200, 0b1000: 1.0})
    assert_clean(out)
    assert sorted(out._terms) == [0b0110, 0b1001, 0b1010]


@pytest.mark.parametrize("batch", [False, True])
def test_continuation_whose_terms_cancel_keeps_the_invariants(batch):
    # q1 + q2 continued to (b + s0s1, 2 - s0s1): the s0s1 terms cancel
    b = np.arange(1.0, NODES + 1) if batch else 1.0
    x1 = Supernumber(2, {0: b, 0b11: 1.0})
    x2 = Supernumber(2, {0: 2.0, 0b11: -1.0})
    out = continue_body(expr_body("q1+q2", 2), [x1, x2])
    assert_clean(out)
    assert list(out._terms) == [0]


def test_on_nodes_with_a_zero_node_keeps_the_invariants():
    # the number 0 at node 0 puts a body that is 0 at every node
    q = (np.arange(float(NODES)),)
    out = _on_nodes(lambda node: 0.0 if node[0] == 0 else node[0] * gr.gen(2, 0), q)
    assert_clean(out)
    assert list(out._terms) == [1]
    assert np.array_equal(out.coefficient(1), np.arange(NODES))


@pytest.mark.parametrize("batch", [False, True])
def test_inverse_of_a_body_with_zero_entries_keeps_the_invariants(batch):
    s01 = gr.gen(2, 0) * gr.gen(2, 1)
    b = np.arange(1.0, NODES + 1) if batch else 1.0
    rows = [[gr.scalar(2, b) + s01, gr.zero(2)], [0.5 * s01, gr.scalar(2, 4.0)]]
    inv = mat_inverse_even(rows)
    for row in inv:
        for e in row:
            assert_clean(e)
    assert inv[0][1].is_zero()


@pytest.mark.parametrize("batch", [False, True])
def test_quotient_that_underflows_keeps_the_invariants(batch):
    tiny = np.full(NODES, 1e-300) if batch else 1e-300
    out = Supernumber(2, {0: 1.0, 0b01: tiny}) / 1e300
    assert_clean(out)
    assert list(out._terms) == [0]


def test_constants_of_zero_keep_the_invariants():
    assert gr._as_super(0, 3).is_zero()
    some = np.array([0.0, 1.0, 0.0, 2.0, 0.0])
    for c in (0, 0.0, 0j, some, np.zeros(NODES), 1.5):
        assert_clean(gr._as_super(c, 3))
    assert gr._as_super(np.zeros(NODES), 3).is_zero()
    assert np.array_equal(gr._as_super(some, 3).body, some)
    X = Supernumber(3, {0b001: 1.0})
    assert gr.zero(3) == 0 and (X - X) == 0
    assert not X == 0 and not gr.one(3) == 0
