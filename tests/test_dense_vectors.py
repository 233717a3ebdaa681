"""Dense supermatrix algebra on coefficient vectors.

``sdet``, ``det_even``, ``mat_inverse_even``, ``Supermatrix.__matmul__`` and
``gaussian_super`` each make one entry decision (``grassmann._dense_rows``):
dense rows are converted to coefficient vectors once and the routine runs on
them, other rows run on the elements as given.  Forcing the decision to "no"
runs the same routine on elements; both must give the same bytes, the same
exceptions and the same kernel products.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supercalc import grassmann as gr
from supercalc import superlinalg as sl
from supercalc.berezin import gaussian_super
from supercalc.grassmann import GrassmannDomainError, Supernumber
from supercalc.superlinalg import det_even, from_blocks, mat_inverse_even, sdet

from helpers import count_dense_products, same_bytes

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from workloads import WORKLOADS  # noqa: E402

L = 8
SHAPES = [(1, 1), (2, 1), (1, 2), (2, 2)]


def dense(rng, L, parity, body=0.0):
    """Every nonzero mask of the parity populated, and the given body."""
    masks = [m for m in range(1, 1 << L) if m.bit_count() % 2 == (parity == "odd")]
    coeffs = 0.3 * (rng.uniform(-1, 1, len(masks)) + 1j * rng.uniform(-1, 1, len(masks)))
    terms = dict(zip(masks, coeffs.tolist()))
    if parity == "even":
        terms[0] = body
    return Supernumber(L, terms)


def even_block(rng, L, n, body=None):
    body = rng.normal(size=(n, n)) + 2.0 * np.eye(n) if body is None else body
    return [[dense(rng, L, "even", complex(body[i, j])) for j in range(n)] for i in range(n)]


def odd_block(rng, L, rows, cols):
    return [[dense(rng, L, "odd") for _ in range(cols)] for _ in range(rows)]


def dense_matrix(rng, m, n, L=L):
    """Even (m|n) matrix with dense souls and well-conditioned block bodies."""
    return from_blocks(even_block(rng, L, m), odd_block(rng, L, m, n), odd_block(rng, L, n, m),
                       even_block(rng, L, n), L=L)


def gaussian_matrix(rng, m, n, L=L):
    """Admissible matrix for gaussian_super: symmetric positive definite A,
    antisymmetric B with regular body for even n, D = -C^T."""
    root = rng.normal(size=(m, m))
    body = root @ root.T + np.eye(m)
    A = [[None] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            A[i][j] = A[j][i] = dense(rng, L, "even", complex(body[i, j]))
    B = [[gr.zero(L)] * n for _ in range(n)]
    for s in range(n):
        for t in range(s + 1, n):
            B[s][t] = dense(rng, L, "even", complex(rng.uniform(0.5, 1.5)))
            B[t][s] = -B[s][t]
    C = odd_block(rng, L, m, n)
    D = [[-C[j][s] for j in range(m)] for s in range(n)]
    return from_blocks(A, C, D, B, L=L)


@pytest.fixture
def decisions(monkeypatch):
    """For each entry decision, whether it took the vector path."""
    taken = []
    decide = gr._dense_rows

    def spy(L, *groups):
        out = decide(L, *groups)
        taken.append(out is not None)
        return out

    monkeypatch.setattr(gr, "_dense_rows", spy)
    return taken


def on_elements(fn, *args):
    """fn(*args) with the entry decision forced to "no"."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gr, "_dense_rows", lambda L, *groups: None)
        return fn(*args)


def flat(x):
    return [e for r in x for e in r] if isinstance(x, list) else [x]


def assert_same_on_both_paths(fn, *args):
    fast = flat(fn(*args))
    slow = flat(on_elements(fn, *args))
    assert len(fast) == len(slow)
    assert all(same_bytes(a, b) for a, b in zip(fast, slow))


# ---------------------------------------------------------------------------
# same bits on both paths
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m, n", SHAPES)
def test_each_routine_gives_the_same_bytes_on_both_paths(m, n, decisions):
    rng = np.random.default_rng([m, n, 61])
    M, N, G = dense_matrix(rng, m, n), dense_matrix(rng, m, n), gaussian_matrix(rng, m, n)
    runs = [
        (sdet, M),
        (lambda M, N: sdet(M @ N), M, N),
        (det_even, M.block("A")),
        (det_even, M.block("B")),
        (mat_inverse_even, M.block("A")),
        (mat_inverse_even, M.block("B")),
        (gaussian_super, G, 0.8),
    ]
    for fn, *args in runs:
        decisions.clear()
        assert_same_on_both_paths(fn, *args)
        assert decisions and all(decisions), fn


def test_each_berezinian_operation_takes_the_vector_path(decisions):
    M, N, G, lam = WORKLOADS["berezinian_dense"].build(5)[0]
    for fn in (lambda: sdet(M), lambda: sdet(N), lambda: M @ N, lambda: gaussian_super(G, lam)):
        decisions.clear()
        fn()
        assert decisions == [True]
    MN = M @ N
    decisions.clear()
    sdet(MN)
    assert decisions == [True]


def test_batches_and_small_algebras_keep_the_element_path(decisions):
    # a 5-node batch fails at the crossover (its L=2 entries hold 4 terms at
    # most), as does any L=2 matrix
    s0, s1 = gr.gen(2, 0), gr.gen(2, 1)
    batch = from_blocks([[Supernumber(2, {0: np.arange(1.0, 6.0), 0b11: 0.5})]], [[s0]], [[s1]],
                        [[Supernumber(2, {0: np.full(5, 2.0)})]], L=2)
    small = from_blocks([[2.0 + s0 * s1]], [[s0]], [[s1]], [[3.0]], L=2)
    sl._sdet(batch)
    sdet(small)
    assert decisions == [False, False]


# ---------------------------------------------------------------------------
# every check survives on the vector path
# ---------------------------------------------------------------------------

def assert_same_error(fn, *args):
    """fn raises on the vector path, and raises the same class and message
    on elements."""
    with pytest.raises(Exception) as fast:
        fn(*args)
    with pytest.raises(Exception) as slow:
        on_elements(fn, *args)
    assert type(fast.value) is type(slow.value)
    assert str(fast.value) == str(slow.value)
    return fast.value


def with_blocks(M, **blocks):
    parts = {k: M.block(k) for k in "ACDB"}
    parts.update(blocks)
    return from_blocks(parts["A"], parts["C"], parts["D"], parts["B"], L=M.L)


def sdet_failures():
    rng = np.random.default_rng(71)
    M = dense_matrix(rng, 2, 2)
    mixed = with_blocks(M, A=[[dense(rng, L, "odd"), M.entry(0, 1)], M.block("A")[1]])
    odd = with_blocks(M, A=odd_block(rng, L, 2, 2), B=odd_block(rng, L, 2, 2),
                      C=[[dense(rng, L, "even", 0.5) for _ in range(2)] for _ in range(2)],
                      D=[[dense(rng, L, "even", 0.5) for _ in range(2)] for _ in range(2)])
    singular = with_blocks(M, B=even_block(rng, L, 2, np.ones((2, 2))))
    # det(A - C B^-1 D) is about 1e400; the Schur rows scaled apart keep
    # their determinant in range, and only the last power of two leaves it
    overflow = with_blocks(M, A=[[1e200 * e for e in r] for r in M.block("A")])
    return [(mixed, "sdet is defined for even matrices"),
            (odd, "sdet is defined for even matrices"),
            (singular, "matrix body is singular to working precision"),
            (overflow, "sdet overflows")]


@pytest.mark.parametrize("case", range(4))
def test_sdet_raises_as_on_elements(case, decisions):
    M, message = sdet_failures()[case]
    error = assert_same_error(sdet, M)
    assert isinstance(error, GrassmannDomainError)
    assert message in str(error)
    assert decisions[0] is True


def gaussian_failures():
    rng = np.random.default_rng(73)
    G = gaussian_matrix(rng, 2, 2)
    A, B, C = G.block("A"), G.block("B"), G.block("C")
    tilted = [[A[0][0], A[0][1] + 0.5], A[1]]
    skewed = [[dense(rng, L, "even", 1.0), A[0][1]], [A[0][1], dense(rng, L, "even", -3.0)]]
    lopsided = [B[0], [B[1][0] + dense(rng, L, "even"), B[1][1]]]
    coupled = [[C[0][0] + dense(rng, L, "odd"), C[0][1]], C[1]]
    return [(with_blocks(G, A=tilted), "even block body must be symmetric"),
            (with_blocks(G, A=skewed), "even block body must be positive definite"),
            (with_blocks(G, B=lopsided), "odd block must be antisymmetric"),
            (with_blocks(G, C=coupled), "couplings must satisfy C^T + D = 0")]


@pytest.mark.parametrize("case", range(4))
def test_gaussian_super_raises_as_on_elements(case, decisions):
    G, message = gaussian_failures()[case]
    error = assert_same_error(gaussian_super, G, 0.8)
    assert isinstance(error, GrassmannDomainError)
    assert str(error) == message
    assert decisions[0] is True


@pytest.mark.parametrize("rows", [(1e200, 1e200, 1e200, 1e200), (1e-200, 1e-200, 1e-200, 1e-200),
                                  (1.0, 1.0, 1e200, 1e-200), (1.0, 1.0, 1e200, 1.0),
                                  (1e-150, 1e-150, 1e150, 1e-200), (1e200, 1.0, 1e200, 1e-200)])
def test_rows_far_apart_take_the_scaling_on_vectors(rows, decisions, monkeypatch):
    # row i times rows[i] scales sdet by rows[0] rows[1] / (rows[2] rows[3]),
    # which is in range here, although det B or det A may not be; each case
    # scales some vector by a power of two
    M = dense_matrix(np.random.default_rng(79), 2, 2)
    scaled = sl.Supermatrix(2, 2, [[p * e for e in r] for p, r in zip(rows, M.rows)], L)
    vector_scalings = []
    times_two_to = sl._times_two_to
    monkeypatch.setattr(sl, "_times_two_to", lambda X, k: vector_scalings.append(
        isinstance(X, gr._Dense) and bool(np.any(k))) or times_two_to(X, k))
    assert_same_on_both_paths(sdet, scaled)
    assert decisions[0] is True
    assert any(vector_scalings)
    factor = (rows[0] / rows[2]) * (rows[1] / rows[3])
    want = sdet(M) * factor
    assert gr.max_coeff_diff(sdet(scaled), want) <= 1e-14 * gr.max_abs(want)


def test_sdet_past_a_b_inverse_out_of_range_on_both_paths(decisions):
    # B^-1 is about 1e310 and overflows, but C and D are 0, so sdet = A / B
    # is about 1e300; the zero entries times B^-1 are 0 on vectors too
    rng = np.random.default_rng(97)
    A, B = dense(rng, L, "even", 1.0), dense(rng, L, "even", 1.0)
    M = from_blocks([[1e-10 * A]], [[gr.zero(L)]], [[gr.zero(L)]], [[1e-310 * B]], L=L)
    assert_same_on_both_paths(sdet, M)
    assert decisions[0] is True
    want = (A * gr.inverse(B)).body * 1e300
    assert abs(sdet(M).body - want) <= 1e-12 * abs(want)


# ---------------------------------------------------------------------------
# kernel products
# ---------------------------------------------------------------------------

def test_dense_products_of_one_gaussian_super(monkeypatch):
    # 29: det A and its inverse, A^-1 from that one determinant, D A^-1 C,
    # the square root and the last product; the count hook sees every
    # product on either path
    G = gaussian_matrix(np.random.default_rng(83), 2, 2)
    calls = count_dense_products(monkeypatch)
    gaussian_super(G, 0.8)
    assert len(calls) <= 29
    fast = len(calls)
    calls.clear()
    on_elements(gaussian_super, G, 0.8)
    assert len(calls) == fast
    calls.clear()
    sdet(dense_matrix(np.random.default_rng(83), 2, 2))
    assert 0 < len(calls) <= 28


# ---------------------------------------------------------------------------
# the product rule on both paths
# ---------------------------------------------------------------------------

@settings(max_examples=50)
@given(m=st.integers(0, 2), n=st.integers(0, 2), L=st.sampled_from([6, 8]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_sdet_is_multiplicative_on_both_paths(m, n, L, seed):
    if m + n == 0:
        return
    rng = np.random.default_rng(seed)
    M, N = dense_matrix(rng, m, n, L), dense_matrix(rng, m, n, L)

    def check():
        product = sdet(M) * sdet(N)
        assert gr.max_coeff_diff(sdet(M @ N), product) <= 1e-12 * gr.max_abs(product)

    check()
    on_elements(check)


def test_gaussian_super_of_a_dense_matrix_squares_to_its_closed_form():
    # gaussian^2 sdet(G) = (2 pi lam)^m lam^-n, on vectors
    G, lam = gaussian_matrix(np.random.default_rng(89), 2, 2), 0.8
    gauss = gaussian_super(G, lam)
    want = (2.0 * math.pi * lam) ** 2 * lam ** -2
    got = gauss * gauss * sdet(G)
    assert gr.max_coeff_diff(got, gr.scalar(L, want)) <= 1e-12 * want
