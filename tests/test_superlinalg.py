"""Supermatrices: supertrace, super-determinant, inverse, diagonalization, Pfaffian."""

import itertools

import numpy as np
import pytest

from supercalc import grassmann as gr
from supercalc.grassmann import AnalyticSpec, GrassmannDomainError, Supernumber
from supercalc.superlinalg import (
    Supermatrix,
    det_even,
    diagonalize_generic,
    from_blocks,
    identity_sm,
    mat_inverse_even,
    pfaffian,
    sdet,
    sdet_flow_check,
    sm_exp,
    sm_inverse,
    str_super,
)

from helpers import random_supermatrix, random_supernumber


def _dense_det_oracle(rows, L):
    """Independent Leibniz determinant: sign by explicit inversion count."""
    size = len(rows)
    acc = gr.zero(L)
    for perm in itertools.permutations(range(size)):
        inv = sum(
            1
            for i in range(size)
            for j in range(i + 1, size)
            if perm[i] > perm[j]
        )
        term = gr.one(L)
        for i in range(size):
            term = term * rows[i][perm[i]]
        acc = acc + ((-1) ** inv) * term
    return acc


# ---------------------------------------------------------------------------
# model 1|1 matrix with two odd generators: [[x1, t1], [t2, i x2]]
# ---------------------------------------------------------------------------

X1, X2 = 1.3, 0.7
L2 = 2


def _model_matrix():
    t1, t2 = gr.gen(L2, 0), gr.gen(L2, 1)
    x1 = gr.scalar(L2, X1)
    ix2 = gr.scalar(L2, 1j * X2)
    return from_blocks([[x1]], [[t1]], [[t2]], [[ix2]]), (x1, ix2, t1, t2)


def test_supertrace_model_matrix():
    Q, (x1, ix2, _, _) = _model_matrix()
    assert str_super(Q) == x1 - ix2


def test_supertrace_needs_homogeneous():
    L = 2
    bad = Supermatrix(1, 1, [[gr.gen(L, 0), gr.zero(L)], [gr.zero(L), gr.one(L)]], L)
    with pytest.raises(GrassmannDomainError):
        str_super(bad)


def test_sdet_model_matrix_both_orientations():
    Q, (x1, ix2, t1, t2) = _model_matrix()
    got = sdet(Q)
    want = (x1 * ix2 - t1 * t2) * gr.inverse(ix2 * ix2)
    assert gr.max_coeff_diff(got, want) < 1e-12
    # reciprocal closed form has the other nilpotent sign
    got_inv = gr.inverse(got)
    want_inv = (x1 * ix2 + t1 * t2) * gr.inverse(x1 * x1)
    assert gr.max_coeff_diff(got_inv, want_inv) < 1e-12


def test_sm_inverse_model_matrix_closed_form():
    Q, (x1, ix2, t1, t2) = _model_matrix()
    Y = sm_inverse(Q)
    d_minus = x1 * ix2 - t1 * t2
    d_plus = x1 * ix2 + t1 * t2
    want = from_blocks(
        [[ix2 * gr.inverse(d_minus)]],
        [[-1.0 * t1 * gr.inverse(d_minus)]],
        [[-1.0 * t2 * gr.inverse(d_plus)]],
        [[x1 * gr.inverse(d_plus)]],
    )
    assert Y.max_coeff_diff(want) < 1e-12
    ident = identity_sm(1, 1, L2)
    assert (Q @ Y).max_coeff_diff(ident) < 1e-12
    assert (Y @ Q).max_coeff_diff(ident) < 1e-12


def test_diagonalize_model_matrix_eigenvalues():
    Q, (x1, ix2, t1, t2) = _model_matrix()
    X, E = diagonalize_generic(Q)
    gap_inv = gr.inverse(x1 - ix2)
    lam_even = x1 + t1 * t2 * gap_inv
    lam_odd = ix2 + t1 * t2 * gap_inv
    assert gr.max_coeff_diff(E.entry(0, 0), lam_even) < 1e-12
    assert gr.max_coeff_diff(E.entry(1, 1), lam_odd) < 1e-12
    assert E.entry(0, 1).is_zero() and E.entry(1, 0).is_zero()
    # conjugation actually holds
    recon = X @ Q @ sm_inverse(X)
    assert recon.max_coeff_diff(E) < 1e-10
    # supertrace of powers is a diagonalization invariant: str Q^2 = lam_e^2 - lam_o^2
    Q2 = Q @ Q
    want = lam_even * lam_even - lam_odd * lam_odd
    assert gr.max_coeff_diff(str_super(Q2), want) < 1e-12


# ---------------------------------------------------------------------------
# determinants of even matrices
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 6])
def test_det_even_matches_dense_leibniz(size):
    rng = np.random.default_rng(100 + size)
    L = 4
    rows = [
        [
            random_supernumber(rng, L, "even", body=(2.5 if i == j else None))
            for j in range(size)
        ]
        for i in range(size)
    ]
    got = det_even(rows)
    want = _dense_det_oracle(rows, L)
    assert gr.max_coeff_diff(got, want) < 1e-10


def test_det_even_rejects_odd_entries():
    L = 2
    with pytest.raises(GrassmannDomainError):
        det_even([[gr.gen(L, 0)]])


def test_det_even_multiplicative():
    rng = np.random.default_rng(7)
    L = 4
    size = 3
    P = [[random_supernumber(rng, L, "even", body=None) for _ in range(size)]
         for _ in range(size)]
    Q = [[random_supernumber(rng, L, "even", body=None) for _ in range(size)]
         for _ in range(size)]
    PQ = [
        [sum((P[i][k] * Q[k][j] for k in range(size)), gr.zero(L))
         for j in range(size)]
        for i in range(size)
    ]
    assert gr.max_coeff_diff(det_even(PQ), det_even(P) * det_even(Q)) < 1e-10


def test_mat_inverse_even_round_trip():
    rng = np.random.default_rng(11)
    L = 6
    size = 3
    rows = [
        [random_supernumber(rng, L, "even", body=(3.0 + 0.5j * i if i == j else None))
         for j in range(size)]
        for i in range(size)
    ]
    inv = mat_inverse_even(rows)
    prod = [
        [sum((rows[i][k] * inv[k][j] for k in range(size)), gr.zero(L))
         for j in range(size)]
        for i in range(size)
    ]
    for i in range(size):
        for j in range(size):
            want = gr.one(L) if i == j else gr.zero(L)
            assert gr.max_coeff_diff(prod[i][j], want) < 1e-12


def test_det_identity_plus_odd_products():
    # V, W single-column/row odd matrices: det(I + VW) det(I + WV) = 1
    rng = np.random.default_rng(23)
    L = 6
    m, n = 2, 2
    V = [[random_supernumber(rng, L, "odd", max_extra_terms=1) + gr.gen(L, (i + j) % L)
          for j in range(n)] for i in range(m)]
    W = [[random_supernumber(rng, L, "odd", max_extra_terms=1) + gr.gen(L, (2 * i + j + 1) % L)
          for j in range(m)] for i in range(n)]
    VW = [[sum((V[i][k] * W[k][j] for k in range(n)), gr.zero(L)) for j in range(m)]
          for i in range(m)]
    WV = [[sum((W[i][k] * V[k][j] for k in range(m)), gr.zero(L)) for j in range(n)]
          for i in range(n)]
    I_VW = [[(gr.one(L) if i == j else gr.zero(L)) + VW[i][j] for j in range(m)]
            for i in range(m)]
    I_WV = [[(gr.one(L) if i == j else gr.zero(L)) + WV[i][j] for j in range(n)]
            for i in range(n)]
    prod = det_even(I_VW) * det_even(I_WV)
    assert gr.max_coeff_diff(prod, gr.one(L)) < 1e-10


# ---------------------------------------------------------------------------
# sdet: multiplicativity, exp/str exchange, inverse
# ---------------------------------------------------------------------------

def test_sdet_multiplicative_random():
    rng = np.random.default_rng(42)
    for trial in range(25):
        m = int(rng.integers(1, 3))
        n = int(rng.integers(1, 3))
        L = int(rng.integers(2, 7))
        M = random_supermatrix(rng, m, n, L, diag_shift=2.0)
        N = random_supermatrix(rng, m, n, L, diag_shift=1.5)
        lhs = sdet(M @ N)
        rhs = sdet(M) * sdet(N)
        assert gr.max_coeff_diff(lhs, rhs) < 1e-10, f"trial {trial}"


def test_sdet_exp_equals_exp_str():
    rng = np.random.default_rng(5)
    for trial in range(20):
        m = int(rng.integers(1, 3))
        n = int(rng.integers(1, 3))
        L = int(rng.integers(2, 7))
        M = random_supermatrix(rng, m, n, L, diag_shift=None, soul_scale=0.4)
        lhs = sdet(sm_exp(M))
        rhs = gr.apply_analytic(AnalyticSpec.named("exp"), str_super(M))
        assert gr.max_coeff_diff(lhs, rhs) < 1e-10, f"trial {trial}"


def test_sm_inverse_random_two_sided():
    rng = np.random.default_rng(17)
    for _ in range(10):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        L = int(rng.integers(2, 6))
        M = random_supermatrix(rng, m, n, L, diag_shift=2.5)
        Minv = sm_inverse(M)
        ident = identity_sm(m, n, L)
        assert (M @ Minv).max_coeff_diff(ident) < 1e-10
        assert (Minv @ M).max_coeff_diff(ident) < 1e-10


def test_sdet_inverse_is_reciprocal():
    rng = np.random.default_rng(29)
    M = random_supermatrix(rng, 2, 2, 6, diag_shift=2.0)
    assert gr.max_coeff_diff(sdet(sm_inverse(M)), gr.inverse(sdet(M))) < 1e-9


def _with_b_body(M, body):
    rows = [list(r) for r in M.rows]
    for i in range(M.n):
        for j in range(M.n):
            e = rows[M.m + i][M.m + j]
            rows[M.m + i][M.m + j] = e - e.body + body[i][j]
    return Supermatrix(M.m, M.n, rows, M.L)


def _stack_nodes(matrices):
    """One matrix whose coefficients are arrays over the given matrices."""
    def stack(values):
        masks = set().union(*(v.terms for v in values))
        return Supernumber(values[0].L, {
            m: np.array([v.coefficient(m) for v in values]) for m in masks
        })

    N = matrices[0].size
    return Supermatrix(matrices[0].m, matrices[0].n, [
        [stack([M.entry(i, j) for M in matrices]) for j in range(N)] for i in range(N)
    ], matrices[0].L)


def test_sdet_of_a_batch_matches_each_node_alone():
    # At nodes 1 and 4 the B body is singular to LU (its numpy determinant is
    # exactly 0) but not to the Leibniz expansion, so sdet takes the A side
    # there and the B side elsewhere.
    lu_singular = [[1.786106414881354, 0.5503783629581965],
                   [1.5944831696449162, 0.4913307680672878]]
    assert np.linalg.det(np.array(lu_singular)) == 0.0
    rng = np.random.default_rng(31)
    nodes = [random_supermatrix(rng, 2, 2, 4, diag_shift=2.0) for _ in range(6)]
    for k in (1, 4):
        nodes[k] = _with_b_body(nodes[k], lu_singular)
    got = sdet(_stack_nodes(nodes))
    for k, M in enumerate(nodes):
        alone = sdet(M)
        at_k = Supernumber(4, {m: c[k] for m, c in got.terms.items()})
        assert gr.max_coeff_diff(at_k, alone) <= 1e-13 * gr.max_abs(alone), f"node {k}"


def test_sdet_of_a_batch_raises_where_a_node_alone_raises():
    rng = np.random.default_rng(37)
    nodes = [random_supermatrix(rng, 1, 2, 3, diag_shift=2.0) for _ in range(4)]
    nodes[2] = _with_b_body(nodes[2], [[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(GrassmannDomainError):
        sdet(nodes[2])
    with pytest.raises(GrassmannDomainError):
        sdet(_stack_nodes(nodes))


# ---------------------------------------------------------------------------
# flow identity
# ---------------------------------------------------------------------------

def test_sdet_flow_check_matches_exp_integral():
    rng = np.random.default_rng(3)
    L = 4
    M0 = random_supermatrix(rng, 1, 1, L, diag_shift=None, soul_scale=0.5)
    M1 = random_supermatrix(rng, 1, 1, L, diag_shift=None, soul_scale=0.5)

    def M_of_t(t):
        return M0 + M1.scale(np.sin(1.7 * t))

    left, right = sdet_flow_check(M_of_t, t_end=0.5, h=1e-2)
    assert gr.max_coeff_diff(left, right) < 1e-6


# ---------------------------------------------------------------------------
# diagonalization, generic and degenerate
# ---------------------------------------------------------------------------

def test_diagonalize_random_even():
    rng = np.random.default_rng(31)
    for _ in range(6):
        m = int(rng.integers(1, 3))
        n = int(rng.integers(1, 3))
        L = int(rng.integers(2, 7))
        M = random_supermatrix(rng, m, n, L, diag_shift=3.0)
        X, E = diagonalize_generic(M)
        for i in range(m + n):
            for j in range(m + n):
                if i != j:
                    assert E.entry(i, j).is_zero()
        assert (X @ M @ sm_inverse(X)).max_coeff_diff(E) < 1e-9


def test_diagonalize_rejects_degenerate_body():
    L = 2
    x = gr.scalar(L, 1.0)
    M = from_blocks([[x]], [[gr.gen(L, 0)]], [[gr.gen(L, 1)]], [[x]])
    with pytest.raises(GrassmannDomainError):
        diagonalize_generic(M)


# ---------------------------------------------------------------------------
# Pfaffian
# ---------------------------------------------------------------------------

def test_pfaffian_two_by_two():
    L = 2
    b = gr.scalar(L, 2.5) + gr.gen(L, 0) * gr.gen(L, 1)
    z = gr.zero(L)
    assert pfaffian([[z, b], [-1.0 * b, z]]) == b


def test_pfaffian_square_is_det():
    rng = np.random.default_rng(13)
    for size in (4, 6):
        L = 4
        rows = [[gr.zero(L)] * size for _ in range(size)]
        for i in range(size):
            for j in range(i + 1, size):
                e = random_supernumber(rng, L, "even", body=None)
                e = e + complex(rng.standard_normal(), rng.standard_normal())
                rows[i][j] = e
                rows[j][i] = -1.0 * e
        pf = pfaffian(rows)
        assert gr.max_coeff_diff(pf * pf, det_even(rows)) < 1e-10


def test_pfaffian_odd_size_and_validation():
    L = 2
    z = gr.zero(L)
    assert pfaffian([[z]]).is_zero()
    b = gr.one(L)
    with pytest.raises(GrassmannDomainError):
        pfaffian([[z, b], [b, z]])  # symmetric, not antisymmetric
    with pytest.raises(GrassmannDomainError):
        pfaffian([[z, gr.gen(L, 0)], [-1.0 * gr.gen(L, 0), z]])  # odd entries


def test_sdet_that_overflows_raises():
    s0, s1 = gr.gen(2, 0), gr.gen(2, 1)
    with pytest.raises(GrassmannDomainError):
        sdet(from_blocks([[1.0]], [[s0]], [[s1]], [[1e-300]], L=2))
