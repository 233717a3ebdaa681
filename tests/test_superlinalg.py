"""Supermatrices: supertrace, super-determinant, inverse, diagonalization, Pfaffian."""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from supercalc import grassmann as gr
from supercalc import superlinalg as sl
from supercalc.berezin import gaussian_super
from supercalc.grassmann import AnalyticSpec, GrassmannDomainError, GrassmannError, Supernumber
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
    _det_eliminate,
    _det_leibniz,
    _negligible,
    _small_det,
    _small_inverse,
)

from helpers import (
    count_dense_products,
    count_linalg_calls,
    overflowed,
    random_supermatrix,
    random_supernumber,
    supernumbers,
)


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
    # exactly 0); the package's closed-form determinant of its scaled rows is
    # a rounding error below the _negligible threshold.  sdet is defined only
    # where the B body is invertible, so those nodes raise, alone and in the
    # batch, and the other nodes as a batch match each node alone.
    lu_singular = [[1.786106414881354, 0.5503783629581965],
                   [1.5944831696449162, 0.4913307680672878]]
    assert np.linalg.det(np.array(lu_singular)) == 0.0
    rng = np.random.default_rng(31)
    nodes = [random_supermatrix(rng, 2, 2, 4, diag_shift=2.0) for _ in range(6)]
    for k in (1, 4):
        nodes[k] = _with_b_body(nodes[k], lu_singular)
        with pytest.raises(GrassmannDomainError):
            sdet(nodes[k])
    with pytest.raises(GrassmannDomainError):
        sdet(_stack_nodes(nodes))
    regular = [M for k, M in enumerate(nodes) if k not in (1, 4)]
    got = sdet(_stack_nodes(regular))
    for k, M in enumerate(regular):
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


def test_pfaffian_of_a_block_antisymmetric_up_to_rounding():
    # 0.1 * 3 * 1e5 is 30000.000000000004, one rounding away from 0.3 * 1e5
    upper = 0.1 * 3 * 1e5
    assert pfaffian([[0.0, upper], [-0.3 * 1e5, 0.0]]) == gr.scalar(0, upper)
    with pytest.raises(GrassmannDomainError, match="not antisymmetric"):
        pfaffian([[0.0, 1.0], [-1.0 + 1e-3, 0.0]])


def test_sdet_that_overflows_raises():
    s0, s1 = gr.gen(2, 0), gr.gen(2, 1)
    with pytest.raises(GrassmannDomainError):
        sdet(from_blocks([[1.0]], [[s0]], [[s1]], [[1e-300]], L=2))


def test_mat_inverse_even_whose_body_inverse_overflows_raises():
    # det 1e-310 is not 0, but its inverse overflows to inf
    s0s1 = Supernumber(2, {0b11: 1.0})
    with pytest.raises(GrassmannError):
        mat_inverse_even([[1e-310 + s0s1, gr.zero(2)], [gr.zero(2), gr.one(2)]])


def test_mat_inverse_even_of_a_body_that_overflowed_raises():
    # the public constructor rejects inf, but a product can overflow to it
    big = 1e200 * Supernumber(2, {0: 1e200, 0b11: 1.0})
    with pytest.raises(GrassmannDomainError):
        mat_inverse_even([[big, gr.zero(2)], [gr.zero(2), gr.one(2)]])


# ---------------------------------------------------------------------------
# singular to working precision
# ---------------------------------------------------------------------------

# Exactly rank 1 (row 2 is 3 x row 1), but numpy's determinant is 3.3e-17,
# not 0.
RANK_ONE = [[0.1, 0.7], [0.3, 2.1]]


def test_mat_inverse_even_of_a_rank_one_body_raises():
    assert np.linalg.det(np.array(RANK_ONE)) != 0.0
    s0s1 = Supernumber(2, {0b11: 1.0})
    rows = [[gr.scalar(2, RANK_ONE[i][j]) + (s0s1 if i == j else 0) for j in range(2)]
            for i in range(2)]
    with pytest.raises(GrassmannDomainError, match="singular"):
        mat_inverse_even(rows)


def test_sdet_with_a_rank_one_b_body_raises():
    L = 2
    A = [[gr.scalar(L, 2.0) + Supernumber(L, {0b11: 1.0})]]
    B = [[gr.scalar(L, v) for v in row] for row in RANK_ONE]
    C = [[gr.zero(L), gr.zero(L)]]
    D = [[gr.zero(L)], [gr.zero(L)]]
    with pytest.raises(GrassmannDomainError, match="singular"):
        sdet(from_blocks(A, C, D, B, L=L))


def test_singular_body_test_is_per_node():
    L = 2
    regular = [[2.0, 0.5], [0.25, 1.0]]

    def entry(i, j, values):
        return Supernumber(L, {0: np.array([v[i][j] for v in values]), 0b11: 0.1})

    fine = [[entry(i, j, [regular, regular]) for j in range(2)] for i in range(2)]
    want = mat_inverse_even([[gr.scalar(L, regular[i][j]) + Supernumber(L, {0b11: 0.1})
                              for j in range(2)] for i in range(2)])
    got = mat_inverse_even(fine)
    for i in range(2):
        for j in range(2):
            at_1 = Supernumber(L, {m: c[1] for m, c in got[i][j].terms.items()})
            assert gr.max_coeff_diff(at_1, want[i][j]) < 1e-14
    one_bad = [[entry(i, j, [regular, RANK_ONE]) for j in range(2)] for i in range(2)]
    with pytest.raises(GrassmannDomainError, match="singular"):
        mat_inverse_even(one_bad)


def test_det_even_with_a_negligible_pivot_takes_the_leibniz_expansion():
    # The body's first two columns are proportional, so after the first
    # elimination step every candidate pivot is a rounding error, not 0.
    # Dividing by one (as an exact == 0 test allowed) got coefficients wrong
    # by 20 on values of about 47.
    rng = np.random.default_rng(41)
    L = 4
    body = rng.standard_normal((5, 5)) + 3.0 * np.eye(5)
    body[:, 1] = 0.7 * body[:, 0]
    rows = [[random_supernumber(rng, L, "even", body=body[i, j]) for j in range(5)]
            for i in range(5)]
    want = _dense_det_oracle(rows, L)
    assert gr.max_coeff_diff(det_even(rows), want) < 1e-12 * gr.max_abs(want)


def test_elimination_equals_the_leibniz_expansion():
    rng = np.random.default_rng(29)
    L = 6
    rows = [[random_supernumber(rng, L, "even", max_extra_terms=4) for _ in range(5)]
            for _ in range(5)]
    want = _det_leibniz(rows)
    got = _det_eliminate(rows)
    assert gr.max_coeff_diff(got, want) <= 1e-13 * gr.max_abs(want)
    # one row swap negates the product of the pivots at the end, so the zero
    # imaginary part of this real determinant is -0.0
    swapped = [[gr.scalar(L, 2.0) if j == (1 - i if i < 2 else i) else gr.zero(L)
                for j in range(5)] for i in range(5)]
    det = _det_eliminate(swapped)
    assert det == gr.scalar(L, -32.0) and np.signbit(det.body.imag)


def test_det_even_of_size_five_far_from_unit_scale():
    # Upper bidiagonal, so the determinant is the product of the diagonal,
    # exactly 1 here; the first row's norm overflows unless it is scaled
    # first, and the second pivot is negligible against its row
    L = 2
    diag = (1e155, 1e-155, 1.0, 1.0, 1.0)
    rows = [[gr.scalar(L, diag[i]) if j == i else gr.scalar(L, 1.0) if j == i + 1
             else gr.zero(L) for j in range(5)] for i in range(5)]
    got = det_even(rows)
    assert abs(got.body - 1.0) <= 1e-15 and got == gr.scalar(L, got.body)
    with pytest.raises(GrassmannDomainError, match="overflows"):
        det_even([[gr.scalar(L, 1e200 if i == j else 1e199) for j in range(5)]
                  for i in range(5)])


def test_supermatrix_with_an_explicit_L_puts_every_entry_there():
    small, wide = gr.gen(2, 0), Supernumber(6, {0b11: 1.0})
    rows = [[1.0, small], [small, wide]]
    M = Supermatrix(1, 1, rows, L=4)
    assert M.L == 4 and all(e.L == 4 for r in M.rows for e in r)
    assert M.rows[1][1] == wide and M.rows[0][0] == gr.one(4)
    with pytest.raises(GrassmannError):
        Supermatrix(1, 1, [[1.0, small], [small, gr.gen(6, 5)]], L=4)
    auto = Supermatrix(1, 1, rows)
    assert auto.L == 6 and all(e.L == 6 for r in auto.rows for e in r)
    assert Supermatrix(1, 1, [[1.0, 0.0], [0.0, 2.0]]).L == 0


# ---------------------------------------------------------------------------
# overflow: each exit returns finite coefficients or raises
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("part", ["body", "soul"])
def test_overflowed_entry_is_caught_by_det_even(part):
    x = overflowed(part)
    z, one = gr.zero(x.L), gr.one(x.L)
    with pytest.raises(GrassmannDomainError):
        det_even([[x, z], [z, one]])


@pytest.mark.parametrize("part", ["body", "soul"])
def test_overflowed_entry_is_caught_by_mat_inverse_even(part):
    x = overflowed(part)
    z, one = gr.zero(x.L), gr.one(x.L)
    with pytest.raises(GrassmannDomainError):
        mat_inverse_even([[x, z], [z, one]])


@pytest.mark.parametrize("part", ["body", "soul"])
def test_overflowed_entry_is_caught_by_sdet(part):
    x = overflowed(part)
    one, g = gr.one(x.L), gr.gen(x.L, 0)
    for M in (from_blocks([[x]], [[g]], [[g]], [[one]]),
              from_blocks([[one]], [[g]], [[g]], [[x]])):
        with pytest.raises(GrassmannDomainError):
            sdet(M)


def test_pfaffian_that_overflows_raises():
    L = 2
    z, big = gr.zero(L), gr.scalar(L, 1e300)
    with pytest.raises(GrassmannDomainError, match="overflows"):
        pfaffian([[z, big, z, z], [-big, z, z, z], [z, z, z, big], [z, z, -big, z]])


def test_mat_inverse_even_of_a_body_far_from_unit_scale():
    # det(1e200 I) is inf and det(1e-200 I) is 0 in floating point, but both
    # bodies are far from singular: the test runs on the body scaled to 1
    L = 2
    for c in (1e200, 1e-200):
        rows = [[gr.scalar(L, c) + Supernumber(L, {0b11: c}), gr.zero(L)],
                [gr.zero(L), gr.scalar(L, c)]]
        got = mat_inverse_even(rows)
        assert gr.max_coeff_diff(got[0][0], Supernumber(L, {0: 1 / c, 0b11: -1 / c})) \
            <= 1e-15 / c
        assert gr.max_coeff_diff(got[1][1], gr.scalar(L, 1 / c)) <= 1e-15 / c


def test_mat_inverse_even_of_rows_320_orders_of_magnitude_apart():
    # Scaled by one peak, the small rows of these bodies would be subnormal:
    # the product of row norms underflows, and numpy's complex det of the
    # singular one divides by zero.  Each row is scaled to 1 on its own.
    L = 2
    s = lambda c: gr.scalar(L, c)  # noqa: E731
    small = [[s(2e-300), s(1e-300), s(1e-300), s(1e-300)],
             [s(1e-300)] * 4, [s(1e-300)] * 4]
    with pytest.raises(GrassmannDomainError, match="singular"):
        mat_inverse_even(small + [[s(1e20)] * 4])
    got = mat_inverse_even([[s(1e-300), gr.zero(L)], [gr.zero(L), s(1e20)]])
    assert gr.max_coeff_diff(got[0][0], s(1e300)) <= 1e285
    assert gr.max_coeff_diff(got[1][1], s(1e-20)) <= 1e-35


# ---------------------------------------------------------------------------
# body determinants and inverses (superlinalg._body)
# ---------------------------------------------------------------------------

def _random_bodies(rng, n, nodes=None):
    """Well-conditioned complex n x n bodies, one or (n, n, nodes)."""
    shape = (n, n) if nodes is None else (n, n, nodes)
    shift = 3.0 * np.eye(n) if nodes is None else 3.0 * np.eye(n)[:, :, None]
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape) + shift


def _nodes_first(a):
    return np.moveaxis(a, -1, 0)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("nodes", [None, 9])
def test_body_helpers_match_numpy(n, nodes):
    rng = np.random.default_rng(100 + n)
    body = _random_bodies(rng, n, nodes)
    ref = body if nodes is None else _nodes_first(body)
    det = _small_det(body)
    want_det = np.linalg.det(ref)
    assert np.all(np.abs(det - want_det) <= 1e-14 * np.abs(want_det))
    want_inv = np.linalg.inv(ref)
    for got in (_small_inverse(body, det), sl._body(body, invert=True)[1]):
        got = got if nodes is None else _nodes_first(got)
        peak = np.abs(want_inv).max(axis=(-2, -1), keepdims=True)
        assert np.all(np.abs(got - want_inv) <= 1e-14 * peak)
    assert not np.any(sl._body(body)[0])


def test_body_inverts_rows_400_orders_of_magnitude_apart():
    # [[2, 1], [1, 3]] with its rows scaled by 1e200 and 1e-200: det of the
    # body itself is 5, but its rows' products would overflow and underflow
    body = np.array([[2e200, 1e200], [1e-200, 3e-200]], dtype=complex)
    negligible, got = sl._body(body, invert=True)
    want = np.array([[3e-200, -1e200], [-1e-200, 2e200]]) / 5
    assert not negligible
    assert np.all(np.abs(got - want) <= 4e-16 * np.abs(want))


def test_body_cases_at_the_edge_of_the_range():
    L = 2
    s0s1 = Supernumber(L, {0b11: 1.0})
    # 1e-310 is not negligible against its own row, but its inverse overflows
    with pytest.raises(GrassmannDomainError, match="overflows"):
        mat_inverse_even([[gr.scalar(L, 1e-310)]])
    negligible, got = sl._body(1e-200 * np.eye(2, dtype=complex), invert=True)
    assert not negligible and np.array_equal(got, 1e200 * np.eye(2))
    # one zero node of three makes the batch singular
    diagonal = np.eye(2)[:, :, None] * np.array([1.0, 0.0, 2.0])
    assert np.array_equal(_negligible(diagonal + 0j), [False, True, False])
    zero_node = [[Supernumber(L, {0: diagonal[i, j]}) + s0s1 * (i == j) for j in range(2)]
                 for i in range(2)]
    with pytest.raises(GrassmannDomainError, match="singular"):
        mat_inverse_even(zero_node)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_body_of_a_batch_node_matches_the_node_alone(n):
    # not bit for bit: numpy's loops may round a batch differently (SIMD)
    rng = np.random.default_rng(200 + n)
    body = _random_bodies(rng, n, 17)
    _, batch = sl._body(body, invert=True)
    for k in range(17):
        _, alone = sl._body(body[..., k], invert=True)
        ulp = np.finfo(float).eps * np.abs(alone).max()
        assert np.all(np.abs(batch[..., k] - alone) <= 4 * ulp)


@pytest.mark.parametrize("n", [1, 2])
def test_small_bodies_make_no_numpy_linalg_call(n, monkeypatch):
    calls = count_linalg_calls(monkeypatch)
    rng = np.random.default_rng(300 + n)
    for nodes in (None, 5):
        body = _random_bodies(rng, n, nodes)
        rows = [[Supernumber(2, {0: body[i, j], 0b11: 0.25}) for j in range(n)]
                for i in range(n)]
        _negligible(body)
        mat_inverse_even(rows)
    assert calls == []


def test_body_matrix_of_a_batch_raises():
    s0, s1 = gr.gen(2, 0), gr.gen(2, 1)
    batch = Supermatrix(1, 1, [[Supernumber(2, {0: np.array([1.0, 2.0])}), s0],
                               [s1, 1.0]], L=2)
    with pytest.raises(GrassmannError, match="one node"):
        batch.body_matrix()
    for fn in (sm_exp, diagonalize_generic, lambda M: gaussian_super(M, 1.0)):
        with pytest.raises(GrassmannError):
            fn(batch)


# ---------------------------------------------------------------------------
# small even blocks in closed form (superlinalg._adjugate_inverse)
# ---------------------------------------------------------------------------

def _dense(rng, L, parity, body=0.0, nodes=None):
    """An element with every nonzero mask of the parity over L generators
    populated and the given body; with nodes, each soul coefficient is a
    batch of that many values."""
    masks = [m for m in range(1, 1 << L) if m.bit_count() % 2 == (parity == "odd")]
    shape = (len(masks),) if nodes is None else (len(masks), nodes)
    coeffs = 0.3 * (rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape))
    terms = dict(zip(masks, coeffs if nodes else coeffs.tolist()))
    if parity == "even":
        terms[0] = body
    return Supernumber(L, terms)


def _dense_block(rng, L, n, nodes=None):
    body = _random_bodies(rng, n, nodes)
    return [[_dense(rng, L, "even", body[i, j], nodes) for j in range(n)] for i in range(n)]


def _dense_even_matrix(rng, L, m, n, nodes=None):
    """Even (m|n) matrix with dense souls and well-conditioned block bodies."""
    C = [[_dense(rng, L, "odd", nodes=nodes) for _ in range(n)] for _ in range(m)]
    D = [[_dense(rng, L, "odd", nodes=nodes) for _ in range(m)] for _ in range(n)]
    return from_blocks(_dense_block(rng, L, m, nodes), C, D, _dense_block(rng, L, n, nodes), L=L)


def _assert_each_close(got, want, tol):
    """Each entry of got within tol of want's, relative to want's largest
    coefficient."""
    for g, w in zip(itertools.chain(*got), itertools.chain(*want)):
        assert gr.max_coeff_diff(g, w) <= tol * gr.max_abs(w)


@pytest.mark.parametrize("L", range(2, 9))
@pytest.mark.parametrize("nodes", [None, 5])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_adjugate_and_neumann_inverses_agree(n, nodes, L):
    # at unit scale no row is scaled (e = 0), so U is the block itself
    rng = np.random.default_rng([L, n, nodes or 0])
    rows = _dense_block(rng, L, n, nodes)
    got, delta, e = sl._adjugate_inverse(rows, L)
    assert not np.any(e)
    _assert_each_close(got, sl._neumann_inverse(rows, L), 1e-14)
    want_det_inv = gr.inverse(det_even(rows))
    assert gr.max_coeff_diff(delta, want_det_inv) <= 1e-14 * gr.max_abs(want_det_inv)
    # mat_inverse_even is U^-1 with its columns scaled by 2^-e_j, here by 1,
    # on the representation its entry decision picks (dense rows run on
    # coefficient vectors)
    assert mat_inverse_even(rows) == gr._on_vectors(
        lambda rows: sl._adjugate_inverse(rows, L)[0], L, rows)


@pytest.mark.parametrize("p", [(1e200, 1e150), (1e-200, 1e-150), (1e-300,),
                               (1e200, 1e-200, 1e150)])
def test_adjugate_inverse_of_rows_far_from_unit_scale(p):
    # For X with row i scaled by p_i, U = 2^-E P X has row i scaled by
    # p_i 2^-e_i, whose peak is in [1/2, 1): U^-1 is X^-1 with column j
    # times 2^e_j / p_j, and delta = det(U)^-1 is det(X)^-1 over the product
    # of the p_i 2^-e_i, although det(P X) is out of range.  mat_inverse_even
    # scales the columns of U^-1 by 2^-e_j: (P X)^-1 = X^-1 P^-1.
    L, n = 6, len(p)
    rows = _dense_block(np.random.default_rng(41), L, n)
    scaled = [[p[i] * x for x in r] for i, r in enumerate(rows)]
    got, delta, e = sl._adjugate_inverse(scaled, L)
    assert e.shape == (n,) and np.all(e != 0)
    inv = sl._neumann_inverse(rows, L)
    unit = [p[i] * 2.0 ** -int(e[i]) for i in range(n)]
    _assert_each_close(got, [[inv[i][j] * (1 / unit[j]) for j in range(n)]
                             for i in range(n)], 1e-14)
    want_delta = gr.inverse(det_even(rows)) * (1 / np.prod(unit))
    assert gr.max_coeff_diff(delta, want_delta) <= 1e-14 * gr.max_abs(want_delta)
    _assert_each_close(mat_inverse_even(scaled),
                       [[inv[i][j] * (1 / p[j]) for j in range(n)] for i in range(n)], 1e-14)


@pytest.mark.parametrize("nodes", [None, 5])
@pytest.mark.parametrize("n", [1, 2])
def test_sdet_equals_the_schur_determinant_over_det_b(n, nodes):
    # det(A - C B^-1 D) det(B)^-1 with B^-1 from the Neumann series and the
    # determinant of B apart from it, as sdet computed it before
    L = 8
    M = _dense_even_matrix(np.random.default_rng([n, nodes or 0, 43]), L, 2, n, nodes)
    A, B, C, D = (M.block(k) for k in "ABCD")
    Binv = sl._neumann_inverse(B, L)
    schur = sl._mat_sub(A, sl._mat_mul(sl._mat_mul(C, Binv), D))
    want = det_even(schur) * gr.inverse(det_even(B))
    assert gr.max_coeff_diff(sdet(M), want) <= 1e-14 * gr.max_abs(want)


def test_sdet_whose_det_b_inverse_overflows_raises():
    # B^-1 = 1e200 I is finite, but sdet = det(B)^-1 = 1e400 is not; the
    # private path that quadrature takes raises too
    L = 2
    g = gr.gen(L, 0)
    M = from_blocks([[1.0]], [[g, gr.zero(L)]], [[gr.zero(L)], [gr.zero(L)]],
                    [[1e-200, 0.0], [0.0, 1e-200]], L=L)
    for fn in (sdet, sl._sdet):
        with pytest.raises(GrassmannDomainError, match="overflows"):
            fn(M)


@pytest.mark.parametrize("fn", [sdet, sl._sdet])
def test_sdet_with_a_one_by_one_b_out_of_range(fn):
    # B^-1 = 1e310 and det(B)^-1 overflow, but sdet = 1e-10 / 1e-310 = 1e300
    # does not: the entry is scaled by a power of two before its inverse, as
    # the rows of a 2 x 2 B are
    L = 1
    M = from_blocks([[1e-10]], [[gr.zero(L)]], [[gr.zero(L)]], [[1e-310]], L=L)
    got = fn(M)
    assert got.terms.keys() == {0}
    assert abs(got.body - 1e300) <= 1e-14 * 1e300
    # the inverse itself still overflows
    with pytest.raises(GrassmannDomainError, match="matrix inverse overflows"):
        mat_inverse_even(M.block("B"))


@pytest.mark.parametrize("nodes", [None, 5])
@pytest.mark.parametrize("m, p, q", [(1, 1e150, 1e200), (1, 1e150, 1e160),
                                     (2, 1e-200, 1e-200), (2, 1e200, 1e200),
                                     (2, 1e-200, 1e-100)])
def test_sdet_of_blocks_far_from_unit_scale(m, p, q, nodes):
    # diag(p I_m, q I_2) M has sdet p^m q^-2 sdet(M), which is in range here,
    # although det B (1e400, 1e320, 1e-400, 1e400) or det A (1e-400, 1e400,
    # 1e-400) is not, and det(B)^-1 is 1e-400 or the subnormal 1e-320 in the
    # first two
    L = 6
    M = _dense_even_matrix(np.random.default_rng([m, nodes or 0, 53]), L, m, 2, nodes)
    A, B, C, D = ([[x * e for e in r] for r in M.block(k)] for k, x in zip("ABCD", (p, q, p, q)))
    factor = (p / q) ** m / q ** (2 - m)
    for fn in (sdet, sl._sdet):
        want = sdet(M) * factor
        assert gr.max_coeff_diff(fn(from_blocks(A, C, D, B, L=L)), want) \
            <= 1e-14 * gr.max_abs(want)


@pytest.mark.parametrize("c", [1e-200, 1e200])
def test_sdet_of_three_by_three_blocks_far_from_unit_scale(c):
    # det A and det B are 1e+-600, out of range, but sdet(c I_3 | c I_3) is 1;
    # with dense souls, sdet(c X) = sdet(X) for (3|3) X
    L = 6
    z = gr.zero(L)
    cI = [[gr.scalar(L, c) if i == j else z for j in range(3)] for i in range(3)]
    Z = [[z] * 3 for _ in range(3)]
    assert gr.max_coeff_diff(sdet(from_blocks(cI, Z, Z, cI, L=L)), gr.one(L)) <= 1e-14
    M = _dense_even_matrix(np.random.default_rng(61), L, 3, 3)
    want = sdet(M)
    assert gr.max_coeff_diff(sdet(M.scale(c)), want) <= 1e-14 * gr.max_abs(want)


@settings(max_examples=100, deadline=None)
@given(m=st.integers(0, 3), n=st.integers(0, 3), a=st.integers(-1000, 1000),
       b=st.integers(-1000, 1000), L=st.sampled_from([4, 6]), seed=st.integers(0, 2 ** 32 - 1))
def test_sdet_scales_by_powers_of_two_across_the_range(m, n, a, b, L, seed):
    # sdet(diag(2^a I_m, 2^b I_n) M) = 2^(ma - nb) sdet(M): to 1e-14 where
    # the result is normal, GrassmannDomainError where it is above the range,
    # and finite coefficients where it is below; the two binades at the top
    # of the range, where rounding decides, are left out
    M = _dense_even_matrix(np.random.default_rng(seed), L, m, n)
    scaled = Supermatrix(m, n, [[2.0 ** (a if i < m else b) * x for x in r]
                                for i, r in enumerate(M.rows)], L)
    base, k = sdet(M), m * a - n * b
    top = k + np.log2(gr.max_abs(base))
    assume(not 1023 <= top <= 1025)
    if top > 1025:
        with pytest.raises(GrassmannDomainError, match="overflows"):
            sdet(scaled)
        return
    got = sdet(scaled)
    assert all(np.isfinite(v) for v in got.terms.values())
    if top > -1021:
        with np.errstate(**sl._QUIET):
            want = sl._times_two_to(base, k)
        assert gr.max_coeff_diff(got, want) <= 1e-14 * gr.max_abs(want)


@settings(max_examples=100, deadline=None)
@given(a=st.lists(st.integers(-1000, 1000), min_size=1, max_size=4),
       L=st.sampled_from([4, 6]), seed=st.integers(0, 2 ** 32 - 1))
def test_det_even_scales_by_powers_of_two_across_the_range(a, L, seed):
    # det_even(diag(2^a_i) M) = 2^(a_0 + ...) det_even(M), with the ranges
    # and the left-out binades of the sdet property above; sizes up to 4,
    # the Leibniz expansion, since from size 5 the pivot order follows the
    # row scales and the rounding with it
    rows = _dense_block(np.random.default_rng(seed), L, len(a))
    scaled = [[2.0 ** ai * x for x in r] for ai, r in zip(a, rows)]
    base, k = det_even(rows), sum(a)
    top = k + np.log2(gr.max_abs(base))
    assume(not 1023 <= top <= 1025)
    if top > 1025:
        with pytest.raises(GrassmannDomainError, match="overflows"):
            det_even(scaled)
        return
    got = det_even(scaled)
    assert all(np.isfinite(v) for v in got.terms.values())
    if top > -1021:
        with np.errstate(**sl._QUIET):
            want = sl._times_two_to(base, k)
        assert gr.max_coeff_diff(got, want) <= 1e-14 * gr.max_abs(want)


def test_det_even_of_rows_out_of_range_apart_is_that_of_sdet():
    # the Leibniz product 1e200 * 1e200 overflows, but the determinant is 1e100
    L = 2
    diag = (1e200, 1e200, 1e-300)
    rows = [[gr.scalar(L, diag[i]) if i == j else gr.zero(L) for j in range(3)]
            for i in range(3)]
    assert det_even(rows) == gr.scalar(L, 1e100)
    assert sdet(Supermatrix(3, 0, rows, L)) == gr.scalar(L, 1e100)


def test_times_two_to_is_exact_across_the_range():
    # one k per node, each beyond one float step of 2^+-1000; the partial
    # products of the first two stay between X and the result
    X = Supernumber(2, {0: np.array([2.0 ** -1000, 2.0 ** 1000, 3.0]),
                        0b11: np.array([2.0 ** -1020, 1.5, 1.0])})
    with np.errstate(**sl._QUIET):
        got = sl._times_two_to(X, np.array([1500, -1500, 0]))
    assert np.array_equal(got.body, [2.0 ** 500, 2.0 ** -500, 3.0])
    assert np.array_equal(got.coefficient(0b11), [2.0 ** 480, 0.0, 1.0])


def test_dense_products_of_one_sdet_and_one_inverse(monkeypatch):
    # the Neumann series made 48 and 24: T, then T^2 to T^5
    M = _dense_even_matrix(np.random.default_rng(47), 8, 2, 2)
    calls = count_dense_products(monkeypatch)
    sdet(M)
    assert len(calls) <= 28
    calls.clear()
    mat_inverse_even(M.block("B"))
    assert len(calls) <= 9


@pytest.mark.parametrize("m, n, sdet_count, inverse_count", [(3, 3, 190, 123),
                                                             (2, 4, 382, 331)])
def test_dense_products_of_one_sdet_with_a_large_b(m, n, sdet_count, inverse_count,
                                                   monkeypatch):
    # from n = 3, B^-1 is the Neumann series and det B a Leibniz expansion
    # apart from it, which a block Schur recursion would cut; the inverse
    # forms det B too, as the one range-keeping inverse gives both
    M = _dense_even_matrix(np.random.default_rng([m, n, 59]), 8, m, n)
    calls = count_dense_products(monkeypatch)
    sdet(M)
    assert len(calls) == sdet_count
    calls.clear()
    mat_inverse_even(M.block("B"))
    assert len(calls) == inverse_count


@pytest.mark.parametrize("rows", [[[1.0, 2.0]], [[1.0, 2.0], [3.0]]])
def test_mat_inverse_even_of_a_matrix_that_is_not_square_raises(rows):
    with pytest.raises(GrassmannError, match="needs a square matrix"):
        mat_inverse_even(rows)


def test_mat_inverse_even_of_a_small_block_with_odd_entries_is_two_sided():
    # odd entries do not commute, so the adjugate would not invert this
    # block; it takes the Neumann series
    L = 4
    s0, s1, s2, s3 = (gr.gen(L, i) for i in range(4))
    rows = [[2.0 + s0 * s1, s2], [s3, 1.0 + s2 * s3]]
    inv = mat_inverse_even(rows)
    ident = [[gr.one(L), gr.zero(L)], [gr.zero(L), gr.one(L)]]
    for product in (sl._mat_mul(rows, inv), sl._mat_mul(inv, rows)):
        _assert_each_close(product, ident, 1e-15)


# Bodies for the property below: random, rank-deficient (one row a multiple
# of another, or a zero row) and badly scaled (rows scaled by up to 1e+-300).
_SCALES = [1e-300, 1e-150, 1e-20, 1.0, 1e20, 1e150, 1e300]
_complex = st.complex_numbers(min_magnitude=0.25, max_magnitude=4.0, allow_nan=False,
                              allow_infinity=False)


@st.composite
def _body(draw, size):
    body = np.array([[draw(_complex) for _ in range(size)] for _ in range(size)])
    kind = draw(st.sampled_from(["random", "rank_deficient", "zero_row", "scaled"]))
    if size > 1 and kind == "rank_deficient":
        body[1] = draw(_complex) * body[0]
    elif size and kind == "zero_row":
        body[0] = 0.0
    elif kind == "scaled":
        body *= np.array([[draw(st.sampled_from(_SCALES))] for _ in range(size)])
    return body


def _overflow(L, parity):
    """Terms a product overflowed to inf: at the body and at s0s1 for an even
    entry, at s0 for an odd one."""
    masks = {"even": [0, 0b11], "odd": [0b1]}[parity]
    return [Supernumber(L, {mask: 1e300}) * Supernumber(L, {0: 1e300}) for mask in masks]


@st.composite
def _entry(draw, L, parity, body=0.0):
    """An entry: a soul of the given parity scaled by 1e-20, 1 or 1e20, a
    body, and with a small chance a term that overflowed to inf, or
    inf - inf = NaN, added."""
    soul = gr.soul(draw(supernumbers(L=L, parity=parity, max_terms=3)))
    x = draw(st.sampled_from(_SCALES[2:5])) * soul + complex(body)
    spoil = draw(st.sampled_from([None] * 20 + _overflow(L, parity)))
    if spoil is not None:
        x = x + (spoil - spoil if draw(st.booleans()) else spoil)
    return x


@st.composite
def _even_square(draw, size, L):
    body = draw(_body(size))
    return [[draw(_entry(L, "even", body[i, j])) for j in range(size)] for i in range(size)]


@st.composite
def _supermatrices(draw):
    m, n = draw(st.sampled_from([(0, 1), (1, 0), (1, 1), (0, 2), (2, 0), (1, 2), (2, 1),
                                 (2, 2)]))
    L = draw(st.integers(min_value=2, max_value=4))
    A, B = draw(_even_square(m, L)), draw(_even_square(n, L))
    C = [[draw(_entry(L, "odd")) for _ in range(n)] for _ in range(m)]
    D = [[draw(_entry(L, "odd")) for _ in range(m)] for _ in range(n)]
    return from_blocks(A, C, D, B, L=L)


@st.composite
def _antisymmetric(draw, size, L):
    body = draw(_body(size))
    rows = [[gr.zero(L)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            rows[i][j] = draw(_entry(L, "even", body[i, j]))
            rows[j][i] = -rows[i][j]
    return rows


def _finite_or_grassmann_error(fn, *args):
    try:
        out = fn(*args)
    except GrassmannError:
        return
    values = [out] if isinstance(out, Supernumber) else [e for row in out for e in row]
    assert all(gr._is_finite(v) for v in values)


@settings(max_examples=150)
@given(_supermatrices())
def test_sdet_is_finite_or_raises(M):
    _finite_or_grassmann_error(sdet, M)


@settings(max_examples=150)
@given(st.data())
def test_det_even_and_mat_inverse_even_are_finite_or_raise(data):
    size = data.draw(st.integers(min_value=1, max_value=4))
    rows = data.draw(_even_square(size, data.draw(st.integers(min_value=2, max_value=4))))
    _finite_or_grassmann_error(det_even, rows)
    _finite_or_grassmann_error(mat_inverse_even, rows)


@settings(max_examples=150)
@given(st.data())
def test_inverse_is_finite_or_raises(data):
    L = data.draw(st.integers(min_value=2, max_value=4))
    body = data.draw(_complex) * data.draw(st.sampled_from(_SCALES))
    _finite_or_grassmann_error(gr.inverse, data.draw(_entry(L, "even", body)))


@settings(max_examples=150)
@given(_supermatrices())
def test_sm_inverse_is_finite_or_raises(M):
    _finite_or_grassmann_error(lambda M: sm_inverse(M).rows, M)


@settings(max_examples=150)
@given(st.data())
def test_pfaffian_is_finite_or_raises(data):
    size = data.draw(st.integers(min_value=1, max_value=4))
    rows = data.draw(_antisymmetric(size, data.draw(st.integers(min_value=2, max_value=4))))
    _finite_or_grassmann_error(pfaffian, rows)


@st.composite
def _gaussian_matrices(draw):
    """Supermatrices of gaussian_super's shape: a symmetric even block whose
    body is positive definite before a row scale that may break it, an
    antisymmetric odd block and couplings with D = -C^T."""
    m, n = draw(st.sampled_from([(1, 0), (2, 0), (0, 2), (1, 1), (1, 2), (2, 2)]))
    L = draw(st.integers(min_value=2, max_value=4))
    root = np.array([[draw(_complex).real for _ in range(m)] for _ in range(m)]).reshape(m, m)
    body = (root @ root.T + np.eye(m)) * draw(st.sampled_from(_SCALES))
    A = [[None] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            A[i][j] = A[j][i] = draw(_entry(L, "even", body[i, j]))
    B = draw(_antisymmetric(n, L))
    C = [[draw(_entry(L, "odd")) for _ in range(n)] for _ in range(m)]
    D = [[-C[j][i] for j in range(m)] for i in range(n)]
    return from_blocks(A, C, D, B, L=L)


@settings(max_examples=150)
@given(_gaussian_matrices(), st.sampled_from([1e-320, *_SCALES, 1e308]))
def test_gaussian_super_is_finite_or_raises(M, lam):
    _finite_or_grassmann_error(gaussian_super, M, lam)


_SPECS = [AnalyticSpec.named(name) for name in ("exp", "log", "sin", "cos", "sqrt", "reciprocal")]
_SPECS += [AnalyticSpec.power(n) for n in (-3, 5)]


@settings(max_examples=150)
@given(st.data())
def test_apply_analytic_is_finite_or_raises(data):
    L = data.draw(st.integers(min_value=2, max_value=4))
    body = data.draw(_complex) * data.draw(st.sampled_from([0.0, *_SCALES]))
    spec = data.draw(st.sampled_from(_SPECS))
    _finite_or_grassmann_error(gr.apply_analytic, spec, data.draw(_entry(L, "even", body)))


def _matrix_pair(pair):
    return [e for M in pair for row in M.rows for e in row]


def test_sm_exp_of_an_overflowing_body_raises():
    # exp(1e200) is inf, and the squaring steps turn inf into NaN
    s0, s1 = gr.gen(2, 0), gr.gen(2, 1)
    with pytest.raises(GrassmannDomainError, match="overflows"):
        sm_exp(Supermatrix(1, 1, [[1e200, s0], [s1, 1.0]], L=2))


@pytest.mark.parametrize("c", [float("nan"), float("inf"), complex(1.0, -float("inf")),
                               np.array([1.0, float("nan")])])
def test_scale_by_a_non_finite_number_raises(c):
    M = random_supermatrix(np.random.default_rng(21), 1, 1, 2)
    with pytest.raises(GrassmannError, match="not finite"):
        M.scale(c)


@settings(max_examples=150)
@given(_supermatrices())
def test_sm_exp_is_finite_or_raises(M):
    _finite_or_grassmann_error(lambda M: sm_exp(M).rows, M)


@settings(max_examples=150)
@given(_supermatrices())
def test_diagonalize_generic_is_finite_or_raises(M):
    _finite_or_grassmann_error(lambda M: [_matrix_pair(diagonalize_generic(M))], M)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(1.0, float("-inf"))])
def test_numbers_entering_a_matrix_are_validated(bad):
    s0, s1 = gr.gen(2, 0), gr.gen(2, 1)
    with pytest.raises(GrassmannError):
        Supermatrix(1, 0, [[bad]])
    with pytest.raises(GrassmannError):
        Supermatrix(1, 1, [[bad, s0], [s1, 1.0]], L=2)
    with pytest.raises(GrassmannError):
        from_blocks([[1.0]], [[s0]], [[s1]], [[bad]])
    with pytest.raises(GrassmannError):
        det_even([[1.0, bad], [0.0, 1.0]])
