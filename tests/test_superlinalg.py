"""Supermatrices: supertrace, super-determinant, inverse, diagonalization, Pfaffian."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supercalc import grassmann as gr
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
)

from helpers import overflowed, random_supermatrix, random_supernumber, supernumbers


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
    # exactly 0); its Leibniz determinant is a rounding error.  sdet is
    # defined only where the B body is invertible, so those nodes raise, alone
    # and in the batch, and the other nodes as a batch match each node alone.
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


@settings(max_examples=150, deadline=None)
@given(_supermatrices())
def test_sdet_is_finite_or_raises(M):
    _finite_or_grassmann_error(sdet, M)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_det_even_and_mat_inverse_even_are_finite_or_raise(data):
    size = data.draw(st.integers(min_value=1, max_value=4))
    rows = data.draw(_even_square(size, data.draw(st.integers(min_value=2, max_value=4))))
    _finite_or_grassmann_error(det_even, rows)
    _finite_or_grassmann_error(mat_inverse_even, rows)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_inverse_is_finite_or_raises(data):
    L = data.draw(st.integers(min_value=2, max_value=4))
    body = data.draw(_complex) * data.draw(st.sampled_from(_SCALES))
    _finite_or_grassmann_error(gr.inverse, data.draw(_entry(L, "even", body)))


@settings(max_examples=150, deadline=None)
@given(_supermatrices())
def test_sm_inverse_is_finite_or_raises(M):
    _finite_or_grassmann_error(lambda M: sm_inverse(M).rows, M)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_pfaffian_is_finite_or_raises(data):
    size = data.draw(st.integers(min_value=1, max_value=4))
    rows = data.draw(_antisymmetric(size, data.draw(st.integers(min_value=2, max_value=4))))
    _finite_or_grassmann_error(pfaffian, rows)


_SPECS = [AnalyticSpec.named(name) for name in ("exp", "log", "sin", "cos", "sqrt", "reciprocal")]
_SPECS += [AnalyticSpec.power(n) for n in (-3, 5)]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_apply_analytic_is_finite_or_raises(data):
    L = data.draw(st.integers(min_value=2, max_value=4))
    body = data.draw(_complex) * data.draw(st.sampled_from([0.0, *_SCALES]))
    spec = data.draw(st.sampled_from(_SPECS))
    _finite_or_grassmann_error(gr.apply_analytic, spec, data.draw(_entry(L, "even", body)))
