"""Berezin integration: odd integrals, mixed naive/path integrals, Gaussians."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings

from supercalc.grassmann import (
    AnalyticSpec,
    GrassmannDomainError,
    GrassmannError,
    Supernumber,
    apply_analytic,
    gen,
    inverse,
    make,
    max_abs,
    one,
    scalar,
    shift_generators,
    zero,
)
from supercalc.superlinalg import Supermatrix, from_blocks
from supercalc.superspace import (
    NumericBodyFunction,
    SuperFunction,
    SuperMap,
    SuperPoint,
    expr_body,
    identity_map,
    invert_map,
)
from supercalc.berezin import (
    DEFAULT_QUAD,
    FSMPath,
    GaussQuadSpec,
    OddPolynomial,
    PulledBack,
    QuadratureError,
    gaussian_body_moment,
    gaussian_super,
    hubbard_stratonovich_check,
    integrate_fsm,
    integrate_naive,
    integrate_odd,
    naive_cvf_discrepancy,
    odd_expand,
    quad_box,
    susy_localize,
)
from supercalc import berezin
from supercalc.berezin import _gauss_legendre, _grid_point, _tensor_quad, _top
from supercalc.fourier_odd import GaussPolyBody, OddFourierConfig, mixed_transform

from helpers import close, overflowed, random_supernumber, supernumbers

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# oracles (written before the code under test is exercised)
# ---------------------------------------------------------------------------

def gaussian_quadrature_oracle(M: Supermatrix, lam: float,
                               halfwidth: float, nodes: int) -> Supernumber:
    """Evaluate the super-Gaussian by brute force: at each body node build the
    full vector X = (x, theta) with fresh generators for the odd slots, form
    <X, M X> entry by entry, exponentiate in the algebra, integrate the odd
    pair by expansion (ascending measure), and only then run the body
    quadrature.  No determinant, Pfaffian, or completion of squares."""
    m, n, La = M.m, M.n, M.L
    blocks = {
        "A": M.block("A"), "C": M.block("C"),
        "D": M.block("D"), "B": M.block("B"),
    }

    def ent(i, j):
        if i < m and j < m:
            return blocks["A"][i][j]
        if i < m:
            return blocks["C"][i][j - m]
        if j < m:
            return blocks["D"][i - m][j]
        return blocks["B"][i - m][j - m]

    order = tuple(range(1, n + 1))

    def fn(q):
        def inner(rho):
            Lw = rho[0].L if n else max(La, 1)
            X = [scalar(Lw, complex(c)) for c in q] + list(rho)
            quad = zero(Lw)
            for i in range(m + n):
                for j in range(m + n):
                    quad = quad + X[i] * ent(i, j).embed(Lw) * X[j]
            return apply_analytic(AnalyticSpec.named("exp"), (-0.5 / lam) * quad)

        return integrate_odd(odd_expand(inner, n, La), order=order)

    spec = GaussQuadSpec(nodes=nodes, richardson_tol=1e-6, rmax=halfwidth)
    return quad_box(fn, [(-halfwidth, halfwidth)] * m, spec)


def moment_quadrature_oracle(gamma: float, beta, n: int,
                             nodes: int = 96) -> Supernumber:
    """Brute-force x^n exp(-gamma x^2/2 + beta x) over a wide interval, with
    the exponential taken in the algebra so soul-valued shifts are covered."""
    if not isinstance(beta, Supernumber):
        beta = Supernumber(0, {0: complex(beta)})
    L = beta.L
    hw = 14.0 / math.sqrt(gamma)

    def fn(q):
        x = q[0]
        arg = scalar(L, -0.5 * gamma * x * x) + x * beta
        return (x ** n) * apply_analytic(AnalyticSpec.named("exp"), arg)

    return quad_box(fn, [(-hw, hw)], GaussQuadSpec(nodes=nodes, richardson_tol=1e-6, rmax=hw))


def boundary_term_oracle(f, lo: float, hi: float, nodes: int = 48) -> complex:
    """Integral of d/dq f(q) over (lo, hi) via central finite differences and
    quadrature; independent of any exact-derivative machinery."""
    h = 1e-5

    def dfn(q):
        return (f(q[0] + h) - f(q[0] - h)) / (2 * h)

    return quad_box(dfn, [(lo, hi)], GaussQuadSpec(nodes=nodes, richardson_tol=1e-5, rmax=hi))


def product_poly(factors, n, ambient_L):
    """Multiply OddPolynomials by evaluating on fresh generators and
    re-expanding; keeps product tests independent of any product method."""
    def fn(rho):
        acc = one(rho[0].L if rho else max(ambient_L, 1))
        for f in factors:
            acc = acc * (f.evaluate(rho) if isinstance(f, OddPolynomial) else f.embed(acc.L))
        return acc

    return odd_expand(fn, n, ambient_L)


# ---------------------------------------------------------------------------
# shared fixtures
# ---------------------------------------------------------------------------

def E1(s):
    return expr_body(s, 1)


def E2(s):
    return expr_body(s, 2)


def mixed_random(rng, L):
    return (random_supernumber(rng, L, "even")
            + random_supernumber(rng, L, "odd"))


def counterexample_data():
    """The pinned 1|2 example: u = q + theta_1 theta_2 on (0,1), and the
    nilpotent shear x = q(1 + theta_1 theta_2) that moves mass through the
    boundary."""
    u = SuperFunction(1, 2, {0: E1("q1"), 0b11: E1("1")})
    phi = SuperMap((1, 2), (1, 2), [
        SuperFunction(1, 2, {0: E1("q1"), 0b11: E1("q1")}),
        SuperFunction(1, 2, {0b01: E1("1")}),
        SuperFunction(1, 2, {0b10: E1("1")}),
    ])
    return u, phi, [(0.0, 1.0)]


def lac_pair():
    """Mutually inverse (2|2) changes diagonalizing the pinned quadratic form:
    the forward map is polynomial, the backward one rational with denominator
    q1 - i q2."""
    forward = SuperMap((2, 2), (2, 2), [
        SuperFunction(2, 2, {0: E2("q1"), 0b11: E2("q1 - 1j*q2")}),
        SuperFunction(2, 2, {0: E2("q2"), 0b11: E2("-1j*(q1 - 1j*q2)")}),
        SuperFunction(2, 2, {0b01: E2("q1 - 1j*q2")}),
        SuperFunction(2, 2, {0b10: E2("-(q1 - 1j*q2)")}),
    ])
    backward = SuperMap((2, 2), (2, 2), [
        SuperFunction(2, 2, {0: E2("q1"), 0b11: E2("1/(q1 - 1j*q2)")}),
        SuperFunction(2, 2, {0: E2("q2"), 0b11: E2("-1j/(q1 - 1j*q2)")}),
        SuperFunction(2, 2, {0b01: E2("1/(q1 - 1j*q2)")}),
        SuperFunction(2, 2, {0b10: E2("-1/(q1 - 1j*q2)")}),
    ])
    return forward, backward


def normalized_gaussian_22():
    """(1/2pi) exp(-(q1^2 + q2^2 + 2 theta_1 theta_2)) expanded in the odd
    pair; its mixed integral with ascending odd measure is exactly 1."""
    pref = repr(1.0 / TWO_PI)
    return SuperFunction(2, 2, {
        0: E2(f"exp(-(q1^2+q2^2)) * {pref}"),
        0b11: E2(f"-2*exp(-(q1^2+q2^2)) * {pref}"),
    })


def exp_decay_spec(rate: float) -> AnalyticSpec:
    return AnalyticSpec.custom(lambda k, z: (-rate) ** k * cmath.exp(-rate * z))


# ---------------------------------------------------------------------------
# quadrature plumbing
# ---------------------------------------------------------------------------

def test_quad_box_polynomial_exact():
    val = quad_box(lambda q: q[0] ** 2 * q[1] + 3.0, [(0, 1), (0, 1)],
                   GaussQuadSpec(nodes=6))
    assert abs(val - (1 / 6 + 3.0)) < 1e-13


def test_quad_box_flags_unresolved_needle():
    with pytest.raises(QuadratureError):
        quad_box(lambda q: math.exp(-200.0 * (q[0] - 0.3) ** 2), [(0, 1)],
                 GaussQuadSpec(nodes=3))


def test_quad_spec_rejects_degenerate_rule():
    with pytest.raises(GrassmannError):
        GaussQuadSpec(nodes=1)


def test_quad_box_supports_algebra_values():
    g = gen(1, 0)
    val = quad_box(lambda q: scalar(1, q[0]) + q[0] ** 2 * g, [(0, 1)],
                   GaussQuadSpec(nodes=8))
    assert max_abs(val - (scalar(1, 0.5) + (1.0 / 3.0) * g)) < 1e-13


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_quad_box_rejects_non_finite_values(bad):
    with pytest.raises(QuadratureError):
        quad_box(lambda q: bad, [(0, 1)], GaussQuadSpec(nodes=4))


def test_quad_box_rejects_nan_on_the_coarse_grid_alone():
    # the 3-node rule has a node at the midpoint, the 6-node rule does not,
    # so the doubling check alone would compare nan with 1
    with pytest.raises(QuadratureError):
        quad_box(lambda q: math.nan if q[0] == 0.5 else 1.0, [(0, 1)],
                 GaussQuadSpec(nodes=3))


# ---------------------------------------------------------------------------
# odd polynomials
# ---------------------------------------------------------------------------

def test_odd_polynomial_evaluate_matches_direct_products():
    L = 4
    rng = np.random.default_rng(0)
    cs = {m: mixed_random(rng, 2) for m in range(4)}
    v = OddPolynomial(2, cs)
    t1 = shift_generators(gen(2, 0), 2, L)
    t2 = shift_generators(gen(2, 1), 2, L)
    direct = (cs[0].embed(L) + t1 * cs[1].embed(L) + t2 * cs[2].embed(L)
              + t1 * t2 * cs[3].embed(L))
    assert max_abs(v.evaluate((t1, t2)) - direct) < 1e-14


def test_odd_polynomial_partials_anticommute_and_square_to_zero():
    rng = np.random.default_rng(1)
    v = OddPolynomial(3, {m: mixed_random(rng, 2) for m in range(8)})
    for s in range(3):
        assert not v.partial(s).partial(s).coefficients
    ab = v.partial(0).partial(1)
    ba = v.partial(1).partial(0)
    for mask in range(8):
        diff = ab.coefficients.get(mask, zero(2)) + ba.coefficients.get(mask, zero(2))
        assert max_abs(diff) < 1e-14


def test_odd_polynomial_rejects_out_of_range_mask():
    with pytest.raises(GrassmannError):
        OddPolynomial(2, {4: one(0)})
    with pytest.raises(GrassmannError):
        OddPolynomial(2, {0: one(0)}).partial(2)


def test_odd_polynomial_parity_classification():
    s = gen(2, 0)
    assert OddPolynomial(2, {0b11: one(0), 0: one(0)}).parity == "even"
    assert OddPolynomial(2, {0b01: one(0)}).parity == "odd"
    assert OddPolynomial(2, {0b01: s}).parity == "even"
    assert OddPolynomial(2, {0b01: one(2), 0b11: one(2)}).parity == "mixed"


def test_odd_expand_round_trips_polynomial():
    rng = np.random.default_rng(2)
    v = OddPolynomial(2, {m: mixed_random(rng, 2) for m in range(4)})
    w = odd_expand(lambda rho: v.evaluate(rho), 2, 2)
    assert set(w.coefficients) == set(v.coefficients)
    for mask, c in v.coefficients.items():
        assert max_abs(w.coefficients[mask] - c) < 1e-14


def test_odd_expand_rejects_leaked_generators():
    with pytest.raises(GrassmannError):
        odd_expand(lambda rho: gen(5, 4), 2, 2)


# ---------------------------------------------------------------------------
# purely odd integration
# ---------------------------------------------------------------------------

def test_integrate_odd_top_monomial_is_one():
    v = OddPolynomial(2, {0b11: one(0)})
    assert close(integrate_odd(v).body, 1.0)


def test_integrate_odd_kills_lower_monomials():
    v = OddPolynomial(2, {0: scalar(0, 3.5), 0b01: one(0), 0b10: scalar(0, -2j)})
    assert integrate_odd(v).is_zero()


def test_integrate_odd_scaled_generators():
    # theta_1 -> 2 omega_1, theta_2 -> 3 omega_2 rescales the integral by the
    # determinant of the diagonal change
    v = odd_expand(lambda rho: (2.0 * rho[0]) * (3.0 * rho[1]), 2, 0)
    assert close(integrate_odd(v).body, 6.0)


def test_integrate_odd_ascending_order_flips_sign():
    v = OddPolynomial(2, {0b11: one(0)})
    assert close(integrate_odd(v, order=(1, 2)).body, -1.0)
    assert close(integrate_odd(v, order=(2, 1)).body, 1.0)


def test_integrate_odd_order_must_be_permutation():
    v = OddPolynomial(2, {0b11: one(0)})
    with pytest.raises(GrassmannError):
        integrate_odd(v, order=(1, 1))
    with pytest.raises(GrassmannError):
        integrate_odd(v, order=(1, 2, 3))


def test_integrate_odd_no_variables_is_identity():
    c = scalar(2, 1.5) + gen(2, 0) * gen(2, 1)
    v = OddPolynomial(0, {0: c})
    assert max_abs(integrate_odd(v) - c) < 1e-14


def test_integrate_odd_three_variables_signs():
    v = OddPolynomial(3, {0b111: one(0)})
    assert close(integrate_odd(v).body, 1.0)
    assert close(integrate_odd(v, order=(1, 2, 3)).body, -1.0)
    assert close(integrate_odd(v, order=(2, 1, 3)).body, 1.0)


# ---------------------------------------------------------------------------
# naive mixed integral
# ---------------------------------------------------------------------------

def test_naive_integral_pinned_unit_value():
    u, _, box = counterexample_data()
    assert close(integrate_naive(u, box).body, 1.0, tol=1e-12)


def test_naive_integral_pinned_half_value():
    u = SuperFunction(1, 2, {0: E1("sin(q1)"), 0b11: E1("q1")})
    assert close(integrate_naive(u, [(0.0, 1.0)]).body, 0.5, tol=1e-12)


def test_naive_integral_ignores_lower_coefficients():
    base = SuperFunction(1, 2, {0b11: E1("q1")})
    dressed = SuperFunction(1, 2, {
        0: E1("q1^2"), 0b01: E1("sin(q1)"), 0b10: E1("3"), 0b11: E1("q1"),
    })
    a = integrate_naive(base, [(0.0, 1.0)])
    b = integrate_naive(dressed, [(0.0, 1.0)])
    assert max_abs(a - b) < 1e-13


def test_naive_integral_checks_box_arity():
    u, _, _ = counterexample_data()
    with pytest.raises(GrassmannError):
        integrate_naive(u, [(0, 1), (0, 1)])


def test_naive_integral_fubini():
    # integrating the odd pair first at every point agrees with integrating
    # each coefficient function over the box and then taking the odd integral
    box = [(0.0, 1.0)]
    coeffs = {0: "q1^2", 0b01: "sin(q1)", 0b10: "q1", 0b11: "exp(q1)"}
    u = SuperFunction(1, 2, {m: E1(s) for m, s in coeffs.items()})
    mixed = integrate_naive(u, box)
    body_first = OddPolynomial(2, {
        m: Supernumber(0, {0: quad_box(lambda q, s=s: E1(s).value(q), box, DEFAULT_QUAD)})
        for m, s in coeffs.items()
    })
    assert max_abs(mixed - integrate_odd(body_first)) < 1e-12


# ---------------------------------------------------------------------------
# change-of-variables discrepancy of the naive integral
# ---------------------------------------------------------------------------

def test_discrepancy_vanishes_for_boundary_supported_data():
    u = SuperFunction(1, 2, {0: E1("exp(-1/(q1*(1-q1)))"), 0b11: E1("1")})
    _, phi, box = counterexample_data()
    d = naive_cvf_discrepancy(phi, u, box)
    assert max_abs(d) < 1e-10


def test_discrepancy_is_negated_boundary_term():
    u, phi, box = counterexample_data()
    d = naive_cvf_discrepancy(phi, u, box)
    # independent boundary-term evaluation: d/dq of (shear profile * bottom
    # coefficient) = d/dq (q * q) integrated over (0,1)
    boundary = boundary_term_oracle(lambda q: q * q, 0.0, 1.0)
    assert abs(boundary - 1.0) < 1e-9
    assert max_abs(d + boundary) < 1e-9
    assert close(d.body, -1.0, tol=1e-10)


def test_discrepancy_zero_for_identity():
    u, _, box = counterexample_data()
    d = naive_cvf_discrepancy(identity_map(1, 2), u, box)
    assert max_abs(d) < 1e-13


# ---------------------------------------------------------------------------
# path integrals
# ---------------------------------------------------------------------------

def test_fsm_on_identity_path_matches_naive():
    u = SuperFunction(1, 2, {
        0: E1("sin(q1)+2"), 0b01: E1("q1"), 0b10: E1("1"), 0b11: E1("q1^2+1"),
    })
    box = ((0.0, 1.0),)
    path = FSMPath(box, identity_map(1, 2))
    a = integrate_fsm(path, u)
    b = integrate_naive(u, box)
    assert max_abs(a - b) < 1e-12


def test_fsm_pinned_counterexample_resolves_to_one():
    u, phi, box = counterexample_data()
    # straight path: the integral is 1
    straight = integrate_fsm(FSMPath(tuple(box), identity_map(1, 2)), u)
    assert close(straight.body, 1.0, tol=1e-12)
    # transported path (the inverse shear) with the pulled-back integrand:
    # also 1, so the path formulation removes the discrepancy
    tilted = SuperMap((1, 2), (1, 2), [
        SuperFunction(1, 2, {0: E1("q1"), 0b11: E1("-q1")}),
        SuperFunction(1, 2, {0b01: E1("1")}),
        SuperFunction(1, 2, {0b10: E1("1")}),
    ])
    moved = integrate_fsm(FSMPath(tuple(box), tilted), PulledBack(phi, u))
    assert close(moved.body, 1.0, tol=1e-12)


def test_fsm_reparametrization_invariance():
    # same superdomain traced twice: identity on (1, 2.25) versus q -> q^2
    # with a constant invertible mix of the odd parameters on (1, 1.5)
    u = SuperFunction(1, 2, {
        0: E1("sin(q1)"), 0b01: E1("q1"), 0b10: E1("2"), 0b11: E1("q1^2+1"),
    })
    straight = FSMPath(((1.0, 2.25),), identity_map(1, 2))
    curved = FSMPath(((1.0, 1.5),), SuperMap((1, 2), (1, 2), [
        SuperFunction(1, 2, {0: E1("q1^2")}),
        SuperFunction(1, 2, {0b01: E1("2"), 0b10: E1("1")}),
        SuperFunction(1, 2, {0b10: E1("3")}),
    ]))
    q8 = GaussQuadSpec(nodes=8)
    a = integrate_fsm(straight, u, q8)
    b = integrate_fsm(curved, u, q8)
    assert max_abs(a - b) < 1e-12


def test_fsm_rejects_body_singular_path():
    flat = SuperMap((1, 2), (1, 2), [
        SuperFunction(1, 2, {0: E1("1")}),
        SuperFunction(1, 2, {0b01: E1("1")}),
        SuperFunction(1, 2, {0b10: E1("1")}),
    ])
    u, _, box = counterexample_data()
    with pytest.raises(GrassmannDomainError):
        integrate_fsm(FSMPath(tuple(box), flat), u)


def test_fsm_path_shape_validation():
    with pytest.raises(GrassmannError):
        FSMPath(((0.0, 1.0),), identity_map(2, 2))
    bad = SuperMap((1, 2), (2, 2), [
        SuperFunction(1, 2, {0: E1("q1")}),
        SuperFunction(1, 2, {0: E1("q1")}),
        SuperFunction(1, 2, {0b01: E1("1")}),
        SuperFunction(1, 2, {0b10: E1("1")}),
    ])
    with pytest.raises(GrassmannError):
        FSMPath(((0.0, 1.0),), bad)


def test_change_of_variables_holds_under_path_transport():
    # transporting the path with phi^{-1} while pulling the integrand back
    # through phi reproduces the original integral exactly (chain rule makes
    # the two q-integrands agree pointwise); polynomial data keeps the
    # quadrature exact
    forward, backward = lac_pair()
    u = SuperFunction(2, 2, {
        0: E2("q1^2"), 0b01: E2("q2"), 0b10: E2("1"), 0b11: E2("q1*q2 + 2"),
    })
    box = ((1.0, 2.0), (0.5, 1.5))
    q8 = GaussQuadSpec(nodes=8)
    lhs = integrate_fsm(FSMPath(box, identity_map(2, 2)), u, q8)
    rhs = integrate_fsm(FSMPath(box, backward), PulledBack(forward, u), q8)
    assert max_abs(lhs - rhs) < 1e-9


# ---------------------------------------------------------------------------
# the pinned 2|2 Gaussian: direct, diagonalized, and transported
# ---------------------------------------------------------------------------

def test_normalized_gaussian_direct_value():
    u = normalized_gaussian_22()
    val = integrate_naive(u, [(-4.6, 4.6)] * 2, odd_order=(1, 2))
    assert close(val.body, 1.0, tol=1e-7)


def test_normalized_gaussian_diagonalizing_path_loses_the_mass():
    # composing with the nilpotent-rational diagonalization makes the
    # integrand exactly e^{-|q|^2}/(2 pi) with no top coefficient, so the
    # single-path value collapses to 0 instead of 1
    forward, _ = lac_pair()
    u = normalized_gaussian_22()
    val = integrate_fsm(FSMPath(((-4.2, 4.2),) * 2, forward), u,
                        GaussQuadSpec(nodes=16), odd_order=(1, 2))
    assert max_abs(val) < 1e-12


def test_normalized_gaussian_transported_pair_restores_the_value():
    # the resolution: move the path with the inverse change AND pull the
    # integrand back through the forward change; the q-integrand then equals
    # the original one pointwise and the value 1 returns
    forward, backward = lac_pair()
    u = normalized_gaussian_22()
    val = integrate_fsm(FSMPath(((-4.2, 4.2),) * 2, backward),
                        PulledBack(forward, u),
                        GaussQuadSpec(nodes=20), odd_order=(1, 2))
    assert close(val.body, 1.0, tol=1e-7)


# ---------------------------------------------------------------------------
# Gaussian closed forms
# ---------------------------------------------------------------------------

def test_gaussian_super_pure_odd_pinned():
    M = from_blocks([], [], [[], []],
                    [[zero(0), one(0)], [-1.0 * one(0), zero(0)]])
    val = gaussian_super(M, 0.5)
    assert close(val.body, 2.0)
    # cross-check by expansion: exp(-2 rho_1 rho_2) integrated ascending
    direct = integrate_odd(
        odd_expand(lambda r: apply_analytic(AnalyticSpec.named("exp"),
                                            -2.0 * (r[0] * r[1])), 2, 0),
        order=(1, 2))
    assert max_abs(val - direct) < 1e-13


def test_gaussian_super_reproduces_normalized_gaussian():
    I2 = [[one(0), zero(0)], [zero(0), one(0)]]
    Z = [[zero(0), zero(0)], [zero(0), zero(0)]]
    M = from_blocks(I2, Z, Z, [[zero(0), one(0)], [-1.0 * one(0), zero(0)]])
    val = gaussian_super(M, 0.5)
    assert close(val.body / TWO_PI, 1.0)


def test_gaussian_super_decoupled_blocks_factorize():
    L = 2
    s12 = gen(L, 0) * gen(L, 1)
    Ae = [[scalar(L, 1.3) + 0.1 * s12, scalar(L, 0.2)],
          [scalar(L, 0.2), scalar(L, 0.9) - 0.05 * s12]]
    b = scalar(L, 0.8) + 0.2 * s12
    Bo = [[zero(L), b], [-1.0 * b, zero(L)]]
    Z2 = [[zero(L), zero(L)], [zero(L), zero(L)]]
    whole = gaussian_super(from_blocks(Ae, Z2, Z2, Bo), 1.2)
    even_only = gaussian_super(from_blocks(Ae, [[], []], [], []), 1.2)
    odd_only = gaussian_super(from_blocks([], [], [[], []], Bo), 1.2)
    assert max_abs(whole - even_only * odd_only) < 1e-12


def test_gaussian_super_odd_dimension_vanishes():
    M1 = from_blocks([], [], [[]], [[zero(0)]])
    assert gaussian_super(M1, 1.0).is_zero()
    r = np.random.default_rng(2).uniform(-1, 1, (3, 3))
    anti = r - r.T
    B3 = [[scalar(0, anti[i][j]) for j in range(3)] for i in range(3)]
    M3 = from_blocks([], [], [[], [], []], B3)
    assert gaussian_super(M3, 1.0).is_zero()


def test_gaussian_super_matches_quadrature_oracle():
    L = 2
    g0, g1 = gen(L, 0), gen(L, 1)
    s12 = g0 * g1
    rng = np.random.default_rng(11)
    P = rng.uniform(-0.1, 0.1, (2, 2))
    sym = (P + P.T) / 2
    Ab = np.eye(2) + sym
    A = [[scalar(L, Ab[i][j]) + (0.12 * s12 if i == j else 0.05 * s12)
          for j in range(2)] for i in range(2)]
    b = scalar(L, 1.1) + 0.3 * s12
    B = [[zero(L), b], [-1.0 * b, zero(L)]]
    C = [[0.4 * g0 + 0.1 * g1, -0.2 * g0 + 0.3 * g1],
         [0.15 * g0 - 0.25 * g1, 0.05 * g0 + 0.2 * g1]]
    D = [[-1.0 * C[j][s] for j in range(2)] for s in range(2)]
    M = from_blocks(A, C, D, B)
    closed = gaussian_super(M, 0.9)
    oracle = gaussian_quadrature_oracle(M, 0.9, halfwidth=8.0, nodes=40)
    assert max_abs(closed - oracle) < 1e-8


def test_gaussian_super_validates_inputs():
    with pytest.raises(GrassmannDomainError):
        gaussian_super(from_blocks([[one(0)]], [[]], [], []), 0.0)
    bad_sym = from_blocks([[one(0), scalar(0, 0.5)], [zero(0), one(0)]],
                          [[], []], [], [])
    with pytest.raises(GrassmannDomainError):
        gaussian_super(bad_sym, 1.0)
    neg = from_blocks([[scalar(0, -1.0)]], [[]], [], [])
    with pytest.raises(GrassmannDomainError):
        gaussian_super(neg, 1.0)
    not_anti = from_blocks([], [], [[], []],
                           [[zero(0), one(0)], [one(0), zero(0)]])
    with pytest.raises(GrassmannDomainError):
        gaussian_super(not_anti, 1.0)
    L = 2
    s12 = gen(L, 0) * gen(L, 1)
    soul_sing = from_blocks([], [], [[], []],
                            [[zero(L), s12], [-1.0 * s12, zero(L)]])
    with pytest.raises(GrassmannDomainError):
        gaussian_super(soul_sing, 1.0)
    g0 = gen(1, 0)
    mismatched = from_blocks([[one(1), zero(1)], [zero(1), one(1)]],
                             [[g0, zero(1)], [zero(1), zero(1)]],
                             [[g0, zero(1)], [zero(1), zero(1)]],
                             [[zero(1), one(1)], [-1.0 * one(1), zero(1)]])
    with pytest.raises(GrassmannDomainError):
        gaussian_super(mismatched, 1.0)


@pytest.mark.parametrize("n", [2, 4])
def test_gaussian_super_of_a_small_odd_block_scales_as_its_pfaffian(n):
    # det of the odd body is s^n det(B0) < 1e-12 at s = 1e-7, but the block is
    # regular relative to its scale: the value is s^{n/2} times the unscaled one
    L, s = 2, 1e-7
    s12 = gen(L, 0) * gen(L, 1)
    r = np.random.default_rng(n).uniform(-1, 1, (n, n))
    anti = r - r.T + np.diag(np.ones(n - 1), 1) - np.diag(np.ones(n - 1), -1)
    B0 = [[scalar(L, anti[i][j]) + (0.2 * (j - i)) * s12 for j in range(n)] for i in range(n)]
    none = [[] for _ in range(n)]
    unscaled = gaussian_super(from_blocks([], [], none, B0), 0.8)
    scaled = gaussian_super(from_blocks([], [], none, [[s * e for e in row] for row in B0]), 0.8)
    want = s ** (n // 2) * unscaled
    assert max_abs(scaled - want) <= 1e-14 * max_abs(want)


@pytest.mark.parametrize("c", [1e200, 1e-200])
def test_gaussian_super_of_an_odd_block_far_from_unit_scale(c):
    # det of the odd body is inf (or 0) in floating point, and its row norms
    # overflow (or underflow), but the block is regular: the value is its
    # Pfaffian c over lam
    lam = 0.8
    M = from_blocks([], [], [[], []], [[zero(0), scalar(0, c)], [scalar(0, -c), zero(0)]])
    assert close(gaussian_super(M, lam).body / (c / lam), 1.0)


# ---------------------------------------------------------------------------
# shifted body Gaussian moments
# ---------------------------------------------------------------------------

def test_moment_unshifted_normalization():
    assert close(gaussian_body_moment(1.0, 0.0, 0).body, math.sqrt(TWO_PI))


def test_moment_second_order_pinned():
    assert close(gaussian_body_moment(1.0, 0.0, 2).body, math.sqrt(TWO_PI))


def test_moment_soul_shift_exact():
    s12 = gen(2, 0) * gen(2, 1)
    val = gaussian_body_moment(1.0, s12, 1)
    assert max_abs(val - math.sqrt(TWO_PI) * s12) < 1e-14


def test_moment_matches_quadrature_oracle():
    s12 = gen(2, 0) * gen(2, 1)
    for gamma in (1.0, 2.5):
        for beta in (0.0, 0.4, 0.3 - 0.2j, 0.25 + 0.1 * s12):
            for n in range(5):
                closed = gaussian_body_moment(gamma, beta, n)
                oracle = moment_quadrature_oracle(gamma, beta, n)
                assert max_abs(closed - oracle) < 1e-8


def test_moment_rejects_bad_parameters():
    with pytest.raises(GrassmannDomainError):
        gaussian_body_moment(0.0, 0.0, 0)
    with pytest.raises(GrassmannDomainError):
        gaussian_body_moment(1.0, gen(1, 0), 0)
    with pytest.raises(GrassmannError):
        gaussian_body_moment(1.0, 0.0, -1)


# ---------------------------------------------------------------------------
# quadratic linearization identity
# ---------------------------------------------------------------------------

def test_linearization_residual_zero_matrix():
    Z = from_blocks([[zero(0)]], [[zero(0)]], [[zero(0)]], [[zero(0)]])
    res = hubbard_stratonovich_check(Z)
    assert max_abs(res) < 1e-12


def test_linearization_pinned_scalar_value():
    A = from_blocks([[one(0)]], [[zero(0)]], [[zero(0)]], [[zero(0)]])
    res = hubbard_stratonovich_check(A)
    assert max_abs(res) < 1e-12
    # independent reconstruction of the right-hand side for this matrix: two
    # scalar quadratures and an exact odd pair give exp(-1/2)
    q48 = GaussQuadSpec(nodes=48, rmax=9.0)
    even1 = quad_box(lambda x: cmath.exp(-0.5 * x[0] ** 2 + 1j * x[0]), [(-9, 9)], q48)
    even2 = quad_box(lambda x: cmath.exp(-0.5 * x[0] ** 2), [(-9, 9)], q48)
    odd_pair = integrate_odd(
        odd_expand(lambda r: apply_analytic(AnalyticSpec.named("exp"),
                                            -1.0 * (r[0] * r[1])), 2, 0),
        order=(1, 2))
    rhs = even1 * even2 * odd_pair.body / TWO_PI
    assert abs(rhs - math.exp(-0.5)) < 1e-10


def test_linearization_residual_with_soul_entries():
    L = 2
    g0, g1 = gen(L, 0), gen(L, 1)
    s12 = g0 * g1
    A = from_blocks([[scalar(L, 0.6) + 0.2 * s12]],
                    [[0.7 * g0]],
                    [[0.3 * g0 - 0.4 * g1]],
                    [[scalar(L, -0.4 + 0.1j)]])
    assert max_abs(hubbard_stratonovich_check(A, J=1.1, N=1.4)) < 1e-8


def test_linearization_residual_opposite_sign_route():
    L = 2
    g0, g1 = gen(L, 0), gen(L, 1)
    A = from_blocks([[scalar(L, 0.6) + 0.2 * g0 * g1]],
                    [[0.7 * g0]],
                    [[0.3 * g0 - 0.4 * g1]],
                    [[scalar(L, -0.4 + 0.1j)]])
    assert max_abs(hubbard_stratonovich_check(A, J=0.8, N=2.0, sign=-1)) < 1e-8


def test_linearization_residual_random_entries():
    rng = np.random.default_rng(23)
    L = 2
    for _ in range(4):
        a = random_supernumber(rng, L, "even")
        b = random_supernumber(rng, L, "even")
        t1 = random_supernumber(rng, L, "odd")
        t2 = random_supernumber(rng, L, "odd")
        A = from_blocks([[a]], [[t1]], [[t2]], [[b]])
        J = float(rng.uniform(0.7, 1.4))
        N = float(rng.uniform(0.8, 2.2))
        assert max_abs(hubbard_stratonovich_check(A, J=J, N=N)) < 1e-8


def test_linearization_rejects_bad_shapes():
    M = from_blocks([[one(0), zero(0)], [zero(0), one(0)]],
                    [[zero(0)], [zero(0)]], [[zero(0), zero(0)]], [[zero(0)]])
    with pytest.raises(GrassmannError):
        hubbard_stratonovich_check(M)
    A = from_blocks([[one(0)]], [[zero(0)]], [[zero(0)]], [[zero(0)]])
    with pytest.raises(GrassmannError):
        hubbard_stratonovich_check(A, sign=2)


# ---------------------------------------------------------------------------
# localization of isotropic integrands
# ---------------------------------------------------------------------------

def test_localization_pinned_unit_rate():
    val = susy_localize(exp_decay_spec(1.0), 1.0)
    assert close(val.body, 4 * math.pi, tol=1e-9)


def test_localization_pinned_double_rate():
    val = susy_localize(exp_decay_spec(2.0), 2.0)
    assert close(val.body, 2 * math.pi, tol=1e-9)


def test_localization_vanishing_at_origin():
    # s e^{-s} vanishes at s = 0, so the localized value is 0
    spec = AnalyticSpec.custom(
        lambda k, z: (-1) ** k * (z - k) * cmath.exp(-z))
    assert max_abs(susy_localize(spec, 1.0)) < 1e-9


def test_localization_general_rate_and_weight():
    val = susy_localize(exp_decay_spec(1.3), 1.7)
    assert close(val.body, 4 * math.pi / 1.7, tol=1e-9)


def test_localization_requires_decay():
    slow = AnalyticSpec.custom(
        lambda k, z: math.factorial(k) * (-1) ** k * (1.0 + z) ** (-k - 1))
    with pytest.raises(GrassmannDomainError):
        susy_localize(slow, 1.0)
    with pytest.raises(GrassmannDomainError):
        susy_localize(exp_decay_spec(1.0), -1.0)


# ---------------------------------------------------------------------------
# structural identities of the odd integral
# ---------------------------------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(c0=supernumbers(L=2), c1=supernumbers(L=2), c2=supernumbers(L=2),
       c3=supernumbers(L=2), r1=supernumbers(L=2, parity="odd"),
       r2=supernumbers(L=2, parity="odd"))
def test_odd_integral_translation_invariance(c0, c1, c2, c3, r1, r2):
    v = OddPolynomial(2, {0: c0, 0b01: c1, 0b10: c2, 0b11: c3}, L=2)
    shifted = odd_expand(
        lambda rho: v.evaluate((rho[0] + r1.embed(rho[0].L),
                                rho[1] + r2.embed(rho[0].L))), 2, 2)
    assert max_abs(integrate_odd(shifted) - integrate_odd(v)) < 1e-12


def test_integration_by_parts_signs():
    # int v (d_s w) = -(-1)^{p(v)} int (d_s v) w for homogeneous v
    rng = np.random.default_rng(7)
    L = 2
    for want_odd in (0, 1):
        for s in (0, 1):
            cs = {}
            for mask in range(4):
                par = "even" if (mask.bit_count() & 1) == want_odd else "odd"
                cs[mask] = random_supernumber(rng, L, par)
            v = OddPolynomial(2, cs, L=L)
            w = OddPolynomial(2, {m: mixed_random(rng, L) for m in range(4)}, L=L)
            left = integrate_odd(product_poly([v, w.partial(s)], 2, L))
            right = integrate_odd(product_poly([v.partial(s), w], 2, L))
            factor = -1.0 if want_odd == 0 else 1.0
            assert max_abs(left - factor * right) < 1e-12


def test_odd_change_of_variables_with_soul_terms():
    # theta = theta(omega) with invertible linear part and quadratic soul
    # corrections; the integral transforms with the inverse determinant of
    # the left-derivative matrix, evaluated inside the integral
    rng = np.random.default_rng(9)
    L = 2
    for _ in range(3):
        a = random_supernumber(rng, L, "even", body=1.2)
        d = random_supernumber(rng, L, "even", body=0.8)
        b = random_supernumber(rng, L, "even", body=0.3)
        c = random_supernumber(rng, L, "even", body=-0.4)
        s1 = random_supernumber(rng, L, "odd")
        s2 = random_supernumber(rng, L, "odd")
        th1 = OddPolynomial(2, {0b01: a, 0b10: b, 0b11: s1}, L=L)
        th2 = OddPolynomial(2, {0b01: c, 0b10: d, 0b11: s2}, L=L)
        v = OddPolynomial(2, {m: mixed_random(rng, L) for m in range(4)}, L=L)
        J = [[th1.partial(0), th2.partial(0)],
             [th1.partial(1), th2.partial(1)]]

        def pulled(om):
            det = (J[0][0].evaluate(om) * J[1][1].evaluate(om)
                   - J[0][1].evaluate(om) * J[1][0].evaluate(om))
            return inverse(det) * v.evaluate((th1.evaluate(om), th2.evaluate(om)))

        lhs = integrate_odd(v)
        rhs = integrate_odd(odd_expand(pulled, 2, L))
        assert max_abs(lhs - rhs) < 1e-12


def test_delta_factor_reproduces_point_values():
    # the product (theta_1 - w_1)...(theta_n - w_n), placed left of v and
    # integrated with the default measure, evaluates v at w for n = 1, 2, 3
    rng = np.random.default_rng(13)
    for n in (1, 2, 3):
        La = n + 3
        ws = [gen(La, i) for i in range(n)]
        coeffs = {
            m: shift_generators(mixed_random(rng, 3), n, La)
            for m in range(1 << n)
        }
        v = OddPolynomial(n, coeffs, L=La)

        def with_delta(th):
            Lw = th[0].L
            d = one(Lw)
            for t, w in zip(th, ws):
                d = d * (t - w.embed(Lw))
            return d * v.evaluate(th)

        lhs = integrate_odd(odd_expand(with_delta, n, La))
        rhs = v.evaluate(tuple(ws))
        assert max_abs(lhs - rhs) < 1e-12


# ---------------------------------------------------------------------------
# quadrature on chunks of nodes
# ---------------------------------------------------------------------------

def test_node_on_a_pole_raises():
    # the 3-node rule on (-1, 1) puts a node at q = 0
    u = SuperFunction(1, 2, {0b11: E1("1/q1")})
    spec = GaussQuadSpec(nodes=3)
    with pytest.raises((ZeroDivisionError, GrassmannDomainError)):
        integrate_naive(u, [(-1.0, 1.0)], spec)
    with pytest.raises((ZeroDivisionError, GrassmannDomainError)):
        integrate_fsm(FSMPath(((-1.0, 1.0),), identity_map(1, 2)), u, spec)


@pytest.mark.parametrize("text", ["log(q1)", "exp(log(q1))"])
def test_node_on_a_log_singularity_raises_as_at_one_node(text):
    # numpy gives -inf for log(0), and exp(-inf) = 0 would hide it
    u = SuperFunction(1, 2, {0b11: E1(text)})
    spec = GaussQuadSpec(nodes=3)
    with pytest.raises(ValueError, match="math domain error"):
        integrate_naive(u, [(-1.0, 1.0)], spec)
    with pytest.raises(ValueError, match="math domain error"):
        integrate_fsm(FSMPath(((-1.0, 1.0),), identity_map(1, 2)), u, spec)


def test_naive_integral_calls_a_numeric_coefficient_at_one_node_at_a_time():
    seen = []

    def fn(q):
        seen.append(q)
        return cmath.exp(q[0])

    u = SuperFunction(1, 2, {0b11: NumericBodyFunction(fn, 1)})
    val = integrate_naive(u, [(0.0, 1.0)], GaussQuadSpec(nodes=8))
    assert close(val.body, math.e - 1.0, tol=1e-12)
    assert len(seen) == 8 + 16
    assert all(len(q) == 1 and isinstance(q[0], complex) for q in seen)


def test_fsm_path_through_invert_map_matches_the_closed_form_inverse():
    forward, backward = lac_pair()
    u = PulledBack(forward, normalized_gaussian_22())
    box = ((1.0, 2.0), (0.5, 1.5))
    spec = GaussQuadSpec(nodes=4, richardson_tol=1e-3)
    solved = integrate_fsm(FSMPath(box, invert_map(forward, lambda q: q)), u, spec,
                           odd_order=(1, 2))
    closed = integrate_fsm(FSMPath(box, backward), u, spec, odd_order=(1, 2))
    assert close(closed.body, 0.0170022, tol=1e-7)
    assert max_abs(solved - closed) < 1e-12


def test_fsm_integrand_on_a_chunk_matches_each_node_alone():
    forward, backward = lac_pair()
    pulled = PulledBack(backward, PulledBack(forward, normalized_gaussian_22()))

    def integrand(q):
        return _top(pulled.evaluate(_grid_point(q, 2)), 2)

    rng = np.random.default_rng(11)
    q1, q2 = rng.uniform(-4.2, 4.2, size=(2, 37))
    chunk = integrand((q1, q2))
    for k in range(37):
        alone = integrand((q1[k], q2[k]))
        assert isinstance(alone, complex)
        assert abs(chunk[k] - alone) <= 1e-13 * abs(alone)


def test_fsm_on_the_transported_pair_never_falls_back_to_single_nodes(monkeypatch):
    # a chunk that raises is evaluated again node by node (_per_chunk): right
    # values, hundreds of times slower, so a batch-path error would hide
    calls = []
    original = berezin._on_nodes

    def on_nodes(fn, q):
        calls.append(q)
        return original(fn, q)

    monkeypatch.setattr(berezin, "_on_nodes", on_nodes)
    forward, backward = lac_pair()
    spec = GaussQuadSpec(nodes=12, richardson_tol=1.0)
    integrate_fsm(FSMPath(((-4.2, 4.2),) * 2, backward),
                  PulledBack(forward, normalized_gaussian_22()), spec, odd_order=(1, 2))
    assert len(calls) == 0


@pytest.mark.parametrize("part", ["body", "soul"])
def test_overflowed_integrand_is_caught_by_quad_box(part):
    x = overflowed(part)
    with pytest.raises(QuadratureError):
        quad_box(lambda q: x, [(0.0, 1.0)], GaussQuadSpec(nodes=2))


# chunk sizes around the 12 x 12 and 24 x 24 grids below: one node, a partial
# last chunk, a chunk wider than the coarse grid, one wider than both grids
CHUNKS = [1, 7, 400, 10_000]


def _integrals_on_chunks():
    """integrate_fsm on the transported pair, integrate_naive and quad_box, at
    12 and 24 nodes per axis (the values only, not convergence, are compared)."""
    forward, backward = lac_pair()
    u = normalized_gaussian_22()
    spec = GaussQuadSpec(nodes=12, richardson_tol=1.0)
    box = ((-4.2, 4.2),) * 2
    fsm = integrate_fsm(FSMPath(box, backward), PulledBack(forward, u), spec, odd_order=(1, 2))
    naive = integrate_naive(u, box, spec, odd_order=(1, 2))
    summed = quad_box(lambda q: cmath.exp(-q[0] ** 2 - 0.5 * q[1] ** 2) * (1 + q[0] * q[1]),
                      box, spec)
    return fsm.body, naive.body, summed


@pytest.fixture(scope="module")
def integrals_at_100_per_chunk():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(berezin, "QUAD_CHUNK", 100)
        return _integrals_on_chunks()


@pytest.mark.parametrize("chunk", CHUNKS)
def test_integrals_do_not_depend_on_the_chunk_size(chunk, integrals_at_100_per_chunk,
                                                   monkeypatch):
    monkeypatch.setattr(berezin, "QUAD_CHUNK", chunk)
    for got, want in zip(_integrals_on_chunks(), integrals_at_100_per_chunk):
        assert abs(got - want) <= 1e-14 * abs(want)


@pytest.mark.parametrize("chunk", CHUNKS)
def test_tensor_quad_calls_fn_once_per_chunk(chunk, monkeypatch):
    monkeypatch.setattr(berezin, "QUAD_CHUNK", chunk)
    for nodes, box in ((12, [(0.0, 1.0)] * 2), (24, [(0.0, 1.0)] * 2), (5, [(0.0, 2.0)] * 3)):
        sizes = []

        def fn(q):
            sizes.append(q[0].size)
            return np.ones(q[0].size)

        total = _tensor_quad(fn, box, nodes)
        assert len(sizes) == math.ceil(nodes ** len(box) / chunk)
        assert sum(sizes) == nodes ** len(box)
        assert close(total, math.prod(hi - lo for lo, hi in box), tol=1e-12)


def test_gauss_legendre_rule_is_built_once_and_read_only():
    x, w = _gauss_legendre(20)
    again = _gauss_legendre(20)
    assert again[0] is x and again[1] is w
    want_x, want_w = np.polynomial.legendre.leggauss(20)
    assert np.array_equal(x, want_x) and np.array_equal(w, want_w)
    for a in (x, w):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_quadrature_rejects_a_box_that_is_not_finite(bad):
    box = [(-1.0, 1.0), (0.0, bad)]
    with pytest.raises(QuadratureError):
        quad_box(lambda q: 1.0, box)
    with pytest.raises(QuadratureError):
        integrate_naive(normalized_gaussian_22(), box)


def test_gauss_poly_coefficient_integrates_on_chunks():
    # GaussPolyBody takes one node at a time, through BodyFunction.deriv_batch
    bf = GaussPolyBody(1, 0.5, {(0,): 1.0, (2,): 0.3})
    u = SuperFunction(1, 2, {0b11: bf})
    box, spec = [(-3.0, 3.0)], GaussQuadSpec(nodes=10)
    want = quad_box(bf.value, box, spec)
    assert close(want, 5.100168510776662, tol=1e-12)
    naive = integrate_naive(u, box, spec)
    fsm = integrate_fsm(FSMPath(tuple(box), identity_map(1, 2)), u, spec)
    for got in (naive, fsm):
        assert abs(got.body - want) <= 1e-13 * abs(want)


def test_mixed_transform_output_integrates_on_chunks():
    u = SuperFunction(1, 2, {0: GaussPolyBody(1, 1.0, {(0,): 1.0, (1,): 0.5})})
    F = mixed_transform(u, OddFourierConfig(2, 1.7), hbar=0.9)
    top = F.coefficients[0b11]
    # the odd monomial integrates to 0, the tails beyond |q| = 6 to < 1e-9
    want = top.poly[(0,)] * math.sqrt(TWO_PI / top.decay)
    box, spec = [(-6.0, 6.0)], GaussQuadSpec(nodes=24)
    naive = integrate_naive(F, box, spec)
    fsm = integrate_fsm(FSMPath(tuple(box), identity_map(1, 2)), F, spec)
    for got in (naive, fsm):
        assert close(got.body, want, tol=1e-9)
    assert abs(naive.body - fsm.body) <= 1e-13 * abs(want)


class _AnalyticGaussian:
    """theta_1 theta_2 exp(-x^2), built with algebra operations only."""

    m, n = 1, 2

    def evaluate(self, P):
        x = P.x[0]
        return apply_analytic(AnalyticSpec.named("exp"), -x * x) * P.theta[0] * P.theta[1]


class _OneNodeGaussian(_AnalyticGaussian):
    """The same function, read off a body that must be a single number."""

    def evaluate(self, P):
        b = complex(P.x[0].body)
        return cmath.exp(-b * b) * P.theta[0] * P.theta[1]


@pytest.mark.parametrize("u", [_AnalyticGaussian(), _OneNodeGaussian()])
def test_duck_typed_integrand_integrates_on_chunks(u):
    # _OneNodeGaussian raises TypeError on a chunk and is evaluated node by node
    box, spec = [(-3.0, 3.0)], GaussQuadSpec(nodes=20)
    want = math.sqrt(math.pi) * math.erf(3.0)
    assert close(integrate_naive(u, box, spec).body, want, tol=1e-12)
    path = FSMPath(tuple(box), identity_map(1, 2))
    assert close(integrate_fsm(path, u, spec).body, want, tol=1e-12)


def test_invert_map_solves_a_batch_once_per_evaluation():
    forward, _ = lac_pair()
    calls = []

    def body_inverse(q):
        calls.append(q)
        return q

    inv = invert_map(forward, body_inverse)
    q1 = np.linspace(1.0, 2.0, 5)
    P = SuperPoint((scalar(2, q1), scalar(2, q1 - 0.5)), (gen(2, 0), gen(2, 1)))
    inv.evaluate(P)
    assert len(calls) == 5
