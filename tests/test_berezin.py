"""Berezin integration: odd integrals, mixed naive/path integrals, Gaussians."""

import cmath
import itertools
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
    gen_left_derivative,
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
from supercalc import berezin, superspace
from supercalc.berezin import _gauss_legendre, _grid_point, _tensor_quad, _top
from supercalc.grassmann import _as_super
from supercalc.superspace import _node_peak
from supercalc.fourier_odd import GaussPolyBody, OddFourierConfig, mixed_transform

from helpers import (
    close,
    count_linalg_calls,
    identical,
    overflowed,
    random_supernumber,
    supernumbers,
)

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


def measure_sign_oracle(n: int, order) -> float:
    """Apply the differentials of d(theta_{order[0]}) ... d(theta_{order[-1]})
    to theta_1...theta_n as left derivatives, the rightmost first, and read
    the sign off the body that is left."""
    probe = one(n)
    for s in range(n):
        probe = probe * gen(n, s)
    for a in reversed(order):
        probe = gen_left_derivative(probe, a - 1)
    assert abs(abs(probe.body) - 1.0) < 1e-12
    return probe.body.real


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


@pytest.mark.parametrize("nodes", [20.0, np.float64(20.0), "20", None])
def test_quad_spec_rejects_node_counts_that_are_not_integers(nodes):
    with pytest.raises(GrassmannError, match="integer"):
        GaussQuadSpec(nodes=nodes)


def test_quad_spec_accepts_numpy_integer_node_counts():
    spec = GaussQuadSpec(nodes=np.int64(6))
    val = quad_box(lambda q: q[0] ** 2, [(0.0, 1.0)], spec)
    assert abs(val - 1.0 / 3.0) < 1e-14


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-7])
def test_quad_spec_rejects_a_tolerance_that_is_not_finite_and_positive(tol):
    # a nan tolerance turned the doubling check off: this needle integrates
    # to 0.2507 but the 4-node rule gives 5.8e-7, which tol 1e-7 rejects
    needle = (lambda q: math.exp(-50.0 * q[0] ** 2)), [(-3.0, 3.0)]
    with pytest.raises(QuadratureError):
        quad_box(*needle, GaussQuadSpec(nodes=4, richardson_tol=1e-7))
    with pytest.raises(GrassmannError, match="richardson_tol"):
        GaussQuadSpec(nodes=4, richardson_tol=tol)


@pytest.mark.parametrize("rmax", [math.nan, math.inf, 0.0, -6.0])
def test_quad_spec_rejects_a_cutoff_that_is_not_finite_and_positive(rmax):
    with pytest.raises(GrassmannError, match="rmax"):
        GaussQuadSpec(rmax=rmax)


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


def test_odd_polynomial_takes_a_batch_coefficient_as_the_same_batch_element():
    batch = np.array([1.0, 2.0])
    v = OddPolynomial(2, {0b11: batch, 0b01: np.zeros(2), 0b10: 0.0})
    want = OddPolynomial(2, {0b11: scalar(0, batch)})
    assert list(v.coefficients) == [0b11] and v.L == want.L == 0
    assert identical(v.coefficients[0b11], want.coefficients[0b11])


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


def test_measure_sign_matches_left_derivatives_for_every_permutation_up_to_six():
    for n in range(7):
        for order in itertools.permutations(range(1, n + 1)):
            assert berezin._measure_sign(n, order) == measure_sign_oracle(n, order)


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


class _GaussianWithAmbientGenerator:
    """exp(-x^2/2) theta1 theta2 (1 + sigma), with sigma = gen(4, 3) above
    the two odd variables."""

    m, n = 1, 2

    def __init__(self, sigma):
        self.sigma = sigma
        self.calls = 0

    def evaluate(self, P):
        self.calls += 1
        (x,), (t1, t2) = P.x, P.theta
        gauss = apply_analytic(AnalyticSpec.named("exp"), -0.5 * (x * x))
        return gauss * (t1 * t2) * (1.0 + self.sigma)


def test_naive_integral_of_a_value_beyond_the_odd_variables_raises():
    # the sigma part used to be dropped without a word, giving sqrt(2 pi)
    box, quad = [(-9.0, 9.0)], GaussQuadSpec(nodes=40)
    plain = _GaussianWithAmbientGenerator(zero(4))
    assert close(integrate_naive(plain, box, quad).body, math.sqrt(2 * math.pi), tol=1e-12)
    u = _GaussianWithAmbientGenerator(gen(4, 3))
    with pytest.raises(GrassmannError, match="beyond the 2 odd variables"):
        integrate_naive(u, box, quad)
    # raised from the one chunk's value, without a node-by-node retry
    assert u.calls == 1


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


@pytest.mark.parametrize("scale", [1e-13, 1e-6])
def test_fsm_path_with_a_small_regular_jacobian(scale):
    # gamma(q) = scale * q on [0, 1]: a Jacobian body far below 1e-12 that is
    # regular at its own scale, so the integral of 1 over the image is scale
    u = SuperFunction(1, 0, {0: E1("1")})
    gamma = SuperMap((1, 0), (1, 0), [SuperFunction(1, 0, {0: E1(f"{scale!r}*q1")})])
    value = integrate_fsm(FSMPath(((0.0, 1.0),), gamma), u)
    assert close(value.body / scale, 1.0, tol=1e-13)


def test_fsm_path_that_is_constant_is_body_singular():
    u = SuperFunction(1, 0, {0: E1("1")})
    gamma = SuperMap((1, 0), (1, 0), [SuperFunction(1, 0, {0: E1("0.5")})])
    with pytest.raises(GrassmannDomainError, match="body-singular"):
        integrate_fsm(FSMPath(((0.0, 1.0),), gamma), u)


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


@pytest.mark.parametrize("c", [1e-200, 1e-150, 1e200])
def test_gaussian_super_of_an_even_block_far_from_unit_scale(c):
    # det(c I) of the (2|0) block underflows (or overflows) in floating point,
    # but the value (2 pi lam) / c is finite
    I = [[scalar(0, c), zero(0)], [zero(0), scalar(0, c)]]
    value = gaussian_super(from_blocks(I, [[], []], [], []), 1.0)
    assert close(value.body / (TWO_PI / c), 1.0, tol=1e-13)


@pytest.mark.parametrize("m, n, c, b, lam", [(2, 0, 1e300, 1.0, 2.5e307),
                                             (2, 0, 1e300, 1.0, 1e308),
                                             (2, 2, 1e300, 5e307, 1.0),
                                             (4, 0, 1e300, 1.0, 1e300),
                                             (0, 2, 1.0, 1e-300, 1e-320)])
def test_gaussian_super_whose_factors_are_out_of_range_apart(m, n, c, b, lam):
    # A = c I and B = b [[0, 1], [-1, 0]]: (2 pi lam)^(m/2), lam^(-n/2),
    # det(A)^(-1/2) or Pf(B) is out of range, or near its edge, but the value
    # (2 pi lam / c)^(m/2) lam^(-n/2) b is not
    A = [[scalar(0, c if i == j else 0.0) for j in range(m)] for i in range(m)]
    B = [[scalar(0, b * (j - i)) for j in range(n)] for i in range(n)]
    zeros = [[zero(0)] * cols for cols in (n,) * m + (m,) * n]
    value = gaussian_super(from_blocks(A, zeros[:m], zeros[m:], B), lam)
    want = (TWO_PI * (lam / c)) ** (m / 2) * b / lam ** (n // 2)
    assert close(value.body / want, 1.0, tol=1e-14)


def test_gaussian_super_whose_pfaffian_is_out_of_range():
    # Pf(B) = 1e400 for B = 1e200 (J + J) overflows, but lam^-2 Pf(B) = 1
    J = np.array([[0, 1], [-1, 0]])
    B = 1e200 * np.block([[J, 0 * J], [0 * J, J]])
    rows = [[scalar(0, v) for v in r] for r in B]
    assert gaussian_super(from_blocks([], [], [[]] * 4, rows), 1e200) == scalar(0, 1.0)


def odd_block_after_unit_even_block(m, b):
    """(m|2) matrix with even block I, no couplings and odd block b."""
    rows = np.zeros((m + 2, m + 2))
    rows[:m, :m] = np.eye(m)
    rows[m:, m:] = b
    return Supermatrix(m, 2, rows.tolist(), 0)


def test_gaussian_super_tests_the_even_block_relative_to_its_scale():
    # symmetric to 2 ulp at 1e7: accepted with (2 pi) det^(-1/2)
    A = 1e7 * np.array([[1, 0.1 * 3], [0.3, 2]])
    value = gaussian_super(Supermatrix(2, 0, A.tolist(), 0), 1.0)
    assert close(value.body / (TWO_PI / math.sqrt(1e14 * (2 - 0.09))), 1.0, tol=1e-12)
    # antisymmetric part as large as a third of the block at 1e-12: rejected
    with pytest.raises(GrassmannDomainError, match="symmetric"):
        gaussian_super(Supermatrix(2, 0, (1e-12 * np.array([[3, 1], [-1, 3]])).tolist(), 0), 1.0)


@pytest.mark.parametrize("m", [0, 1])
def test_gaussian_super_tests_the_odd_block_relative_to_its_scale(m):
    # symmetric at 1e-13: rejected, where an absolute test let it through
    with pytest.raises(GrassmannDomainError, match="antisymmetric"):
        gaussian_super(odd_block_after_unit_even_block(m, 1e-13 * np.array([[0, 1], [1, 0]])), 1.0)
    # antisymmetric to 1 ulp at 3e4: accepted, its Pfaffian 3e4 times the even factor
    b = np.array([[0, 0.1 * 3 * 1e5], [-0.3 * 1e5, 0]])
    value = gaussian_super(odd_block_after_unit_even_block(m, b), 1.0)
    assert close(value.body / (3e4 * TWO_PI ** (m / 2)), 1.0, tol=1e-12)


def test_gaussian_super_accepts_couplings_at_rounding_noise():
    # C = 1e-17 theta_1 next to D = 0: noise on the scale of the whole matrix,
    # which a test relative to C and D alone rejects
    L = 2
    noise = 1e-17 * gen(L, 0)
    M = from_blocks([[one(L)]], [[noise, zero(L)]], [[zero(L)], [zero(L)]],
                    [[zero(L), one(L)], [-1.0 * one(L), zero(L)]])
    value = gaussian_super(M, 1.0)
    assert close(value.body, math.sqrt(TWO_PI), tol=1e-13)


def test_gaussian_super_that_overflows_raises_domain_error():
    # lam^(-n/2) = 1e300 times the Pfaffian 1e10 is inf; at lam = 1e-320 the
    # power itself is out of range
    M = from_blocks([], [], [[], []], [[zero(2), scalar(2, 1e10)], [scalar(2, -1e10), zero(2)]])
    for lam in (1e-300, 1e-320):
        with pytest.raises(GrassmannDomainError):
            gaussian_super(M, lam)


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

@settings(max_examples=20)
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


def test_nested_fsm_integrand_evaluates_each_map_once_per_chunk(monkeypatch):
    # each pull-back reads its map's value and Jacobian from one seeded
    # evaluation: 4 + 4 map components and the Gaussian, with a Taylor basis
    # at the two seeded points and at the inner map's value
    evaluated, built = [], []
    evaluate, taylor_basis = SuperFunction.evaluate, superspace._taylor_basis
    monkeypatch.setattr(SuperFunction, "evaluate",
                        lambda self, P: evaluated.append(self) or evaluate(self, P))
    monkeypatch.setattr(superspace, "_taylor_basis",
                        lambda xs, L: built.append(L) or taylor_basis(xs, L))
    forward, backward = lac_pair()
    pulled = PulledBack(backward, PulledBack(forward, normalized_gaussian_22()))
    q = np.random.default_rng(13).uniform(-4.2, 4.2, size=(2, berezin.QUAD_CHUNK))
    pulled.evaluate(_grid_point(tuple(q), 2))
    assert len(evaluated) == 9
    assert built == [8, 8, 2]


def test_nested_fsm_integrand_makes_no_numpy_linalg_call_per_chunk(monkeypatch):
    # the (2|2) Jacobians' 2 x 2 body blocks are tested and inverted in closed
    # form across the chunk, not by one LAPACK call per node
    calls = count_linalg_calls(monkeypatch, ("det", "inv"))
    forward, backward = lac_pair()
    pulled = PulledBack(backward, PulledBack(forward, normalized_gaussian_22()))
    q = np.random.default_rng(13).uniform(-4.2, 4.2, size=(2, berezin.QUAD_CHUNK))
    pulled.evaluate(_grid_point(tuple(q), 2))
    assert calls == []


def _nested(phi, u):
    """PulledBack(phi, u) left nested: its __init__, which folds a pull-back
    u into one composed map, is bypassed."""
    pulled = object.__new__(PulledBack)
    pulled.phi, pulled.u, (pulled.m, pulled.n) = phi, u, phi.src
    return pulled


def _same_to_relative(got: Supernumber, want: Supernumber, tol: float) -> bool:
    """Every coefficient of got within tol of want's, relative to want's
    largest coefficient modulus, node by node for a batch."""
    return bool(np.all(_node_peak(got - want) <= tol * _node_peak(want)))


def _chunk(seed: int, size: int):
    return tuple(np.random.default_rng(seed).uniform(-4.2, 4.2, size=(2, size)))


def test_folded_pull_back_matches_the_nested_one_on_a_chunk_and_node_by_node():
    forward, backward = lac_pair()
    folded = PulledBack(backward, PulledBack(forward, normalized_gaussian_22()))
    nested = _nested(backward, PulledBack(forward, normalized_gaussian_22()))
    q = _chunk(17, 37)
    assert _same_to_relative(folded.evaluate(_grid_point(q, 2)),
                             nested.evaluate(_grid_point(q, 2)), 1e-14)
    for k in range(37):
        P = _grid_point((q[0][k], q[1][k]), 2)
        assert _same_to_relative(folded.evaluate(P), nested.evaluate(P), 1e-14)


def test_a_three_deep_pull_back_folds_to_one_map():
    forward, backward = lac_pair()
    gauss = normalized_gaussian_22()
    folded = PulledBack(backward, PulledBack(forward, PulledBack(backward, gauss)))
    assert folded.u is gauss
    nested = _nested(backward, _nested(forward, PulledBack(backward, gauss)))
    P = _grid_point(_chunk(19, 37), 2)
    assert _same_to_relative(folded.evaluate(P), nested.evaluate(P), 1e-14)


def test_a_folded_pull_back_through_an_inner_map_singular_at_one_node_raises():
    # d(q1^3)/dq1 is 0 at q1 = 0, and the backward map keeps q1's body
    _, backward = lac_pair()
    cube = SuperMap((2, 2), (2, 2), [
        SuperFunction(2, 2, {0: E2("q1^3")}),
        SuperFunction(2, 2, {0: E2("q2")}),
        SuperFunction(2, 2, {0b01: E2("1")}),
        SuperFunction(2, 2, {0b10: E2("1")}),
    ])
    q1, q2 = _chunk(23, 9)
    q1[4] = 0.0
    P = _grid_point((q1, q2), 2)
    for pulled in (PulledBack(backward, PulledBack(cube, normalized_gaussian_22())),
                   _nested(backward, PulledBack(cube, normalized_gaussian_22()))):
        with pytest.raises(GrassmannDomainError, match="body-singular"):
            pulled.evaluate(P)
    q1[4] = 0.5
    PulledBack(backward, PulledBack(cube, normalized_gaussian_22())).evaluate(
        _grid_point((q1, q2), 2))


def test_pull_backs_whose_maps_do_not_chain_stay_nested_and_raise():
    _, backward = lac_pair()
    shear = SuperMap((1, 1), (1, 1), [SuperFunction(1, 1, {0: E1("q1")}),
                                      SuperFunction(1, 1, {0b1: E1("1")})])
    inner = PulledBack(shear, SuperFunction(1, 1, {0: E1("q1")}))
    pulled = PulledBack(backward, inner)
    assert pulled.phi is backward and pulled.u is inner
    with pytest.raises(GrassmannError, match="source"):
        pulled.evaluate(_grid_point(_chunk(29, 5), 2))


def test_nested_fsm_integrand_makes_one_jacobian_and_one_sdet_per_chunk(monkeypatch):
    seeds, sdets = [], []
    seed, sdet = superspace.seed, berezin._sdet
    monkeypatch.setattr(superspace, "seed", lambda *a, **k: seeds.append(a) or seed(*a, **k))
    monkeypatch.setattr(berezin, "_sdet", lambda J: sdets.append(J) or sdet(J))
    forward, backward = lac_pair()
    pulled = PulledBack(backward, PulledBack(forward, normalized_gaussian_22()))
    pulled.evaluate(_grid_point(_chunk(13, berezin.QUAD_CHUNK), 2))
    assert len(seeds) == 1 and len(sdets) == 1


def test_pull_back_through_a_map_that_is_not_square_raises():
    # (1|1) -> (2|0) has a 2 x 2 derivative matrix but no super-Jacobian
    F = SuperMap((1, 1), (2, 0), [SuperFunction(1, 1, {0: E1("q1")}),
                                  SuperFunction(1, 1, {0: E1("q1^2")})])
    pulled = PulledBack(F, SuperFunction(2, 0, {0: E2("q1")}))
    with pytest.raises(GrassmannError, match="square"):
        pulled.evaluate(SuperPoint((scalar(2, 0.5),), (gen(2, 0),)))


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


# chunk sizes around the 12 x 12 and 24 x 24 grids below, which are one node
# set of 144 + 576: one node, a partial last chunk, a chunk that holds nodes
# of both grids, the shipped chunk and one wider than both grids
CHUNKS = [1, 7, 400, 2_000, 10_000]


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


# (nodes per axis of the coarse grid, box): 1, 2 and 3 axes
GRIDS = [(9, [(-1.0, 2.0)]), (12, [(0.0, 1.0)] * 2), (5, [(0.0, 2.0), (-1.0, 1.0), (0.5, 1.0)])]


@pytest.mark.parametrize("chunk", CHUNKS)
def test_tensor_quad_calls_fn_once_per_chunk(chunk, monkeypatch):
    # both grids are one node set: the coarse grid's nodes, then the fine one's
    monkeypatch.setattr(berezin, "QUAD_CHUNK", chunk)
    for nodes, box in GRIDS:
        sizes = []

        def fn(q):
            sizes.append(q[0].size)
            return np.ones(q[0].size)

        size = nodes ** len(box) + (2 * nodes) ** len(box)
        totals = _tensor_quad(fn, box, nodes)
        assert len(sizes) == math.ceil(size / chunk)
        assert sum(sizes) == size
        for total in totals:
            assert close(total, math.prod(hi - lo for lo, hi in box), tol=1e-12)


def _grid_sum(f, box, nodes):
    """The tensor Gauss-Legendre sum of f (one node at a time) on one grid,
    node by node."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    total = 0j
    for index in itertools.product(range(nodes), repeat=len(box)):
        q = [0.5 * (hi - lo) * x[i] + 0.5 * (hi + lo) for i, (lo, hi) in zip(index, box)]
        total += math.prod(0.5 * (hi - lo) * w[i] for i, (lo, hi) in zip(index, box)) * f(q)
    return total


def _batched(f):
    """f on a chunk of nodes, as one array of values."""
    return lambda q: f([np.asarray(c) for c in q])


def _wavy(q):
    return np.exp(-sum(c * c for c in q)) * (1.0 + 0.5j * np.sin(3.0 * sum(q)))


@pytest.mark.parametrize("chunk", CHUNKS)
def test_one_pass_gives_the_sum_of_each_grid(chunk, monkeypatch):
    monkeypatch.setattr(berezin, "QUAD_CHUNK", chunk)
    straddled = False
    for nodes, box in GRIDS:
        split, size = nodes ** len(box), nodes ** len(box) + (2 * nodes) ** len(box)
        straddled |= any(start < split < start + chunk for start in range(0, size, chunk))
        coarse, fine = _tensor_quad(_batched(_wavy), box, nodes)
        for got, n in ((coarse, nodes), (fine, 2 * nodes)):
            want = _grid_sum(lambda q: complex(_wavy(q)), box, n)
            assert abs(got - want) <= 1e-14 * abs(want)
    # some chunk holds nodes of both grids, unless each chunk is one node
    assert straddled or chunk == 1


@pytest.mark.parametrize("chunk", CHUNKS)
def test_one_pass_gives_the_sum_of_each_grid_for_algebra_values(chunk, monkeypatch):
    monkeypatch.setattr(berezin, "QUAD_CHUNK", chunk)
    g = gen(2, 0) * gen(2, 1)
    nodes, box = GRIDS[1]

    def value(q):
        return _as_super(_wavy(q), 2) + _as_super(q[0] * q[1], 2) * g

    coarse, fine = _tensor_quad(_batched(value), box, nodes)
    for got, n in ((coarse, nodes), (fine, 2 * nodes)):
        want = _grid_sum(value, box, n)
        assert max_abs(got - want) <= 1e-14 * max_abs(want)


@pytest.mark.parametrize("chunk", CHUNKS)
def test_quad_box_rejects_nan_on_the_fine_grid_alone(chunk, monkeypatch):
    # the 6-node rule's first node is not a node of the 3-node rule; on 3 + 6
    # nodes a chunk of 7 holds it with the whole coarse grid
    monkeypatch.setattr(berezin, "QUAD_CHUNK", chunk)
    x, _ = _gauss_legendre(6)
    node = 0.5 * x[0] + 0.5
    assert node not in 0.5 * _gauss_legendre(3)[0] + 0.5
    with pytest.raises(QuadratureError, match="not finite"):
        quad_box(lambda q: math.nan if q[0] == node else 1.0, [(0, 1)],
                 GaussQuadSpec(nodes=3))


@pytest.mark.parametrize("chunk", CHUNKS)
def test_pole_in_a_chunk_of_both_grids_raises_the_error_of_its_node(chunk, monkeypatch):
    # the 3-node rule on (-1, 1) puts its second node at q = 0; the chunk that
    # holds it is evaluated again one node at a time (_per_chunk)
    monkeypatch.setattr(berezin, "QUAD_CHUNK", chunk)
    retried = []
    on_nodes = berezin._on_nodes
    monkeypatch.setattr(berezin, "_on_nodes", lambda fn, q: retried.append(q) or on_nodes(fn, q))
    u = SuperFunction(1, 2, {0b11: E1("1/q1")})
    with pytest.raises((ZeroDivisionError, GrassmannDomainError)):
        integrate_naive(u, [(-1.0, 1.0)], GaussQuadSpec(nodes=3))
    (q,) = retried
    assert q[0].size == min(chunk, 3 + 6) and 0.0 in q[0]


def test_fsm_bench_pair_is_one_integrand_call_of_2000_nodes():
    # the bench's transported integral at 20 nodes per axis: 400 + 1,600 nodes
    # of both grids in one call at the shipped chunk
    sizes = []
    tensor_quad = berezin._tensor_quad

    def spy(fn, box, nodes):
        return tensor_quad(lambda q: sizes.append(q[0].size) or fn(q), box, nodes)

    forward, backward = lac_pair()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(berezin, "_tensor_quad", spy)
        val = integrate_fsm(FSMPath(((-4.2, 4.2),) * 2, backward),
                            PulledBack(forward, normalized_gaussian_22()),
                            GaussQuadSpec(nodes=20), odd_order=(1, 2))
    assert sizes == [2000]
    assert abs(val.body - 1.0) < 1e-7


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


def test_tensor_quad_builds_its_node_set_once_per_box_and_node_count():
    # both rules merged as _tensor_quad uses them, built once per (box, nodes);
    # a box of ints and one of floats are one key
    seen = []

    def fn(q):
        seen.append(q)
        return np.ones(q[0].size)

    for box in ([(0, 1), (-1, 2)], ((0.0, 1.0), (-1.0, 2.0))):
        _tensor_quad(fn, box, 4)
    first, second = seen
    for a, b in zip(first, second):
        assert a.base is b.base and not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0
    grid, weights, split = berezin._merged_rule(((0.0, 1.0), (-1.0, 2.0)), 4)
    (coarse, w_coarse), (fine, w_fine) = (berezin._tensor_rule([(0.0, 1.0), (-1.0, 2.0)], n)
                                          for n in (4, 8))
    assert split == 16 and all(not a.flags.writeable for a in grid + weights)
    for axis, c, f in zip(grid, coarse, fine):
        assert np.concatenate([c, f]).tobytes() == axis.tobytes()
    assert weights[0].tobytes() == np.concatenate([w_coarse, np.zeros(64)]).tobytes()
    assert weights[1].tobytes() == np.concatenate([np.zeros(16), w_fine]).tobytes()


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
