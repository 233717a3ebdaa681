"""Functions and maps with odd coordinates: continuation, partials, maps."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supercalc.grassmann import (
    AnalyticSpec,
    GrassmannError,
    Supernumber,
    apply_analytic,
    gen,
    make,
    max_abs,
    one,
    scalar,
    soul,
    zero,
)
from supercalc.superspace import (
    ExprFunction,
    NumericBodyFunction,
    OrderError,
    SuperFunction,
    SuperMap,
    SuperPoint,
    compose,
    const_body,
    continue_body,
    cr_residual,
    evaluate,
    expr_body,
    identity_map,
    invert_map,
    map_body_jacobian,
    map_super_jacobian,
    parse_expression,
    partial,
)

from helpers import close


# ---------------------------------------------------------------------------
# oracles (written before the code under test is exercised)
# ---------------------------------------------------------------------------

def fd_body_jacobian(F: SuperMap, P: SuperPoint, eps: float = 1e-6) -> np.ndarray:
    """Finite-difference body Jacobian: real steps on even slots, a real
    parameter times one spare odd generator on odd slots.  Independent of the
    production extraction (which seeds nilpotents and reads coefficients of a
    single evaluation)."""
    m, n = P.shape
    p, q = F.dst
    L = max(P.L, 1)
    Lw = L + 1
    Pw = P.embed(Lw)
    spare = gen(Lw, L)
    J = np.zeros((p + q, m + n), dtype=complex)

    def out_vals(point):
        o = F.evaluate(point)
        return list(o.x) + list(o.theta)

    for c in range(m):
        def shifted(t):
            xs = list(Pw.x)
            xs[c] = xs[c] + t
            return SuperPoint(tuple(xs), Pw.theta)

        vp = out_vals(shifted(eps))
        vm = out_vals(shifted(-eps))
        for r in range(p + q):
            J[r, c] = (vp[r].body - vm[r].body) / (2 * eps)
    for s in range(n):
        def shifted(t):
            th = list(Pw.theta)
            th[s] = th[s] + t * spare
            return SuperPoint(Pw.x, tuple(th))

        vp = out_vals(shifted(eps))
        vm = out_vals(shifted(-eps))
        for r in range(p + q):
            d = (vp[r] - vm[r]) * (1.0 / (2 * eps))
            J[r, m + s] = d.coefficient(1 << L)
    return J


def poly_direct_eval(coeffs: dict, xs) -> Supernumber:
    """Evaluate a 2-variable polynomial sum c[(a,b)] q1^a q2^b directly in the
    algebra by repeated multiplication (exact; no Taylor expansion involved)."""
    L = max(x.L for x in xs)
    acc = zero(L)
    for (a, b), c in coeffs.items():
        term = scalar(L, complex(c))
        for _ in range(a):
            term = term * xs[0]
        for _ in range(b):
            term = term * xs[1]
        acc = acc + term
    return acc


# ---------------------------------------------------------------------------
# shared fixtures
# ---------------------------------------------------------------------------

def sample_point(rng, m, n, L, lo=0.3, hi=1.5):
    xs = []
    for _ in range(m):
        terms = {}
        for _ in range(2):
            i, j = rng.choice(L, size=2, replace=False)
            mask = (1 << int(i)) | (1 << int(j))
            terms[mask] = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        xs.append(scalar(L, float(rng.uniform(lo, hi))) + make(L, terms))
    ths = []
    for _ in range(n):
        terms = {}
        for _ in range(2):
            bit = int(rng.integers(0, L))
            terms[1 << bit] = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
        ths.append(make(L, terms))
    return SuperPoint(tuple(xs), tuple(ths))


def lac_pair():
    """The two mutually inverse (2|2) coordinate changes used to diagonalize
    the pinned 2x2 block example: the forward map is polynomial, the backward
    one rational with denominator q1 - i q2."""
    E = lambda s: expr_body(s, 2)
    forward = SuperMap((2, 2), (2, 2), [
        SuperFunction(2, 2, {0: E("q1"), 0b11: E("q1 - 1j*q2")}),
        SuperFunction(2, 2, {0: E("q2"), 0b11: E("-1j*(q1 - 1j*q2)")}),
        SuperFunction(2, 2, {0b01: E("q1 - 1j*q2")}),
        SuperFunction(2, 2, {0b10: E("-(q1 - 1j*q2)")}),
    ])
    backward = SuperMap((2, 2), (2, 2), [
        SuperFunction(2, 2, {0: E("q1"), 0b11: E("1/(q1 - 1j*q2)")}),
        SuperFunction(2, 2, {0: E("q2"), 0b11: E("-1j/(q1 - 1j*q2)")}),
        SuperFunction(2, 2, {0b01: E("1/(q1 - 1j*q2)")}),
        SuperFunction(2, 2, {0b10: E("-1/(q1 - 1j*q2)")}),
    ])
    return forward, backward


def points_equal(P, Q, tol):
    vals = list(P.x) + list(P.theta)
    wals = list(Q.x) + list(Q.theta)
    assert len(vals) == len(wals)
    return max(max_abs(a - b) for a, b in zip(vals, wals)) < tol


# ---------------------------------------------------------------------------
# expression language
# ---------------------------------------------------------------------------

def test_parse_value_and_exact_derivatives():
    f = ExprFunction("sin(q1)*q2^2 + exp(q1*q2)/q2", 2)
    q = (0.7, 1.3)

    def ref(q1, q2):
        return cmath.sin(q1) * q2 ** 2 + cmath.exp(q1 * q2) / q2

    assert close(f.value(q), ref(*q), 1e-14)
    # d/dq1: cos(q1) q2^2 + q2 exp(q1 q2)/q2 = cos(q1) q2^2 + exp(q1 q2)
    assert close(
        f.deriv_value((1, 0), q),
        cmath.cos(q[0]) * q[1] ** 2 + cmath.exp(q[0] * q[1]),
        1e-13,
    )
    # d2/dq1dq2 of sin(q1)q2^2 = 2 q2 cos(q1); of exp(q1q2)/q2: d/dq1 = exp(q1q2),
    # then d/dq2 = q1 exp(q1q2)
    assert close(
        f.deriv_value((1, 1), q),
        2 * q[1] * cmath.cos(q[0]) + q[0] * cmath.exp(q[0] * q[1]),
        1e-13,
    )


def test_parse_rejects_bad_input():
    with pytest.raises(GrassmannError):
        parse_expression("q3", 2)
    with pytest.raises(GrassmannError):
        parse_expression("q1 ** q2", 2)
    with pytest.raises(GrassmannError):
        parse_expression("tan(q1)", 1)
    with pytest.raises(GrassmannError):
        parse_expression("q1 +* 2", 1)
    # caret power and complex literals are accepted
    assert close(parse_expression("q1^3", 1).value((2.0,)), 8.0, 1e-15)
    assert close(parse_expression("1j*q1", 1).value((2.0,)), 2j, 1e-15)


# ---------------------------------------------------------------------------
# continuation
# ---------------------------------------------------------------------------

def test_continuation_square_pinned():
    # f(x) = x^2 at x = 1 + s1 s2: the nilpotent square drops out exactly
    x = scalar(2, 1.0) + gen(2, 0) * gen(2, 1)
    got = continue_body(ExprFunction("q1^2", 1), [x])
    assert got == make(2, {0: 1.0, 0b11: 2.0})


def test_continuation_sin_at_half_pi():
    x = scalar(2, math.pi / 2) + gen(2, 0) * gen(2, 1)
    got = continue_body(ExprFunction("sin(q1)", 1), [x])
    # cos(pi/2) = 0 so the soul coefficient vanishes (to rounding)
    assert abs(got.body - 1.0) < 1e-15
    assert abs(got.coefficient(0b11)) < 1e-15


def test_continuation_matches_analytic_functions():
    rng = np.random.default_rng(7)
    for _ in range(6):
        P = sample_point(rng, 1, 0, 6)
        x = P.x[0]
        for name in ("sin", "cos", "exp"):
            via_cont = continue_body(ExprFunction(f"{name}(q1)", 1), [x])
            via_series = apply_analytic(AnalyticSpec.named(name), x)
            assert max_abs(via_cont - via_series) < 1e-12


@settings(max_examples=25, deadline=None)
@given(
    coef=st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 2)),
        st.integers(-4, 4),
        max_size=5,
    ),
    seed=st.integers(0, 10 ** 6),
)
def test_polynomial_continuation_is_exact(coef, seed):
    # Taylor expansion of a polynomial terminates: continuation must agree
    # with direct evaluation in the algebra, coefficient for coefficient.
    rng = np.random.default_rng(seed)
    P = sample_point(rng, 2, 0, 5)
    parts = [f"{c}*q1**{a}*q2**{b}" for (a, b), c in coef.items()]
    text = " + ".join(parts) if parts else "0"
    via_cont = continue_body(ExprFunction(text, 2), P.x)
    via_direct = poly_direct_eval({k: complex(v) for k, v in coef.items()}, P.x)
    assert max_abs(via_cont - via_direct) < 1e-10


def test_evaluate_theta_monomial():
    # f(x, theta) = theta1 theta2 evaluated at theta = (s1, s2)
    f = SuperFunction(1, 2, {0b11: const_body(1.0, 1)})
    P = SuperPoint((scalar(2, 0.0),), (gen(2, 0), gen(2, 1)))
    assert f.evaluate(P) == gen(2, 0) * gen(2, 1)


def test_evaluate_full_expansion():
    # f = u0(x) + theta1 u1(x) + theta1 theta2 u2(x) against hand assembly
    f = SuperFunction(1, 2, {
        0: expr_body("q1^2", 1),
        0b01: expr_body("q1", 1),
        0b11: expr_body("3", 1),
    })
    L = 6
    rng = np.random.default_rng(3)
    P = sample_point(rng, 1, 2, L)
    x, t1, t2 = P.x[0], P.theta[0], P.theta[1]
    expected = x * x + t1 * x + 3.0 * (t1 * t2)
    assert max_abs(f.evaluate(P) - expected) < 1e-12


def test_uniqueness_flat_coefficient_gives_zero():
    # all body derivatives vanish near q = -0.5, so the continuation must
    # be identically zero there, whatever the nilpotent part
    def flat(q):
        v = q[0].real
        return math.exp(-1.0 / v) if v > 0 else 0.0

    bf = NumericBodyFunction(flat, 1)
    x = scalar(4, -0.5) + 0.3 * gen(4, 0) * gen(4, 1) + gen(4, 2) * gen(4, 3)
    assert continue_body(bf, [x]).is_zero()


def test_fd_fallback_matches_exact_oracle():
    bf_fd = NumericBodyFunction(lambda q: cmath.sin(q[0]), 1)
    bf_ex = ExprFunction("sin(q1)", 1)
    x = scalar(4, 0.4) + 0.2 * gen(4, 0) * gen(4, 1) + 0.1 * gen(4, 2) * gen(4, 3)
    a = continue_body(bf_fd, [x])
    b = continue_body(bf_ex, [x])
    assert max_abs(a - b) < 1e-7


def test_fd_order_limit_enforced():
    bf = NumericBodyFunction(lambda q: cmath.exp(q[0]), 1)
    L = 10
    s = zero(L)
    for k in range(5):
        s = s + gen(L, 2 * k) * gen(L, 2 * k + 1)
    x = scalar(L, 0.1) + s  # soul^5 != 0 -> needs a 5th derivative
    with pytest.raises(OrderError):
        continue_body(bf, [x])


# ---------------------------------------------------------------------------
# partial derivatives
# ---------------------------------------------------------------------------

def test_partial_odd_signs_pinned():
    # d/dtheta1 (theta1 theta2 u) = theta2 u ; d/dtheta2 (...) = -theta1 u
    u = expr_body("q1^2 + 2", 1)
    f = SuperFunction(1, 2, {0b11: u})
    rng = np.random.default_rng(11)
    for _ in range(4):
        P = sample_point(rng, 1, 2, 6)
        uval = continue_body(u, P.x, 6)
        d1 = f.partial(1).evaluate(P)
        d2 = f.partial(2).evaluate(P)
        assert max_abs(d1 - P.theta[1] * uval) < 1e-12
        assert max_abs(d2 - (-1.0) * (P.theta[0] * uval)) < 1e-12


def test_partial_even_trivial():
    f = SuperFunction(1, 0, {0: expr_body("q1^2", 1)})
    rng = np.random.default_rng(5)
    P = sample_point(rng, 1, 0, 4)
    assert max_abs(f.partial(0).evaluate(P) - 2.0 * P.x[0]) < 1e-12


def test_even_partial_commutes_with_continuation():
    # d/dx of the continuation equals the continuation of d/dq
    bf = ExprFunction("exp(q1)*sin(q1)", 1)
    rng = np.random.default_rng(9)
    P = sample_point(rng, 1, 0, 6)
    f = SuperFunction(1, 0, {0: bf})
    lhs = f.partial(0).evaluate(P)
    rhs = continue_body(bf.diff(0), P.x, max(P.L, 1))
    assert max_abs(lhs - rhs) < 1e-12


def test_odd_partials_square_zero_and_anticommute():
    f = SuperFunction(1, 3, {
        0b001: expr_body("q1", 1),
        0b011: expr_body("q1^2", 1),
        0b101: expr_body("2", 1),
        0b111: expr_body("q1 + 1", 1),
    })
    rng = np.random.default_rng(13)
    P = sample_point(rng, 1, 3, 6)
    for s in (1, 2, 3):
        dd = f.partial(s).partial(s)
        assert dd.evaluate(P).is_zero()
    ab = f.partial(1).partial(2).evaluate(P)
    ba = f.partial(2).partial(1).evaluate(P)
    assert max_abs(ab + ba) < 1e-13


# ---------------------------------------------------------------------------
# maps: composition
# ---------------------------------------------------------------------------

def test_compose_with_identity():
    fwd, _ = lac_pair()
    ident = identity_map(2, 2)
    rng = np.random.default_rng(17)
    g_id = compose(fwd, ident)
    id_g = compose(ident, fwd)
    for _ in range(20):
        P = sample_point(rng, 2, 2, 6)
        target = fwd.evaluate(P)
        assert points_equal(g_id.evaluate(P), target, 1e-12)
        assert points_equal(id_g.evaluate(P), target, 1e-12)


def test_lac_maps_are_mutually_inverse():
    fwd, bwd = lac_pair()
    rng = np.random.default_rng(19)
    both = (compose(bwd, fwd), compose(fwd, bwd))
    for _ in range(6):
        P = sample_point(rng, 2, 2, 6)
        for comp in both:
            assert points_equal(comp.evaluate(P), P, 1e-10)


def test_compose_evaluation_consistency():
    fwd, bwd = lac_pair()
    rng = np.random.default_rng(23)
    comp = compose(bwd, fwd)
    for _ in range(5):
        P = sample_point(rng, 2, 2, 5)
        assert points_equal(comp.evaluate(P), bwd.evaluate(fwd.evaluate(P)), 1e-12)


def chain_maps():
    E2 = lambda s: expr_body(s, 2)
    f = SuperMap((2, 2), (2, 2), [
        SuperFunction(2, 2, {0: E2("q1 + q2^2"), 0b11: E2("q1")}),
        SuperFunction(2, 2, {0: E2("q1*q2 + 2")}),
        SuperFunction(2, 2, {0b01: E2("q2"), 0b10: E2("q1^2")}),
        SuperFunction(2, 2, {0b10: E2("1 + q1")}),
    ])
    g = SuperMap((2, 2), (2, 2), [
        SuperFunction(2, 2, {0: E2("sin(q1)"), 0b11: E2("q2")}),
        SuperFunction(2, 2, {0: E2("q2 + q1^2")}),
        SuperFunction(2, 2, {0b01: E2("1 + q2^2")}),
        SuperFunction(2, 2, {0b01: E2("q1"), 0b10: E2("2")}),
    ])
    return f, g


def test_seeded_jacobian_matches_fd_oracle():
    f, g = chain_maps()
    rng = np.random.default_rng(29)
    for F in (f, g):
        for _ in range(3):
            P = sample_point(rng, 2, 2, 4)
            J_seed = map_body_jacobian(F, P)
            J_fd = fd_body_jacobian(F, P)
            assert np.max(np.abs(J_seed - J_fd)) < 1e-8


def test_chain_rule_body_jacobian():
    f, g = chain_maps()
    gof = compose(g, f)
    rng = np.random.default_rng(31)
    for _ in range(4):
        P = sample_point(rng, 2, 2, 4)
        J_f = map_body_jacobian(f, P)
        J_g = map_body_jacobian(g, f.evaluate(P))
        J_gof = map_body_jacobian(gof, P)
        assert np.max(np.abs(J_gof - J_g @ J_f)) < 1e-9
        # and the independent finite-difference oracle agrees
        assert np.max(np.abs(fd_body_jacobian(gof, P) - J_gof)) < 1e-7


def test_compose_shape_mismatch_raises():
    fwd, _ = lac_pair()
    with pytest.raises(GrassmannError):
        compose(fwd, identity_map(1, 2))


# ---------------------------------------------------------------------------
# maps: inversion
# ---------------------------------------------------------------------------

def test_invert_identity():
    ident = identity_map(1, 1)
    inv = invert_map(ident, lambda q: q)
    rng = np.random.default_rng(37)
    for _ in range(5):
        P = sample_point(rng, 1, 1, 4)
        assert points_equal(inv.evaluate(P), P, 1e-12)


def test_invert_nilpotent_shift_closed_form():
    # x = y + w1 w2 phi(y), theta = w  inverts to  y = x - t1 t2 phi(x)
    E1 = lambda s: expr_body(s, 1)
    F = SuperMap((1, 2), (1, 2), [
        SuperFunction(1, 2, {0: E1("q1"), 0b11: E1("sin(q1)")}),
        SuperFunction(1, 2, {0b01: const_body(1.0, 1)}),
        SuperFunction(1, 2, {0b10: const_body(1.0, 1)}),
    ])
    Finv_expected = SuperMap((1, 2), (1, 2), [
        SuperFunction(1, 2, {0: E1("q1"), 0b11: E1("-sin(q1)")}),
        SuperFunction(1, 2, {0b01: const_body(1.0, 1)}),
        SuperFunction(1, 2, {0b10: const_body(1.0, 1)}),
    ])
    Finv = invert_map(F, lambda q: q)  # body map is the identity
    rng = np.random.default_rng(41)
    for _ in range(5):
        P = sample_point(rng, 1, 2, 6)
        assert points_equal(Finv.evaluate(P), Finv_expected.evaluate(P), 1e-11)


def test_invert_forward_map_recovers_rational_inverse():
    fwd, bwd = lac_pair()
    inv = invert_map(fwd, lambda q: q)  # forward body map is the identity
    rng = np.random.default_rng(43)
    for _ in range(5):
        P = sample_point(rng, 2, 2, 6)
        assert points_equal(inv.evaluate(P), bwd.evaluate(P), 1e-10)


def test_invert_with_nontrivial_body_map():
    # x = y^3 + y + t1 t2 cos(y): body root-find supplied by the caller
    E1 = lambda s: expr_body(s, 1)
    F = SuperMap((1, 2), (1, 2), [
        SuperFunction(1, 2, {0: E1("q1**3 + q1"), 0b11: E1("cos(q1)")}),
        SuperFunction(1, 2, {0b01: E1("1 + q1^2")}),
        SuperFunction(1, 2, {0b10: const_body(1.0, 1)}),
    ])

    def body_inverse(q):
        out = []
        for v in q:
            roots = np.roots([1.0, 0.0, 1.0, -float(v)])
            real = [r.real for r in roots if abs(r.imag) < 1e-9]
            out.append(min(real, key=lambda r: abs(r ** 3 + r - v)))
        return out

    Finv = invert_map(F, body_inverse)
    rng = np.random.default_rng(47)
    round_fwd = compose(F, Finv)
    round_bwd = compose(Finv, F)
    for _ in range(4):
        P = sample_point(rng, 1, 2, 6)
        assert points_equal(round_fwd.evaluate(P), P, 1e-9)
        assert points_equal(round_bwd.evaluate(P), P, 1e-9)


# ---------------------------------------------------------------------------
# compatibility (Cauchy-Riemann style) residual
# ---------------------------------------------------------------------------

def test_cr_residual_small_for_continuations():
    f = SuperFunction(1, 0, {0: expr_body("q1^2", 1)})
    rng = np.random.default_rng(53)
    samples = [sample_point(rng, 1, 0, 4) for _ in range(2)]
    assert cr_residual(f, samples) < 1e-8

    g = SuperFunction(1, 1, {0b1: expr_body("exp(q1)", 1)})
    samples = [sample_point(rng, 1, 1, 4) for _ in range(2)]
    assert cr_residual(g, samples) < 1e-8


def test_cr_residual_flags_coefficient_projection():
    class CoefficientPeek:
        """Reads one soul coefficient of x1 directly: not a continuation."""

        def evaluate(self, P):
            L = max(P.L, 1)
            return scalar(L, P.x[0].coefficient(0b11))

    rng = np.random.default_rng(59)
    samples = [sample_point(rng, 1, 0, 4) for _ in range(2)]
    assert cr_residual(CoefficientPeek(), samples) > 0.1


def test_cr_residual_small_for_odd_linear():
    u = expr_body("q1^2 + 1", 1)
    f = SuperFunction(1, 2, {0b01: u, 0b10: _neg_body(u)})
    rng = np.random.default_rng(61)
    samples = [sample_point(rng, 1, 2, 4) for _ in range(2)]
    assert cr_residual(f, samples) < 1e-8


def _neg_body(bf):
    from supercalc.superspace import _ScaledBody
    return _ScaledBody(bf, -1.0)


# ---------------------------------------------------------------------------
# guardrails
# ---------------------------------------------------------------------------

def test_superpoint_validation():
    with pytest.raises(GrassmannError):
        SuperPoint((gen(2, 0),), ())  # odd value in an even slot
    with pytest.raises(GrassmannError):
        SuperPoint((), (scalar(2, 1.0),))  # even value in an odd slot
    with pytest.raises(GrassmannError):
        SuperPoint((scalar(2, 1.0j),), ())  # complex body
    P = SuperPoint((scalar(2, 1.0),), (zero(2),))  # zero is fine in odd slots
    assert P.shape == (1, 1)


def test_supermap_shape_checks():
    fwd, _ = lac_pair()
    rng = np.random.default_rng(67)
    with pytest.raises(GrassmannError):
        fwd.evaluate(sample_point(rng, 1, 2, 4))
    with pytest.raises(GrassmannError):
        SuperMap((1, 1), (1, 1), [])


def test_body_jacobian_is_the_transposed_body_of_the_super_jacobian():
    rng = np.random.default_rng(37)
    for F in (*chain_maps(), *lac_pair()):
        P = sample_point(rng, 2, 2, 4)
        J = map_super_jacobian(F, P)
        assert np.array_equal(map_body_jacobian(F, P), J.body_matrix().T)
