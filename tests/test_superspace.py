"""Functions and maps with odd coordinates: continuation, partials, maps."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supercalc.grassmann import (
    AnalyticSpec,
    GrassmannDomainError,
    GrassmannError,
    Supernumber,
    apply_analytic,
    gen,
    make,
    max_abs,
    one,
    scalar,
    seed,
    seed_parts,
    soul,
    zero,
)
from supercalc import superspace
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
    expr_body,
    identity_map,
    invert_map,
    map_body_jacobian,
    map_super_jacobian,
    parse_expression,
)

from supercalc.berezin import integrate_odd, odd_expand
from supercalc.superlinalg import identity_sm
from supercalc.weyl_dynamics import SuperHamiltonian

from helpers import close, count_linalg_calls, identical, same_bytes


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
    Pw = SuperPoint(tuple(v.embed(Lw) for v in P.x), tuple(v.embed(Lw) for v in P.theta))
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


@settings(max_examples=25)
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
        uval = continue_body(u, P.x)
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
    rhs = continue_body(bf.diff(0), P.x)
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


def test_seeding_nested_inside_a_seeded_evaluation():
    # the map's component seeds fresh odd generators of its own (odd_expand)
    # inside the evaluation that map_super_jacobian seeds: d(x^2)/dx at 1.5
    class SquareViaBerezin:
        def evaluate(self, P):
            x = P.x[0]
            expanded = odd_expand(lambda th: x * x * th[0] * th[1], 2, P.L)
            return integrate_odd(expanded)

    F = SuperMap((1, 0), (1, 0), [SquareViaBerezin()])
    J = map_super_jacobian(F, SuperPoint((scalar(1, 1.5),), ()))
    assert J.entry(0, 0) == scalar(1, 3.0)


def test_compose_evaluates_each_map_once_per_call(monkeypatch):
    # four SuperFunction components in each map, each evaluated once
    calls = []
    evaluate = SuperFunction.evaluate
    monkeypatch.setattr(SuperFunction, "evaluate",
                        lambda self, P: calls.append(self) or evaluate(self, P))
    fwd, bwd = lac_pair()
    comp = compose(bwd, fwd)
    P = sample_point(np.random.default_rng(71), 2, 2, 4)
    comp.evaluate(P)
    assert len(calls) == 8
    calls.clear()
    map_super_jacobian(comp, P)
    assert len(calls) == 8


@pytest.mark.parametrize("nodes", [None, 7])
def test_identity_map_returns_its_point_and_a_unit_jacobian(nodes):
    rng = np.random.default_rng(73)
    P = sample_point(rng, 2, 2, 4) if nodes is None else batch_point(rng, nodes, 4)
    ident = identity_map(2, 2)
    assert ident.evaluate(P) is P
    J, want = map_super_jacobian(ident, P), identity_sm(2, 2, P.L)
    assert (J.m, J.n, J.L) == (want.m, want.n, want.L)
    for r in range(4):
        for c in range(4):
            assert identical(J.rows[r][c], want.rows[r][c])


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


def cubic_root(v: float) -> float:
    """The real y with y^3 + y = v, by a numeric root-find."""
    roots = np.roots([1.0, 0.0, 1.0, -v])
    return min((r.real for r in roots if abs(r.imag) < 1e-9), key=lambda r: abs(r ** 3 + r - v))


def cubic_and_its_inverse():
    """q -> q^3 + q on (1|0), and its inverse from a numeric body root."""
    F = SuperMap((1, 0), (1, 0), [SuperFunction(1, 0, {0: expr_body("q1**3 + q1", 1)})])
    return F, invert_map(F, lambda q: [cubic_root(float(q[0]))])


@pytest.mark.parametrize("s", [1e-13, 1e9, np.array([1e-13, 1.0, 1e9])])
def test_invert_map_stops_relative_to_the_point_at_each_node(s):
    # at s + s s0 s1 an absolute stopping test returns the body root alone
    # for s = 1e-13, and never stops for s = 1e9, where rounding exceeds it
    F, inv = cubic_and_its_inverse()
    P = SuperPoint((make(2, {0: s, 0b11: s}),), ())
    resid = F.evaluate(inv.evaluate(P)).x[0] - P.x[0]
    for c in resid.terms.values():
        assert np.all(np.abs(c) <= 1e-12 * s)


def test_invert_map_stops_at_the_rounding_of_the_maps_own_terms():
    # q -> q + 1 at 1e-6: Y + 1 lands on multiples of 2^-53, so the residual
    # stays near 3e-17, above 1e-12 times P, and the Newton step leaves Y as it is
    F = SuperMap((1, 0), (1, 0), [SuperFunction(1, 0, {0: expr_body("q1 + 1", 1)})])
    inv = invert_map(F, lambda q: [q[0] - 1])
    for P in (make(2, {0: 1e-6}), make(2, {0: 1e-6, 0b11: 1e-6})):
        Y = inv.evaluate(SuperPoint((P,), ()))
        assert close(Y.x[0].body, 1e-6 - 1, tol=1e-16)
        assert close(Y.x[0].coefficient(0b11), P.coefficient(0b11), tol=1e-16)
        assert max_abs(F.evaluate(Y).x[0] - P) <= 1e-16


def test_invert_map_stops_relative_to_each_slot():
    # with 1e9 in the first slot, one peak over both slots would accept a
    # residual of 1e-3 and drop the soul 1e-13 s0 s1 of the second
    cube = SuperMap((2, 0), (2, 0), [SuperFunction(2, 0, {0: expr_body(f"q{k}**3 + q{k}", 2)})
                                     for k in (1, 2)])
    inv = invert_map(cube, lambda q: [cubic_root(float(v)) for v in q])
    P = SuperPoint((make(2, {0: 1e9}), make(2, {0: 1e-13, 0b11: 1e-13})), ())
    image = cube.evaluate(inv.evaluate(P))
    for got, want in zip(image.x, P.x):
        assert max_abs(got - want) <= 1e-12 * max_abs(want)


def test_invert_map_with_a_singular_body_jacobian_raises():
    # q -> q^3 has body Jacobian 3 q^2 = 0 at the body root 0 of 0 + s0 s1
    F = SuperMap((1, 0), (1, 0), [SuperFunction(1, 0, {0: expr_body("q1**3", 1)})])
    inv = invert_map(F, lambda q: [0.0])
    with pytest.raises(GrassmannDomainError, match="singular"):
        inv.evaluate(SuperPoint((make(2, {0b11: 1.0}),), ()))


def test_invert_map_of_a_small_map_makes_no_numpy_linalg_call(monkeypatch):
    calls = count_linalg_calls(monkeypatch)
    cube = SuperMap((2, 0), (2, 0), [SuperFunction(2, 0, {0: expr_body(f"q{k}**3 + q{k}", 2)})
                                     for k in (1, 2)])
    inv = invert_map(cube, lambda q: [cubic_root(float(v)) for v in q])
    P = SuperPoint((make(2, {0: np.array([0.5, 2.0]), 0b11: 1.0}), make(2, {0: 1.5})), ())
    image = cube.evaluate(inv.evaluate(P))
    assert max_abs(image.x[0] - P.x[0]) <= 1e-12 * max_abs(P.x[0])
    assert calls == []


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


def test_a_non_real_body_raises_at_each_point_built_from_outside_or_by_a_map():
    # a batch with one complex node
    with pytest.raises(GrassmannError, match="real"):
        SuperPoint((Supernumber(2, {0: np.array([1.0, 2.0 + 1e-3j])}),), ())
    # a map's value is checked, also at the seeded arguments of its Jacobian
    # and of _jet, which build their own points without the check
    F = SuperMap((1, 1), (1, 1), [SuperFunction(1, 1, {0: expr_body("q1 + 1j", 1)}),
                                  SuperFunction(1, 1, {0b1: const_body(1.0, 1)})])
    P = SuperPoint((scalar(1, 0.5),), (gen(1, 0),))
    for call in (F.evaluate, lambda P: map_super_jacobian(F, P),
                 lambda P: superspace._jet(F, P)):
        with pytest.raises(GrassmannError, match="real"):
            call(P)


def test_jet_checks_only_the_point_its_map_returns(monkeypatch):
    checked = []
    check = SuperPoint.__post_init__
    monkeypatch.setattr(SuperPoint, "__post_init__", lambda P: checked.append(P) or check(P))
    F, _ = lac_pair()
    P = sample_point(np.random.default_rng(83), 2, 2, 4)
    checked.clear()
    superspace._jet(F, P)
    assert len(checked) == 1


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


# ---------------------------------------------------------------------------
# the Taylor basis a point shares between its evaluations
# ---------------------------------------------------------------------------

def batch_point(rng, nodes, L):
    """A (2|2) point with one value per node in every coefficient."""
    def coeffs(lo, hi, imag=True):
        c = rng.uniform(lo, hi, nodes)
        return c + 1j * rng.uniform(lo, hi, nodes) if imag else c

    xs = tuple(make(L, {0: coeffs(0.3, 1.5, imag=False),
                        0b0011 << 2 * j: coeffs(-0.5, 0.5),
                        0b1001: coeffs(-0.5, 0.5)}) for j in range(2))
    ths = tuple(make(L, {1 << s: coeffs(-0.7, 0.7), 1 << (s + 2): coeffs(-0.7, 0.7)})
                for s in range(2))
    return SuperPoint(xs, ths)


@pytest.mark.parametrize("nodes", [None, 7])
def test_shared_basis_gives_exactly_the_values_of_fresh_points(nodes):
    rng = np.random.default_rng(43)
    P = sample_point(rng, 2, 2, 4) if nodes is None else batch_point(rng, nodes, 4)
    L = max(P.L, 1)
    for F in lac_pair():
        first, second = F.evaluate(P), F.evaluate(P)  # the second reads P's cache
        fresh = [c.evaluate(SuperPoint(P.x, P.theta)) for c in F.components]
        for a, b, want in zip(first.x + first.theta, second.x + second.theta, fresh):
            assert identical(a, want) and identical(b, want)
        # the seeded evaluation shares one basis between the four components;
        # the reference evaluates each at a point of its own
        J = map_super_jacobian(F, P)
        ex, th, masks = seed(P.x, P.theta, L)
        parts = [seed_parts(c.evaluate(SuperPoint(ex, th)), L) for c in F.components]
        for r, mask in enumerate(masks):
            for c, p in enumerate(parts):
                assert identical(J.rows[r][c], p.get(mask, zero(L)))


def test_one_map_evaluation_builds_the_basis_once_per_point(monkeypatch):
    built = []
    build = superspace._taylor_basis
    monkeypatch.setattr(superspace, "_taylor_basis",
                        lambda xs, L: built.append(L) or build(xs, L))
    fwd, _ = lac_pair()
    P = sample_point(np.random.default_rng(47), 2, 2, 4)
    fwd.evaluate(P)
    assert built == [4]
    fwd.evaluate(P)
    assert built == [4]
    map_super_jacobian(fwd, P)  # one seeded point, 4 + 2*2 + 2 generators
    assert built == [4, 10]


def test_cached_basis_is_no_part_of_point_identity():
    fwd, _ = lac_pair()
    P = sample_point(np.random.default_rng(53), 2, 2, 4)
    Q = SuperPoint(P.x, P.theta)
    fwd.evaluate(P)
    assert P == Q and hash(P) == hash(Q) and repr(P) == repr(Q)
    calls = []

    def body_inverse(q):  # the body of fwd is the identity map
        calls.append(q)
        return q

    inv = invert_map(fwd, body_inverse)
    assert inv.evaluate(P) == inv.evaluate(Q)
    assert len(calls) == 2  # one solve per evaluation


def test_evaluate_on_a_batch_raises_where_a_coefficient_overflows():
    # exp(800) overflows: at one node the derivative raises, and on a batch
    # (numpy's own warning silenced) the inf it leaves in the result does
    f = SuperFunction(1, 0, {0: expr_body("exp(q1)", 1)})
    s0s1 = Supernumber(2, {0b11: 1.0})
    with pytest.raises(GrassmannDomainError):
        f.evaluate(SuperPoint((scalar(2, 800.0) + s0s1,), ()))
    batch = Supernumber(2, {0: np.array([800.0, 1.0])}) + s0s1
    with np.errstate(over="ignore"), pytest.raises(GrassmannDomainError, match="overflows"):
        f.evaluate(SuperPoint((batch,), ()))
    # a finite batch still evaluates node by node
    got = f.evaluate(SuperPoint((Supernumber(2, {0: np.array([2.0, 1.0])}) + s0s1,), ()))
    assert np.allclose(got.body, np.exp([2.0, 1.0]), rtol=1e-15, atol=0)


def test_numeric_coefficient_beyond_order_four_raises_through_evaluate():
    f = SuperFunction(1, 0, {0: NumericBodyFunction(lambda q: cmath.exp(q[0]), 1)})
    L = 10
    s = zero(L)
    for k in range(5):
        s = s + gen(L, 2 * k) * gen(L, 2 * k + 1)
    with pytest.raises(OrderError):
        f.evaluate(SuperPoint((scalar(L, 0.1) + s,), ()))


# ---------------------------------------------------------------------------
# first-order seeding: terms with two or more seeds are dropped on the way
# ---------------------------------------------------------------------------

def hand_seeded(F: SuperMap, P: SuperPoint):
    """J[r][c] from one evaluation of F at seeded arguments that keep every
    term, and the seeded output values."""
    L = max(P.L, 1)
    ex, th, masks = seed(P.x, P.theta, L)
    out = F.evaluate(SuperPoint(ex, th))
    parts = [seed_parts(v, L) for v in out.x + out.theta]
    return [[p.get(mask, zero(L)) for p in parts] for mask in masks], out


def fresh_parts(values, L):
    return {m >> L for v in values for m in v.terms}


@pytest.mark.parametrize("nodes", [None, 7])
def test_truncated_jacobian_equals_the_full_seeded_one_bit_for_bit(nodes):
    rng = np.random.default_rng(59)
    P = sample_point(rng, 2, 2, 4) if nodes is None else batch_point(rng, nodes, 4)
    L = max(P.L, 1)
    for F in lac_pair():
        want, full = hand_seeded(F, P)
        J = map_super_jacobian(F, P)
        for r in range(4):
            for c in range(4):
                assert identical(J.rows[r][c], want[r][c])
        # the full evaluation has terms with two or more seeds, the first-order
        # one has none
        ex, th, masks = seed(P.x, P.theta, L, first_order=True)
        out = F.evaluate(SuperPoint(ex, th))
        allowed = {0, *masks}
        assert not fresh_parts(full.x + full.theta, L) <= allowed
        assert fresh_parts(out.x + out.theta, L) <= allowed


def gradient_map():
    """(2|2) -> (2|2): the gradient (H_x, H_xi, H_th, H_pi) of
    H = exp(x) xi^2 + x^2 xi + 0.6 x th pi, each component read by
    SuperHamiltonian.gradient, and its body Jacobian in closed form."""
    exp = AnalyticSpec.named("exp")

    def fn(t, x, xi, th, pi):
        return (apply_analytic(exp, x[0]) * xi[0] * xi[0] + x[0] * x[0] * xi[0]
                + 0.6 * x[0] * th[0] * pi[0])

    H = SuperHamiltonian(fn, 1, 1)

    class Component:
        def __init__(self, group):
            self.group = group

        def evaluate(self, P):
            grad = H.gradient(0.0, P.x[:1], P.x[1:], P.theta[:1], P.theta[1:])
            return grad[self.group][0]

    def body_jacobian(x, xi):
        e = math.exp(x)
        even = [[e * xi * xi + 2 * xi, 2 * e * xi + 2 * x],
                [2 * e * xi + 2 * x, 2 * e]]
        return even, [[0.0, 0.6 * x], [-0.6 * x, 0.0]]

    return SuperMap((2, 2), (2, 2), [Component(g) for g in range(4)]), body_jacobian


def test_jacobian_of_a_map_whose_components_seed_their_own_gradients():
    # two first-order windows interleave: map_super_jacobian seeds above P's
    # generators, and each component seeds again above those
    F, body_jacobian = gradient_map()
    rng = np.random.default_rng(61)
    for _ in range(3):
        P = sample_point(rng, 2, 2, 4)
        J_fd = fd_body_jacobian(F, P)
        assert np.max(np.abs(map_body_jacobian(F, P) - J_fd)) < 1e-7
        even, odd = body_jacobian(P.x[0].body.real, P.x[1].body.real)
        assert np.max(np.abs(J_fd[:2, :2] - np.array(even))) < 1e-7
        assert np.max(np.abs(J_fd[2:, 2:] - np.array(odd))) < 1e-7
        want, _ = hand_seeded(F, P)
        J = map_super_jacobian(F, P)
        for r in range(4):
            for c in range(4):
                assert identical(J.rows[r][c], want[r][c])


def test_invert_map_keeps_a_truncated_solution_apart_from_a_full_one():
    # y = (th1 - th1 th2 th3, th2, th3) inverts F = (th1 + th1 th2 th3, th2, th3).
    # Seeding the Jacobian at zero odd slots and expanding in three fresh odd
    # generators build equal points; the first solves under a cut, which drops
    # the three-seed term the expansion reads.
    one_ = const_body(1.0, 0)
    F = SuperMap((0, 3), (0, 3), [
        SuperFunction(0, 3, {0b001: one_, 0b111: one_}),
        SuperFunction(0, 3, {0b010: one_}),
        SuperFunction(0, 3, {0b100: one_}),
    ])
    inv = invert_map(F, lambda q: q)
    L = 1
    P = SuperPoint((), (zero(L),) * 3)
    map_super_jacobian(inv, P)
    expanded = odd_expand(lambda th: inv.evaluate(SuperPoint((), th)).theta[0], 3, L)
    assert expanded.coefficients[0b111] == scalar(L, -1.0)
    assert expanded.coefficients[0b001] == scalar(L, 1.0)


# ---------------------------------------------------------------------------
# one seeded evaluation gives a map's value and its Jacobian
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("nodes", [None, 7])
def test_jet_value_is_the_plain_evaluation_bit_for_bit(nodes):
    rng = np.random.default_rng(79)
    P = sample_point(rng, 2, 2, 4) if nodes is None else batch_point(rng, nodes, 4)
    for F in lac_pair():
        value, _ = superspace._jet(F, P)
        plain = F.evaluate(P)
        assert all(same_bytes(a, b) for a, b in zip(value.x + value.theta,
                                                     plain.x + plain.theta))


# ---------------------------------------------------------------------------
# a batch that fails at one node raises without a numpy warning
# ---------------------------------------------------------------------------

# each fails at node 0 and not at node 1; under the suite's filterwarnings =
# error, a numpy warning from an expression node would raise before the
# finite check of the public call
BATCH_FAILURES = {
    "exp": ("exp(q1)", [800.0, 1.0]),
    "log": ("log(q1)", [0.0, 1.0]),
    "reciprocal": ("1/q1", [0.0, 1.0]),
}


@pytest.mark.parametrize("name", sorted(BATCH_FAILURES))
def test_continue_body_on_a_batch_raises_without_a_numpy_warning(name):
    text, bodies = BATCH_FAILURES[name]
    x = Supernumber(1, {0: np.array(bodies)})
    with pytest.raises(GrassmannDomainError, match="continuation overflows"):
        continue_body(expr_body(text, 1), [x])
    # one node raises too, from cmath
    with pytest.raises(GrassmannDomainError):
        continue_body(expr_body(text, 1), [scalar(1, bodies[0])])


@pytest.mark.parametrize("name", sorted(BATCH_FAILURES))
def test_evaluate_on_a_batch_raises_without_a_numpy_warning(name):
    text, bodies = BATCH_FAILURES[name]
    theta = gen(2, 1)
    f = SuperFunction(1, 1, {0: expr_body(text, 1), 0b1: expr_body(text, 1)})
    point = SuperPoint((Supernumber(2, {0: np.array(bodies), 0b01: 0.0}),), (theta,))
    with pytest.raises(GrassmannDomainError, match="continuation overflows"):
        f.evaluate(point)


def test_a_batch_whose_value_overflows_inside_raises_as_one_node_does():
    # exp(-exp(q1)) at 800 overflows in exp(q1) and would come out 0 if the
    # overflow were ignored; it raises on the batch as at one node, also
    # inside a chunk of berezin's quadrature, where numpy raises
    x = Supernumber(1, {0: np.array([800.0, 1.0])})
    bf = expr_body("exp(-exp(q1))", 1)
    with pytest.raises(GrassmannDomainError):
        continue_body(bf, [scalar(1, 800.0)])
    with pytest.raises(GrassmannDomainError, match="overflow"):
        continue_body(bf, [x])
    with np.errstate(over="raise"), pytest.raises(GrassmannDomainError, match="overflow"):
        continue_body(bf, [x])
    # an underflow is no error, at one node or on a batch
    tiny = Supernumber(1, {0: np.array([-800.0, 1.0])})
    assert continue_body(expr_body("exp(q1)", 1), [tiny]).body[0] == 0
