"""Odd Fourier pair: monomial images, inversion, Plancherel, mixed transforms."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supercalc.berezin import (
    OddPolynomial,
    gaussian_body_moment,
    integrate_odd,
    odd_expand,
)
from supercalc.fourier_odd import (
    GaussPolyBody,
    OddFourierConfig,
    even_gauss_transform,
    fo,
    fo_bar,
    mixed_transform,
    mixed_transform_bar,
    odd_delta,
    odd_pairing,
)
from supercalc.grassmann import (
    AnalyticSpec,
    GrassmannError,
    Supernumber,
    apply_analytic,
    make,
    max_abs,
    zero,
)
from supercalc.superspace import SuperFunction, expr_body

from helpers import bits_of, close

EXP = AnalyticSpec.named("exp")

# ---------------------------------------------------------------------------
# oracles (written before the code under test is exercised)
# ---------------------------------------------------------------------------


def monomial_image_oracle(v: OddPolynomial, cfg: OddFourierConfig,
                          inverse: bool = False) -> OddPolynomial:
    """Transform monomial-by-monomial via the closed selection rule.

    Integrating theta^a against the expanded kernel keeps exactly the kernel
    term that supplies the complementary monomial: the image of theta^a is a
    single monomial in the complement mask, scaled by (unit/scale)^{|comp|}
    and by the transposition sign of merging the two ascending index lists
    (plus the reversal sign of the complement block).  The backward kernel
    flips the unit and pairs pi_j theta_j, one more sign per kernel factor.
    No nested generator expansion and no kernel exponential are used.
    """
    n = cfg.n
    full = (1 << n) - 1
    unit = 1j if cfg.convention == "standard" else 1.0
    if not inverse:
        unit = -unit
    out = {}
    for a, c in v.coefficients.items():
        comp = full ^ a
        k = comp.bit_count()
        swaps = sum(1 for j in bits_of(a) for t in bits_of(comp) if j > t)
        sign = (-1.0) ** ((k * (k - 1)) // 2 + swaps + (k if inverse else 0))
        fac = cfg.normalization * ((unit / complex(cfg.kernel_scale)) ** k) * sign
        prev = out.get(comp)
        out[comp] = fac * c if prev is None else prev + fac * c
    return OddPolynomial(n, out, L=v.L)


def defining_integral_oracle(v: OddPolynomial, cfg: OddFourierConfig,
                             inverse: bool = False) -> OddPolynomial:
    """The transform as its defining integral, computed by brute force.

    Seed the target variables above the ambient algebra and the integration
    variables above those, expand the kernel exp(factor * pairing) in the
    algebra, multiply by v at the integration variables, integrate them out
    (default descending measure) and read the polynomial in the targets back.
    The forward pairing is sum_j theta_j pi_j and the backward one
    sum_j pi_j theta_j, theta always first in the transform's own variables.
    """
    n, La = cfg.n, v.L
    unit = 1j if cfg.convention == "standard" else 1.0
    factor = (unit if inverse else -unit) / complex(cfg.kernel_scale)

    def in_target(tgt):
        def integrand(src):
            pairing = zero(La + 2 * n)
            for t, s in zip(tgt, src):
                pairing = pairing + ((t * s) if inverse else (s * t))
            return apply_analytic(EXP, pairing * factor) * v.evaluate(src)

        return integrate_odd(odd_expand(integrand, n, La + n))

    out = odd_expand(in_target, n, La)
    return OddPolynomial(n, {a: cfg.normalization * c
                             for a, c in out.coefficients.items()}, L=La)


def gauss_hermite_transform(poly, decay, hbar, xi, nodes=80):
    """Quadrature oracle for the 1-D even transform.

    Computes (2 pi hbar)^{-1/2} * integral P(q) exp(-decay q^2/2 - i q xi/hbar) dq
    by folding the Gaussian into the Hermite weight with q = sqrt(2/decay) x.
    """
    x, w = np.polynomial.hermite.hermgauss(nodes)
    t = math.sqrt(2.0 / decay)
    total = 0j
    for xx, wt in zip(x, w):
        q = t * xx
        p = sum(c * q ** k[0] for k, c in poly.items())
        total += wt * p * cmath.exp(-1j * q * xi / hbar)
    return (2.0 * math.pi * hbar) ** -0.5 * t * total


def conj_scalar_poly(P: OddPolynomial) -> OddPolynomial:
    """Conjugate a scalar-coefficient odd polynomial.

    Coefficients conjugate and each monomial reverses, contributing
    (-1)^{k(k-1)/2} on a degree-k monomial.
    """
    out = {}
    for a, c in P.coefficients.items():
        k = a.bit_count()
        sgn = -1.0 if ((k * (k - 1)) // 2) % 2 else 1.0
        out[a] = sgn * complex(c.coefficient(0)).conjugate()
    return OddPolynomial(P.n, out)


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def polys_close(P: OddPolynomial, Q: OddPolynomial, tol: float = 1e-12) -> bool:
    L = max(P.L, Q.L)
    for a in set(P.coefficients) | set(Q.coefficients):
        c = P.coefficients.get(a, zero(P.L)).embed(L)
        d = Q.coefficients.get(a, zero(Q.L)).embed(L)
        if max_abs(c - d) > tol:
            return False
    return True


def random_soul_poly(rng, n: int, L: int = 2) -> OddPolynomial:
    """Every odd monomial present, coefficients with full ambient support."""
    coeffs = {}
    for a in range(1 << n):
        terms = {m: complex(rng.standard_normal(), rng.standard_normal())
                 for m in range(1 << L)}
        coeffs[a] = make(L, terms)
    return OddPolynomial(n, coeffs, L=L)


def scale_poly(P: OddPolynomial, c: complex) -> OddPolynomial:
    return OddPolynomial(P.n, {a: c * v for a, v in P.coefficients.items()}, L=P.L)


def scalar_of(x: Supernumber) -> complex:
    return x.coefficient(0)


SCALES = (1.0, 2.0, 1.5 - 0.7j, -1.0)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_config_rejects_bad_parameters():
    with pytest.raises(GrassmannError):
        OddFourierConfig(2, 0.0)
    with pytest.raises(GrassmannError):
        OddFourierConfig(-1, 1.0)
    with pytest.raises(GrassmannError):
        OddFourierConfig(2.0, 1.0)  # type: ignore[arg-type]
    with pytest.raises(GrassmannError):
        OddFourierConfig(2, 1.0, convention="imaginary")


def test_phase_squares_follow_the_parity_of_n():
    for n in range(9):
        sq = OddFourierConfig(n, 1.0).phase ** 2
        want = 1j if n % 4 in (1, 3) else 1.0
        assert close(sq, want, 1e-14)
        alt = OddFourierConfig(n, 1.0, convention="real-kernel").phase
        assert close(alt, 1.0, 1e-14) or close(alt, -1.0, 1e-14)


def test_normalization_combines_scale_power_and_phase():
    cfg = OddFourierConfig(2, 2.0)
    assert close(cfg.normalization, 2.0)
    cfg = OddFourierConfig(1, 4.0)
    assert close(cfg.normalization, 2.0 * cmath.exp(0.25j * math.pi))


# ---------------------------------------------------------------------------
# forward transform: oracle sweep and the printed low-n examples
# ---------------------------------------------------------------------------


def test_forward_matches_monomial_oracle():
    rng = np.random.default_rng(41)
    for convention in ("standard", "real-kernel"):
        for n in (1, 2, 3, 4):
            for scale in SCALES:
                cfg = OddFourierConfig(n, scale, convention=convention)
                v = random_soul_poly(rng, n)
                assert polys_close(fo(v, cfg), monomial_image_oracle(v, cfg))
                assert polys_close(fo_bar(v, cfg),
                                   monomial_image_oracle(v, cfg, inverse=True))


@settings(max_examples=150)
@given(
    n=st.integers(0, 6),
    L=st.integers(0, 4),
    convention=st.sampled_from(("standard", "real-kernel")),
    scale=st.complex_numbers(min_magnitude=0.25, max_magnitude=4.0,
                             allow_nan=False, allow_infinity=False),
    key=st.integers(0, 2 ** 32 - 1),
)
def test_property_both_directions_equal_the_defining_integral(n, L, convention,
                                                              scale, key):
    cfg = OddFourierConfig(n, scale, convention=convention)
    v = random_soul_poly(np.random.default_rng(key), n, L)
    for transform, inverse in ((fo, False), (fo_bar, True)):
        got = transform(v, cfg)
        want = defining_integral_oracle(v, cfg, inverse)
        assert set(got.coefficients) == set(want.coefficients)
        peak = max(max_abs(c) for c in want.coefficients.values())
        assert polys_close(got, want, 1e-15 * peak)


def test_low_n_examples_match_printed_forms():
    # n=1: u0 + u1 theta  ->  e^{i pi/4} s^{1/2} (u1 - i s^{-1} u0 pi), and back.
    for s in (1.0, 2.0, 2j):
        cfg = OddFourierConfig(1, s)
        u0, u1 = 0.7 - 0.2j, 1.1 + 0.4j
        v = OddPolynomial(1, {0: u0, 1: u1})
        pref = cmath.exp(0.25j * math.pi) * complex(s) ** 0.5
        want = OddPolynomial(1, {0: pref * u1, 1: pref * (-1j / s) * u0})
        assert polys_close(fo(v, cfg), want)
        assert polys_close(fo_bar(want, cfg), v, 1e-13)

    # n=2: u0 + theta1 theta2 u1  ->  s (u1 + s^{-2} pi1 pi2 u0);
    #      pi1 v1 + pi2 v2  -> back ->  s(-i s^{-1} theta2 v1 + i s^{-1} theta1 v2).
    for s in (1.0, 2.0, 1.3):
        cfg = OddFourierConfig(2, s)
        u0, u1 = 0.9 + 0.1j, -0.5 + 0.8j
        u = OddPolynomial(2, {0: u0, 0b11: u1})
        assert polys_close(fo(u, cfg), OddPolynomial(2, {0: s * u1, 0b11: u0 / s}))
        v1, v2 = 0.3 - 1.0j, 0.8 + 0.2j
        v = OddPolynomial(2, {0b01: v1, 0b10: v2})
        assert polys_close(fo_bar(v, cfg),
                           OddPolynomial(2, {0b10: -1j * v1, 0b01: 1j * v2}))
        assert polys_close(fo_bar(fo(u, cfg), cfg), u, 1e-13)
        assert polys_close(fo(fo_bar(v, cfg), cfg), v, 1e-13)


def test_n3_example_expansion_and_roundtrip():
    # u = u0 + t1 t2 u1 + t2 t3 u2 + t1 t3 u3 maps to
    # s^{3/2} phase(3) [ -i s^{-3} pi1 pi2 pi3 u0
    #                    - i s^{-1} pi3 u1 - i s^{-1} pi1 u2 + i s^{-1} pi2 u3 ].
    s = 1.7
    cfg = OddFourierConfig(3, s)
    pref = complex(s) ** 1.5 * cfg.phase
    u0, u1, u2, u3 = 0.4 + 0.3j, 1.2 - 0.1j, -0.6 + 0.9j, 0.25 + 0.55j
    u = OddPolynomial(3, {0: u0, 0b011: u1, 0b110: u2, 0b101: u3})
    want = OddPolynomial(3, {
        0b111: pref * (-1j) * s ** -3 * u0,
        0b100: pref * (-1j / s) * u1,
        0b001: pref * (-1j / s) * u2,
        0b010: pref * (1j / s) * u3,
    })
    assert polys_close(fo(u, cfg), want)
    assert polys_close(fo_bar(fo(u, cfg), cfg), u, 1e-13)


def test_point_mass_transforms_to_the_normalization_constant():
    for convention in ("standard", "real-kernel"):
        for n in (1, 2, 3, 4):
            cfg = OddFourierConfig(n, 1.4, convention=convention)
            got = fo(odd_delta(n), cfg)
            assert polys_close(got, OddPolynomial(n, {0: cfg.normalization}))


def test_transform_validates_input():
    cfg = OddFourierConfig(2, 1.0)
    with pytest.raises(GrassmannError):
        fo(OddPolynomial(3, {0: 1.0}), cfg)
    with pytest.raises(GrassmannError):
        fo("not a polynomial", cfg)  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# inversion and Plancherel
# ---------------------------------------------------------------------------


def test_inversion_exact_both_ways():
    rng = np.random.default_rng(17)
    for n in (1, 2, 3, 4):
        for scale in SCALES:
            cfg = OddFourierConfig(n, scale)
            v = random_soul_poly(rng, n)
            assert polys_close(fo_bar(fo(v, cfg), cfg), v, 1e-14)
            assert polys_close(fo(fo_bar(v, cfg), cfg), v, 1e-14)


def test_plancherel_at_unit_scale_on_fifty_random_pairs():
    rng = np.random.default_rng(29)
    for trial in range(50):
        n = 1 + trial % 3
        cfg = OddFourierConfig(n, 1.0)
        v = random_soul_poly(rng, n)
        w = random_soul_poly(rng, n)
        lhs = odd_pairing(v, w)
        rhs = odd_pairing(fo(v, cfg), fo(w, cfg))
        assert max_abs(lhs - rhs) < 1e-12


def test_plancherel_n2_odd_sector_holds_for_every_scale():
    rng = np.random.default_rng(31)
    for scale in (2.0, 1.5 - 0.7j, -1.0):
        cfg = OddFourierConfig(2, scale)
        for _ in range(5):
            v = OddPolynomial(2, {
                0b01: make(2, {0: complex(*rng.standard_normal(2)),
                               0b11: complex(*rng.standard_normal(2))}),
                0b10: make(2, {0: complex(*rng.standard_normal(2))}),
            }, L=2)
            w = OddPolynomial(2, {
                0b01: make(2, {0: complex(*rng.standard_normal(2))}),
                0b10: make(2, {0: complex(*rng.standard_normal(2)),
                               0b01: complex(*rng.standard_normal(2))}),
            }, L=2)
            lhs = odd_pairing(v, w)
            rhs = odd_pairing(fo(v, cfg), fo(w, cfg))
            assert max_abs(lhs - rhs) < 1e-12


def test_pairing_is_coefficientwise_and_sesquilinear():
    v = OddPolynomial(2, {0: 1 + 2j, 0b01: 3j})
    w = OddPolynomial(2, {0: 0.5 - 1j, 0b01: 2.0, 0b10: 7.0})
    got = odd_pairing(v, w)
    assert close(scalar_of(got), (1 - 2j) * (0.5 - 1j) + (-3j) * 2.0)
    a = 0.7 - 1.1j
    assert max_abs(odd_pairing(scale_poly(v, a), w)
                   - a.conjugate() * odd_pairing(v, w)) < 1e-12
    assert max_abs(odd_pairing(v, scale_poly(w, a))
                   - a * odd_pairing(v, w)) < 1e-12
    with pytest.raises(GrassmannError):
        odd_pairing(v, OddPolynomial(1, {0: 1.0}))
    with pytest.raises(GrassmannError):
        odd_pairing(v, 3.0)  # type: ignore[arg-type]


@settings(max_examples=25)
@given(
    c=st.tuples(*[st.complex_numbers(max_magnitude=3.0, allow_nan=False,
                                     allow_infinity=False) for _ in range(8)]),
    a=st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
)
def test_property_linearity_and_inversion(c, a):
    cfg = OddFourierConfig(2, 1.3)
    v = OddPolynomial(2, {m: c[m] for m in range(4)})
    w = OddPolynomial(2, {m: c[4 + m] for m in range(4)})
    comb = OddPolynomial(2, {m: a * c[m] + c[4 + m] for m in range(4)})
    lhs = fo(comb, cfg)
    rhs_parts = (scale_poly(fo(v, cfg), a), fo(w, cfg))
    rhs = OddPolynomial(2, {
        m: rhs_parts[0].coefficients.get(m, zero(0))
           + rhs_parts[1].coefficients.get(m, zero(0))
        for m in set(rhs_parts[0].coefficients) | set(rhs_parts[1].coefficients)
    })
    assert polys_close(lhs, rhs, 1e-10)
    assert polys_close(fo_bar(fo(v, cfg), cfg), v, 1e-10)


# ---------------------------------------------------------------------------
# exchange rules: derivatives, shifts, scaling
# ---------------------------------------------------------------------------


def test_left_derivative_becomes_monomial_multiplication():
    # transform(d_j v) = (i/scale) (-1)^n pi_j * transform(v)
    rng = np.random.default_rng(53)
    for n in (2, 3):
        for scale in (1.0, 1.5 - 0.7j):
            cfg = OddFourierConfig(n, scale)
            v = random_soul_poly(rng, n)
            F = fo(v, cfg)
            for j in range(n):
                lhs = fo(v.partial(j), cfg)
                mult = odd_expand(lambda p: p[j] * F.evaluate(p), n, v.L)
                rhs = scale_poly(mult, (1j / complex(scale)) * (-1.0) ** n)
                assert polys_close(lhs, rhs, 1e-12)


def test_monomial_multiplication_becomes_derivative():
    # transform(theta_j v) = -i scale (-1)^n d_{pi_j} transform(v).
    # The factor is forced by the monomial image rule (multiplying by theta_j
    # before transforming, vs differentiating the image): -i*scale, not the
    # reciprocal that would mirror the derivative-side rule.
    rng = np.random.default_rng(59)
    for n in (2, 3):
        for scale in (1.4, 1.5 - 0.7j):
            cfg = OddFourierConfig(n, scale)
            v = random_soul_poly(rng, n)
            for j in range(n):
                shifted = odd_expand(lambda th: th[j] * v.evaluate(th), n, v.L)
                lhs = fo(shifted, cfg)
                rhs = scale_poly(fo(v, cfg).partial(j),
                                 (-1j * complex(scale)) * (-1.0) ** n)
                assert polys_close(lhs, rhs, 1e-12)


def test_phase_shift_translates_the_transform():
    # transform(exp(+i <theta|p'>/scale) v)(pi) = transform(v)(pi - p')
    rng = np.random.default_rng(61)
    n, L = 2, 2
    scale = 1.6
    cfg = OddFourierConfig(n, scale)
    v = random_soul_poly(rng, n, L)
    shifts = (make(L, {0b01: 0.4 + 0.1j}), make(L, {0b10: -0.3 + 0.7j}))
    F = fo(v, cfg)

    def modulated(th):
        Lw = th[0].L
        phase = zero(Lw)
        for j in range(n):
            phase = phase + th[j] * shifts[j].embed(Lw)
        return apply_analytic(EXP, (1j / scale) * phase) * v.evaluate(th)

    lhs = fo(odd_expand(modulated, n, L), cfg)
    rhs = odd_expand(
        lambda p: F.evaluate(tuple(p[j] - shifts[j].embed(p[0].L)
                                   for j in range(n))), n, L)
    assert polys_close(lhs, rhs, 1e-12)


def test_argument_shift_modulates_the_transform():
    # transform(v(theta - t'))(pi) = exp(-i <t'|pi>/scale) transform(v)(pi)
    rng = np.random.default_rng(67)
    n, L = 2, 2
    scale = 1.6
    cfg = OddFourierConfig(n, scale)
    v = random_soul_poly(rng, n, L)
    shifts = (make(L, {0b01: -0.2 + 0.5j}), make(L, {0b10: 0.6 + 0.1j}))
    F = fo(v, cfg)

    lhs = fo(odd_expand(
        lambda th: v.evaluate(tuple(th[j] - shifts[j].embed(th[0].L)
                                    for j in range(n))), n, L), cfg)

    def modulated(p):
        Lw = p[0].L
        phase = zero(Lw)
        for j in range(n):
            phase = phase + shifts[j].embed(Lw) * p[j]
        return apply_analytic(EXP, (-1j / scale) * phase) * F.evaluate(p)

    rhs = odd_expand(modulated, n, L)
    assert polys_close(lhs, rhs, 1e-12)


def test_argument_scaling_rescales_the_transform():
    # transform(v(s theta))(pi) = s^n transform(v)(pi / s)
    rng = np.random.default_rng(71)
    for n in (2, 3):
        cfg = OddFourierConfig(n, 1.2)
        v = random_soul_poly(rng, n)
        F = fo(v, cfg)
        for s in (2.0, 1.0 - 0.5j):
            lhs = fo(odd_expand(
                lambda th: v.evaluate(tuple(s * t for t in th)), n, v.L), cfg)
            rhs = scale_poly(odd_expand(
                lambda p: F.evaluate(tuple(t / s for t in p)), n, v.L),
                s ** n)
            assert polys_close(lhs, rhs, 1e-12)


# ---------------------------------------------------------------------------
# the even-sector pairing failure (and the odd-sector case where it holds)
# ---------------------------------------------------------------------------


def test_even_sector_pairing_identity_fails_by_exactly_minus_one():
    s = 1.6
    cfg = OddFourierConfig(2, s)
    u0, u1 = 0.8 + 0.3j, -0.4 + 1.1j
    w0, w1 = 0.5 - 0.2j, 0.9 + 0.6j
    u = OddPolynomial(2, {0: u0, 0b11: u1})
    w = OddPolynomial(2, {0: w0, 0b11: w1})

    lhs = scalar_of(integrate_odd(
        odd_expand(lambda th: u.evaluate(th) * w.evaluate(th), 2, 0)))
    assert close(lhs, u0 * w1 + u1 * w0)

    cu = conj_scalar_poly(u)
    assert polys_close(cu, OddPolynomial(2, {0: u0.conjugate(),
                                             0b11: -u1.conjugate()}))
    cFcu = conj_scalar_poly(fo(cu, cfg))
    assert polys_close(cFcu, OddPolynomial(2, {0: -s * u1, 0b11: -u0 / s}))

    rhs = scalar_of(integrate_odd(
        odd_expand(lambda p: cFcu.evaluate(p) * fo(w, cfg).evaluate(p), 2, 0)))
    assert close(rhs, -lhs)          # the identity fails with an exact -1
    assert abs(lhs - rhs) > 1.0      # and the two sides genuinely differ


def test_odd_sector_pairing_identity_holds():
    s = 1.6
    cfg = OddFourierConfig(2, s)
    v1, v2, w1, w2 = 0.3 - 1.0j, 0.8 + 0.2j, -0.7 + 0.4j, 0.6 + 0.9j
    v = OddPolynomial(2, {0b01: v1, 0b10: v2})
    w = OddPolynomial(2, {0b01: w1, 0b10: w2})
    lhs = scalar_of(integrate_odd(
        odd_expand(lambda th: v.evaluate(th) * w.evaluate(th), 2, 0)))
    assert close(lhs, v1 * w2 - v2 * w1)
    cFcv = conj_scalar_poly(fo(conj_scalar_poly(v), cfg))
    rhs = scalar_of(integrate_odd(
        odd_expand(lambda p: cFcv.evaluate(p) * fo(w, cfg).evaluate(p), 2, 0)))
    assert close(lhs, rhs)


# ---------------------------------------------------------------------------
# Gaussian-polynomial bodies
# ---------------------------------------------------------------------------


def test_gauss_poly_body_matches_expression_oracle():
    b = GaussPolyBody(1, 0.8, {(0,): 0.7, (1,): -0.5, (2,): 0.2})
    e = expr_body("(0.7 - 0.5*q1 + 0.2*q1^2)*exp(-0.4*q1^2)", 1)
    for q in (0.0, 0.7, -1.2):
        assert close(b.value((q,)), e.value((q,)))
        for order in ((1,), (2,), (3,)):
            assert close(b.deriv_value(order, (q,)), e.deriv_value(order, (q,)), 1e-10)

    b2 = GaussPolyBody(2, 1.1, {(0, 0): 1.0, (1, 2): 0.4})
    e2 = expr_body("(1 + 0.4*q1*q2^2)*exp(-0.55*(q1^2+q2^2))", 2)
    for q in ((0.3, -0.8), (1.1, 0.2)):
        assert close(b2.value(q), e2.value(q))
        assert close(b2.deriv_value((1, 1), q), e2.deriv_value((1, 1), q), 1e-10)
        assert close(b2.deriv_value((0, 2), q), e2.deriv_value((0, 2), q), 1e-10)


def test_gauss_poly_diff_stays_in_class():
    b = GaussPolyBody(1, 1.3, {(2,): 1.0})
    d = b.diff(0)
    assert isinstance(d, GaussPolyBody)
    assert d.poly == {(1,): 2.0, (3,): -1.3}
    e = expr_body("q1^2*exp(-0.65*q1^2)", 1)
    for q in (0.0, 0.9, -0.4):
        assert close(d.value((q,)), e.deriv_value((1,), (q,)), 1e-10)


def test_gauss_poly_body_validation():
    with pytest.raises(GrassmannError):
        GaussPolyBody(0, 1.0, {})
    with pytest.raises(GrassmannError):
        GaussPolyBody(1, 0.0, {(0,): 1.0})
    with pytest.raises(GrassmannError):
        GaussPolyBody(1, -2.0, {(0,): 1.0})
    with pytest.raises(GrassmannError):
        GaussPolyBody(1, 1.0 + 1.0j, {(0,): 1.0})
    with pytest.raises(GrassmannError):
        GaussPolyBody(1, 1.0, {(0, 0): 1.0})
    with pytest.raises(GrassmannError):
        GaussPolyBody(1, 1.0, {(-1,): 1.0})


# ---------------------------------------------------------------------------
# even transform on the class
# ---------------------------------------------------------------------------


def test_even_transform_matches_shifted_moment_formula():
    g, h = 0.9, 0.8
    for k in range(6):
        tb = even_gauss_transform(GaussPolyBody(1, g, {(k,): 1.0}), h)
        for xi in (0.0, 0.6, -1.1):
            direct = ((2 * math.pi * h) ** -0.5
                      * scalar_of(gaussian_body_moment(g, -1j * xi / h, k)))
            assert close(tb.value((xi,)), direct)


def test_even_transform_matches_quadrature_oracle():
    poly = {(0,): 0.7, (1,): -0.2j, (3,): 0.4}
    tb = even_gauss_transform(GaussPolyBody(1, 1.3, poly), 0.9)
    assert close(tb.decay, 1.0 / (1.3 * 0.81), 1e-12)
    for xi in (0.0, 0.7, -1.3):
        assert close(tb.value((xi,)),
                     gauss_hermite_transform(poly, 1.3, 0.9, xi), 1e-11)


def test_even_transform_two_axes_factorizes():
    tb = even_gauss_transform(GaussPolyBody(2, 0.7, {(2, 1): 1.0}), 1.0)
    for xi in ((0.0, 0.5), (0.8, -0.6)):
        want = (gauss_hermite_transform({(2,): 1.0}, 0.7, 1.0, xi[0])
                * gauss_hermite_transform({(1,): 1.0}, 0.7, 1.0, xi[1]))
        assert close(tb.value(xi), want, 1e-11)


def test_even_transform_round_trips():
    for h in (1.0, 0.7):
        for b in (GaussPolyBody(1, 1.3, {(0,): 0.7, (1,): -0.2j, (3,): 0.4}),
                  GaussPolyBody(2, 0.6, {(1, 2): 1.0, (0, 0): -0.5j})):
            back = even_gauss_transform(even_gauss_transform(b, h), h, inverse=True)
            assert abs(back.decay - b.decay) < 1e-12
            for k in set(b.poly) | set(back.poly):
                assert close(back.poly.get(k, 0j), b.poly.get(k, 0j))


def test_even_transform_validates_arguments():
    b = GaussPolyBody(1, 1.0, {(0,): 1.0})
    for bad in (0.0, -1.0, 1.0 + 0.5j):
        with pytest.raises(GrassmannError):
            even_gauss_transform(b, bad)
    with pytest.raises(GrassmannError):
        even_gauss_transform(expr_body("q1", 1), 1.0)  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# mixed transform
# ---------------------------------------------------------------------------


def test_mixed_point_mass_gaussian_factorizes():
    # theta1 theta2 * exp(-q^2/2): the odd factor transforms to the
    # normalization constant and the body to its scalar transform, so the
    # result is the product, supported on the empty odd monomial.
    s, h = 1.7, 0.9
    cfg = OddFourierConfig(2, s)
    u = SuperFunction(1, 2, {0b11: GaussPolyBody(1, 1.0, {(0,): 1.0})})
    F = mixed_transform(u, cfg, hbar=h)
    assert sorted(F.coefficients) == [0]
    c0 = F.coefficients[0]
    assert isinstance(c0, GaussPolyBody)
    for xi in (0.0, 0.7, 1.3):
        want = cfg.normalization * gauss_hermite_transform({(0,): 1.0}, 1.0, h, xi)
        assert close(c0.value((xi,)), want, 1e-11)


def test_mixed_constant_limit_checked_by_inversion_only():
    # The constant function is reachable only as the arbitrarily flat limit of
    # the Gaussian class (its transform leaves the function class), so the
    # checkable content is the exact round trip at any flatness.
    cfg = OddFourierConfig(1, 1.0)
    u = SuperFunction(1, 1, {0: GaussPolyBody(1, 1e-3, {(0,): 1.0})})
    back = mixed_transform_bar(mixed_transform(u, cfg, 1.0), cfg, 1.0)
    c = back.coefficients[0]
    assert abs(c.decay - 1e-3) < 1e-15
    assert close(c.poly[(0,)], 1.0)


def test_mixed_round_trip_on_twenty_random_class_members():
    rng = np.random.default_rng(3)
    worst = 0.0
    for trial in range(20):
        n = 2
        cfg = OddFourierConfig(n, (1.0, 2.0, 1.3)[trial % 3])
        h = (1.0, 0.7)[trial % 2]
        coeffs = {}
        for a in range(1 << n):
            gam = 0.5 + 1.5 * rng.random()
            poly = {(int(rng.integers(0, 4)),):
                    complex(rng.standard_normal(), rng.standard_normal())
                    for _ in range(int(rng.integers(1, 4)))}
            coeffs[a] = GaussPolyBody(1, gam, poly)
        u = SuperFunction(1, n, coeffs)
        back = mixed_transform_bar(mixed_transform(u, cfg, h), cfg, h)
        for a in range(1 << n):
            f0, f1 = u.coefficients[a], back.coefficients[a]
            worst = max(worst, abs(f0.decay - f1.decay))
            for k in set(f0.poly) | set(f1.poly):
                worst = max(worst, abs(f0.poly.get(k, 0j) - f1.poly.get(k, 0j)))
    assert worst < 1e-12


def test_mixed_round_trip_two_even_axes():
    cfg = OddFourierConfig(1, 1.5)
    u = SuperFunction(2, 1, {
        0: GaussPolyBody(2, 0.8, {(0, 0): 1.0, (2, 1): -0.3j}),
        1: GaussPolyBody(2, 1.4, {(1, 0): 0.6}),
    })
    back = mixed_transform_bar(mixed_transform(u, cfg, 0.9), cfg, 0.9)
    for a, f0 in u.coefficients.items():
        f1 = back.coefficients[a]
        assert abs(f0.decay - f1.decay) < 1e-12
        for k in set(f0.poly) | set(f1.poly):
            assert close(f0.poly.get(k, 0j), f1.poly.get(k, 0j))


def test_mixed_rejects_out_of_class_coefficients_and_bad_shapes():
    cfg = OddFourierConfig(1, 1.0)
    bad = SuperFunction(1, 1, {0: expr_body("exp(-q1^2)", 1)})
    with pytest.raises(GrassmannError, match="outside"):
        mixed_transform(bad, cfg, 1.0)
    with pytest.raises(GrassmannError, match="outside"):
        mixed_transform_bar(bad, cfg, 1.0)
    ok = SuperFunction(1, 2, {0: GaussPolyBody(1, 1.0, {(0,): 1.0})})
    with pytest.raises(GrassmannError):
        mixed_transform(ok, cfg, 1.0)  # n mismatch
    with pytest.raises(GrassmannError):
        mixed_transform(SuperFunction(1, 1, {0: GaussPolyBody(1, 1.0, {(0,): 1.0})}),
                        cfg, -1.0)
    with pytest.raises(GrassmannError):
        mixed_transform("nope", cfg, 1.0)  # type: ignore[arg-type]
