"""Tests for the spin-transport classical-quantities module.

Oracle policy, written before the assertions below were frozen:

* Matrix propagators are compared against scaling-and-squaring matrix
  exponentials (``scipy.linalg.expm``) of the generator, an algorithm with
  no code shared with the closed cos/sin form under test.
* Time derivatives of symbolic quantities are taken by Richardson-
  extrapolated central differences on the supernumber coefficients.
* The mixed second-derivative supermatrix of the generating action is
  assembled from exact nilpotent-seed differentiation and pushed through
  the block super-determinant; the closed form must reproduce it.
* The degenerate model equation is cross-checked two independent ways:
  an explicit leapfrog integrator of the second-order form, and a spectral
  (FFT + RK4) integrator of the equivalent first-order system.
* Linear odd-sector flows are compared against the matrix exponential of
  their coefficient matrix, assembled here by hand from the Hamiltonian's
  closed-form partial derivatives.
* Seeded Hamiltonian gradients are compared against closed-form slot
  derivatives of the builders' symbols, written here, and a seeded flow
  against RK4 steps of the canonical field of those closed forms.
"""

import cmath
import math
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from supercalc.berezin import OddPolynomial, integrate_odd, odd_expand
from supercalc.fourier_odd import OddFourierConfig, fo
from supercalc.grassmann import (
    AnalyticSpec,
    GrassmannDomainError,
    GrassmannError,
    Supernumber,
    apply_analytic,
    degree_filter,
    gen,
    gen_left_derivative,
    max_abs,
    max_coeff_diff,
    rk4_step,
    scalar,
    seed,
    seed_parts,
    zero,
)
from supercalc import berezin, weyl_dynamics
from supercalc.superlinalg import from_blocks, sdet
from supercalc.weyl_dynamics import (
    FlowState,
    SuperHamiltonian,
    WeylSymbolParams,
    em_weyl_hamiltonian,
    free_propagator_momentum,
    free_weyl_hamiltonian,
    gaussian_profile,
    hj_action,
    pauli_odd_symbols,
    propagator_from_classical,
    propagator_matrix_from_classical,
    qi_characteristic_coefficients,
    qi_coefficients,
    qi_finite_difference,
    qi_phase_components,
    qi_solve,
    super_hamilton_flow,
    susy_oscillator_hamiltonian,
    van_vleck,
    van_vleck_amplitude,
)

from helpers import identical, same_bytes

# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def propagator_oracle(t, p, c=1.0, hbar=1.0):
    """Scaling-and-squaring matrix exponential of the momentum generator."""
    px, py, pz = p
    h_mat = c * np.array([[pz, px - 1j * py], [px + 1j * py, -pz]], dtype=complex)
    return expm(-1j * t / hbar * h_mat)


def richardson_dt(f, t, h=1e-4):
    """Richardson-extrapolated central difference; works on supernumbers."""
    d1 = (f(t + h) - f(t - h)) * (1.0 / (2.0 * h))
    d2 = (f(t + h / 2) - f(t - h / 2)) * (1.0 / h)
    return (4.0 * d2 - d1) * (1.0 / 3.0)


_HESS_L = 10  # bits 0,1: odd positions; 2,3: odd momenta; 4..9: even seeds


def action_hessian_sdet(t, xi0, params):
    """Super-determinant of the mixed second derivatives of the action.

    Odd positions and momenta enter as bare generators; every even momentum
    component carries an exact nilpotent seed, so each mixed derivative is
    extracted without truncation error.  Returns (sdet, seeded momentum) so
    the closed form can be evaluated at the identical argument.
    """
    L = _HESS_L
    th = (gen(L, 0), gen(L, 1))
    pp = (gen(L, 2), gen(L, 3))
    seeds = [gen(L, 4 + 2 * k) * gen(L, 5 + 2 * k) for k in range(3)]
    xi = tuple(scalar(L, xi0[k]) + seeds[k] for k in range(3))
    x0 = tuple(scalar(L, 0.0) for _ in range(3))
    act = hj_action(t, x0, xi, th, pp, params)

    # the action is linear in the even positions, so a unit increment is an
    # exact first derivative; linearity itself is asserted elsewhere
    grad_x = []
    for j in range(3):
        xj = list(x0)
        xj[j] = x0[j] + scalar(L, 1.0)
        grad_x.append(hj_action(t, tuple(xj), xi, th, pp, params) - act)

    def d_seed(F, k):
        hi = (1 << (4 + 2 * k)) | (1 << (5 + 2 * k))
        return Supernumber(L, {m ^ hi: c for m, c in F.terms.items() if (m & hi) == hi})

    grad_th = [gen_left_derivative(act, a) for a in range(2)]
    blk_a = [[d_seed(grad_x[j], k) for k in range(3)] for j in range(3)]
    blk_c = [[gen_left_derivative(grad_x[j], 2 + b) for b in range(2)] for j in range(3)]
    blk_d = [[d_seed(grad_th[a], k) for k in range(3)] for a in range(2)]
    blk_b = [[gen_left_derivative(grad_th[a], 2 + b) for b in range(2)] for a in range(2)]
    return sdet(from_blocks(blk_a, blk_c, blk_d, blk_b, L=L)), xi


def odd_sector_generator(xi, c=1.0, kernel_scale=1.0):
    """4x4 coefficient matrix of the linearized odd flow at fixed momentum.

    Assembled by hand from the closed-form partial derivatives of the free
    symbol; rows order the odd state as (th1, th2, pi1, pi2).
    """
    kk = kernel_scale
    z3 = xi[2]
    zeta = xi[0] + 1j * xi[1]
    zeta_m = xi[0] - 1j * xi[1]
    return c * np.array(
        [
            [-1j * z3 / kk, 0, 0, -zeta_m / kk**2],
            [0, -1j * z3 / kk, zeta_m / kk**2, 0],
            [0, -zeta, 1j * z3 / kk, 0],
            [zeta, 0, 0, 1j * z3 / kk],
        ],
        dtype=complex,
    )


def em_weyl_gradient_oracle(params, charge, vector_potential=None,
                            scalar_potential_grad=None, vector_potential_jacobian=None):
    """Closed-form slot derivatives (H_x, H_xi, H_theta, H_pi) of
    em_weyl_hamiltonian's symbol, odd slots in left convention.

    The potentials' derivatives are given in closed form: the gradient of A0
    as grad(t, x)[j] and the Jacobian dA_k/dx_j as jac(t, x)[k][j]; an absent
    one is zero.  Numbers are lifted into the state's algebra.
    """
    c, kk, e = params.speed, complex(params.kernel_scale), float(charge)

    def gradient(t, x, xi, theta, pi):
        L = x[0].L
        s = pauli_odd_symbols(theta, pi, kk)
        av = vector_potential(t, x) if vector_potential else (0.0,) * 3
        eta = tuple(xi[j] - (e / c) * av[j] for j in range(3))
        zeta = eta[0] + 1j * eta[1]
        zeta_m = eta[0] - 1j * eta[1]
        grad0 = scalar_potential_grad(t, x) if scalar_potential_grad else (0.0,) * 3
        jac = vector_potential_jacobian(t, x) if vector_potential_jacobian else ((0.0,) * 3,) * 3
        d_x = tuple(e * grad0[j] - e * sum(s[k] * jac[k][j] for k in range(3))
                    for j in range(3))
        d_xi = tuple(c * s[j] for j in range(3))
        d_th = (c * zeta * theta[1] - (1j * c / kk) * eta[2] * pi[0],
                -c * zeta * theta[0] - (1j * c / kk) * eta[2] * pi[1])
        d_pi = ((c / (kk * kk)) * zeta_m * pi[1] + (1j * c / kk) * eta[2] * theta[0],
                -(c / (kk * kk)) * zeta_m * pi[0] + (1j * c / kk) * eta[2] * theta[1])
        return tuple(tuple(v if isinstance(v, Supernumber) else scalar(L, v) for v in grp)
                     for grp in (d_x, d_xi, d_th, d_pi))

    return gradient


def oscillator_gradient_oracle(omega, kernel_scale=1.0):
    """Closed-form slot derivatives of susy_oscillator_hamiltonian's symbol."""
    w, kk = float(omega), complex(kernel_scale)

    def gradient(t, x, xi, theta, pi):
        return ((-(w * w) * x[0],), (-xi[0],),
                (-(w / kk) * pi[0],), ((w / kk) * theta[0],))

    return gradient


def spectral_system_solution(k, phi, t_final, n=512, domain=32.0, steps=400):
    """FFT + RK4 integration of the first-order systemization.

    The second-order model equation is equivalent to the system
    v_t = t v_q + w, w_t = 4k v_q - t w_q; integrating it in Fourier
    space shares nothing with the derivative-series closed form.
    """
    q = np.linspace(-domain / 2, domain / 2, n, endpoint=False)
    p = 2 * np.pi * np.fft.fftfreq(n, d=q[1] - q[0])
    v = np.array([phi.derivative(0, complex(z)) for z in q])
    vh = np.fft.fft(v)
    wh = np.zeros_like(vh)

    def rhs(t, vh, wh):
        return 1j * t * p * vh + wh, 4 * k * 1j * p * vh - 1j * t * p * wh

    dt = t_final / steps
    t = 0.0
    for _ in range(steps):
        a1, b1 = rhs(t, vh, wh)
        a2, b2 = rhs(t + dt / 2, vh + dt / 2 * a1, wh + dt / 2 * b1)
        a3, b3 = rhs(t + dt / 2, vh + dt / 2 * a2, wh + dt / 2 * b2)
        a4, b4 = rhs(t + dt, vh + dt * a3, wh + dt * b3)
        vh = vh + dt / 6 * (a1 + 2 * a2 + 2 * a3 + a4)
        wh = wh + dt / 6 * (b1 + 2 * b2 + 2 * b3 + b4)
        t += dt
    return q, np.fft.ifft(vh), np.fft.ifft(wh)


def bare_odd_phase_point(L=4):
    """Odd positions at generator bits 0,1 and odd momenta at bits 2,3."""
    return (gen(L, 0), gen(L, 1)), (gen(L, 2), gen(L, 3))


def hj_residual(t, x, xi, params, route="direct"):
    """Coefficientwise Hamilton-Jacobi residual at a real phase point."""
    ham = free_weyl_hamiltonian(params)
    th, pp = bare_odd_phase_point()

    def act(tt):
        return hj_action(tt, x, xi, th, pp, params, route=route)

    act_t = richardson_dt(act, t)
    cur = act(t)
    act_th = tuple(gen_left_derivative(cur, a) for a in range(2))
    # the action is linear in x with coefficient xi, so its x-gradient is xi
    return act_t + ham.value(t, x, xi, th, act_th)


def continuity_residual(t, xi, params):
    """d/dt of the determinant plus the odd divergence of its flux."""
    ham = free_weyl_hamiltonian(params)
    th, pp = bare_odd_phase_point()
    x0 = (0.1, -0.2, 0.3)
    det_t = richardson_dt(lambda tt: van_vleck(tt, xi, params), t)
    cur = hj_action(t, x0, xi, th, pp, params)
    act_th = tuple(gen_left_derivative(cur, a) for a in range(2))
    det = van_vleck(t, xi, params).embed(4)
    _, _, _, d_pi = ham.gradient(t, x0, xi, th, act_th)
    div = zero(4)
    for a in range(2):
        div = div + gen_left_derivative(det * d_pi[a], a)
    return det_t.embed(4) + div


# ---------------------------------------------------------------------------
# free propagator, closed form
# ---------------------------------------------------------------------------


class TestFreePropagatorMomentum:
    def test_zero_time_is_identity(self):
        u = free_propagator_momentum(0.0, (0.3, -1.2, 0.5))
        assert np.abs(u - np.eye(2)).max() < 1e-14

    def test_quarter_turn_along_third_axis(self):
        u = free_propagator_momentum(math.pi / 2, (0.0, 0.0, 1.0))
        want = np.array([[-1j, 0.0], [0.0, 1j]])
        assert np.abs(u - want).max() < 1e-12

    def test_matches_matrix_exponential(self):
        rng = np.random.default_rng(101)
        worst = 0.0
        for _ in range(50):
            t = float(rng.uniform(-2.0, 2.0))
            p = tuple(rng.normal(size=3))
            c = float(rng.uniform(0.5, 2.0))
            hbar = float(rng.uniform(0.5, 2.0))
            got = free_propagator_momentum(t, p, c=c, hbar=hbar)
            want = propagator_oracle(t, p, c=c, hbar=hbar)
            worst = max(worst, float(np.abs(got - want).max()))
        assert worst < 1e-10

    def test_zero_momentum_is_identity_and_limit_is_continuous(self):
        u0 = free_propagator_momentum(0.7, (0.0, 0.0, 0.0))
        assert np.abs(u0 - np.eye(2)).max() < 1e-14
        u_eps = free_propagator_momentum(0.7, (1e-9, 0.0, 0.0))
        assert np.abs(u_eps - u0).max() < 1e-8

    @given(
        t=st.floats(-3.0, 3.0),
        px=st.floats(-2.0, 2.0),
        py=st.floats(-2.0, 2.0),
        pz=st.floats(-2.0, 2.0),
    )
    @settings(max_examples=60)
    def test_unitary_with_unit_determinant(self, t, px, py, pz):
        u = free_propagator_momentum(t, (px, py, pz))
        assert np.abs(u @ u.conj().T - np.eye(2)).max() < 1e-12
        assert abs(np.linalg.det(u) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# generating action
# ---------------------------------------------------------------------------


class TestGeneratingAction:
    def test_zero_time_reduces_to_weighted_pairing(self):
        a = 2.5
        params = WeylSymbolParams(pair_weight=a)
        th, pp = bare_odd_phase_point()
        x = (1.0, -2.0, 0.5)
        xi = (0.3, 0.4, -0.6)
        got = hj_action(0.0, x, xi, th, pp, params)
        want = sum(
            (scalar(4, xv * xiv) for xv, xiv in zip(x, xi)), zero(4)
        ) + a * (th[0] * pp[0] + th[1] * pp[1])
        assert max_coeff_diff(got, want) < 1e-12

    @pytest.mark.parametrize("a", [1.0, 1.7, 0.4 + 0.2j])
    def test_hamilton_jacobi_residual_direct_route_any_weight(self, a):
        params = WeylSymbolParams(pair_weight=a)
        rng = np.random.default_rng(202)
        for _ in range(6):
            t = float(rng.uniform(0.1, 1.5))
            x = tuple(float(v) for v in rng.normal(size=3))
            xi = tuple(float(v) for v in rng.normal(size=3))
            assert max_abs(hj_residual(t, x, xi, params)) < 1e-9

    def test_hamilton_jacobi_residual_flow_route_at_unit_weight(self):
        params = WeylSymbolParams()
        rng = np.random.default_rng(203)
        for _ in range(4):
            t = float(rng.uniform(0.1, 1.5))
            x = tuple(float(v) for v in rng.normal(size=3))
            xi = tuple(float(v) for v in rng.normal(size=3))
            assert max_abs(hj_residual(t, x, xi, params, route="jacobi")) < 1e-9

    def test_flow_route_residual_is_large_away_from_unit_weight(self):
        # the flow-route formula stops solving the evolution equation when
        # the pairing weight leaves 1; record the failure without hiding it
        params = WeylSymbolParams(pair_weight=2.0)
        res = hj_residual(0.7, (0.0, 0.0, 0.0), (0.3, -1.1, 0.8), params,
                          route="jacobi")
        assert max_abs(res) > 1e-2

    def test_routes_agree_exactly_at_unit_weight(self):
        params = WeylSymbolParams()
        th, pp = bare_odd_phase_point()
        args = (0.9, (1.0, 2.0, 3.0), (0.4, 0.5, -0.6), th, pp, params)
        assert max_coeff_diff(hj_action(*args), hj_action(*args, route="jacobi")) == 0.0

    def test_routes_differ_away_from_unit_weight(self):
        params = WeylSymbolParams(pair_weight=2.0)
        th, pp = bare_odd_phase_point()
        args = (0.9, (0.0, 0.0, 0.0), (0.4, 0.5, -0.6), th, pp, params)
        assert max_coeff_diff(hj_action(*args), hj_action(*args, route="jacobi")) > 1e-3

    def test_linear_in_even_positions(self):
        params = WeylSymbolParams()
        th, pp = bare_odd_phase_point()
        xi = (0.4, 0.5, -0.6)
        s0 = hj_action(0.7, (0.0, 0.0, 0.0), xi, th, pp, params)
        s1 = hj_action(0.7, (1.0, 0.0, 0.0), xi, th, pp, params)
        s2 = hj_action(0.7, (2.0, 0.0, 0.0), xi, th, pp, params)
        assert max_coeff_diff(s2 - s1, s1 - s0) < 1e-12
        assert abs((s1 - s0).body - xi[0]) < 1e-12

    def test_caustic_raises(self):
        params = WeylSymbolParams()
        th, pp = bare_odd_phase_point()
        with pytest.raises(GrassmannDomainError):
            hj_action(math.pi / 2, (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), th, pp, params)

    def test_zero_momentum_raises(self):
        params = WeylSymbolParams()
        th, pp = bare_odd_phase_point()
        with pytest.raises(GrassmannDomainError):
            hj_action(0.5, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), th, pp, params)

    def test_unknown_route_rejected(self):
        params = WeylSymbolParams()
        th, pp = bare_odd_phase_point()
        with pytest.raises(GrassmannError):
            hj_action(0.5, (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), th, pp, params,
                      route="sideways")


# ---------------------------------------------------------------------------
# van Vleck super-determinant
# ---------------------------------------------------------------------------


class TestVanVleck:
    def test_zero_time_value(self):
        params = WeylSymbolParams(pair_weight=2.0)
        got = van_vleck(0.0, (0.3, 0.4, 0.5), params)
        assert abs(got.body - 0.25) < 1e-12
        assert max_abs(got - got.body) < 1e-12

    @pytest.mark.parametrize("a", [1.0, 0.7 + 0.3j])
    def test_matches_hessian_superdeterminant(self, a):
        params = WeylSymbolParams(pair_weight=a)
        rng = np.random.default_rng(301)
        for _ in range(4):
            t = float(rng.uniform(0.1, 1.2))
            xi0 = rng.normal(size=3)
            got, xi_seeded = action_hessian_sdet(t, xi0, params)
            want = van_vleck(t, xi_seeded, params)
            assert max_coeff_diff(got, want) < 1e-9

    @pytest.mark.parametrize("a", [1.0, 1.9])
    def test_continuity_residual_vanishes(self, a):
        params = WeylSymbolParams(pair_weight=a)
        rng = np.random.default_rng(302)
        for _ in range(5):
            t = float(rng.uniform(0.1, 1.4))
            xi = tuple(float(v) for v in rng.normal(size=3))
            assert max_abs(continuity_residual(t, xi, params)) < 1e-9

    def test_amplitude_squares_to_determinant(self):
        params = WeylSymbolParams(pair_weight=1.3)
        amp = van_vleck_amplitude(0.8, (0.4, -0.2, 0.9), params)
        det = van_vleck(0.8, (0.4, -0.2, 0.9), params)
        assert max_coeff_diff(amp * amp, det) < 1e-12

    def test_zero_momentum_raises(self):
        with pytest.raises(GrassmannDomainError):
            van_vleck(0.5, (0.0, 0.0, 0.0), WeylSymbolParams())

    def test_dispersion_norm_identity(self):
        # |minus-branch|^2 + |transverse|^2 sin^2(angle) = |momentum|^2
        params = WeylSymbolParams()
        rng = np.random.default_rng(303)
        for _ in range(8):
            t = float(rng.uniform(0.0, 2.0))
            xi = tuple(float(v) for v in rng.normal(size=3))
            dm = params.dispersion_minus(t, xi).body
            ze = params.transverse(xi).body
            ang = params.rotation_angle(t, xi).body
            norm2 = sum(v * v for v in xi)
            lhs = abs(dm) ** 2 + abs(ze) ** 2 * math.sin(ang.real) ** 2
            assert abs(lhs - norm2) < 1e-10


# ---------------------------------------------------------------------------
# propagator reconstructed by odd integration
# ---------------------------------------------------------------------------


# (t, p, hbar, speed) for the bit-for-bit column checks
COLUMN_CASES = [
    (0.7, (0.4, -0.7, 0.9), 1.0, 1.0),
    (0.0, (0.3, -0.8, 0.4), 1.0, 1.0),
    (1.3, (-1.1, 0.2, 0.05), 0.6, 1.7),
    (0.25, (2.0, -0.5, -1.4), 1.9, 0.55),
    (0.05, (1e-3, 2e-3, -1e-3), 1.0, 1.0),
]


def _bytes(values) -> bytes:
    return np.asarray(values, dtype=complex).tobytes()


def _column_alone(t, p, u0, u1, hbar, speed):
    """One column through its own pipeline: its own amplitude, action,
    exponential and seeding, as the reconstruction ran before its columns
    shared them."""
    params = WeylSymbolParams(speed=speed, hbar=hbar, kernel_scale=hbar)
    mom = tuple(float(v) for v in p)
    thetas = (gen(2, 0), gen(2, 1))
    fu = fo(OddPolynomial(2, {0: complex(u0), 0b11: complex(u1)}),
            OddFourierConfig(2, kernel_scale=hbar))
    amp = van_vleck_amplitude(t, mom, params)

    def kernel(pis):
        act = hj_action(t, (0.0, 0.0, 0.0), mom, thetas, pis, params)
        return apply_analytic(AnalyticSpec.named("exp"), (1j / hbar) * act) * fu.evaluate(pis)

    total = (hbar * amp.body) * integrate_odd(odd_expand(kernel, 2, 2))
    return total.coefficient(0), total.coefficient(0b11)


class TestPropagatorReconstruction:
    def test_zero_time_is_identity(self):
        u = propagator_matrix_from_classical(0.0, (0.3, -0.8, 0.4))
        assert np.abs(u - np.eye(2)).max() < 1e-12

    def test_component_pairs_pass_through(self):
        v0, v1 = propagator_from_classical(0.0, (1.0, 2.0, -1.0), 0.7, -0.2j)
        assert abs(v0 - 0.7) < 1e-12 and abs(v1 + 0.2j) < 1e-12

    def test_matches_closed_form_on_random_draws(self):
        rng = np.random.default_rng(404)
        worst = 0.0
        for _ in range(50):
            t = float(rng.uniform(0.05, 1.5))
            p = tuple(rng.normal(size=3))
            hbar = float(rng.uniform(0.5, 2.0))
            c = float(rng.uniform(0.5, 2.0))
            got = propagator_matrix_from_classical(t, p, hbar=hbar, speed=c)
            want = free_propagator_momentum(t, p, c=c, hbar=hbar)
            worst = max(worst, float(np.abs(got - want).max()))
        assert worst < 1e-9

    def test_one_parameter_group_property(self):
        rng = np.random.default_rng(405)
        for _ in range(5):
            t, s = (float(v) for v in rng.uniform(0.1, 1.0, size=2))
            p = tuple(rng.normal(size=3))
            ut = propagator_matrix_from_classical(t, p)
            us = propagator_matrix_from_classical(s, p)
            uts = propagator_matrix_from_classical(t + s, p)
            assert np.abs(ut @ us - uts).max() < 1e-9

    def test_columns_orthonormal(self):
        rng = np.random.default_rng(406)
        for _ in range(5):
            t = float(rng.uniform(0.1, 1.2))
            p = tuple(rng.normal(size=3))
            u = propagator_matrix_from_classical(t, p)
            assert np.abs(u.conj().T @ u - np.eye(2)).max() < 1e-9

    def test_caustic_raises(self):
        with pytest.raises(GrassmannDomainError):
            propagator_from_classical(math.pi / 2, (1.0, 0.0, 0.0), 1.0, 0.0)

    @pytest.mark.parametrize("t, p, hbar, speed", COLUMN_CASES)
    def test_matrix_equals_its_columns_one_at_a_time_bit_for_bit(self, t, p, hbar, speed):
        got = propagator_matrix_from_classical(t, p, hbar=hbar, speed=speed)
        for j, pair in enumerate(((1.0, 0.0), (0.0, 1.0))):
            column = propagator_from_classical(t, p, *pair, hbar=hbar, speed=speed)
            alone = _column_alone(t, p, *pair, hbar=hbar, speed=speed)
            assert _bytes(got[:, j]) == _bytes(column) == _bytes(alone)

    @pytest.mark.parametrize("t, p, hbar, speed", COLUMN_CASES)
    def test_a_component_pair_equals_its_own_pipeline_bit_for_bit(self, t, p, hbar, speed):
        got = propagator_from_classical(t, p, 0.7, -0.2j, hbar=hbar, speed=speed)
        assert _bytes(got) == _bytes(_column_alone(t, p, 0.7, -0.2j, hbar=hbar, speed=speed))

    def test_matrix_raises_at_the_caustic_as_a_column_does(self):
        with pytest.raises(GrassmannDomainError) as column:
            propagator_from_classical(math.pi / 2, (1.0, 0.0, 0.0), 1.0, 0.0)
        with pytest.raises(GrassmannDomainError) as matrix:
            propagator_matrix_from_classical(math.pi / 2, (1.0, 0.0, 0.0))
        assert type(matrix.value) is type(column.value)
        assert str(matrix.value) == str(column.value) != ""


# ---------------------------------------------------------------------------
# generic Hamilton flow
# ---------------------------------------------------------------------------


class TestSuperHamiltonian:
    def test_seeded_gradient_matches_closed_forms(self):
        rng = np.random.default_rng(501)
        th, pp = bare_odd_phase_point()
        x = tuple(scalar(4, float(v)) for v in rng.normal(size=3))
        xi = tuple(scalar(4, float(v)) for v in rng.normal(size=3))
        free_params = WeylSymbolParams(speed=1.2, kernel_scale=0.8)
        potentials = dict(
            scalar_potential=lambda t, x: x[2] + x[0] * x[1],
            vector_potential=lambda t, x: (x[1], -x[0], scalar(x[0].L, 0.3)),
        )
        cases = [
            (free_weyl_hamiltonian(free_params), em_weyl_gradient_oracle(free_params, 0.0)),
            (em_weyl_hamiltonian(WeylSymbolParams(), 0.6, **potentials),
             em_weyl_gradient_oracle(
                 WeylSymbolParams(), 0.6, potentials["vector_potential"],
                 scalar_potential_grad=lambda t, x: (x[1], x[0], 1.0),
                 vector_potential_jacobian=lambda t, x: (
                     (0.0, 1.0, 0.0),
                     (-1.0, 0.0, 0.0),
                     (0.0, 0.0, 0.0),
                 ))),
        ]
        for ham, oracle in cases:
            closed = oracle(0.4, x, xi, th, pp)
            seeded = ham.gradient(0.4, x, xi, th, pp)
            for grp_c, grp_s in zip(closed, seeded):
                for a, b in zip(grp_c, grp_s):
                    assert max_coeff_diff(a, b) < 1e-12

    def test_seeded_gradient_matches_for_oscillator(self):
        ham = susy_oscillator_hamiltonian(1.3, 0.8)
        th = (gen(2, 0),)
        pp = (gen(2, 1),)
        x, xi = (scalar(2, 0.5),), (scalar(2, -0.2),)
        closed = oscillator_gradient_oracle(1.3, 0.8)(0.0, x, xi, th, pp)
        seeded = ham.gradient(0.0, x, xi, th, pp)
        for grp_c, grp_s in zip(closed, seeded):
            for a, b in zip(grp_c, grp_s):
                assert max_coeff_diff(a, b) < 1e-14

    def test_odd_valued_hamiltonian_rejected(self):
        bad = SuperHamiltonian(lambda t, x, xi, th, pp: th[0], 1, 1)
        th = (gen(2, 0),)
        pp = (gen(2, 1),)
        with pytest.raises(GrassmannDomainError):
            bad.value(0.0, (0.0,), (0.0,), th, pp)

    def test_escaping_hamiltonian_rejected(self):
        bad = SuperHamiltonian(lambda t, x, xi, th, pp: gen(6, 5) * gen(6, 4), 1, 1)
        th = (gen(2, 0),)
        pp = (gen(2, 1),)
        with pytest.raises(GrassmannError):
            bad.value(0.0, (0.0,), (0.0,), th, pp)


class TestFlowStateValidation:
    def test_parity_enforced(self):
        with pytest.raises(GrassmannDomainError):
            FlowState(t=0.0, x=(gen(2, 0),), xi=(0.0,), theta=(gen(2, 1),), pi=(gen(2, 1),))
        with pytest.raises(GrassmannDomainError):
            FlowState(t=0.0, x=(0.0,), xi=(0.0,), theta=(1.0,), pi=(gen(2, 1),))

    def test_length_mismatch_rejected(self):
        with pytest.raises(GrassmannError):
            FlowState(t=0.0, x=(0.0, 1.0), xi=(0.0,), theta=(), pi=())

    def test_components_promoted_to_common_algebra(self):
        s = FlowState(t=0.0, x=(1.0,), xi=(gen(4, 0) * gen(4, 1),),
                      theta=(gen(2, 0),), pi=(gen(2, 1),))
        assert {v.L for v in s.x + s.xi + s.theta + s.pi} == {4}


class TestSuperHamiltonFlow:
    def test_grid_must_start_at_initial_time_and_increase(self):
        ham = susy_oscillator_hamiltonian(1.0)
        init = FlowState(t=0.0, x=(0.1,), xi=(0.0,), theta=(gen(2, 0),), pi=(gen(2, 1),))
        with pytest.raises(GrassmannError):
            super_hamilton_flow(ham, init, [0.5, 1.0])
        with pytest.raises(GrassmannError):
            super_hamilton_flow(ham, init, [0.0, 0.4, 0.4])
        with pytest.raises(GrassmannError):
            super_hamilton_flow(ham, init, [])

    def test_dimension_mismatch_rejected(self):
        ham = susy_oscillator_hamiltonian(1.0)
        init = FlowState(t=0.0, x=(0.1, 0.2), xi=(0.0, 0.0),
                         theta=(gen(2, 0),), pi=(gen(2, 1),))
        with pytest.raises(GrassmannError):
            super_hamilton_flow(ham, init, [0.0, 1.0])

    def test_oscillator_odd_exponentials(self):
        w, kk = 1.3, 0.8
        ham = susy_oscillator_hamiltonian(w, kk)
        init = FlowState(t=0.0, x=(0.5,), xi=(-0.2,),
                         theta=(gen(2, 0),), pi=(gen(2, 1),))
        traj = super_hamilton_flow(ham, init, np.linspace(0.0, 1.0, 1001))
        end = traj[-1]
        assert abs(end.theta[0].coefficient(0b01) - math.exp(-w / kk)) < 1e-10
        assert abs(end.pi[0].coefficient(0b10) - math.exp(w / kk)) < 1e-10

    def test_oscillator_even_sector_matches_matrix_exponential(self):
        w = 1.3
        ham = susy_oscillator_hamiltonian(w)
        init = FlowState(t=0.0, x=(0.5,), xi=(-0.2,),
                         theta=(gen(2, 0),), pi=(gen(2, 1),))
        end = super_hamilton_flow(ham, init, np.linspace(0.0, 1.0, 1001))[-1]
        mat = expm(np.array([[0.0, -1.0], [w * w, 0.0]]))
        want = mat @ np.array([0.5, -0.2])
        assert abs(end.x[0].body - want[0]) < 1e-10
        assert abs(end.xi[0].body - want[1]) < 1e-10

    def test_oscillator_energy_conserved(self):
        ham = susy_oscillator_hamiltonian(1.3, 0.8)
        init = FlowState(t=0.0, x=(0.5,), xi=(-0.2,),
                         theta=(gen(2, 0),), pi=(gen(2, 1),))
        traj = super_hamilton_flow(ham, init, np.linspace(0.0, 1.0, 501))
        first = ham.value_at(traj[0])
        assert max(max_coeff_diff(ham.value_at(s), first) for s in traj[::50]) < 1e-12

    def test_free_flow_momentum_constant_and_energy_flat(self):
        ham = free_weyl_hamiltonian(WeylSymbolParams())
        th, pp = bare_odd_phase_point()
        init = FlowState(t=0.0, x=(0.0, 0.0, 0.0), xi=(0.4, -0.7, 0.9),
                         theta=th, pi=pp)
        traj = super_hamilton_flow(ham, init, np.linspace(0.0, 1.0, 201))
        end = traj[-1]
        assert all(max_coeff_diff(a, b.embed(4)) < 1e-10
                   for a, b in zip(end.xi, init.xi))
        first = ham.value_at(traj[0])
        assert max(max_coeff_diff(ham.value_at(s), first) for s in traj[::20]) < 1e-10

    def test_free_flow_odd_sector_matches_matrix_exponential(self):
        c, kk = 1.0, 1.0
        params = WeylSymbolParams(speed=c, kernel_scale=kk)
        ham = free_weyl_hamiltonian(params)
        xi0 = (0.4, -0.7, 0.9)
        th, pp = bare_odd_phase_point()
        init = FlowState(t=0.0, x=(0.0, 0.0, 0.0), xi=xi0, theta=th, pi=pp)
        end = super_hamilton_flow(ham, init, np.linspace(0.0, 1.0, 1001))[-1]
        mat = expm(odd_sector_generator(xi0, c=c, kernel_scale=kk))
        comps = end.theta + end.pi
        worst = max(
            abs(comps[i].coefficient(1 << j) - mat[i, j])
            for i in range(4)
            for j in range(4)
        )
        assert worst < 1e-8

    def test_fourth_order_step_scaling(self):
        # halving the step under a smooth flow divides the error by ~16
        ham = free_weyl_hamiltonian(WeylSymbolParams())
        xi0 = (0.4, -0.7, 0.9)
        th, pp = bare_odd_phase_point()
        init = FlowState(t=0.0, x=(0.0, 0.0, 0.0), xi=xi0, theta=th, pi=pp)
        mat = expm(odd_sector_generator(xi0))

        def flow_error(steps):
            end = super_hamilton_flow(ham, init, np.linspace(0.0, 1.0, steps + 1))[-1]
            comps = end.theta + end.pi
            return max(
                abs(comps[i].coefficient(1 << j) - mat[i, j])
                for i in range(4)
                for j in range(4)
            )

        ratio = flow_error(10) / flow_error(20)
        assert 10.0 < ratio < 24.0

    def test_em_with_no_potentials_matches_free_flow(self):
        params = WeylSymbolParams()
        free = free_weyl_hamiltonian(params)
        em = em_weyl_hamiltonian(params, charge=0.7)
        th, pp = bare_odd_phase_point()
        init = FlowState(t=0.0, x=(0.1, -0.2, 0.3), xi=(0.4, 0.8, -0.5),
                         theta=th, pi=pp)
        grid = np.linspace(0.0, 1.0, 201)
        end_free = super_hamilton_flow(free, init, grid)[-1]
        end_em = super_hamilton_flow(em, init, grid)[-1]
        for a, b in zip(end_free.x + end_free.xi + end_free.theta + end_free.pi,
                        end_em.x + end_em.xi + end_em.theta + end_em.pi):
            assert max_coeff_diff(a, b) < 1e-8

    def test_em_static_linear_potential_drift_and_conservation(self):
        params = WeylSymbolParams()
        e = 0.7
        ham = em_weyl_hamiltonian(params, e, scalar_potential=lambda t, x: x[2])
        th, pp = bare_odd_phase_point()
        init = FlowState(t=0.0, x=(0.1, -0.2, 0.3), xi=(0.4, 0.8, -0.5),
                         theta=th, pi=pp)
        traj = super_hamilton_flow(ham, init, np.linspace(0.0, 1.0, 1001))
        end = traj[-1]
        assert abs(end.xi[2].body - (-0.5 - e)) < 1e-8
        assert max_abs(end.xi[2] - end.xi[2].body) < 1e-10
        assert max_abs(end.xi[0] - 0.4) < 1e-10
        assert max_abs(end.xi[1] - 0.8) < 1e-10
        first = ham.value_at(traj[0])
        assert max(
            max_coeff_diff(ham.value_at(s), first) for s in traj[::100]
        ) < 1e-8

    def test_seeded_potentials_integrate_like_closed_gradients(self):
        # the oracle steps the canonical field of the closed-form gradient
        # with the same RK4 stepper on the same grid
        params = WeylSymbolParams()
        seeded = em_weyl_hamiltonian(params, 0.7,
                                     scalar_potential=lambda t, x: x[2] + x[0] * x[1])
        closed = em_weyl_gradient_oracle(
            params, 0.7, scalar_potential_grad=lambda t, x: (x[1], x[0], 1.0))

        def field(t, y):
            d_x, d_xi, d_th, d_pi = closed(t, y[:3], y[3:6], y[6:8], y[8:])
            return d_xi + tuple(-v for v in d_x + d_pi + d_th)

        th, pp = bare_odd_phase_point()
        init = FlowState(t=0.0, x=(0.1, -0.2, 0.3), xi=(0.4, 0.8, -0.5),
                         theta=th, pi=pp)
        grid = np.linspace(0.0, 0.2, 11)
        want = init.x + init.xi + init.theta + init.pi
        for t0, t1 in zip(grid[:-1], grid[1:]):
            want = rk4_step(field, t0, want, t1 - t0)
        end = super_hamilton_flow(seeded, init, grid)[-1]
        for a, b in zip(want, end.x + end.xi + end.theta + end.pi):
            assert max_coeff_diff(a, b) < 1e-12

    def test_lower_degrees_blind_to_higher_degree_initial_data(self):
        params = WeylSymbolParams()
        ham = em_weyl_hamiltonian(
            params, 0.7, scalar_potential=lambda t, x: x[2] + x[0] * x[1])
        L = 6
        th = (gen(L, 0), gen(L, 1))
        pp = (gen(L, 2), gen(L, 3))
        bump_odd = gen(L, 0) * gen(L, 1) * gen(L, 2) * gen(L, 3) * gen(L, 4)
        bump_even = gen(L, 2) * gen(L, 3) * gen(L, 4) * gen(L, 5)
        base = FlowState(t=0.0, x=(0.1, -0.2, 0.3), xi=(0.4, 0.8, -0.5),
                         theta=th, pi=pp)
        bumped = FlowState(
            t=0.0, x=(0.1, -0.2, 0.3),
            xi=(scalar(L, 0.4) + 2.0 * bump_even, 0.8, -0.5),
            theta=(th[0] + 1.5 * bump_odd, th[1]), pi=pp,
        )
        grid = np.linspace(0.0, 0.5, 26)
        end_a = super_hamilton_flow(ham, base, grid)[-1]
        end_b = super_hamilton_flow(ham, bumped, grid)[-1]
        for a, b in zip(end_a.x + end_a.xi + end_a.theta + end_a.pi,
                        end_b.x + end_b.xi + end_b.theta + end_b.pi):
            for d in range(4):  # degrees strictly below the perturbations
                assert max_coeff_diff(
                    degree_filter(a.embed(L), d), degree_filter(b, d)
                ) == 0.0

    def test_spin_symbols_precess_like_vector_flow(self):
        # d/dt of the three quadratic spin symbols along the free flow obeys
        # the 3x3 cross-product system; checked against its exponential
        params = WeylSymbolParams()
        ham = free_weyl_hamiltonian(params)
        xi0 = (0.4, -0.7, 0.9)
        th, pp = bare_odd_phase_point()
        init = FlowState(t=0.0, x=(0.0, 0.0, 0.0), xi=xi0, theta=th, pi=pp)
        t_end = 0.8
        end = super_hamilton_flow(ham, init, np.linspace(0.0, t_end, 801))[-1]
        got = pauli_odd_symbols(end.theta, end.pi, params.kernel_scale)
        start = pauli_odd_symbols(th, pp, params.kernel_scale)
        spin_mat = 2.0 * np.array(
            [
                [0.0, -xi0[2], xi0[1]],
                [xi0[2], 0.0, -xi0[0]],
                [-xi0[1], xi0[0], 0.0],
            ]
        )
        rot = expm(spin_mat * t_end)
        for j in range(3):
            want = sum((rot[j, k] * start[k] for k in range(3)), zero(4))
            assert max_coeff_diff(got[j].embed(4), want) < 1e-8


# ---------------------------------------------------------------------------
# degenerate model equation
# ---------------------------------------------------------------------------


class TestModelEquation:
    def test_zero_index_is_pure_shift(self):
        phi = gaussian_profile()
        q = np.linspace(-3.0, 3.0, 13)
        sol = qi_solve(0, phi, 0.8, q)
        want = np.array([phi.derivative(0, complex(z + 0.32)) for z in q])
        assert np.abs(sol.values - want).max() < 1e-12
        assert sol.coefficients == (1.0,)

    def test_zero_index_satisfies_the_pde(self):
        # v_tt - t^2 v_qq - v_q = 0, by central differences on the closed form
        phi = gaussian_profile()
        t, q, h = 0.7, 0.4, 1e-4

        def v(tt, qq):
            return complex(qi_solve(0, phi, tt, np.array([qq])).values[0])

        v_tt = (v(t + h, q) - 2 * v(t, q) + v(t - h, q)) / h**2
        v_qq = (v(t, q + h) - 2 * v(t, q) + v(t, q - h)) / h**2
        v_q = (v(t, q + h) - v(t, q - h)) / (2 * h)
        assert abs(v_tt - t * t * v_qq - v_q) < 1e-6

    def test_first_index_coefficient_is_two(self):
        assert qi_coefficients(1) == (1.0, 2.0)

    def test_coefficient_table_recurrence(self):
        # c_{l+1}/c_l = 4 (k - l) / ((2l+1)(2l+2))
        for k in range(6):
            co = qi_coefficients(k)
            for el in range(k):
                want = co[el] * 4.0 * (k - el) / ((2 * el + 1) * (2 * el + 2))
                assert abs(co[el + 1] - want) < 1e-12

    @given(k=st.integers(0, 8))
    @settings(max_examples=20)
    def test_coefficients_start_at_one_and_stay_positive(self, k):
        co = qi_coefficients(k)
        assert co[0] == 1.0 and len(co) == k + 1
        assert all(c > 0 for c in co)

    @pytest.mark.parametrize("k", [1, 2])
    def test_matches_leapfrog_oracle(self, k):
        phi = gaussian_profile()
        q, v_fd = qi_finite_difference(k, phi, 1.0, -8.0, 8.0, 1000, 2000)
        sol = qi_solve(k, phi, 1.0, q)
        rel = np.linalg.norm(sol.values - v_fd) / np.linalg.norm(sol.values)
        assert rel < 1e-2

    @pytest.mark.parametrize("k", [1, 2])
    def test_matches_spectral_system_oracle(self, k):
        phi = gaussian_profile()
        q, v_num, w_num = spectral_system_solution(k, phi, 1.0)
        sol = qi_solve(k, phi, 1.0, q)
        co = sol.coefficients
        shift = 0.5
        w_formula = np.zeros_like(v_num)
        for el in range(1, k + 1):
            w_formula = w_formula + 2 * el * co[el] * np.array(
                [phi.derivative(el, complex(z + shift)) for z in q]
            )
        assert np.abs(v_num - sol.values).max() < 1e-8
        assert np.abs(w_num - w_formula).max() < 1e-8

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_characteristic_polynomial_and_rate_equation(self, k):
        xi = 0.7 - 0.3j
        co = qi_characteristic_coefficients(k, xi)
        assert len(co) == 2 * k + 1
        assert all(co[j] == 0 for j in range(1, 2 * k + 1, 2))
        dco = tuple(j * co[j] for j in range(1, len(co)))
        ddco = tuple(j * dco[j] for j in range(1, len(dco)))

        def ev(cs, t):
            acc = 0j
            for c in reversed(cs):
                acc = acc * t + c
            return acc

        for t in (0.3, 0.9, 1.7):
            p, dp, ddp = ev(co, t), ev(dco, t), ev(ddco, t)
            assert abs(ddp + 2j * t * xi * dp - 4j * k * xi * p) < 1e-12
            ratio = -1j * dp / p
            ratio_t = -1j * (ddp * p - dp * dp) / (p * p)
            assert abs(ratio_t - (4 * k * xi - 2j * t * xi * ratio - 1j * ratio ** 2)) < 1e-10

    def test_phase_components_initial_values_and_rate_equations(self):
        k, xi, t = 2, 0.5 + 0.2j, 0.9
        at0 = qi_phase_components(k, 0.0, xi)
        assert at0.theta_top == 0 and at0.pairing == 1 and at0.momentum_top == 0
        comp = qi_phase_components(k, t, xi)
        assert comp.quartic == 0

        pair_t = richardson_dt(lambda s: qi_phase_components(k, s, xi).pairing, t)
        assert abs(pair_t + 1j * t * xi * comp.pairing
                   + 1j * comp.theta_top * comp.pairing) < 1e-8
        mom_t = richardson_dt(lambda s: qi_phase_components(k, s, xi).momentum_top, t)
        assert abs(mom_t + 1j * comp.pairing ** 2) < 1e-8

    def test_pairing_inverse_square_matches_hessian_value(self):
        # the flow's van Vleck factor for this model is pairing^{-2}
        k, xi, t = 1, 0.4 - 0.1j, 0.8
        comp = qi_phase_components(k, t, xi)
        co = qi_characteristic_coefficients(k, xi)
        poly = sum(c * t ** j for j, c in enumerate(co))
        det = cmath.exp(1j * t * t * xi) * poly ** 2
        assert abs(det - comp.pairing ** -2) < 1e-12

    def test_input_validation(self):
        phi = gaussian_profile()
        with pytest.raises(GrassmannError):
            qi_coefficients(-1)
        with pytest.raises(GrassmannError):
            qi_finite_difference(1, phi, 0.0)
        with pytest.raises(GrassmannError):
            gaussian_profile(width=0.0)


class TestWeylSymbolParams:
    def test_default_pair_weight_is_hbar_over_kernel_scale(self):
        p = WeylSymbolParams(hbar=2.0, kernel_scale=0.5)
        assert p.pair_weight == 4.0

    def test_validation(self):
        with pytest.raises(GrassmannError):
            WeylSymbolParams(speed=0.0)
        with pytest.raises(GrassmannError):
            WeylSymbolParams(hbar=-1.0)
        with pytest.raises(GrassmannError):
            WeylSymbolParams(kernel_scale=0.0)
        with pytest.raises(GrassmannError):
            WeylSymbolParams(pair_weight=0.0)

    def test_scalar_shorthands_agree_with_direct_formulas(self):
        p = WeylSymbolParams(speed=1.3, kernel_scale=0.9)
        xi = (0.4, -0.2, 0.7)
        norm = math.sqrt(sum(v * v for v in xi))
        ang = 1.3 * 0.6 * norm / 0.9
        assert abs(p.momentum_norm(xi).body - norm) < 1e-12
        assert abs(p.rotation_angle(0.6, xi).body - ang) < 1e-12
        assert abs(p.transverse(xi).body - (0.4 - 0.2j)) < 1e-12
        assert abs(p.transverse_mirror(xi).body - (0.4 + 0.2j)) < 1e-12
        dm = norm * math.cos(ang) - 1j * 0.7 * math.sin(ang)
        dp = norm * math.cos(ang) + 1j * 0.7 * math.sin(ang)
        assert abs(p.dispersion_minus(0.6, xi).body - dm) < 1e-12
        assert abs(p.dispersion_plus(0.6, xi).body - dp) < 1e-12

    @pytest.mark.parametrize("quantity", ["momentum_norm", "van_vleck", "van_vleck_amplitude",
                                          "hj_action"])
    def test_batched_momenta_match_each_node_alone(self, quantity):
        p = WeylSymbolParams(speed=1.3, kernel_scale=0.9)
        L, soul = 2, Supernumber(2, {0b11: 0.3})
        th, pp = bare_odd_phase_point()
        evaluate = {"momentum_norm": p.momentum_norm,
                    "van_vleck": lambda xi: van_vleck(0.6, xi, p),
                    "van_vleck_amplitude": lambda xi: van_vleck_amplitude(0.6, xi, p),
                    "hj_action": lambda xi: hj_action(0.6, (0.2, -0.5, 0.7), xi, th, pp, p),
                    }[quantity]
        nodes = np.array([[0.4, -0.7, 0.9], [1.1, 0.3, -0.2]])
        got = evaluate(tuple(scalar(L, nodes[:, j]) + soul for j in range(3)))
        for k in range(2):
            alone = evaluate(tuple(scalar(L, nodes[k, j]) + soul for j in range(3)))
            assert max_coeff_diff(_node(got, k), alone) <= 1e-14 * max_abs(alone)
        nodes[1] = 0.0
        with pytest.raises(GrassmannDomainError):
            evaluate(tuple(scalar(L, nodes[:, j]) + soul for j in range(3)))

    def test_hj_action_raises_on_a_batch_with_one_caustic_node(self):
        # xi = (1, 0, 0) at the angle pi/2 sits on the caustic
        p = WeylSymbolParams(speed=1.3, kernel_scale=0.9)
        th, pp = bare_odd_phase_point()
        nodes = np.array([[0.4, -0.7, 0.9], [1.0, 0.0, 0.0]])
        xi = tuple(scalar(4, nodes[:, j]) for j in range(3))
        with pytest.raises(GrassmannDomainError, match="caustic"):
            hj_action(0.5 * math.pi * 0.9 / 1.3, (0.0,) * 3, xi, th, pp, p)


def test_reconstructed_propagator_continues_sqrt_once_per_classical_quantity(monkeypatch):
    # the amplitude and the action each take |xi| and the angle's cos and sin
    # from one continuation; exp makes the phase; both columns share all of it
    kinds = []
    apply_analytic = weyl_dynamics.apply_analytic
    monkeypatch.setattr(weyl_dynamics, "apply_analytic",
                        lambda spec, X: kinds.append(spec.kind) or apply_analytic(spec, X))
    propagator_matrix_from_classical(0.7, (0.4, -0.7, 0.9))
    assert Counter(kinds) == {"sqrt": 2, "cos": 2, "sin": 2, "exp": 1}


def test_reconstructed_propagator_expands_both_columns_from_one_seeding(monkeypatch):
    # fo expands nothing (a selection rule); the two integrands share one
    # expansion.  Every name bound to odd_expand in the package is spied on.
    calls = []
    expand = berezin.odd_expand
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "supercalc":
            for attr, value in list(vars(module).items()):
                if value is expand:
                    monkeypatch.setattr(module, attr,
                                        lambda *a, _m=module: calls.append(_m) or expand(*a))
    propagator_matrix_from_classical(0.7, (0.4, -0.7, 0.9))
    assert Counter(calls) == {weyl_dynamics: 1}


# ---------------------------------------------------------------------------
# seeded gradients
# ---------------------------------------------------------------------------


def test_gradient_nested_in_the_first_evaluation_equals_the_outer_one():
    oscillator = susy_oscillator_hamiltonian(1.3, 0.8)
    th, pp = (gen(2, 0),), (gen(2, 1),)
    nested = []

    def fn(*args):
        # the first evaluation re-enters the object through gradient
        if not nested:
            nested.append(None)
            nested[0] = ham.gradient(0.0, (0.5,), (-0.2,), th, pp)
        return oscillator.fn(*args)

    ham = SuperHamiltonian(fn, 1, 1)
    outer = ham.gradient(0.0, (0.5,), (-0.2,), th, pp)
    for grp_n, grp_o in zip(nested[0], outer):
        for a, b in zip(grp_n, grp_o):
            assert max_coeff_diff(a, b) < 1e-14


def test_seeded_gradient_evaluates_the_hamiltonian_once():
    ham = em_weyl_hamiltonian(WeylSymbolParams(), 0.7,
                              scalar_potential=lambda t, x: x[2])
    calls = []
    fn = ham.fn

    def counted(*args):
        calls.append(args)
        return fn(*args)

    ham.fn = counted
    th, pp = bare_odd_phase_point()
    x = tuple(scalar(4, v) for v in (0.1, -0.4, 0.9))
    xi = tuple(scalar(4, v) for v in (0.6, 0.2, -0.3))
    d_x, d_xi, _, _ = ham.gradient(0.2, x, xi, th, pp)
    assert len(calls) == 1
    assert max_coeff_diff(d_x[2], scalar(4, 0.7)) < 1e-15
    assert all(max_coeff_diff(a, b) < 1e-15
               for a, b in zip(d_xi, pauli_odd_symbols(th, pp, 1.0)))


# the potentials of the spin-transport flow: the benchmark's linear one, a
# quadratic one (a product of two scaled seeded slots) and a vector potential
SPIN_POTENTIALS = {
    "linear": dict(scalar_potential=lambda t, x: x[2]),
    "quadratic": dict(scalar_potential=lambda t, x: (0.3 * x[0]) * (0.2 * x[1]) + x[2]),
    "vector": dict(vector_potential=lambda t, x: (-0.5 * x[1], 0.5 * x[0], 0.0 * x[2])),
}


def spin_state(ham, steps=3):
    """A spin-transport phase point a few RK4 steps into the flow, so that
    every slot has a soul."""
    th, pp = bare_odd_phase_point()
    state = FlowState(0.0, tuple(scalar(4, v) for v in (0.3, -0.8, 0.5)),
                      tuple(scalar(4, v) for v in (0.6, 0.4, -0.7)), th, pp)
    return super_hamilton_flow(ham, state, np.linspace(0.0, 0.05 * steps, steps + 1))[-1]


@pytest.mark.parametrize("potential", sorted(SPIN_POTENTIALS))
def test_seeded_gradient_equals_the_full_seeded_one_bit_for_bit(potential):
    ham = em_weyl_hamiltonian(WeylSymbolParams(), 0.9, **SPIN_POTENTIALS[potential])
    st = spin_state(ham)
    got = ham.gradient(st.t, st.x, st.xi, st.theta, st.pi)
    even, odd, masks = seed(st.x + st.xi, st.theta + st.pi, 4)
    parts = seed_parts(ham.fn(st.t, even[:3], even[3:], odd[:2], odd[2:]), 4)
    want = [parts.get(mask, zero(4)) for mask in masks]
    for a, b in zip((v for grp in got for v in grp), want):
        assert identical(a, b)


@pytest.mark.parametrize("scalar_potential", [None, lambda t, x: x[2]])
def test_gradient_without_a_vector_potential_equals_one_of_zeros_bit_for_bit(scalar_potential):
    # without a vector potential the kinetic factor is xi_j itself, which must
    # give the bytes of xi_j - (e/c) A_j with A = (0, 0, 0)
    params = WeylSymbolParams()
    bare = em_weyl_hamiltonian(params, 0.9, scalar_potential=scalar_potential)
    zeros = em_weyl_hamiltonian(params, 0.9, scalar_potential=scalar_potential,
                                vector_potential=lambda t, x: (0.0,) * 3)
    st = spin_state(bare)
    batch = FlowState(st.t, tuple(v + scalar(4, np.array([0.0, 0.5, -1.0])) for v in st.x),
                      st.xi, st.theta, st.pi)
    for state in (st, batch):
        got = bare.gradient(state.t, state.x, state.xi, state.theta, state.pi)
        want = zeros.gradient(state.t, state.x, state.xi, state.theta, state.pi)
        for a, b in zip((v for grp in got for v in grp), (v for grp in want for v in grp)):
            assert same_bytes(a, b)


@pytest.mark.parametrize("kk", [1.0, 0.7 + 0.3j])
def test_pauli_odd_symbols_scale_the_pi_pair_once_with_the_bytes_of_two_scalings(kk):
    # s1 and s2 share one k^-2 pi1 pi2, which must give the bytes of scaling
    # it apart in each
    st = spin_state(em_weyl_hamiltonian(WeylSymbolParams(), 0.9))
    nodes = scalar(4, np.array([1.0, 0.5, -2.0, 1e-3]))
    for th, pp in ((st.theta, st.pi),
                   (tuple(nodes * v for v in st.theta), tuple(nodes * v for v in st.pi))):
        tt, qq = th[0] * th[1], pp[0] * pp[1]
        want = (tt + (1.0 / (kk * kk)) * qq,
                1j * (tt - (1.0 / (kk * kk)) * qq),
                (-1j / kk) * (th[0] * pp[0] + th[1] * pp[1]))
        got = pauli_odd_symbols(th, pp, kk)
        assert all(same_bytes(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("potential", sorted(SPIN_POTENTIALS))
def test_truncation_reaches_the_seeded_hamiltonian_value(monkeypatch, potential):
    # every term of the value read back has a fresh part that one slot at most
    # contributes to
    ham = em_weyl_hamiltonian(WeylSymbolParams(), 0.9, **SPIN_POTENTIALS[potential])
    st = spin_state(ham)
    read = []
    monkeypatch.setattr(weyl_dynamics, "seed_parts",
                        lambda X, L: read.append(X) or seed_parts(X, L))
    ham.gradient(st.t, st.x, st.xi, st.theta, st.pi)
    (value,) = read
    even, odd, masks = seed(st.x + st.xi, st.theta + st.pi, 4)
    assert {m >> 4 for m in value.terms} <= {0, *masks}
    full = ham.fn(st.t, even[:3], even[3:], odd[:2], odd[2:])
    assert not {m >> 4 for m in full.terms} <= {0, *masks}


# ---------------------------------------------------------------------------
# ensembles on the batch axis
# ---------------------------------------------------------------------------


def _node(X, k):
    """Node k of a batch element, as an element with scalar coefficients."""
    return Supernumber(X.L, {m: c[k] if isinstance(c, np.ndarray) else c
                             for m, c in X.terms.items()})


def test_batched_flow_equals_the_per_condition_loop():
    # the spin-transport flow in a linear potential: 64 initial conditions as
    # one batch against the same 64 run one at a time, 10 RK4 steps
    rng = np.random.default_rng(1504)
    x0 = rng.normal(size=(3, 64))
    xi0 = rng.normal(size=(3, 64))
    ham = em_weyl_hamiltonian(WeylSymbolParams(), 0.9,
                              scalar_potential=lambda t, x: x[2])
    odd = ((gen(4, 0), gen(4, 1)), (gen(4, 2), gen(4, 3)))
    grid = np.linspace(0.0, 0.5, 11)

    def final(x, xi):
        state = FlowState(0.0, tuple(scalar(4, v) for v in x),
                          tuple(scalar(4, v) for v in xi), *odd)
        return super_hamilton_flow(ham, state, grid)[-1]

    batch = final(x0, xi0)
    assert batch.L == 4
    assert any(isinstance(c, np.ndarray) and c.shape == (64,)
               for c in batch.x[0].terms.values())
    worst = 0.0
    for k in range(64):
        single = final(x0[:, k], xi0[:, k])
        for group in ("x", "xi", "theta", "pi"):
            for b, s in zip(getattr(batch, group), getattr(single, group)):
                worst = max(worst, max_coeff_diff(_node(b, k), s))
    assert worst < 1e-13
