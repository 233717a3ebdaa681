"""Classical super-quantities for a spin-1/2 transport equation.

Three groups of tools live here:

* Closed forms for the free two-component (massless spin-1/2) propagator in
  momentum representation, the generating action of its classical super
  phase flow (two construction routes), the associated van Vleck
  super-determinant, and the symbolic Berezin reconstruction of the
  propagator from those classical quantities.

* A generic Hamilton flow integrator over phase states whose coordinates are
  even/odd elements of a finite-generator algebra, together with builders
  for the concrete Hamiltonian functions used in the examples (free
  spin-transport symbol, supersymmetric oscillator, external
  electromagnetic coupling).

* A solver for the degenerate second-order model equation
  ``v_tt = t^2 v_qq + (4k+1) v_q`` whose solution collapses to a finite
  derivative series, plus its first-order systemization helpers and a
  finite-difference cross-check integrator.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import numpy as np

from .berezin import OddPolynomial, integrate_odd, odd_expand
from .fourier_odd import OddFourierConfig, fo
from .grassmann import (
    AnalyticSpec,
    GrassmannDomainError,
    GrassmannError,
    Supernumber,
    _any_zero,
    _as_super,
    _in_one_algebra,
    apply_analytic,
    gen,
    inverse,
    rk4_step,
    scalar,
    seed,
    seed_parts,
    zero,
)

__all__ = [
    "WeylSymbolParams",
    "FlowState",
    "SuperHamiltonian",
    "free_propagator_momentum",
    "hj_action",
    "van_vleck",
    "van_vleck_amplitude",
    "propagator_from_classical",
    "propagator_matrix_from_classical",
    "super_hamilton_flow",
    "free_weyl_hamiltonian",
    "susy_oscillator_hamiltonian",
    "em_weyl_hamiltonian",
    "pauli_odd_symbols",
    "QiSolution",
    "QiPhaseComponents",
    "qi_solve",
    "qi_coefficients",
    "qi_characteristic_coefficients",
    "qi_phase_components",
    "qi_finite_difference",
    "gaussian_profile",
]

_EXP = AnalyticSpec.named("exp")
_SIN = AnalyticSpec.named("sin")
_COS = AnalyticSpec.named("cos")
_SQRT = AnalyticSpec.named("sqrt")


def _check_count(group: Sequence[Supernumber], count: int, label: str) -> None:
    if len(group) != count:
        raise GrassmannError(f"{label} needs exactly {count} components")


def _check_parity(group: Sequence[Supernumber], want: str, label: str) -> None:
    for v in group:
        if not v.is_zero() and v.parity != want:
            raise GrassmannDomainError(f"{label} components must be {want}")


def _sinc(z: complex) -> complex:
    """sin(z)/z with the removable singularity filled by series."""
    if abs(z) < 1e-4:
        z2 = z * z
        return 1.0 - z2 / 6.0 + z2 * z2 / 120.0
    return cmath.sin(z) / z


# ---------------------------------------------------------------------------
# parameter bundle and scalar shorthands
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeylSymbolParams:
    """Scales of the spin-transport symbol and its classical quantities.

    ``speed`` multiplies the whole symbol, ``hbar`` is the quantization
    scale, ``kernel_scale`` is the odd-sector Fourier scale, and
    ``pair_weight`` weights the odd pairing in the initial action datum
    (defaults to hbar/kernel_scale; quantization-facing operations need it
    equal to 1).
    """

    speed: float = 1.0
    hbar: float = 1.0
    kernel_scale: complex = 1.0
    pair_weight: complex | None = None

    def __post_init__(self):
        try:
            speed_ok = float(self.speed) > 0
            hbar_ok = float(self.hbar) > 0
        except (TypeError, ValueError):
            speed_ok = hbar_ok = False
        if not speed_ok:
            raise GrassmannError("speed must be a positive real number")
        if not hbar_ok:
            raise GrassmannError("hbar must be a positive real number")
        if complex(self.kernel_scale) == 0:
            raise GrassmannError("kernel_scale must be nonzero")
        if self.pair_weight is None:
            object.__setattr__(
                self, "pair_weight", complex(self.hbar) / complex(self.kernel_scale)
            )
        elif complex(self.pair_weight) == 0:
            raise GrassmannError("pair_weight must be nonzero")

    # -- scalar shorthands (all accept triples of numbers or even elements) --

    def momentum_norm(self, xi) -> Supernumber:
        """Euclidean norm of the momentum triple (principal square root)."""
        (xs,), _ = _in_one_algebra(xi)
        _check_count(xs, 3, "momentum")
        _check_parity(xs, "even", "momentum")
        sq = xs[0] * xs[0] + xs[1] * xs[1] + xs[2] * xs[2]
        if _any_zero(sq.body):
            raise GrassmannDomainError("momentum norm needs |xi|^2 with nonzero body")
        return apply_analytic(_SQRT, sq)

    def rotation_angle(self, t: float, xi) -> Supernumber:
        """Spin precession angle: speed * t * |xi| / kernel_scale."""
        return (self.speed * float(t) / complex(self.kernel_scale)) * self.momentum_norm(xi)

    def transverse(self, xi) -> Supernumber:
        """xi_1 + i xi_2."""
        (xs,), _ = _in_one_algebra(xi)
        _check_count(xs, 3, "momentum")
        return xs[0] + 1j * xs[1]

    def transverse_mirror(self, xi) -> Supernumber:
        """xi_1 - i xi_2 (literal sign flip, not complex conjugation)."""
        (xs,), _ = _in_one_algebra(xi)
        _check_count(xs, 3, "momentum")
        return xs[0] - 1j * xs[1]

    def dispersion_minus(self, t: float, xi) -> Supernumber:
        """|xi| cos(angle) - i xi_3 sin(angle): the caustic denominator."""
        return self._dispersion(t, xi, operator.sub)

    def dispersion_plus(self, t: float, xi) -> Supernumber:
        """|xi| cos(angle) + i xi_3 sin(angle)."""
        return self._dispersion(t, xi, operator.add)

    def _dispersion(self, t: float, xi, sign: Callable) -> Supernumber:
        """sign(|xi| cos(angle), i xi_3 sin(angle)): sign is the operator, not a
        factor -1, so that signed zeros come out as a subtraction gives them."""
        (xs,), _ = _in_one_algebra(xi)
        _check_count(xs, 3, "momentum")
        ang = self.rotation_angle(t, xs)
        return sign(self.momentum_norm(xs) * apply_analytic(_COS, ang),
                    1j * xs[2] * apply_analytic(_SIN, ang))


# ---------------------------------------------------------------------------
# free propagator in momentum representation (closed form)
# ---------------------------------------------------------------------------

def free_propagator_momentum(t: float, p, c: float = 1.0, hbar: float = 1.0) -> np.ndarray:
    """2x2 momentum-space propagator of the free two-component equation.

    cos/sin closed form; the |p| -> 0 limit is filled by series, giving the
    identity at p = 0.  Unitary for real arguments.
    """
    px, py, pz = (float(v) for v in p)
    if not (c > 0 and hbar > 0):
        raise GrassmannError("c and hbar must be positive")
    norm = math.sqrt(px * px + py * py + pz * pz)
    ang = c * float(t) * norm / hbar
    # sin(ang)/norm -> c t / hbar as norm -> 0
    sin_over_norm = (c * float(t) / hbar) * _sinc(ang)
    cos_part = cmath.cos(ang)
    h_mat = np.array([[pz, px - 1j * py], [px + 1j * py, -pz]], dtype=complex)
    return cos_part * np.eye(2, dtype=complex) - 1j * sin_over_norm * h_mat


# ---------------------------------------------------------------------------
# generating action and van Vleck determinant
# ---------------------------------------------------------------------------

_ACTION_ROUTES = ("direct", "jacobi")


def hj_action(t: float, x, xi, theta, pi, params: WeylSymbolParams,
              route: str = "direct") -> Supernumber:
    """Generating action of the free spin-transport flow.

    ``route="direct"`` returns the solution of the Hamilton-Jacobi problem
    (valid for every pair_weight); ``route="jacobi"`` returns the variant
    obtained by evaluating the action integral along the flow, which agrees
    with the direct route exactly when pair_weight == 1.
    """
    if route not in _ACTION_ROUTES:
        raise GrassmannError(f"route must be one of {_ACTION_ROUTES}")
    (xs, xis, ths, pis), _ = _in_one_algebra(x, xi, theta, pi)
    for group, count, parity, label in ((xs, 3, "even", "position"),
                                        (xis, 3, "even", "momentum"),
                                        (ths, 2, "odd", "odd position"),
                                        (pis, 2, "odd", "odd momentum")):
        _check_count(group, count, label)
        _check_parity(group, parity, label)

    a = complex(params.pair_weight)
    kk = complex(params.kernel_scale)
    norm = params.momentum_norm(xis)
    denom = params.dispersion_minus(t, xis)
    # the caustic set is where the denominator body vanishes; floating point
    # never lands on it exactly, so flag anything below a relative threshold
    if abs(denom.body) <= 1e-12 * max(abs(norm.body), 1e-300):
        raise GrassmannDomainError("caustic: dispersion denominator has zero body")
    sin_ang = apply_analytic(_SIN, params.rotation_angle(t, xis))
    zeta = xis[0] + 1j * xis[1]
    zeta_m = xis[0] - 1j * xis[1]

    pairing = ths[0] * pis[0] + ths[1] * pis[1]
    theta_top = ths[0] * ths[1]
    pi_top = pis[0] * pis[1]
    pi_weight = (a * a / kk) if route == "direct" else ((2.0 * a - 1.0) / kk)

    even_part = xs[0] * xis[0] + xs[1] * xis[1] + xs[2] * xis[2]
    odd_part = inverse(denom) * (
        a * norm * pairing
        - kk * zeta * sin_ang * theta_top
        - pi_weight * zeta_m * sin_ang * pi_top
    )
    return even_part + odd_part


def van_vleck(t: float, xi, params: WeylSymbolParams) -> Supernumber:
    """Super-determinant of the mixed second derivatives of the action."""
    (xis,), _ = _in_one_algebra(xi)
    _check_count(xis, 3, "momentum")
    _check_parity(xis, "even", "momentum")
    sq = xis[0] * xis[0] + xis[1] * xis[1] + xis[2] * xis[2]
    if _any_zero(sq.body):
        raise GrassmannDomainError("van Vleck determinant needs |xi|^2 with nonzero body")
    a = complex(params.pair_weight)
    denom = params.dispersion_minus(t, xis)
    return (1.0 / (a * a)) * inverse(sq) * denom * denom


def van_vleck_amplitude(t: float, xi, params: WeylSymbolParams) -> Supernumber:
    """Amplitude factor: dispersion_minus / (pair_weight * |xi|).

    Its square is exactly ``van_vleck`` (no branch ambiguity).
    """
    (xis,), _ = _in_one_algebra(xi)
    a = complex(params.pair_weight)
    norm = params.momentum_norm(xis)
    denom = params.dispersion_minus(t, xis)
    return (1.0 / a) * denom * inverse(norm)


# ---------------------------------------------------------------------------
# propagator reconstructed from the classical quantities
# ---------------------------------------------------------------------------

def propagator_from_classical(t: float, p, u0: complex, u1: complex,
                              hbar: float = 1.0, speed: float = 1.0
                              ) -> Tuple[complex, complex]:
    """Apply the classically-reconstructed propagator to a component pair.

    Symbolic pipeline at fixed real momentum: odd Fourier transform of the
    input pair, multiplication by amplitude and exponentiated action, and
    Berezin integration over the odd momentum variables.  Requires
    pair_weight == 1 (enforced by construction: kernel_scale = hbar).
    """
    params = WeylSymbolParams(speed=speed, hbar=hbar, kernel_scale=hbar)
    px, py, pz = (float(v) for v in p)
    mom = (px, py, pz)

    # theta sector occupies generator bits 0..1; the odd momentum variables
    # used for the Berezin integral live above them.
    thetas = (gen(2, 0), gen(2, 1))
    cfg = OddFourierConfig(2, kernel_scale=hbar)
    fu = fo(OddPolynomial(2, {0: complex(u0), 0b11: complex(u1)}), cfg)
    amp = van_vleck_amplitude(t, mom, params)
    phase_scale = 1j / hbar

    def kernel(pis: Tuple[Supernumber, ...]) -> Supernumber:
        act = hj_action(t, (0.0, 0.0, 0.0), mom, thetas, pis, params)
        return apply_analytic(_EXP, phase_scale * act) * fu.evaluate(pis)

    integral = integrate_odd(odd_expand(kernel, 2, 2))
    total = (hbar * amp.body) * integral
    return total.coefficient(0), total.coefficient(0b11)


def propagator_matrix_from_classical(t: float, p, hbar: float = 1.0,
                                     speed: float = 1.0) -> np.ndarray:
    """2x2 matrix of the reconstructed propagator (columns = basis images)."""
    v00, v10 = propagator_from_classical(t, p, 1.0, 0.0, hbar=hbar, speed=speed)
    v01, v11 = propagator_from_classical(t, p, 0.0, 1.0, hbar=hbar, speed=speed)
    return np.array([[v00, v01], [v10, v11]], dtype=complex)


# ---------------------------------------------------------------------------
# generic Hamilton flow over supernumber phase states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlowState:
    """Phase point: time, even position/momentum, odd position/momentum.

    Any coefficient of x, xi, theta and pi may be a batch: a 1-D complex array
    with one value per initial condition, the same length throughout (build
    one with ``scalar(L, array)``).  The time t is one number shared by all.
    """

    t: float
    x: Tuple[Supernumber, ...]
    xi: Tuple[Supernumber, ...]
    theta: Tuple[Supernumber, ...]
    pi: Tuple[Supernumber, ...]

    def __post_init__(self):
        (x, xi, theta, pi), _ = _in_one_algebra(self.x, self.xi, self.theta, self.pi)
        if len(x) != len(xi):
            raise GrassmannError("x and xi must have the same length")
        if len(theta) != len(pi):
            raise GrassmannError("theta and pi must have the same length")
        _check_parity(x, "even", "x")
        _check_parity(xi, "even", "xi")
        _check_parity(theta, "odd", "theta")
        _check_parity(pi, "odd", "pi")
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "pi", pi)

    @property
    def L(self) -> int:
        return next((v.L for v in self.x + self.xi + self.theta + self.pi), 0)

    @property
    def even_count(self) -> int:
        return len(self.x)

    @property
    def odd_count(self) -> int:
        return len(self.theta)


_Deriv = Tuple[Tuple[Supernumber, ...], Tuple[Supernumber, ...],
               Tuple[Supernumber, ...], Tuple[Supernumber, ...]]


class SuperHamiltonian:
    """Even scalar function of (t, x, xi, theta, pi) with slot derivatives.

    ``fn(t, x, xi, theta, pi)`` receives tuples of supernumbers in a shared
    algebra and must return an even supernumber of that algebra (it may not
    introduce new generators).  Odd-slot derivatives follow the left
    convention.  ``partials`` optionally supplies closed forms; otherwise the
    whole gradient is read from one evaluation of ``fn`` in which every slot
    is seeded with fresh nilpotent generators (grassmann.seed).

    That seeding is first order (see "Seeding" in grassmann): ``fn`` runs on
    values whose products drop the terms with two or more seeds, which no
    gradient entry reads, and the gradient equals that of a full seeded
    evaluation bit for bit.  So ``fn`` must not differentiate by the seeded
    generators or integrate over them.
    """

    def __init__(self, fn: Callable, even_count: int, odd_count: int,
                 partials: Callable | None = None):
        self.fn = fn
        self.even_count = int(even_count)
        self.odd_count = int(odd_count)
        self.partials = partials
        if self.even_count < 0 or self.odd_count < 0:
            raise GrassmannError("slot counts must be nonnegative")

    # -- evaluation ---------------------------------------------------------

    def _prepare(self, x, xi, theta, pi):
        groups, L = _in_one_algebra(x, xi, theta, pi)
        k, o = self.even_count, self.odd_count
        for group, count, label in zip(groups, (k, k, o, o), ("x", "xi", "theta", "pi")):
            _check_count(group, count, label)
        return groups, L

    def value(self, t: float, x, xi, theta, pi) -> Supernumber:
        (xs, xis, ths, pis), L = self._prepare(x, xi, theta, pi)
        val = _as_super(self.fn(t, xs, xis, ths, pis))
        if val.L > L:
            raise GrassmannError("Hamiltonian escaped the state algebra")
        val = val.embed(L)
        if not val.is_zero() and val.parity != "even":
            raise GrassmannDomainError("Hamiltonian values must be even")
        return val

    def value_at(self, state: FlowState) -> Supernumber:
        return self.value(state.t, state.x, state.xi, state.theta, state.pi)

    # -- derivatives --------------------------------------------------------

    def gradient(self, t: float, x, xi, theta, pi) -> _Deriv:
        """(dH/dx, dH/dxi, dH/dtheta, dH/dpi), odd slots in left convention."""
        if self.partials is None:
            return self.seeded_gradient(t, x, xi, theta, pi)
        (xs, xis, ths, pis), L = self._prepare(x, xi, theta, pi)
        out = self.partials(t, xs, xis, ths, pis)
        return tuple(
            tuple(_as_super(v, L) for v in grp) for grp in out
        )  # type: ignore[return-value]

    def seeded_gradient(self, t: float, x, xi, theta, pi) -> _Deriv:
        """Gradient read from one seeded evaluation of fn, ignoring
        closed-form partials."""
        (xs, xis, ths, pis), L = self._prepare(x, xi, theta, pi)
        k, o = self.even_count, self.odd_count
        even, odd, masks = seed(xs + xis, ths + pis, L, first_order=True)
        val = _as_super(self.fn(t, even[:k], even[k:], odd[:o], odd[o:]))
        if val.L > L + 4 * k + 2 * o:
            raise GrassmannError("Hamiltonian escaped the seeded algebra")
        parts = seed_parts(val, L)
        d = [parts.get(mask, zero(L)) for mask in masks]
        return tuple(d[:k]), tuple(d[k:2 * k]), tuple(d[2 * k:2 * k + o]), tuple(d[2 * k + o:])


def super_hamilton_flow(hamiltonian: SuperHamiltonian, initial: FlowState,
                        t_grid: Sequence[float]) -> List[FlowState]:
    """Classic fourth-order Runge-Kutta over the full supernumber state.

    ``t_grid`` fixes both the output times and the step schedule; it must
    start at the initial time and increase strictly.  Degree bookkeeping
    needs no special handling: the graded arithmetic keeps lower-degree
    components independent of higher-degree initial data automatically.

    A batch in ``initial`` (see FlowState) runs every initial condition
    through one sequence of steps; each node equals its own run up to
    rounding.  ``t_grid`` and the Hamiltonian are shared by all nodes, and
    the Hamiltonian's callables (``fn``, ``partials``, potentials) receive
    batch elements and must act node by node.  A check on the coefficients,
    such as a nonzero body under a square root, must hold at every node.
    """
    if hamiltonian.even_count != initial.even_count or \
            hamiltonian.odd_count != initial.odd_count:
        raise GrassmannError("Hamiltonian and state dimensions disagree")
    grid = [float(v) for v in t_grid]
    if not grid:
        raise GrassmannError("t_grid must contain at least the initial time")
    if abs(grid[0] - initial.t) > 1e-12:
        raise GrassmannError("t_grid must start at the initial time")
    hamiltonian.value_at(initial)  # parity / wellformedness guard
    k, o = initial.even_count, initial.odd_count

    def groups(y):
        """(x, xi, theta, pi) of a flat state x + xi + theta + pi."""
        return y[:k], y[k:2 * k], y[2 * k:2 * k + o], y[2 * k + o:]

    def field(t, y):
        # canonical vector field (H_xi, -H_x, -H_pi, -H_theta)
        d_x, d_xi, d_th, d_pi = hamiltonian.gradient(t, *groups(y))
        return d_xi + tuple(-v for v in d_x + d_pi + d_th)

    out = [initial]
    for t_next in grid[1:]:
        cur = out[-1]
        h = t_next - cur.t
        if not (h > 0) or not math.isfinite(h):
            raise GrassmannError("t_grid must increase strictly")
        y = rk4_step(field, cur.t, cur.x + cur.xi + cur.theta + cur.pi, h)
        out.append(FlowState(t_next, *groups(y)))
    return out


# ---------------------------------------------------------------------------
# concrete Hamiltonian builders
# ---------------------------------------------------------------------------

def pauli_odd_symbols(theta: Sequence[Supernumber], pi: Sequence[Supernumber],
                      kernel_scale: complex) -> Tuple[Supernumber, Supernumber, Supernumber]:
    """Even quadratic symbols realizing the three spin matrices.

    s1 = th1 th2 + k^-2 pi1 pi2, s2 = i(th1 th2 - k^-2 pi1 pi2),
    s3 = -i k^-1 (th1 pi1 + th2 pi2).
    """
    (th, pp), _ = _in_one_algebra(theta, pi)
    _check_count(th, 2, "theta")
    _check_count(pp, 2, "pi")
    kk = complex(kernel_scale)
    if kk == 0:
        raise GrassmannError("kernel_scale must be nonzero")
    tt = th[0] * th[1]
    qq = pp[0] * pp[1]
    pair = th[0] * pp[0] + th[1] * pp[1]
    s1 = tt + (1.0 / (kk * kk)) * qq
    s2 = 1j * (tt - (1.0 / (kk * kk)) * qq)
    s3 = (-1j / kk) * pair
    return s1, s2, s3


def free_weyl_hamiltonian(params: WeylSymbolParams) -> SuperHamiltonian:
    """Complete even symbol of the free spin-transport generator.

    c (xi1 + i xi2) th1 th2 + c k^-2 (xi1 - i xi2) pi1 pi2
    - i c k^-1 xi3 (th1 pi1 + th2 pi2); no constant term.  This is
    ``em_weyl_hamiltonian`` with charge 0 and no potentials.
    """
    return em_weyl_hamiltonian(params, 0.0)


def susy_oscillator_hamiltonian(omega: float, kernel_scale: complex = 1.0
                                ) -> SuperHamiltonian:
    """One even and one odd pair: -xi^2/2 - omega^2 x^2/2 - k^-1 omega th pi."""
    w = float(omega)
    kk = complex(kernel_scale)
    if kk == 0:
        raise GrassmannError("kernel_scale must be nonzero")

    def fn(t, x, xi, theta, pi):
        return (-0.5) * xi[0] * xi[0] - 0.5 * w * w * x[0] * x[0] \
            - (w / kk) * theta[0] * pi[0]

    def partials(t, x, xi, theta, pi):
        return ((-(w * w) * x[0],), (-xi[0],),
                (-(w / kk) * pi[0],), ((w / kk) * theta[0],))

    return SuperHamiltonian(fn, 1, 1, partials=partials)


def em_weyl_hamiltonian(params: WeylSymbolParams, charge: float,
                        scalar_potential: Callable | None = None,
                        vector_potential: Callable | None = None,
                        scalar_potential_grad: Callable | None = None,
                        vector_potential_jacobian: Callable | None = None
                        ) -> SuperHamiltonian:
    """Spin-transport symbol minimally coupled to an external field.

    sum_j c s_j(theta,pi) (xi_j - (e/c) A_j(t,x)) + e A0(t,x).  Potentials
    are callables of (t, x-triple of supernumbers); when their derivative
    callables (gradient of A0; Jacobian dA_k/dx_j as jac(t,x)[k][j]) are
    omitted, slot derivatives fall back to exact nilpotent seeding.
    """
    c = params.speed
    kk = complex(params.kernel_scale)
    e = float(charge)

    def a0(t, x):
        return _as_super(scalar_potential(t, x)) if scalar_potential else scalar(0, 0.0)

    def avec(t, x):
        if vector_potential is None:
            return (scalar(0, 0.0),) * 3
        return tuple(_as_super(v) for v in vector_potential(t, x))

    def fn(t, x, xi, theta, pi):
        s = pauli_odd_symbols(theta, pi, kk)
        av = avec(t, x)
        acc = e * a0(t, x)
        for j in range(3):
            acc = acc + c * s[j] * (xi[j] - (e / c) * av[j])
        return acc

    have_grads = (
        (scalar_potential is None or scalar_potential_grad is not None)
        and (vector_potential is None or vector_potential_jacobian is not None)
    )

    def partials(t, x, xi, theta, pi):
        s = pauli_odd_symbols(theta, pi, kk)
        av = avec(t, x)
        eta = tuple(xi[j] - (e / c) * av[j] for j in range(3))
        zeta = eta[0] + 1j * eta[1]
        zeta_m = eta[0] - 1j * eta[1]
        # a potential's derivative may be a number; gradient puts each
        # partial in the state's algebra
        grad0 = scalar_potential_grad(t, x) if scalar_potential_grad else (0.0,) * 3
        jac = vector_potential_jacobian(t, x) if vector_potential_jacobian else ((0.0,) * 3,) * 3
        d_x = tuple(
            e * grad0[j] - e * sum(s[k] * jac[k][j] for k in range(3))
            for j in range(3)
        )
        d_xi = tuple(c * s[j] for j in range(3))
        d_th = (
            c * zeta * theta[1] - (1j * c / kk) * eta[2] * pi[0],
            -c * zeta * theta[0] - (1j * c / kk) * eta[2] * pi[1],
        )
        d_pi = (
            (c / (kk * kk)) * zeta_m * pi[1] + (1j * c / kk) * eta[2] * theta[0],
            -(c / (kk * kk)) * zeta_m * pi[0] + (1j * c / kk) * eta[2] * theta[1],
        )
        return d_x, d_xi, d_th, d_pi

    return SuperHamiltonian(fn, 3, 2, partials=partials if have_grads else None)


# ---------------------------------------------------------------------------
# degenerate model equation: v_tt = t^2 v_qq + (4k+1) v_q
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class QiSolution:
    """Solution values on a grid plus the derivative-series coefficients."""

    values: np.ndarray
    coefficients: Tuple[float, ...]


@dataclass(frozen=True)
class QiPhaseComponents:
    """Expansion coefficients of the generating action of the model flow.

    theta_top multiplies th1 th2, pairing multiplies each th_a pi_a,
    momentum_top multiplies pi1 pi2, quartic multiplies the degree-4 term.
    """

    theta_top: complex
    pairing: complex
    momentum_top: complex
    quartic: complex


def qi_coefficients(k: int) -> Tuple[float, ...]:
    """Derivative-series coefficients 2^{2l} k! / ((2l)! (k-l)!), l = 0..k."""
    k = int(k)
    if k < 0:
        raise GrassmannError("k must be a nonnegative integer")
    return tuple(
        (4.0 ** el) * math.factorial(k) / (math.factorial(2 * el) * math.factorial(k - el))
        for el in range(k + 1)
    )


def qi_solve(k: int, phi: AnalyticSpec, t: float, q_grid) -> QiSolution:
    """Finite derivative-series solution of the degenerate model equation.

    v(t,q) = sum_l coeff_l t^{2l} phi^{(l)}(q + t^2/2) with the coefficient
    table from ``qi_coefficients``; k = 0 collapses to phi(q + t^2/2).
    """
    coeffs = qi_coefficients(k)
    tt = float(t)
    shift = tt * tt / 2.0
    qs = np.asarray(q_grid, dtype=float)
    vals = np.zeros(qs.shape, dtype=complex)
    for el, c_el in enumerate(coeffs):
        weight = c_el * tt ** (2 * el)
        if weight == 0.0 and el > 0:
            continue
        vals += weight * np.array(
            [phi.derivative(el, complex(q + shift)) for q in qs.ravel()]
        ).reshape(qs.shape)
    return QiSolution(values=vals, coefficients=coeffs)


def qi_characteristic_coefficients(k: int, xi: complex) -> Tuple[complex, ...]:
    """Ascending t-coefficients of the polynomial whose log-derivative
    solves the model's quadratically nonlinear rate equation.

    Degree 2k; odd slots vanish; slot 2l holds 4^l k!/((2l)!(k-l)!) (i xi)^l.
    """
    k = int(k)
    if k < 0:
        raise GrassmannError("k must be a nonnegative integer")
    base = qi_coefficients(k)
    out = [0j] * (2 * k + 1)
    for el, c_el in enumerate(base):
        out[2 * el] = c_el * (1j * complex(xi)) ** el
    return tuple(out)


def _poly_eval(coeffs: Sequence[complex], t: complex) -> complex:
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def _poly_derivative(coeffs: Sequence[complex]) -> Tuple[complex, ...]:
    return tuple(j * coeffs[j] for j in range(1, len(coeffs)))


def qi_phase_components(k: int, t: float, xi: complex,
                        quad_nodes: int = 64) -> QiPhaseComponents:
    """Closed-form expansion coefficients of the model's generating action.

    theta_top = -i poly'/poly, pairing = e^{-i t^2 xi/2}/poly,
    momentum_top = -i * integral of pairing^2 from 0 to t, quartic = 0.
    """
    coeffs = qi_characteristic_coefficients(k, xi)
    dcoeffs = _poly_derivative(coeffs)
    tt = float(t)
    z = complex(xi)
    p_val = _poly_eval(coeffs, tt)
    if p_val == 0:
        raise GrassmannDomainError("caustic: characteristic polynomial vanishes")
    theta_top = -1j * _poly_eval(dcoeffs, tt) / p_val
    pairing = cmath.exp(-0.5j * tt * tt * z) / p_val

    nodes, weights = np.polynomial.legendre.leggauss(int(quad_nodes))
    half = 0.5 * tt
    acc = 0j
    for u, w in zip(nodes, weights):
        s = half * (u + 1.0)
        ps = _poly_eval(coeffs, s)
        acc += w * cmath.exp(-1j * s * s * z) / (ps * ps)
    momentum_top = -1j * half * acc
    return QiPhaseComponents(theta_top=theta_top, pairing=pairing,
                             momentum_top=momentum_top, quartic=0j)


def qi_finite_difference(k: int, phi: AnalyticSpec, t_final: float,
                         q_min: float = -8.0, q_max: float = 8.0,
                         nq: int = 1000, nt: int = 2000
                         ) -> Tuple[np.ndarray, np.ndarray]:
    """Explicit leapfrog integration of v_tt = t^2 v_qq + (4k+1) v_q.

    Initial data v = phi on the grid, v_t = 0; Dirichlet edges.  Returns
    (q_grid, values at t_final).  Independent of the derivative series, so
    it serves as a cross-check oracle for ``qi_solve``.
    """
    k = int(k)
    if k < 0:
        raise GrassmannError("k must be a nonnegative integer")
    if not (t_final > 0):
        raise GrassmannError("t_final must be positive")
    q = np.linspace(float(q_min), float(q_max), int(nq))
    dx = q[1] - q[0]
    dt = float(t_final) / int(nt)
    drift = 4.0 * k + 1.0

    def rhs(v: np.ndarray, t: float) -> np.ndarray:
        out = np.zeros_like(v)
        interior = slice(1, -1)
        d2 = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / (dx * dx)
        d1 = (v[2:] - v[:-2]) / (2.0 * dx)
        out[interior] = (t * t) * d2 + drift * d1
        return out

    v_prev = np.array([phi.derivative(0, complex(z)) for z in q], dtype=complex)
    # second-order start consistent with v_t(0) = 0
    v_cur = v_prev + 0.5 * dt * dt * rhs(v_prev, 0.0)
    t = dt
    for _ in range(1, int(nt)):
        v_next = 2.0 * v_cur - v_prev + dt * dt * rhs(v_cur, t)
        v_prev, v_cur = v_cur, v_next
        t += dt
    return q, v_cur


def gaussian_profile(width: float = 1.0, center: float = 0.0) -> AnalyticSpec:
    """Analytic bell profile exp(-(z-center)^2/(2 width^2)) with derivatives.

    The k-th derivative uses the standard three-term recurrence for the
    associated orthogonal polynomials, so any order is available exactly.
    """
    w = float(width)
    c0 = float(center)
    if not (w > 0):
        raise GrassmannError("width must be positive")

    def deriv(k: int, z: complex) -> complex:
        u = (complex(z) - c0) / w
        base = cmath.exp(-0.5 * u * u)
        if k == 0:
            return base
        hs = [1.0 + 0j, u]
        for n in range(1, k):
            hs.append(u * hs[n] - n * hs[n - 1])
        return ((-1.0 / w) ** k) * hs[k] * base

    return AnalyticSpec.custom(deriv)
