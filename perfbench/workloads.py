"""The benchmark's three workloads: seeded inputs, one solution, its checks.

Each workload builds a small pool of cases from the seed (this is set-up
time), ``solve`` runs one case through supercalc (the timed part) and
``check`` compares the output with its reference, a closed form or an
identity the output must satisfy (untimed).  supercalc receives only the
generated inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from supercalc.berezin import FSMPath, GaussQuadSpec, PulledBack, gaussian_super, integrate_fsm
from supercalc.grassmann import Supernumber, gen, max_abs, max_coeff_diff, scalar, zero
from supercalc.superlinalg import from_blocks, sdet
from supercalc.superspace import SuperFunction, SuperMap, expr_body
from supercalc.weyl_dynamics import (
    FlowState,
    WeylSymbolParams,
    em_weyl_hamiltonian,
    free_propagator_momentum,
    propagator_matrix_from_classical,
    super_hamilton_flow,
)

MAX_DIGITS = 15.0


@dataclass(frozen=True)
class Check:
    """One comparison with a reference: relative error and its tolerance."""

    name: str
    error: float
    tol: float

    @property
    def passed(self) -> bool:
        return math.isfinite(self.error) and self.error <= self.tol

    @property
    def digits(self) -> float:
        """Decimal digits of agreement, capped at MAX_DIGITS."""
        if not math.isfinite(self.error):
            return 0.0
        if self.error <= 10.0 ** -MAX_DIGITS:
            return MAX_DIGITS
        return max(0.0, -math.log10(self.error))


def _relative(diff: float, reference: float) -> float:
    return diff / max(1.0, reference)


# ---------------------------------------------------------------------------
# fsm_transport
# ---------------------------------------------------------------------------

class FsmTransport:
    """The change-of-variables repair for a Berezin path integral over R^{2|2}.

    The path is moved by the backward map while the integrand is pulled back
    through the forward map, so the transported integral must return the
    Gaussian's normalisation, exactly 1.

    Why: the quadrature, seeding (map_super_jacobian at working L=8),
    continue_body and sdet layers do almost all the work here, on sparse
    elements: 2,000 integrand calls and 4,000 Jacobians and sdets per
    solution.  It bypasses dense products, the Pfaffian and the Hamilton flow.
    """

    name = "fsm_transport"
    box = ((-4.2, 4.2),) * 2
    quad = GaussQuadSpec(nodes=20)
    odd_order = (1, 2)
    pool = 4
    # Widths above ~1.15 fail the 1e-7 doubling check at 20 nodes; below ~0.9
    # the Gaussian's mass outside the box exceeds the 1e-7 tolerance.
    width_range = (0.97, 1.03)
    coupling_range = (0.5, 2.0)
    tol = 1e-7

    @staticmethod
    def lac_pair():
        """Mutually inverse (2|2) maps; the backward one is rational in q1 - i q2."""
        def E(text):
            return expr_body(text, 2)

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

    @staticmethod
    def gaussian(width: float, coupling: float) -> SuperFunction:
        """N exp(-a|q|^2 - 2 b theta_1 theta_2) with N = a / (2 pi b).

        Its integral with the (1, 2) odd measure is 2 pi b N / a = 1 exactly.
        """
        norm = width / (2.0 * math.pi * coupling)
        gauss = f"exp(-{width!r}*(q1^2+q2^2))"
        return SuperFunction(2, 2, {
            0: expr_body(f"{norm!r}*{gauss}", 2),
            0b11: expr_body(f"{-2.0 * coupling * norm!r}*{gauss}", 2),
        })

    def build(self, seed: int) -> list:
        rng = np.random.default_rng([seed, 1])
        forward, backward = self.lac_pair()
        path = FSMPath(self.box, backward)
        cases = []
        for _ in range(self.pool):
            width = float(rng.uniform(*self.width_range))
            coupling = float(rng.uniform(*self.coupling_range))
            cases.append((path, PulledBack(forward, self.gaussian(width, coupling))))
        return cases

    def solve(self, case):
        path, integrand = case
        return integrate_fsm(path, integrand, self.quad, odd_order=self.odd_order)

    def check(self, case, value: Supernumber) -> list:
        return [Check("integral", abs(value.body - 1.0), self.tol)]


# ---------------------------------------------------------------------------
# spin_transport
# ---------------------------------------------------------------------------

class SpinTransport:
    """Super Hamilton flow of spin transport in a static linear potential.

    H = sum_j c s_j(theta, pi) xi_j + e x_3 on a state with L=4 (theta at
    generators 0, 1 and pi at 2, 3).  The potential is a plain callable with
    no gradient callable, so every gradient goes through SuperHamiltonian's
    nilpotent seeding: 10 evaluations of H per gradient, 40 per RK4 step.
    After the flow, the propagator is rebuilt from classical data at the
    initial momentum.

    Why: every element has at most 6 terms, so per-object overhead
    (construction, embed, validation) dominates.  Seeding takes a different
    form from fsm_transport, and there is no quadrature, no sdet and no dense
    product: this sits on the small side of any dense-kernel or batch
    crossover, and is where boundary validation costs would show.
    """

    name = "spin_transport"
    L = 4
    duration = 0.5
    steps = 10
    pool = 16
    momentum_range = (0.8, 1.2)
    charge_range = (0.8, 1.2)
    exact_tol = 1e-12
    # RK4 truncation over 10 steps of 0.05 leaves H conserved to ~5e-7 here.
    energy_tol = 1e-5
    propagator_tol = 1e-9

    def build(self, seed: int) -> list:
        rng = np.random.default_rng([seed, 2])
        L = self.L
        params = WeylSymbolParams()
        grid = tuple(np.linspace(0.0, self.duration, self.steps + 1))
        cases = []
        for _ in range(self.pool):
            x0 = rng.normal(size=3)
            direction = rng.normal(size=3)
            xi0 = direction / np.linalg.norm(direction) * rng.uniform(*self.momentum_range)
            charge = float(rng.uniform(*self.charge_range))
            hamiltonian = em_weyl_hamiltonian(
                params, charge, scalar_potential=lambda t, x: x[2])
            state = FlowState(
                0.0,
                tuple(scalar(L, float(v)) for v in x0),
                tuple(scalar(L, float(v)) for v in xi0),
                (gen(L, 0), gen(L, 1)),
                (gen(L, 2), gen(L, 3)),
            )
            momentum = tuple(float(v) for v in xi0)
            cases.append((hamiltonian, state, grid, charge, momentum))
        return cases

    def solve(self, case):
        hamiltonian, state, grid, _, momentum = case
        final = super_hamilton_flow(hamiltonian, state, grid)[-1]
        return final, propagator_matrix_from_classical(grid[-1], momentum)

    def check(self, case, output) -> list:
        hamiltonian, state, grid, charge, momentum = case
        final, propagator = output
        t = grid[-1]
        want_xi3 = scalar(self.L, state.xi[2].body - charge * t)
        xi3 = _relative(max_coeff_diff(final.xi[2], want_xi3), max_abs(want_xi3))
        xi12 = max(_relative(max_coeff_diff(final.xi[j], state.xi[j]), max_abs(state.xi[j]))
                   for j in range(2))
        h0 = hamiltonian.value_at(state)
        energy = _relative(max_coeff_diff(hamiltonian.value_at(final), h0), max_abs(h0))
        free = free_propagator_momentum(t, momentum)
        prop = float(np.abs(propagator - free).max())
        return [
            Check("xi3_linear", xi3, self.exact_tol),
            Check("xi12_constant", xi12, self.exact_tol),
            Check("energy", energy, self.energy_tol),
            Check("propagator", prop, self.propagator_tol),
        ]


# ---------------------------------------------------------------------------
# berezinian_dense
# ---------------------------------------------------------------------------

class BerezinianDense:
    """Berezinians and the Gaussian closed form on dense (2|2) supermatrices.

    Entries have dense souls over L=8 generators: every mask of the entry's
    parity is populated (128 terms each).  Per solution: sdet(M), sdet(N),
    M@N, sdet(M@N) and gaussian_super(G, lam) for an admissible G.

    Why: dense products at large L dominate (one even x even product visits
    128 x 128 term pairs), so this exercises the dict-vs-vectorised product
    choice.  It does no seeding and no quadrature.
    """

    name = "berezinian_dense"
    L = 8
    # Roundoff differs from case to case; agree_digits is a minimum over the
    # run's checks, so it needs many distinct cases to be steady across seeds.
    pool = 16
    soul_scale = 0.3
    lam_range = (0.5, 2.0)
    tol = 1e-9

    def __init__(self):
        masks = range(1, 1 << self.L)
        self.even_masks = [m for m in masks if m.bit_count() % 2 == 0]
        self.odd_masks = [m for m in masks if m.bit_count() % 2 == 1]

    def _dense(self, rng, masks, body: float = 0.0) -> Supernumber:
        size = len(masks)
        coeffs = self.soul_scale * (rng.uniform(-1, 1, size) + 1j * rng.uniform(-1, 1, size))
        terms = dict(zip(masks, coeffs.tolist()))
        terms[0] = body
        return Supernumber(self.L, terms)

    def _even_matrix(self, rng):
        """Even (2|2) matrix; both diagonal blocks have invertible bodies."""
        body_a = rng.normal(size=(2, 2)) + 2.0 * np.eye(2)
        body_b = rng.normal(size=(2, 2)) + 2.0 * np.eye(2)
        A = [[self._dense(rng, self.even_masks, body_a[i, j]) for j in range(2)]
             for i in range(2)]
        B = [[self._dense(rng, self.even_masks, body_b[i, j]) for j in range(2)]
             for i in range(2)]
        C = [[self._dense(rng, self.odd_masks) for _ in range(2)] for _ in range(2)]
        D = [[self._dense(rng, self.odd_masks) for _ in range(2)] for _ in range(2)]
        return from_blocks(A, C, D, B, L=self.L)

    def _gaussian_matrix(self, rng):
        """Admissible G: symmetric positive-definite A, antisymmetric B, D = -C^T."""
        root = rng.normal(size=(2, 2))
        body_a = root @ root.T + np.eye(2)
        A = [[None, None], [None, None]]
        for i in range(2):
            for j in range(i, 2):
                A[i][j] = A[j][i] = self._dense(rng, self.even_masks, body_a[i, j])
        off = self._dense(rng, self.even_masks, float(rng.uniform(0.5, 1.5)))
        B = [[zero(self.L), off], [-off, zero(self.L)]]
        C = [[self._dense(rng, self.odd_masks) for _ in range(2)] for _ in range(2)]
        D = [[-C[j][i] for j in range(2)] for i in range(2)]
        return from_blocks(A, C, D, B, L=self.L)

    def build(self, seed: int) -> list:
        rng = np.random.default_rng([seed, 3])
        return [
            (self._even_matrix(rng), self._even_matrix(rng), self._gaussian_matrix(rng),
             float(rng.uniform(*self.lam_range)))
            for _ in range(self.pool)
        ]

    def solve(self, case):
        M, N, G, lam = case
        return sdet(M), sdet(N), sdet(M @ N), gaussian_super(G, lam)

    def check(self, case, output) -> list:
        _, _, G, lam = case
        sdet_m, sdet_n, sdet_mn, gauss = output
        product = sdet_m * sdet_n
        multiplicative = _relative(max_coeff_diff(sdet_mn, product), max_abs(product))
        m, n = G.m, G.n
        want = (2.0 * math.pi * lam) ** m * lam ** (-n)
        squared = gauss * gauss * sdet(G)
        closed_form = _relative(max_coeff_diff(squared, scalar(self.L, want)), want)
        return [
            Check("sdet_multiplicative", multiplicative, self.tol),
            Check("gaussian_squared", closed_form, self.tol),
        ]


WORKLOADS = {w.name: w for w in (FsmTransport(), SpinTransport(), BerezinianDense())}
