"""Integration over anticommuting variables and mixed even/odd domains.

The purely odd integral of a polynomial in n anticommuting variables picks
the top coefficient; the default measure string is d(theta_n)...d(theta_1),
so the result is exactly v_top (other orderings are available and change only
the sign).  Mixed integrals come in two flavors: the naive one (quadrature of
the top coefficient over a real box) and the contour/path one, which carries
a super-Jacobian factor along a parametrized image and repairs the change-of-
variables failures the naive definition exhibits.  On top of these sit the
closed-form Gaussian integrals (even block determinant root x Pfaffian of the
odd block after elimination), a shifted 1-D Gaussian moment engine, a
Hubbard-Stratonovich identity check, and a supersymmetric localization
integral.

Sign conventions pinned here and relied on elsewhere:
  - default odd measure: integral of theta_1...theta_n is +1;
  - ascending measure d(theta_1)...d(theta_n): the same monomial integrates
    to (-1)^{n(n-1)/2} (for n=2: -1), the ordering the Gaussian closed forms
    are stated in;
  - delta reproduction (omega_1-theta_1)...(omega_n-theta_n) holds with the
    default measure for even n and picks up (-1)^n in general.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Dict, Sequence, Tuple

import numpy as np

from .grassmann import (
    AnalyticSpec,
    GrassmannDomainError,
    GrassmannError,
    Supernumber,
    _DROP_ZEROS,
    _as_super,
    _coefficient,
    _in_one_algebra,
    _is_finite,
    apply_analytic,
    gen,
    gen_left_derivative,
    inverse,
    max_abs,
    one,
    scalar,
    seed,
    seed_parts,
    zero,
)
from .superlinalg import (
    Supermatrix,
    _mat_mul,
    _mat_sub,
    _negligible,
    _sdet,
    det_even,
    mat_inverse_even,
    pfaffian,
)
from .superspace import SuperMap, SuperPoint, map_super_jacobian

__all__ = [
    "QuadratureError",
    "GaussQuadSpec",
    "quad_box",
    "OddPolynomial",
    "odd_expand",
    "integrate_odd",
    "integrate_naive",
    "FSMPath",
    "integrate_fsm",
    "PulledBack",
    "naive_cvf_discrepancy",
    "gaussian_super",
    "gaussian_body_moment",
    "hubbard_stratonovich_check",
    "susy_localize",
]


class QuadratureError(GrassmannError):
    """Richardson doubling disagreed beyond the requested tolerance, or a
    grid sum was not finite."""


@dataclass(frozen=True)
class GaussQuadSpec:
    """Tensor Gauss-Legendre settings with a doubling error check."""

    nodes: int = 24
    richardson_tol: float = 1e-7
    rmax: float = 6.0  # radial cutoff for decaying integrands

    def __post_init__(self):
        if self.nodes < 2:
            raise GrassmannError("need at least 2 quadrature nodes per axis")


DEFAULT_QUAD = GaussQuadSpec()

# Grid nodes per integrand call.  A larger chunk runs fewer interpreted
# operations per node, but the allocator's high-water mark grows with it.
# Time per transported (2|2) Gaussian path integral at 20 nodes per axis and
# peak RSS of the process, 2-vCPU Xeon, two 30-s runs of repeated solves each:
#    100 nodes   0.061-0.062 s   41.28-41.31 MB
#    200 nodes   0.034-0.036 s   41.41-41.46 MB
#    400 nodes   0.021-0.025 s   41.59-41.72 MB
#    800 nodes   0.017 s         42.76-42.79 MB
# 400 holds a whole 20 x 20 grid at +1% RSS over 100; 800 saves 20% more time
# for +3.6% RSS.
QUAD_CHUNK = 400


def _weighted_sum(weights: np.ndarray, values):
    """sum_k weights[k] * values[k] for per-node values (see _tensor_quad).

    An inf value gives a nan sum without a warning; _quad rejects the sum.
    """
    with np.errstate(invalid="ignore"):
        if isinstance(values, Supernumber):
            return Supernumber(values.L, {
                m: complex(np.dot(weights, np.broadcast_to(c, weights.shape)))
                for m, c in values._terms.items()
            }, _DROP_ZEROS)
        return complex(np.dot(weights, np.broadcast_to(values, weights.shape)))


def _on_nodes(fn, q):
    """fn at each node of the chunk q, one node at a time, as one per-node
    value (see _tensor_quad)."""
    values = [fn(node) for node in (zip(*q) if q else [()])]
    if not any(isinstance(v, Supernumber) for v in values):
        return np.array(values, dtype=complex)
    L = max(v.L for v in values if isinstance(v, Supernumber))
    terms: Dict[int, np.ndarray] = {}
    for k, v in enumerate(values):
        node = v._terms if isinstance(v, Supernumber) else {0: v}
        for mask, c in node.items():
            terms.setdefault(mask, np.zeros(len(values), dtype=complex))[k] = c
    return Supernumber(L, terms, _DROP_ZEROS)


def _per_chunk(integrand):
    """integrand, which takes a chunk of nodes or a single node, on chunks.

    A chunk that raises ArithmeticError, TypeError or ValueError
    (GrassmannError included) is evaluated again one node at a time, and so
    is a chunk on which numpy meets a division by zero, an overflow or an
    invalid operation, which it would otherwise turn into inf or nan.  So an
    integrand gives the values, or raises the error, that it gives at single
    nodes, also at a node on a pole and when built on something that cannot
    take a batch.
    """
    def on_chunk(q):
        try:
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                return integrand(q)
        except (ArithmeticError, TypeError, ValueError):
            pass
        return _on_nodes(integrand, q)

    return on_chunk


@functools.cache
def _gauss_legendre(nodes: int) -> Tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], built once per node count.
    Every caller shares the two arrays, so they are read-only."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _tensor_quad(fn, box, nodes: int):
    """Tensor Gauss-Legendre sum of fn over a box, nodes per axis.

    fn takes a chunk of up to QUAD_CHUNK grid nodes as a tuple with one array
    of coordinates per axis, and returns one value per node: an array, a
    scalar shared by all nodes, or a Supernumber whose coefficients are such
    values.  On a d-axis box fn runs ceil(nodes^d / QUAD_CHUNK) times: once on
    a 20 x 20 grid and 4 times on 40 x 40, which at 400 nodes per chunk makes
    a transported (2|2) path integral 2.5-3 times faster than at 100 (see
    QUAD_CHUNK).  The rule on [-1, 1] is built once per node count.
    """
    x, w = _gauss_legendre(nodes)
    axes = [0.5 * (hi - lo) * x + 0.5 * (hi + lo) for lo, hi in box]
    weights = np.ones(1)
    for lo, hi in box:
        weights = np.multiply.outer(weights, 0.5 * (hi - lo) * w).ravel()
    index = np.indices((nodes,) * len(box)).reshape(len(box), weights.size)
    grid = [a[i] for a, i in zip(axes, index)]
    total = 0j
    for start in range(0, weights.size, QUAD_CHUNK):
        chunk = slice(start, start + QUAD_CHUNK)
        total = total + _weighted_sum(weights[chunk], fn(tuple(g[chunk] for g in grid)))
    return total


def _quad(fn, box, spec: GaussQuadSpec):
    """_tensor_quad at spec.nodes and twice as many nodes per axis; the two
    sums must be finite and agree.  Returns the sum on the finer grid."""
    box = [(float(lo), float(hi)) for lo, hi in box]
    if not all(math.isfinite(e) for edge in box for e in edge):
        raise QuadratureError("box bounds must be finite")
    coarse = _tensor_quad(fn, box, spec.nodes)
    fine = _tensor_quad(fn, box, 2 * spec.nodes)
    for total in (coarse, fine):
        if not _is_finite(total):
            raise QuadratureError("quadrature sum is not finite")
    gap = coarse - fine
    size = max_abs(gap) if isinstance(gap, Supernumber) else abs(gap)
    ref = max_abs(fine) if isinstance(fine, Supernumber) else abs(fine)
    if size > spec.richardson_tol * (1.0 + ref):
        raise QuadratureError(
            f"quadrature not converged: disagreement {size:.3e} at doubled nodes"
        )
    return fine


def quad_box(fn: Callable[[Tuple[float, ...]], complex],
             box: Sequence[Tuple[float, float]],
             spec: GaussQuadSpec = DEFAULT_QUAD):
    """Integrate fn over an axis-aligned box; node doubling must agree.

    fn is called at one node q at a time and may return complex numbers or
    Supernumbers; the doubling check compares the two results with max_abs.
    A sum that is not finite raises QuadratureError.
    """
    return _quad(lambda q: _on_nodes(fn, q), box, spec)


# ---------------------------------------------------------------------------
# purely odd integrals
# ---------------------------------------------------------------------------

class OddPolynomial:
    """v(theta) = sum_a theta^a v_a with Supernumber coefficients.

    Bit s of the monomial mask a corresponds to theta_{s+1}; the monomial is
    written with ascending index order and sits LEFT of its coefficient.
    Coefficients live in an ambient algebra unrelated to the theta slots.
    """

    def __init__(self, n: int, coefficients: Dict[int, Supernumber],
                 L: int | None = None):
        self.n = int(n)
        top = 1 << self.n
        clean = {}
        for mask, c in coefficients.items():
            if not (0 <= mask < top):
                raise GrassmannError(f"odd monomial mask {mask} out of range")
            if c != 0:
                clean[int(mask)] = c
        (values,), self.L = _in_one_algebra(clean.values(), L=int(L or 0))
        self.coefficients = dict(zip(clean, values))

    @property
    def top(self) -> Supernumber:
        return self.coefficients.get((1 << self.n) - 1, zero(self.L))

    @property
    def parity(self) -> str:
        seen = set()
        for a, c in self.coefficients.items():
            p = c.parity
            if p == "mixed":
                return "mixed"
            seen.add((a.bit_count() + (1 if p == "odd" else 0)) & 1)
        if not seen:
            return "even"
        if len(seen) > 1:
            return "mixed"
        return "odd" if seen.pop() else "even"

    def evaluate(self, thetas: Sequence[Supernumber]) -> Supernumber:
        if len(thetas) != self.n:
            raise GrassmannError(f"expected {self.n} odd arguments")
        (thetas,), L = _in_one_algebra(thetas, L=self.L)
        acc = zero(L)
        for a, c in self.coefficients.items():
            mono = one(L)
            for s in range(self.n):
                if (a >> s) & 1:
                    mono = mono * thetas[s]
            acc = acc + mono * c
        return acc

    def partial(self, s: int) -> "OddPolynomial":
        """Left derivative in theta_{s+1} (0-based slot)."""
        if not (0 <= s < self.n):
            raise GrassmannError(f"odd slot {s} out of range")
        bit = 1 << s
        out: Dict[int, Supernumber] = {}
        for a, c in self.coefficients.items():
            if not (a & bit):
                continue
            sign = -1.0 if (a & (bit - 1)).bit_count() & 1 else 1.0
            out[a ^ bit] = sign * c
        return OddPolynomial(self.n, out, L=self.L)


def odd_expand(fn: Callable[[Tuple[Supernumber, ...]], Supernumber],
               n: int, ambient_L: int) -> OddPolynomial:
    """Expand a function of n odd arguments into an OddPolynomial.

    Evaluates once at fresh generators placed above the ambient algebra
    (grassmann.seed) and reads the theta-monomial coefficients back with
    grassmann.seed_parts.  Every monomial is read, so this seeding does not
    truncate; inside a first-order seeded evaluation its values keep the
    outer cut, whose window lies below the generators seeded here.
    """
    _, fresh, _ = seed((), (zero(ambient_L),) * n, ambient_L)
    val = _as_super(fn(fresh))
    if val.L > ambient_L + n:
        raise GrassmannError("expansion escaped its working algebra")
    return OddPolynomial(n, seed_parts(val, ambient_L), L=ambient_L)


def _measure_sign(n: int, order: Sequence[int]) -> float:
    """Sign of d(theta_{order[0]}) ... d(theta_{order[-1]}) on theta_1...theta_n."""
    order = list(order)
    if sorted(order) != list(range(1, n + 1)):
        raise GrassmannError("order must be a permutation of 1..n")
    if n == 0:
        return 1.0
    probe = one(n)
    for s in range(n):
        probe = probe * gen(n, s)
    for a in reversed(order):  # rightmost differential acts first
        probe = gen_left_derivative(probe, a - 1)
    val = probe.body
    if abs(abs(val) - 1.0) > 1e-12:
        raise GrassmannError("measure sign computation failed")
    return val.real


def integrate_odd(v: OddPolynomial,
                  order: Sequence[int] | None = None) -> Supernumber:
    """Berezin integral over all n odd variables.

    The default measure string is d(theta_n)...d(theta_1), normalized so that
    theta_1...theta_n integrates to +1; an explicit ``order`` (1-based, outer
    to inner) selects other conventions, e.g. order=(1,2) gives -1 on
    theta_1 theta_2.
    """
    if order is None:
        order = tuple(range(v.n, 0, -1))
    return _measure_sign(v.n, order) * v.top


# ---------------------------------------------------------------------------
# naive mixed integral
# ---------------------------------------------------------------------------

def _grid_point(q, n: int) -> SuperPoint:
    """Body coordinates q (one array of nodes per axis, or one node) with the
    n odd coordinates set to fresh generators.  The nodes are finite (_quad
    checks the box), so the constants skip the constructor's checks."""
    L = max(n, 1)
    return SuperPoint(
        tuple(Supernumber(L, {0: _coefficient(c)}, _DROP_ZEROS) for c in q),
        tuple(gen(L, s) for s in range(n)),
    )


def _top(val: Supernumber, n: int):
    """Coefficient of theta_1...theta_n in a value at a _grid_point."""
    return val.body if n == 0 else val.coefficient((1 << n) - 1)


def integrate_naive(u, box: Sequence[Tuple[float, float]],
                    quad: GaussQuadSpec = DEFAULT_QUAD,
                    odd_order: Sequence[int] | None = None) -> Supernumber:
    """Quadrature of the top odd coefficient over a real box.

    u is anything with shape attributes m, n and a SuperPoint evaluator.
    The odd variables are integrated out first at each body point (default
    descending measure; ``odd_order`` selects another ordering), then the
    top coefficient is integrated over the box.
    """
    m, n = u.m, u.n
    if len(box) != m:
        raise GrassmannError(f"box has {len(box)} axes, function has {m}")
    sign = 1.0 if odd_order is None else _measure_sign(n, odd_order)
    val = _quad(_per_chunk(lambda q: _top(u.evaluate(_grid_point(q, n)), n)), box, quad)
    return Supernumber(0, {0: sign * val})


# ---------------------------------------------------------------------------
# contour / path integral with super-Jacobian
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FSMPath:
    """A parametrized image of box x odd-parameters inside R^{m|n}.

    ``gamma`` maps (q, params) to (x, theta); its source and target must both
    be (m|n).  Its derivative matrix is extracted exactly from gamma by
    nilpotent seeding.
    """

    box: Tuple[Tuple[float, float], ...]
    gamma: SuperMap

    def __post_init__(self):
        m, n = self.gamma.src
        if self.gamma.dst != (m, n):
            raise GrassmannError("path must map (m|n) parameters to R^{m|n}")
        if len(self.box) != m:
            raise GrassmannError("box arity does not match even parameter count")


def integrate_fsm(path: FSMPath, u,
                  quad: GaussQuadSpec = DEFAULT_QUAD,
                  odd_order: Sequence[int] | None = None) -> Supernumber:
    """Path integral: Berezin integral over the odd parameters of the
    q-quadrature of sdet J(gamma) times u composed with gamma, which is the
    naive integral of the pull-back of u through gamma."""
    return integrate_naive(PulledBack(path.gamma, u), path.box, quad, odd_order)


class PulledBack:
    """sdet J(phi) times (u after phi), as an evaluable integrand.

    This is the integrand the change-of-variables formula transports: a
    function on the source domain of phi whose path integral over
    phi^{-1}(domain) matches the integral of u over the original domain.  A
    Jacobian whose sdet has a vanishing body raises GrassmannDomainError.
    """

    def __init__(self, phi: SuperMap, u):
        self.phi = phi
        self.u = u
        self.m, self.n = phi.src

    def evaluate(self, P: SuperPoint) -> Supernumber:
        sd = _sdet(map_super_jacobian(self.phi, P))
        if np.any(np.abs(sd.body) < 1e-12):
            raise GrassmannDomainError("path Jacobian is body-singular on the box")
        return sd * self.u.evaluate(self.phi.evaluate(P))


def naive_cvf_discrepancy(phi_map: SuperMap, u,
                          box: Sequence[Tuple[float, float]],
                          quad: GaussQuadSpec = DEFAULT_QUAD) -> Supernumber:
    """Naive integral of u minus the naive integral of its pull-back.

    Zero when the lower coefficients of u are compactly supported inside the
    box; for the pinned 1|2 counterexample it equals the (negated) boundary
    term of the derivative of (phi times the bottom coefficient).
    """
    direct = integrate_naive(u, box, quad)
    pulled = integrate_naive(PulledBack(phi_map, u), box, quad)
    return direct - pulled


# ---------------------------------------------------------------------------
# Gaussian integrals
# ---------------------------------------------------------------------------

def gaussian_super(M: Supermatrix, lam: float) -> Supernumber:
    """Closed form of the Gaussian integral over R^{m|n}.

    For an admissible even matrix (symmetric even block with positive
    definite body, antisymmetric body-regular odd block, transpose-compatible
    couplings) and lam > 0, the integral of exp(-<X, M X> / (2 lam)) with
    ascending odd measure d(theta_1)...d(theta_n) equals

        (2 pi lam)^{m/2} lam^{-n/2} det(A)^{-1/2} Pf(B - D A^{-1} C)

    for even n, and 0 for odd n; Pf is the perfect-matchings Pfaffian with
    Pf([[0, 1], [-1, 0]]) = 1.
    """
    if lam <= 0:
        raise GrassmannDomainError("scale must be positive")
    m, n, L = M.m, M.n, M.L
    A, C, D, B = M.block("A"), M.block("C"), M.block("D"), M.block("B")

    body = M.body_matrix()
    Ab = body[:m, :m]
    if m:
        if np.max(np.abs(Ab.imag)) > 1e-10:
            raise GrassmannDomainError("even block body must be real")
        if np.max(np.abs(Ab - Ab.T)) > 1e-10:
            raise GrassmannDomainError("even block body must be symmetric")
        if np.min(np.linalg.eigvalsh(Ab.real)) <= 0:
            raise GrassmannDomainError("even block body must be positive definite")
    for s in range(n):
        for t in range(n):
            if max_abs(B[s][t] + B[t][s]) > 1e-12:
                raise GrassmannDomainError("odd block must be antisymmetric")
    for j in range(m):
        for s in range(n):
            if max_abs(C[j][s] + D[s][j]) > 1e-12:
                raise GrassmannDomainError("couplings must satisfy C^T + D = 0")

    if n % 2 == 1:
        # an antisymmetric odd-dimension block is always body-singular, so the
        # zero value must take precedence over the regularity requirement
        return zero(L)
    if n and _negligible(body[m:, m:]):
        raise GrassmannDomainError("odd block body must be regular")

    even_factor = scalar(L, (2 * math.pi * lam) ** (m / 2))
    if m:
        root = apply_analytic(AnalyticSpec.named("sqrt"), det_even(A))
        even_factor = even_factor * inverse(root)
        raw = _mat_sub(B, _mat_mul(_mat_mul(D, mat_inverse_even(A), L), C, L))
        # antisymmetrize exactly so roundoff cannot trip the Pfaffian's check
        pf_arg = [[0.5 * (raw[s][t] - raw[t][s]) for t in range(n)]
                  for s in range(n)]
    else:
        pf_arg = B
    pf = pfaffian(pf_arg) if n else one(L)
    return even_factor * scalar(L, lam ** (-n / 2)) * pf


def _double_factorial(k: int) -> int:
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def gaussian_body_moment(gamma: float, beta, n: int = 0) -> Supernumber:
    """Closed form of the shifted 1-D Gaussian moment with even shift.

    integral over R of x^n exp(-gamma x^2/2 + beta x) dx
      = sqrt(2 pi / gamma) exp(beta^2 / (2 gamma)) *
        sum over even k <= n of C(n,k) (k-1)!! gamma^{-k/2} (beta/gamma)^{n-k},
    exact in the algebra because the soul part of the exponential terminates.
    """
    if gamma <= 0:
        raise GrassmannDomainError("Gaussian weight must have positive width")
    if n < 0:
        raise GrassmannError("moment order must be nonnegative")
    beta = _as_super(beta)
    if beta.parity not in ("even",):
        raise GrassmannDomainError("linear coefficient must be even")
    L = beta.L
    mu = (1.0 / gamma) * beta
    poly = zero(L)
    for k in range(0, n + 1, 2):
        coef = math.comb(n, k) * _double_factorial(k - 1) * gamma ** (-k / 2)
        term = scalar(L, coef)
        for _ in range(n - k):
            term = term * mu
        poly = poly + term
    gauss = apply_analytic(AnalyticSpec.named("exp"), (0.5 / gamma) * (beta * beta))
    return scalar(L, math.sqrt(2 * math.pi / gamma)) * gauss * poly


def hubbard_stratonovich_check(A: Supermatrix, J: float = 1.0, N: float = 1.0,
                               sign: int = +1) -> Supernumber:
    """Residual of the quadratic-linearization identity.

    A is a (1|1) supermatrix [[a, t1], [t2, b]] with even diagonal and odd
    off-diagonal entries.
    LHS: exp[-(J^2 / 2N) str A^2].
    RHS: integral over Q = [[x1, r1], [r2, i x2]] of
         exp[-(N / 2J^2) str Q^2 + sign * i str(Q A)],
    the even pair carrying the 1/(2 pi) normalization and done by the shifted
    Gaussian closed form, the odd pair expanded and integrated in ascending
    order d(rho_1) d(rho_2).  Returns LHS - RHS.
    """
    if sign not in (+1, -1):
        raise GrassmannError("sign must be +1 or -1")
    if (A.m, A.n) != (1, 1):
        raise GrassmannError("expected a (1|1) supermatrix")
    a = A.block("A")[0][0]
    t1 = A.block("C")[0][0]
    t2 = A.block("D")[0][0]
    b = A.block("B")[0][0]
    La = A.L

    gam = N / (J * J)
    str_a2 = a * a - b * b + 2.0 * (t1 * t2)
    lhs = apply_analytic(AnalyticSpec.named("exp"), (-0.5 / gam) * str_a2)

    # odd sector: expand exp[-gam r1 r2 + sign*i (r1 t2 - r2 t1)] in the rho
    # pair and integrate in ascending order d(rho_1) d(rho_2)
    def odd_integrand(rho):
        r1, r2 = rho
        expo = (-gam) * (r1 * r2) \
            + (sign * 1j) * (r1 * t2 - r2 * t1)
        return apply_analytic(AnalyticSpec.named("exp"), expo)

    odd_value = integrate_odd(odd_expand(odd_integrand, 2, La), order=(1, 2))

    # even sector: two decoupled shifted Gaussians over x1, x2 with 1/(2 pi)
    even1 = gaussian_body_moment(gam, (sign * 1j) * a, 0)
    even2 = gaussian_body_moment(gam, float(sign) * b, 0)
    rhs = (1.0 / (2 * math.pi)) * even1 * even2 * odd_value
    return lhs - rhs


def susy_localize(phi: AnalyticSpec, gamma: float,
                  quad: GaussQuadSpec = DEFAULT_QUAD) -> Supernumber:
    """Integral over R^{2|2} of phi(|x|^2 - (4/gamma) theta_1 theta_2).

    Expanding the nilpotent argument and integrating the odd pair with the
    default descending measure leaves a radial integral of the derivative,
    which collapses to (4 pi / gamma) phi(0) for decaying phi.  The returned
    value is the quadrature over the radial cutoff, not the closed form.
    """
    if gamma <= 0:
        raise GrassmannDomainError("localization parameter must be positive")
    tail = abs(phi.derivative(0, quad.rmax ** 2))
    if tail > 1e-10 * (1.0 + abs(phi.derivative(0, 0.0))):
        raise GrassmannDomainError("integrand does not decay within the radial cutoff")

    def radial(q):
        r = q[0]
        return 2 * math.pi * r * (-4.0 / gamma) * phi.derivative(1, r * r)

    radial_quad = GaussQuadSpec(nodes=max(quad.nodes, 48),
                                richardson_tol=quad.richardson_tol,
                                rmax=quad.rmax)
    val = quad_box(radial, [(0.0, quad.rmax)], radial_quad)
    return Supernumber(0, {0: val})
