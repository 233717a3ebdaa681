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
import numbers
from dataclasses import dataclass
from typing import Callable, Dict, Sequence, Tuple

import numpy as np

from .grassmann import (
    AnalyticSpec,
    GrassmannDomainError,
    GrassmannError,
    Supernumber,
    _as_super,
    _elements,
    _in_one_algebra,
    _is_finite,
    _on_vectors,
    _monomial,
    _node_sum,
    _stack,
    apply_analytic,
    gen,
    max_abs,
    one,
    scalar,
    seed,
    seed_parts,
    zero,
)
from .superlinalg import (
    Supermatrix,
    _QUIET,
    _adjugate_inverse,
    _body_matrix,
    _half_power,
    _mat_mul,
    _mat_sub,
    _negligible,
    _node_array,
    _peaks,
    _pfaffian,
    _row_exponents,
    _sdet,
    _scaled_rows,
    _split,
    _times_two_to,
)
from .superspace import SuperMap, SuperPoint, _super_jet, compose

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
        if not isinstance(self.nodes, (int, np.integer)) or self.nodes < 2:
            raise GrassmannError("need an integer of at least 2 quadrature nodes per axis")
        # a nan or inf tolerance would turn the doubling check off
        for name in ("richardson_tol", "rmax"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and math.isfinite(value) and value > 0):
                raise GrassmannError(f"{name} must be finite and positive, got {value!r}")


DEFAULT_QUAD = GaussQuadSpec()

# Grid nodes per integrand call; the nodes of both grids of the doubling check
# are one node set (see _tensor_quad).  A larger chunk runs fewer interpreted
# operations per node, but the allocator's high-water mark grows with it.
# perfbench fsm_transport (a transported (2|2) Gaussian path integral at 20
# nodes per axis, so 400 + 1,600 = 2,000 nodes in one pass): solve_s and peak
# RSS of the process, 2-vCPU Xeon, three 8-s runs each, seeds 901-903:
#    800 nodes    5.92-6.35 ms    40.85-41.07 MB    (3 calls)
#   1000 nodes    4.71-4.81 ms    40.93-41.11 MB    (2 calls)
#   2000 nodes    3.78-3.90 ms    41.94-41.98 MB    (1 call)
#   4000 nodes    3.38-3.89 ms    41.89-42.01 MB    (1 call)
# 2000 makes the fsm pass one call: 38% less time than 800 (medians) for +2%
# RSS; a wider chunk changes nothing there.
QUAD_CHUNK = 2000


def _weighted_sum(weights: np.ndarray, values):
    """sum_k weights[k] * values[k] for per-node values (see _tensor_quad).

    An inf value gives a nan sum without a warning; _quad rejects the sum.
    """
    with np.errstate(invalid="ignore"):
        if isinstance(values, Supernumber):
            return _node_sum(weights, values)
        return complex(np.dot(weights, np.broadcast_to(values, weights.shape)))


def _on_nodes(fn, q):
    """fn at each node of the chunk q, one node at a time, as one per-node
    value (see _tensor_quad)."""
    values = [fn(node) for node in (zip(*q) if q else [()])]
    if not any(isinstance(v, Supernumber) for v in values):
        return np.array(values, dtype=complex)
    return _stack(values)


def _per_chunk(integrand):
    """integrand, which takes a chunk of nodes or a single node, on chunks.

    A chunk that raises ArithmeticError, TypeError or ValueError
    (GrassmannError included) is evaluated again one node at a time, and so
    is a chunk on which numpy meets a division by zero, an overflow or an
    invalid operation, which it would otherwise turn into inf or nan.  So an
    integrand gives the values, or raises the error, that it gives at single
    nodes, also at a node on a pole and when built on something that cannot
    take a batch.  A chunk may hold nodes of both grids of the doubling check
    (see _tensor_quad); the retry covers all of them, so the error raised is
    that of the first failing node in the chunk, whichever grid it is on.
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


def _tensor_rule(box, nodes: int):
    """The nodes of the tensor Gauss-Legendre rule on a box, nodes per axis,
    as one array of coordinates per axis, and their weights.  The rule on
    [-1, 1] is built once per node count."""
    x, w = _gauss_legendre(nodes)
    axes = [0.5 * (hi - lo) * x + 0.5 * (hi + lo) for lo, hi in box]
    weights = np.ones(1)
    for lo, hi in box:
        weights = np.multiply.outer(weights, 0.5 * (hi - lo) * w).ravel()
    index = np.indices((nodes,) * len(box)).reshape(len(box), weights.size)
    return [a[i] for a, i in zip(axes, index)], weights


@functools.lru_cache(maxsize=32)
def _merged_rule(box: Tuple[Tuple[float, float], ...], nodes: int):
    """The node set of _tensor_quad on a box given as a tuple of float pairs:
    the tensor rule's nodes at nodes and at 2 * nodes per axis, the coarse
    ones first, as one array per axis; each rule's weights padded with 0 at
    the other rule's nodes; and the coarse node count.  Built once per
    (box, nodes) and shared by every call, so the arrays are read-only; the
    cache is bounded, so callers with many boxes do not keep every rule."""
    (coarse, w_coarse), (fine, w_fine) = _tensor_rule(box, nodes), _tensor_rule(box, 2 * nodes)
    grid = tuple(np.concatenate(axis) for axis in zip(coarse, fine))
    split = w_coarse.size
    weights = (np.concatenate([w_coarse, np.zeros(w_fine.size)]),
               np.concatenate([np.zeros(split), w_fine]))
    for a in grid + weights:
        a.flags.writeable = False
    return grid, weights, split


def _tensor_quad(fn, box, nodes: int):
    """Tensor Gauss-Legendre sums of fn over a box at nodes and at 2 * nodes
    per axis, from one pass over the nodes of both grids.

    fn takes a chunk of up to QUAD_CHUNK nodes as a tuple with one array of
    coordinates per axis, and returns one value per node: an array, a scalar
    shared by all nodes, or a Supernumber whose coefficients are such values.
    The coarse grid's nodes come first and the fine grid's after them, so a
    chunk may hold nodes of both; each chunk's values go into the weighted
    sum of every grid it holds nodes of, with weight 0 at the other grid's
    nodes.  On a d-axis box fn runs ceil((nodes^d + (2 nodes)^d) / QUAD_CHUNK)
    times: once for the 20 x 20 and 40 x 40 grids at 2,000 nodes per chunk
    (see QUAD_CHUNK).  Returns the (coarse, fine) sums.
    """
    grid, weights, split = _merged_rule(tuple((float(lo), float(hi)) for lo, hi in box),
                                        nodes)
    size = weights[0].size
    totals = [0j, 0j]
    for start in range(0, size, QUAD_CHUNK):
        chunk = slice(start, start + QUAD_CHUNK)
        values = fn(tuple(g[chunk] for g in grid))
        for k, held in enumerate((start < split, start + QUAD_CHUNK > split)):
            if held:
                totals[k] = totals[k] + _weighted_sum(weights[k][chunk], values)
    return tuple(totals)


def _quad(fn, box, spec: GaussQuadSpec):
    """The _tensor_quad sums at spec.nodes and twice as many nodes per axis,
    from one pass; the two sums must be finite and agree.  Returns the sum on
    the finer grid."""
    box = [(float(lo), float(hi)) for lo, hi in box]
    if not all(math.isfinite(e) for edge in box for e in edge):
        raise QuadratureError("box bounds must be finite")
    coarse, fine = _tensor_quad(fn, box, spec.nodes)
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
        for mask in coefficients:
            if not (0 <= mask < top):
                raise GrassmannError(f"odd monomial mask {mask} out of range")
        (values,), self.L = _in_one_algebra(coefficients.values(), L=int(L or 0))
        self.coefficients = {int(mask): c for mask, c in zip(coefficients, values)
                             if not c.is_zero()}

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
            acc = acc + (_monomial(a, thetas, L) * c if a else c)
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
               n: int, ambient_L: int) -> OddPolynomial | Tuple[OddPolynomial, ...]:
    """Expand a function of n odd arguments into an OddPolynomial.

    Evaluates once at fresh generators placed above the ambient algebra
    (grassmann.seed) and reads the theta-monomial coefficients back with
    grassmann.seed_parts.  Every monomial is read, so this seeding does not
    truncate; inside a first-order seeded evaluation its values keep the
    outer cut, whose window lies below the generators seeded here.

    When fn returns a tuple of elements, the result is a tuple with one
    OddPolynomial per element, all read from that one evaluation: functions
    that share most of their work (weyl_dynamics' propagator columns share
    the exponentiated action) expand from one seeding, each part the same as
    from a call of its own.
    """
    _, fresh, _ = seed((), (zero(ambient_L),) * n, ambient_L)
    out = fn(fresh)
    polys = []
    for val in map(_as_super, out if isinstance(out, tuple) else (out,)):
        if val.L > ambient_L + n:
            raise GrassmannError("expansion escaped its working algebra")
        polys.append(OddPolynomial(n, seed_parts(val, ambient_L), L=ambient_L))
    return tuple(polys) if isinstance(out, tuple) else polys[0]


def _measure_sign(n: int, order: Sequence[int]) -> float:
    """Sign of d(theta_{order[0]}) ... d(theta_{order[-1]}) on theta_1...theta_n:
    the parity of the pairs that order lists ascending (the descending default
    has none)."""
    order = list(order)
    if sorted(order) != list(range(1, n + 1)):
        raise GrassmannError("order must be a permutation of 1..n")
    ascents = sum(a < b for i, a in enumerate(order) for b in order[i + 1:])
    return -1.0 if ascents & 1 else 1.0


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
    top = v.top
    return top if _measure_sign(v.n, order) > 0 else -top


# ---------------------------------------------------------------------------
# naive mixed integral
# ---------------------------------------------------------------------------

def _grid_point(q, n: int) -> SuperPoint:
    """Body coordinates q (one array of nodes per axis, or one node) with the
    n odd coordinates set to fresh generators.  The nodes are finite (_quad
    checks the box) and real, so the constants skip the constructor's checks,
    and the point the checks of its bodies and parities."""
    L = max(n, 1)
    return SuperPoint._as_is(
        tuple(_as_super(c, L) for c in q),
        tuple(gen(L, s) for s in range(n)),
    )


def _top(val: Supernumber, n: int):
    """Coefficient of theta_1...theta_n in a value at a _grid_point.  A value
    with a generator at or above n, which the integral would drop, raises
    GrassmannError."""
    if any(m >> n for m in val._terms):
        raise GrassmannError(
            f"integrand value has a generator beyond the {n} odd variables; "
            "integrals with values in a larger algebra are not supported")
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
    # _top checks each chunk's value after _per_chunk, whose node-by-node
    # retry would only raise its error again
    values = _per_chunk(lambda q: u.evaluate(_grid_point(q, n)))
    val = _quad(lambda q: _top(values(q), n), box, quad)
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
    Jacobian whose even block is body-singular at its own scale (``_negligible``,
    at any node), where the sdet body is 0, raises GrassmannDomainError.  phi
    is evaluated once per call: the seed-free part of its seeded evaluation is
    phi(P), and its seeded parts are J (``superspace._super_jet``).

    A pull-back of a pull-back folds: when u is ``PulledBack(psi, v)`` and psi's
    source is phi's target, this stores ``compose(psi, phi)`` and v, since the
    Berezinian is multiplicative, sdet J(psi o phi) = sdet J(phi) * (sdet
    J(psi)) o phi.  The chain rule then happens inside the one first-order
    seeded evaluation of the composed map, so each call makes one Jacobian and
    one sdet however deep the nesting: an inner pull-back was folded when it
    was built.  The even block of J(psi o phi) has the body of J(phi)'s times
    J(psi)'s, so it is body-singular where either is.  Maps whose shapes do
    not chain are kept nested and raise GrassmannError on evaluation.
    """

    def __init__(self, phi: SuperMap, u):
        if isinstance(u, PulledBack) and u.phi.src == phi.dst:
            phi, u = compose(u.phi, phi), u.u
        self.phi = phi
        self.u = u
        self.m, self.n = phi.src

    def evaluate(self, P: SuperPoint) -> Supernumber:
        Y, J = _super_jet(self.phi, P)
        even = _node_array((e.body for r in J.block("A") for e in r), (self.m, self.m))
        if self.m and np.any(_negligible(even)):
            raise GrassmannDomainError("path Jacobian is body-singular on the box")
        return _sdet(J) * self.u.evaluate(Y)


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
    Pf([[0, 1], [-1, 0]]) = 1.  A^{-1} and det(A)^{-1} come from one
    range-keeping inverse (``superlinalg._adjugate_inverse``, as in
    ``sdet``).  A result that is not finite raises GrassmannDomainError.
    Dense entries run on their coefficient vectors (``grassmann._on_vectors``):
    the antisymmetry and coupling scans and their scales read vectors
    (np.abs(v).max()), and only det(A)^{-1}, for its square root, and the
    Pfaffian become elements.  The conversions to vectors are shared across
    calls through the bounded memo of ``grassmann``: each element of the tail
    (det(A)^{-1}, its square root and the products between) costs at most
    one conversion, and M's entries none when an earlier call read them.
    """
    if lam <= 0:
        raise GrassmannDomainError("scale must be positive")
    return _on_vectors(lambda rows: _gaussian_rows(rows, M.m, M.L, lam), M.L, M.rows)


def _gaussian_rows(rows, m: int, L: int, lam: float) -> Supernumber:
    """gaussian_super of square rows, elements or ``_Dense``, the first m even."""
    n = len(rows) - m
    A, C, D, B = _split(rows, m)

    body = _body_matrix(rows)
    if not np.isfinite(body).all():
        raise GrassmannDomainError("matrix body is not finite")
    # the tests of A and B are relative to the largest entry of their block
    Ab = body[:m, :m]
    if m:
        a_scale = np.max(np.abs(Ab))
        if np.max(np.abs(Ab.imag)) > 1e-10 * a_scale:
            raise GrassmannDomainError("even block body must be real")
        if np.max(np.abs(Ab - Ab.T)) > 1e-10 * a_scale:
            raise GrassmannDomainError("even block body must be symmetric")
        if np.min(np.linalg.eigvalsh(Ab.real)) <= 0:
            raise GrassmannDomainError("even block body must be positive definite")
    b_scale = max((max_abs(e) for row in B for e in row), default=0.0)
    if any(max_abs(B[s][t] + B[t][s]) > 1e-12 * b_scale for s in range(n) for t in range(n)):
        raise GrassmannDomainError("odd block must be antisymmetric")
    # couplings that should vanish have no scale of their own, so rounding
    # noise in them is measured against the whole matrix
    m_scale = max((max_abs(e) for row in rows for e in row), default=0.0)
    if any(max_abs(C[j][s] + D[s][j]) > 1e-12 * m_scale for j in range(m) for s in range(n)):
        raise GrassmannDomainError("couplings must satisfy C^T + D = 0")

    if n % 2 == 1:
        # an antisymmetric odd-dimension block is always body-singular, so the
        # zero value must take precedence over the regularity requirement
        return zero(L)
    if n and _negligible(body[m:, m:]):
        raise GrassmannDomainError("odd block body must be regular")

    # (2 pi lam)^(m/2), lam^(-n/2) and det(A)^(-1/2) = sqrt(2^(k mod 2) delta)
    # 2^(k // 2), k = -(e_0 + ...), meet the result's powers of two last
    (even, g), (odd, g_odd) = _half_power(lam, m, (2 * math.pi) ** (m / 2)), _half_power(lam, -n)
    even_factor, g, raw = scalar(L, even), g + g_odd, B
    if m:
        Uinv, delta, e = _adjugate_inverse(A, L)
        k = -int(e.sum())
        root = apply_analytic(AnalyticSpec.named("sqrt"), _elements(_times_two_to(delta, k % 2)))
        even_factor, g = even_factor * root, g + k // 2
        with np.errstate(**_QUIET):
            raw = _mat_sub(B, _mat_mul(_mat_mul(D, Uinv), _scaled_rows(C, e)))
    # antisymmetrize exactly so roundoff cannot trip the Pfaffian's check
    pf_arg = [[0.5 * (raw[s][t] - raw[t][s]) for t in range(n)] for s in range(n)]
    # Pf(S X S) = det(S) Pf(X) for S = 2^-H: entry (s, t) meets h_s and h_t,
    # so h is half the row exponents, and 2^(h_0 + ...) meets the result last
    h = _row_exponents(_peaks(_body_matrix(pf_arg))) // 2
    if np.any(h):
        with np.errstate(**_QUIET):
            pf_arg = [[_times_two_to(x, -(hs + ht)) for x, ht in zip(r, h)]
                      for r, hs in zip(pf_arg, h)]
        g += int(h.sum())
    pf = _elements(_pfaffian(pf_arg, L)) if n else one(L)
    with np.errstate(**_QUIET):
        out = _times_two_to(even_factor * scalar(L, odd) * pf, g)
    if not _is_finite(out):
        raise GrassmannDomainError("gaussian_super overflows: a coefficient is not finite")
    return out


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
