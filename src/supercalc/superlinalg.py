"""Block linear algebra over the finite-generator algebra.

A graded square matrix of shape (m|n) is stored as one (m+n) x (m+n) array of
supernumbers.  Rows/columns 0..m-1 carry even grading, rows/columns m..m+n-1
odd grading.  For an *even* matrix

    M = [[A, C],
         [D, B]]

the diagonal blocks A (m x m) and B (n x n) have even entries and the
off-diagonal blocks C (m x n), D (n x m) have odd entries.  The supertrace and
the super-determinant

    str M  = tr A - tr B            (even M)
    sdet M = det(A - C B^{-1} D) * det(B)^{-1}

are the multiplicative/additive invariants: sdet(MN) = sdet(M) sdet(N) and
sdet respects the flow identity d/dt log sdet X(t) = str M(t) along
dX/dt = M(t) X.  sdet is computed on this B side only, and is defined only
where the body of B is invertible: the other Schur form
det(A) det(B - D A^{-1} C)^{-1} needs the inverse of B - D A^{-1} C, which
has the body of B, so it exists nowhere the B side does not.
"""

from __future__ import annotations

import math
from typing import Callable, List, Sequence, Tuple

import numpy as np

from .grassmann import (
    AnalyticSpec,
    GrassmannDomainError,
    GrassmannError,
    Supernumber,
    _QUIET,
    _as_super,
    _holds_batch,
    _in_algebra,
    _in_one_algebra,
    _is_finite,
    _quietly,
    apply_analytic,
    degree_filter,
    inverse,
    max_abs,
    one,
    rk4_step,
    scalar,
    zero,
)

__all__ = [
    "Supermatrix",
    "from_blocks",
    "identity_sm",
    "lift_complex",
    "str_super",
    "sdet",
    "det_even",
    "mat_inverse_even",
    "sm_inverse",
    "sm_exp",
    "diagonalize_generic",
    "sdet_flow_check",
    "pfaffian",
]


def _node_array(values, shape) -> np.ndarray:
    """Complex array of the given shape from scalars and per-node arrays.

    When some value is a batch of nodes (see grassmann), the node axis is
    appended last, (*shape, nodes), so that a[i, j] is still one entry.
    """
    values = list(values)
    nodes = next((v.size for v in values if isinstance(v, np.ndarray)), None)
    if nodes is None:
        return np.array(values, dtype=complex).reshape(shape)
    stacked = np.array([np.broadcast_to(v, (nodes,)) for v in values], dtype=complex)
    return stacked.reshape(*shape, nodes)


def _per_node(linalg_fn, a: np.ndarray) -> np.ndarray:
    """Apply a numpy.linalg function to a square array, node by node if a
    carries a trailing node axis; the node axis stays last.  ``_small_det``
    and ``_small_inverse`` take it only for blocks of size 3 and more;
    smaller ones have closed forms."""
    if a.ndim == 2:
        return linalg_fn(a)
    return np.moveaxis(linalg_fn(np.moveaxis(a, -1, 0)), 0, -1)


def _peaks(rows: np.ndarray) -> np.ndarray:
    """The peak of each row of rows, (k, n) or (k, n, nodes), as (k, 1) or
    (k, 1, nodes): the largest real or imaginary part in it, 1 for a zero
    row."""
    peak = np.maximum(np.abs(rows.real), np.abs(rows.imag)).max(axis=1, keepdims=True,
                                                                 initial=0.0)
    return np.where(peak > 0, peak, 1.0)


def _unit_rows(rows: np.ndarray):
    """(unit, peak): each row of rows, (k, n) or (k, n, nodes), divided by its
    peak (``_peaks``), so that its parts are at most 1.  The parts are divided
    apart, since a complex quotient by a subnormal peak can overflow.  Call
    under ``_QUIET``."""
    peak = _peaks(rows)
    return rows.real / peak + 1j * (rows.imag / peak), peak


def _below_rounding(value, unit: np.ndarray) -> np.ndarray:
    """Node by node, |value| <= n eps prod_i ||unit[i]||: whether the
    determinant value of the scaled rows unit is 0 to working precision.  A
    value that is not finite of finite rows went through an LU pivot whose
    square underflows, and is negligible; an entry that is not finite makes
    its node not negligible, and leaves the caller's finite checks to raise."""
    value = np.abs(value)
    scale = np.prod(np.sqrt((unit.real ** 2 + unit.imag ** 2).sum(axis=1)), axis=0)
    value = np.where(np.isfinite(unit).all(axis=(0, 1)) & ~np.isfinite(value), 0.0, value)
    return value <= unit.shape[1] * np.finfo(float).eps * scale


def _small_det(a: np.ndarray):
    """det a for a square array, (n, n) or (n, n, nodes) with the node axis
    last: closed forms across all nodes at once for n <= 2, one numpy.linalg
    call per node above that."""
    n = a.shape[0]
    if n == 1:
        return a[0, 0]
    if n == 2:
        return a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    return _per_node(np.linalg.det, a)


def _small_inverse(a: np.ndarray, det):
    """a^{-1} from det = ``_small_det(a)``: the reciprocal for n = 1 and the
    adjugate over the determinant for n = 2, across all nodes at once, and
    one numpy.linalg call per node above that."""
    n = a.shape[0]
    if n == 1:
        return 1.0 / a
    if n == 2:
        return np.array([[a[1, 1], -a[0, 1]], [-a[1, 0], a[0, 0]]]) / det
    return _per_node(np.linalg.inv, a)


def _body(rows: np.ndarray, invert: bool = False, scaled=None):
    """(negligible, inverse) for the body of a square block, (n, n) or
    (n, n, nodes) with the node axis last; scaled, when given, is
    ``_unit_rows(rows)``.

    Both come from the rows scaled once to parts of at most 1 (``_unit_rows``):
    rows = P U for the diagonal P of row peaks, where neither det U nor the
    row norms overflow or underflow however far apart the scales of the rows
    are.  negligible says, node by node, whether det U is 0 to working
    precision at the scale of the rows (``_below_rounding``).  With ``invert``
    and no negligible node, the inverse is U^{-1} P^{-1}, column j of U^{-1}
    divided by peak j (its parts apart), and can overflow to inf quietly, for
    the caller's finite check; otherwise it is None.  Up to n = 2 no
    numpy.linalg call is made (``_small_det``, ``_small_inverse``).
    """
    n = rows.shape[0]
    if n == 0:
        return np.zeros(rows.shape[2:], dtype=bool), rows if invert else None
    with np.errstate(**_QUIET):
        unit, peak = scaled or _unit_rows(rows)
        det = _small_det(unit)
        negligible = _below_rounding(det, unit)
        if not invert or np.any(negligible):
            return negligible, None
        inv = _small_inverse(unit, det)
        col = np.swapaxes(peak, 0, 1)
        return negligible, inv.real / col + 1j * (inv.imag / col)


def _negligible(rows: np.ndarray) -> np.ndarray:
    """Where the body determinant of the square rows, (n, n) or (n, n, nodes)
    for a batch, is 0 to working precision at the scale of the rows, node by
    node (``_body``): the same test for any multiple of each row."""
    return _body(rows)[0]


class Supermatrix:
    """Graded (m|n)-square matrix of supernumbers (immutable by convention).
    A number entry becomes a constant validated as by ``scalar``."""

    __slots__ = ("m", "n", "L", "rows")

    def __init__(self, m: int, n: int, rows: Sequence[Sequence], L: int | None = None):
        N = m + n
        if len(rows) != N or any(len(r) != N for r in rows):
            raise GrassmannError(f"need a {N}x{N} array of entries")
        if L is None:
            rows, L = _in_one_algebra(*rows)
        self.m = m
        self.n = n
        self.L = L
        self.rows: Tuple[Tuple[Supernumber, ...], ...] = tuple(
            tuple(_in_algebra(e, L) for e in r) for r in rows
        )

    # -- inspection --------------------------------------------------------

    @property
    def size(self) -> int:
        return self.m + self.n

    def entry(self, i: int, j: int) -> Supernumber:
        return self.rows[i][j]

    def block(self, which: str) -> List[List[Supernumber]]:
        if which not in ("A", "C", "D", "B"):
            raise GrassmannError(f"unknown block {which!r}")
        return [list(r) for r in _split(self.rows, self.m)["ACDB".index(which)]]

    @property
    def parity(self) -> str:
        """'even', 'odd' or 'mixed' with respect to the block grading."""
        return _grading(self.rows, self.m)

    def body_matrix(self) -> np.ndarray:
        """The bodies of the entries as a complex array; one node only, so a
        matrix whose entries carry a batch of nodes raises GrassmannError."""
        return _body_matrix(self.rows)

    def max_abs(self) -> float:
        return max((max_abs(e) for r in self.rows for e in r), default=0.0)

    def degree_part(self, k: int) -> "Supermatrix":
        return Supermatrix(
            self.m, self.n,
            [[degree_filter(e, k) for e in r] for r in self.rows], self.L,
        )

    def max_degree(self) -> int:
        return max((e.max_degree() for r in self.rows for e in r), default=0)

    # -- arithmetic ---------------------------------------------------------

    def _promote(self, other: "Supermatrix") -> int:
        if (self.m, self.n) != (other.m, other.n):
            raise GrassmannError("shape mismatch")
        return max(self.L, other.L)

    def __add__(self, other: "Supermatrix") -> "Supermatrix":
        L = self._promote(other)
        return Supermatrix(
            self.m, self.n,
            [[self.rows[i][j] + other.rows[i][j] for j in range(self.size)]
             for i in range(self.size)], L,
        )

    def __sub__(self, other: "Supermatrix") -> "Supermatrix":
        L = self._promote(other)
        return Supermatrix(
            self.m, self.n,
            [[self.rows[i][j] - other.rows[i][j] for j in range(self.size)]
             for i in range(self.size)], L,
        )

    def __matmul__(self, other: "Supermatrix") -> "Supermatrix":
        L = self._promote(other)
        with _quietly():
            rows = _mat_mul(self.rows, other.rows)
        return Supermatrix(self.m, self.n, rows, L)

    def scale(self, c) -> "Supermatrix":
        """c times every entry; a number c is validated as by ``scalar``, so a
        NaN or inf raises GrassmannError."""
        c = _in_algebra(c, self.L)
        return Supermatrix(self.m, self.n, [[c * e for e in r] for r in self.rows], self.L)

    def max_coeff_diff(self, other: "Supermatrix") -> float:
        from .grassmann import max_coeff_diff as mcd
        return max(
            mcd(self.rows[i][j], other.rows[i][j])
            for i in range(self.size) for j in range(self.size)
        )


def _grading(rows, m: int) -> str:
    """The parity of square rows with respect to the grading whose first m
    indices are even; zero entries fit either."""
    want_even = want_odd = True
    for i, r in enumerate(rows):
        for j, e in enumerate(r):
            if e.is_zero():
                continue
            p = e.parity
            if p == "mixed":
                return "mixed"
            # an even entry fits an even matrix in the diagonal blocks only
            fits_even = (p == "even") == ((i < m) == (j < m))
            want_even &= fits_even
            want_odd &= not fits_even
    return "even" if want_even else "odd" if want_odd else "mixed"


def _body_matrix(rows) -> np.ndarray:
    """``Supermatrix.body_matrix`` of square rows."""
    if _holds_batch(*(e for r in rows for e in r)):
        raise GrassmannError("body_matrix takes one node, not a batch of nodes")
    return np.array([[e.body for e in r] for r in rows], dtype=complex).reshape((len(rows),) * 2)


def _split(rows, m: int):
    """The blocks A, C, D, B of the square rows, the first m indices even."""
    top, bottom = rows[:m], rows[m:]
    return ([r[:m] for r in top], [r[m:] for r in top], [r[:m] for r in bottom],
            [r[m:] for r in bottom])


def from_blocks(A, C, D, B, L: int | None = None) -> Supermatrix:
    """Assemble [[A, C], [D, B]] from nested lists (A: m x m, B: n x n)."""
    m = len(A)
    n = len(B)
    rows = []
    for i in range(m):
        rows.append(list(A[i]) + list(C[i] if n else []))
    for i in range(n):
        rows.append(list(D[i] if m else []) + list(B[i]))
    return Supermatrix(m, n, rows, L)


def identity_sm(m: int, n: int, L: int) -> Supermatrix:
    N = m + n
    return Supermatrix(
        m, n,
        [[one(L) if i == j else zero(L) for j in range(N)] for i in range(N)], L,
    )


def lift_complex(mat: np.ndarray, m: int, n: int, L: int) -> Supermatrix:
    return Supermatrix(
        m, n, [[scalar(L, mat[i, j]) for j in range(m + n)] for i in range(m + n)], L
    )


# ---------------------------------------------------------------------------
# supertrace
# ---------------------------------------------------------------------------

def str_super(M: Supermatrix) -> Supernumber:
    """tr A - (-1)^{p(M)} tr B; defined for homogeneous (even/odd) matrices."""
    p = M.parity
    if p == "mixed":
        raise GrassmannDomainError("supertrace needs a parity-homogeneous matrix")
    sgn = -1.0 if p == "even" else 1.0
    acc = sum((M.rows[i][i] for i in range(M.m)), zero(M.L))
    return sum((sgn * M.rows[i][i] for i in range(M.m, M.size)), acc)


# ---------------------------------------------------------------------------
# determinants of even-entry matrices
# ---------------------------------------------------------------------------

def det_even(rows: Sequence[Sequence[Supernumber]]) -> Supernumber:
    """Determinant of a square matrix with commuting (even) entries, by the
    cofactor expansion of ``_det_even``: no pivot and no division at any
    size, so a body singular to working precision gives its nilpotent
    determinant.  Rows far from unit scale are scaled apart by powers of two
    first, as ``sdet`` scales its Schur rows, and the result meets the
    scaling last, so that a determinant in range comes out in range.  A
    result that is not finite raises GrassmannDomainError.
    """
    rows, L = _in_one_algebra(*rows)
    size = len(rows)
    if any(len(r) != size for r in rows):
        raise GrassmannError("det_even needs a square matrix")
    # 2^(s_0 + ...) times _det_even of 2^-S rows, S from _row_exponents
    s = _row_exponents(_peaks(_node_array((x.body for r in rows for x in r), (size, size))))
    with _quietly():
        out = _times_two_to(_det_even(_scaled_rows(rows, s), L), s.sum(axis=0))
    if not _is_finite(out):
        raise GrassmannDomainError("det_even overflows: a coefficient is not finite")
    return out


def _det_even(rows, L: int):
    """det_even of square rows, unscaled: the minor of all rows and columns
    (``_minor``), so a*d - b*c at size 2."""
    if any(e.parity != "even" for r in rows for e in r):
        raise GrassmannDomainError("det_even needs even entries")
    every = tuple(range(len(rows)))
    det = _minor(rows, L, {}, every, every)
    if not _is_finite(det):
        raise GrassmannDomainError("det_even overflows: a coefficient is not finite")
    return det


def _minor(rows, L: int, memo: dict, R, C):
    """The determinant of rows R and columns C (index tuples of one length)
    of square rows of commuting entries in L generators, by Laplace expansion
    along the first row of R: each term is an entry of that row times its
    minor, the sum starts from the first term, and a term at an odd position
    of C is subtracted.  Size 0 is one(L) and size 1 the entry; each minor of
    size 2 or more is formed once and kept in memo, so the calls that share
    a memo (a determinant and the cofactors of its adjugate) share their
    minors.  Size k costs k products, and nothing is divided.  memo is an
    argument, not a closure's cell: a closure that calls itself is a
    reference cycle, which would keep the minors (arrays over the nodes of a
    batch) alive until the cyclic garbage collector runs."""
    if len(R) <= 1:
        return rows[R[0]][C[0]] if R else one(L)
    got = memo.get((R, C))
    if got is None:
        top, rest = rows[R[0]], R[1:]
        for k, c in enumerate(C):
            term = top[c] * _minor(rows, L, memo, rest, C[:k] + C[k + 1:])
            got = term if k == 0 else got - term if k & 1 else got + term
        memo[R, C] = got
    return got


def mat_inverse_even(rows: Sequence[Sequence[Supernumber]]) -> List[List[Supernumber]]:
    """Inverse of a square matrix with invertible body.

    A block of even entries, which commute, is adj(U) det(U)^{-1} at every
    size, for U its rows scaled apart by powers of two, with the columns
    scaled back (``_adjugate_inverse``): the cofactors and the determinant
    are minors of one expansion, and no inverse of the body is formed.  A
    block with entries of other parities takes the terminating Neumann
    series (``_neumann_inverse``).  A matrix that is not square raises
    GrassmannError.  A body singular to working precision, at any node for a
    batch, raises GrassmannDomainError, and so does a body or a result that
    is not finite.
    """
    rows, L = _in_one_algebra(*rows)
    if any(len(r) != len(rows) for r in rows):
        raise GrassmannError("mat_inverse_even needs a square matrix")
    with _quietly():
        if not all(e.parity == "even" for r in rows for e in r):
            return _neumann_inverse(rows, L)
        Uinv, _, e = _adjugate_inverse(rows, L)
        out = [[_times_two_to(x, -ej) for x, ej in zip(r, e)] for r in Uinv]
    if not _finite_rows(out):
        raise GrassmannDomainError("matrix inverse overflows: a coefficient is not finite")
    return out


def _regular_body(rows, invert: bool = False):
    """(body, inverse, peak) of the square rows, after the checks that the
    body is finite and not singular to working precision at any node; the
    inverse, with ``invert``, is that of ``_body``, and None without, and
    peak is the body's row peaks (``_peaks``) from ``_body``'s pass."""
    size = len(rows)
    body = _node_array((e.body for r in rows for e in r), (size, size))
    if not np.isfinite(body).all():
        raise GrassmannDomainError("matrix body is not finite")
    with np.errstate(**_QUIET):
        scaled = _unit_rows(body)
    negligible, binv = _body(body, invert, scaled)
    if np.any(negligible):
        raise GrassmannDomainError("matrix body is singular to working precision")
    return body, binv, scaled[1]


# A block whose rows' exponents (``_row_exponents``) sum to at most this in
# absolute value, at a node, is left unscaled there: its determinant is then
# within 2^+-600 of that of rows at unit scale, and it neither overflows nor
# underflows.  Scaling by a power of two is exact, so scaling such a block
# too gives the same coefficients bit for bit, but it adds element scalings
# to each sdet, which made the berezinian_dense solve about 10% slower
# (median of ten alternating 8-s pairs, 2-vCPU Xeon).
_UNSCALED_EXPONENTS = 600


def _row_exponents(peak: np.ndarray) -> np.ndarray:
    """For the row peaks of a body, (k, 1) or (k, 1, nodes) as ``_peaks``
    gives them, the binary exponent e_i of each, (k,) or (k, nodes), so that
    row i times 2^-e_i has its peak in [1/2, 1); 0 for every row at a node
    where the exponents sum to at most ``_UNSCALED_EXPONENTS`` in absolute
    value."""
    e = np.frexp(peak[:, 0])[1]
    return np.where(np.abs(e).sum(axis=0) <= _UNSCALED_EXPONENTS, 0, e)


def _times_two_to(X: Supernumber, k) -> Supernumber:
    """X times 2^k, for an integer k or an integer array, one k per node of a
    batch.  The factor goes in float steps of at most 2^+-1000, all in the
    direction of k, so that each partial product lies between X and the
    result: the product is exact where the result is normal, and it
    overflows only where the result does.  Call under ``_QUIET``."""
    k = np.asarray(k)
    while np.any(k):
        step = np.clip(k, -1000, 1000)
        X = np.ldexp(1.0, step) * X
        k = k - step
    return X


def _half_power(x: float, j: int, c: float = 1.0) -> Tuple[float, int]:
    """c x^(j/2) = y 2^g as (y, g) for floats x, c > 0, y in [1/2, 1) however far c x^(j/2) is."""
    mantissa, exponent = math.frexp(x)
    y, h = math.frexp(c * (mantissa * 2 ** (exponent % 2)) ** (j / 2))
    return y, exponent // 2 * j + h


def _scaled_rows(rows, e):
    """rows with row i times 2^-e_i, the rows themselves where every e_i is
    0.  Call under ``_QUIET``."""
    if not np.any(e):
        return rows
    return [[_times_two_to(x, -ei) for x in r] for r, ei in zip(rows, e)]


def _adjugate_inverse(rows, L: int) -> Tuple[List[List[Supernumber]], Supernumber, np.ndarray]:
    """(U^{-1}, delta, e) for a square block of even entries, which commute,
    in L generators: the one range-keeping inverse of even blocks.

    U = 2^-E rows has row i scaled by 2^-e_i (``_row_exponents``; e is (n,),
    or (n, nodes) for a batch), so that det U neither overflows nor
    underflows, and delta = det(U)^{-1}.  Then rows^{-1} = U^{-1} 2^-E and
    det(rows)^{-1} = 2^-(e_0 + ...) delta: the caller puts 2^-E on the factor
    that meets U^{-1} next, since either can be out of range where the other
    is not.  U^{-1} = adj(U) delta at every size, from the minors of U
    (``_minor``, one memo): entry (i, j) is the minor without row j and column i
    times delta, negated after the product where i + j is odd, so size 2 gives
    [[d delta, -(b delta)], [-(c delta), a delta]] and size 1 [[delta]].  The
    body checks are those of ``mat_inverse_even``, made once on the rows.
    """
    size = len(rows)
    every = tuple(range(size))
    drop = [every[:k] + every[k + 1:] for k in every]
    with np.errstate(**_QUIET):
        e = _row_exponents(_regular_body(rows)[2])
        U, memo = _scaled_rows(rows, e), {}
        delta = inverse(_minor(U, L, memo, every, every))
        if size == 1:
            return [[delta]], delta, e

        def cofactor(i, j):
            x = _minor(U, L, memo, drop[j], drop[i]) * delta
            return -x if (i + j) & 1 else x

        return [[cofactor(i, j) for j in every] for i in every], delta, e


def _neumann_inverse(rows, L: int) -> List[List[Supernumber]]:
    """Inverse of square rows in L generators, entries of any parity, by the
    Neumann split: with R = body(rows) and S the soul part,
    rows^{-1} = (I + R^{-1} S)^{-1} R^{-1}, and the series terminates.  The
    singularity test and R^{-1} share one scaling of the body's rows and one
    determinant (``_body``).  The body checks are those of
    ``mat_inverse_even``; an R^{-1} or a result that is not finite raises
    GrassmannDomainError."""
    size = len(rows)
    body, binv, _ = _regular_body(rows, invert=True)
    if not np.isfinite(binv).all():
        raise GrassmannDomainError("matrix body inverse overflows: the body is nearly singular")

    def lift(a):
        return [[_as_super(a[i, j], L) for j in range(size)] for i in range(size)]

    # T = -R^{-1} S with S = rows - R, a matrix of soul-only entries
    T = _mat_mul(lift(-binv), _mat_sub(rows, lift(body)))
    # geometric series sum_k T^k applied to R^{-1}; T^(L+1) = 0 ends it
    acc = [[one(L) if i == j else zero(L) for j in range(size)] for i in range(size)]
    power = T
    while not all(e.is_zero() for r in power for e in r):
        acc = [[acc[i][j] + power[i][j] for j in range(size)] for i in range(size)]
        power = _mat_mul(power, T)
    out = _mat_mul(acc, lift(binv))
    if not _finite_rows(out):
        raise GrassmannDomainError("matrix inverse overflows: a coefficient is not finite")
    return out


def _finite_rows(rows) -> bool:
    """True when every coefficient of every entry is finite."""
    return all(_is_finite(e) for r in rows for e in r)


def _mat_mul(P, Q):
    """Product of nested lists (P: r x k, Q: k x c) of elements, entry by
    entry, each sum from its first product: the one block product.  For
    entries that hold their vectors each product is one kernel call and each
    sum one vector sum.
    """
    out = []
    for i in range(len(P)):
        row = []
        for j in range(len(Q[0]) if Q else 0):
            acc = P[i][0] * Q[0][j]
            for k in range(1, len(Q)):
                acc = acc + P[i][k] * Q[k][j]
            row.append(acc)
        out.append(row)
    return out


# ---------------------------------------------------------------------------
# sdet and the full inverse
# ---------------------------------------------------------------------------

def _mat_sub(P, Q):
    return [[a - b for a, b in zip(rp, rq)] for rp, rq in zip(P, Q)]


def sdet(M: Supermatrix) -> Supernumber:
    """Multiplicative super-determinant of an even matrix,
    det(A - C B^{-1} D) det(B)^{-1}.

    Defined only where the body of B is invertible: a B body singular to
    working precision raises GrassmannDomainError (see ``mat_inverse_even``),
    and so does a result that overflows.  B^{-1} and det(B)^{-1} come from
    one inverse of B's rows scaled apart by powers of two
    (``_adjugate_inverse``), the Schur determinant from its rows scaled apart
    too, and the result meets the scalings last, so that a result in range
    comes out in range however far from unit scale A and B are.  Dense
    entries hold their coefficient vectors, and every product, sum and
    scaling between runs on them: ``sdet(M @ N)`` reads the vectors that
    ``@`` built.
    """
    return _sdet(M)


def _sdet(M: Supermatrix) -> Supernumber:
    """sdet, also for entries that carry a batch of nodes; a B body singular
    at any node raises for the whole batch."""
    m, L = M.m, M.L
    if _grading(M.rows, m) != "even":
        raise GrassmannDomainError("sdet is defined for even matrices")
    A, C, D, B = _split(M.rows, m)
    with _quietly():
        Uinv, delta, e = _adjugate_inverse(B, L)
        # C B^-1 D = (C U^-1) (2^-E D): B's row scales divide D's rows
        Schur = _mat_sub(A, _mat_mul(_mat_mul(C, Uinv), _scaled_rows(D, e))) if B else A
        # det(Schur) = 2^(s_0 + ...) det(2^-S Schur), with S as E: both
        # determinants are in range, so only the last product can leave it
        s = _row_exponents(_peaks(_node_array((x.body for r in Schur for x in r), (m, m))))
        out = _times_two_to(_det_even(_scaled_rows(Schur, s), L) * delta,
                            s.sum(axis=0) - e.sum(axis=0))
    if not _is_finite(out):
        raise GrassmannDomainError("sdet overflows: a coefficient is not finite")
    return out


def sm_inverse(M: Supermatrix) -> Supermatrix:
    """Two-sided inverse via the terminating Neumann series on the full
    matrix, whose rows hold odd entries."""
    return Supermatrix(M.m, M.n, _neumann_inverse(M.rows, M.L), M.L)


# ---------------------------------------------------------------------------
# matrix exponential
# ---------------------------------------------------------------------------

def sm_exp(M: Supermatrix) -> Supermatrix:
    """exp(M) by scaling-and-squaring with a coefficient-level Taylor core.

    The body part behaves like the usual scalar scaling-and-squaring; every
    soul contribution is a finite nilpotent series at each Taylor order.  An
    entry or a result with a coefficient that is not finite raises
    GrassmannDomainError.
    """
    L = M.L
    scale = max(np.abs(M.body_matrix()).max() * M.size, M.max_abs(), 1e-30)
    if not math.isfinite(scale):
        raise GrassmannDomainError("sm_exp needs finite entries")
    s = max(0, math.ceil(math.log2(scale / 0.25))) if scale > 0.25 else 0
    A = M.scale(0.5 ** s)
    acc = identity_sm(M.m, M.n, L)
    term = identity_sm(M.m, M.n, L)
    for k in range(1, 60):
        term = (term @ A).scale(1.0 / k)
        t = term.max_abs()
        acc = acc + term
        if t < 1e-19:
            break
    for _ in range(s):
        if not _finite_rows(acc.rows):
            break
        acc = acc @ acc
    if not _finite_rows(acc.rows):
        raise GrassmannDomainError("sm_exp overflows: a coefficient is not finite")
    return acc


# ---------------------------------------------------------------------------
# generic diagonalization by degree recursion
# ---------------------------------------------------------------------------

def diagonalize_generic(M: Supermatrix, gap_factor: float = 1e-8):
    """Conjugate an even matrix with distinct body eigenvalues to diagonal form.

    Returns (X, E) with X M X^{-1} = E, E diagonal.  The body is handled by a
    dense eigensolver on the two diagonal blocks; soul corrections are built
    degree by degree, dividing by body eigenvalue gaps.  Raises when the
    minimal gap is below gap_factor * spectral radius, and
    GrassmannDomainError when the body is not finite, its eigenvectors are
    singular or a coefficient of the result is not finite.
    """
    if M.parity != "even":
        raise GrassmannDomainError("diagonalization implemented for even matrices")
    m, n, L = M.m, M.n, M.L
    N = m + n
    body = M.body_matrix()
    if not np.isfinite(body).all():
        raise GrassmannDomainError("diagonalization needs a finite body")
    try:
        lamA, VA = np.linalg.eig(body[:m, :m])
        lamB, VB = np.linalg.eig(body[m:, m:])
        lam = np.concatenate([lamA, lamB])
        rad = max(np.abs(lam).max() if N else 0.0, 1e-300)
        for i in range(N):
            for j in range(i + 1, N):
                if abs(lam[i] - lam[j]) <= gap_factor * rad:
                    raise GrassmannDomainError(
                        f"body eigenvalue gap |{lam[i]:.3g} - {lam[j]:.3g}| too small"
                    )
        X0c = np.zeros((N, N), complex)
        X0c[:m, :m] = np.linalg.inv(VA)
        X0c[m:, m:] = np.linalg.inv(VB)
        X0inv = np.linalg.inv(X0c)
    except np.linalg.LinAlgError as exc:
        raise GrassmannDomainError(f"body eigenproblem failed: {exc}") from exc
    X0 = lift_complex(X0c, m, n, L)
    K = X0 @ M @ lift_complex(X0inv, m, n, L)

    # per-degree pieces
    Kdeg = [K.degree_part(k) for k in range(L + 1)]
    Ydeg = {0: identity_sm(m, n, L)}
    Edeg = {0: Supermatrix(m, n, [[scalar(L, lam[i]) if i == j else zero(L)
                                   for j in range(N)] for i in range(N)], L)}
    for k in range(1, L + 1):
        R = Kdeg[k]
        for j in range(1, k):
            Yj = Ydeg.get(j)
            if Yj is None:
                continue
            R = R + (Yj @ Kdeg[k - j])
            Ekj = Edeg.get(k - j)
            if Ekj is not None:
                R = R - (Ekj @ Yj)
        # split R into diagonal (-> E) and commutator part (-> Y)
        Erows = [[zero(L)] * N for _ in range(N)]
        Yrows = [[zero(L)] * N for _ in range(N)]
        nonzero_E = nonzero_Y = False
        for i in range(N):
            for j in range(N):
                r = R.rows[i][j]
                if r.is_zero():
                    continue
                if i == j:
                    Erows[i][j] = r
                    nonzero_E = True
                else:
                    Yrows[i][j] = (1.0 / (lam[i] - lam[j])) * r
                    nonzero_Y = True
        if nonzero_E:
            Edeg[k] = Supermatrix(m, n, Erows, L)
        if nonzero_Y:
            Ydeg[k] = Supermatrix(m, n, Yrows, L)

    X = sum(list(Ydeg.values())[1:], Ydeg[0]) @ X0
    E = sum(list(Edeg.values())[1:], Edeg[0])
    if not (_finite_rows(X.rows) and _finite_rows(E.rows)):
        raise GrassmannDomainError("diagonalization overflows: a coefficient is not finite")
    return X, E


# ---------------------------------------------------------------------------
# flow identity check
# ---------------------------------------------------------------------------

def sdet_flow_check(
    M_of_t: Callable[[float], Supermatrix],
    t_end: float,
    h: float,
) -> Tuple[Supernumber, Supernumber]:
    """Integrate dX/dt = M(t) X from the identity and compare invariants.

    Returns (sdet X(t_end), exp of the composite-Simpson integral of
    str M(t)); the flow identity says the two coincide.
    """
    M0 = M_of_t(0.0)
    m, n, L = M0.m, M0.n, M0.L
    N = m + n
    steps = max(1, round(t_end / h))
    if steps % 2:
        steps += 1
    dt = t_end / steps

    def matrix(y) -> Supermatrix:
        return Supermatrix(m, n, [y[i * N:(i + 1) * N] for i in range(N)])

    def field(t, y):
        return sum((M_of_t(t) @ matrix(y)).rows, ())

    y = sum(identity_sm(m, n, L).rows, ())
    t = 0.0
    strs = [str_super(M0)]
    for _ in range(steps):
        y = rk4_step(field, t, y, dt)
        t += dt
        strs.append(str_super(M_of_t(t)))
    integral = zero(L)
    for i in range(0, steps, 2):
        integral = integral + (dt / 3.0) * (strs[i] + 4.0 * strs[i + 1] + strs[i + 2])
    return sdet(matrix(y)), apply_analytic(AnalyticSpec.named("exp"), integral)


# ---------------------------------------------------------------------------
# Pfaffian
# ---------------------------------------------------------------------------

def pfaffian(rows: Sequence[Sequence[Supernumber]]) -> Supernumber:
    """Pfaffian of an antisymmetric even-entry matrix via first-row expansion.

    Odd size returns 0.  Satisfies pfaffian(B)^2 = det_even(B).  A matrix
    counts as antisymmetric when no coefficient of any B[i][j] + B[j][i]
    exceeds 1e-12 times the largest coefficient modulus of B, as in
    ``berezin.gaussian_super``; the expansion reads the upper triangle.  A
    result that is not finite raises GrassmannDomainError.
    """
    rows, L = _in_one_algebra(*rows)
    if any(len(r) != len(rows) for r in rows):
        raise GrassmannError("pfaffian needs a square matrix")
    return _pfaffian(rows, L)


def _pfaffian(rows, L: int):
    """pfaffian of square rows."""
    size = len(rows)
    scale = max((max_abs(e) for r in rows for e in r), default=0.0)
    for i in range(size):
        for j in range(size):
            if max_abs(rows[i][j] + rows[j][i]) > 1e-12 * scale:
                raise GrassmannDomainError("matrix is not antisymmetric")
            if rows[i][j].parity not in ("even",):
                raise GrassmannDomainError("pfaffian needs even entries")
    if size % 2:
        return zero(L)
    with _quietly():
        pf = _pfaffian_expansion(rows, tuple(range(size))) if size else one(L)
    if not _is_finite(pf):
        raise GrassmannDomainError("pfaffian overflows: a coefficient is not finite")
    return pf


def _pfaffian_expansion(rows, idx: Tuple[int, ...]) -> Supernumber:
    """The pfaffian of rows and columns idx (a tuple of even length, at least
    2) of antisymmetric rows, by expansion along row idx[0]: each term starts
    from its first factor, the sum starts from its first term, and the term
    of the pos-th column after idx[0] has the sign (-1)^(pos+1).  A module
    function, as ``_minor`` is, so that a call leaves no reference cycle."""
    first = rows[idx[0]]
    for pos in range(1, len(idx)):
        rest = idx[1:pos] + idx[pos + 1:]
        term = first[idx[pos]] * _pfaffian_expansion(rows, rest) if rest else first[idx[pos]]
        acc = term if pos == 1 else acc + term if pos % 2 else acc - term
    return acc
