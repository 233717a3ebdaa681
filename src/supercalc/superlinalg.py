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

import itertools
import math
from typing import Callable, List, Sequence, Tuple

import numpy as np

from .grassmann import (
    AnalyticSpec,
    GrassmannDomainError,
    GrassmannError,
    Supernumber,
    _as_super,
    _holds_batch,
    _in_algebra,
    _in_one_algebra,
    _is_finite,
    _on_vectors,
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


# numpy would warn, or raise under the quadrature's errstate, where the finite
# checks after these helpers are the ones that raise
_QUIET = dict(over="ignore", invalid="ignore", divide="ignore")


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
    """Node by node, |value| <= n eps prod_i ||unit[i]||: whether a
    determinant or a pivot of the scaled rows unit is 0 to working precision.
    A value that is not finite of finite rows went through a pivot whose
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


def _negligible(rows: np.ndarray, pivot: int | None = None) -> np.ndarray:
    """Where the body determinant of the square rows (``_body``), or with
    ``pivot`` the entry rows[0, pivot] of one row, is 0 to working precision
    at the scale of the rows, node by node: |value| <= n eps prod_i ||rows[i]||
    on the rows each scaled to parts of at most 1, which is the same test for
    any multiple of each row.  rows is (k, n), or (k, n, nodes) for a batch.
    """
    if pivot is None:
        return _body(rows)[0]
    with np.errstate(**_QUIET):
        unit, _ = _unit_rows(rows)
        return _below_rounding(unit[0, pivot], unit)


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
        rows = _on_vectors(_mat_mul, L, self.rows, other.rows)
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
    """The parity of square rows, elements or ``_Dense``, with respect to the
    grading whose first m indices are even; zero entries fit either."""
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
    """``Supermatrix.body_matrix`` of square rows, elements or ``_Dense``."""
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

def _det_leibniz(rows: Sequence[Sequence[Supernumber]]) -> Supernumber:
    """Leibniz expansion of a nonempty square matrix: each term starts from
    its first factor, and the sum from the identity's term; a term of an odd
    permutation (odd count of inversions) is subtracted."""
    size = len(rows)
    acc = None
    for perm in itertools.permutations(range(size)):
        term = rows[0][perm[0]]
        for i in range(1, size):
            term = term * rows[i][perm[i]]
        if acc is None:
            acc = term
        elif sum(a > b for a, b in itertools.combinations(perm, 2)) & 1:
            acc = acc - term
        else:
            acc = acc + term
    return acc


def det_even(rows: Sequence[Sequence[Supernumber]]) -> Supernumber:
    """Determinant of a square matrix with commuting (even) entries.

    Leibniz expansion for size <= 4; Gaussian elimination with body-invertible
    pivots above that (entries commute, so ordinary row reduction is exact);
    Leibniz fallback up to size 6 when no body-invertible pivot exists.  A
    pivot counts as invertible when its body is not negligible against its
    row (``_negligible``), at every node for a batch.  Rows far from unit
    scale are scaled apart by powers of two first, as ``sdet`` scales its
    Schur rows, and the result meets the scaling last, so that a determinant
    in range comes out in range.  A result that is not finite raises
    GrassmannDomainError.  Dense rows run on coefficient vectors
    (``grassmann._on_vectors``).
    """
    rows, L = _in_one_algebra(*rows)
    if any(len(r) != len(rows) for r in rows):
        raise GrassmannError("det_even needs a square matrix")
    return _on_vectors(lambda rows: _det_even_scaled(rows, L), L, rows)


def _det_even_scaled(rows, L: int):
    """det_even of square rows, elements or ``_Dense``: 2^(s_0 + ...) times
    ``_det_even`` of 2^-S rows, S from ``_row_exponents``."""
    size = len(rows)
    s = _row_exponents(_peaks(_node_array((x.body for r in rows for x in r), (size, size))))
    with np.errstate(**_QUIET):
        out = _times_two_to(_det_even(_scaled_rows(rows, s), L), s.sum(axis=0))
    if not _is_finite(out):
        raise GrassmannDomainError("det_even overflows: a coefficient is not finite")
    return out


def _det_even(rows, L: int):
    """det_even of square rows, elements or ``_Dense``."""
    if any(e.parity != "even" for r in rows for e in r):
        raise GrassmannDomainError("det_even needs even entries")
    if not rows:
        return one(L)
    det = _det_leibniz(rows) if len(rows) <= 4 else _det_eliminate(rows)
    if not _is_finite(det):
        raise GrassmannDomainError("det_even overflows: a coefficient is not finite")
    return det


def _det_eliminate(rows: Sequence[Sequence[Supernumber]]) -> Supernumber:
    """Gaussian elimination for det_even, with its Leibniz fallback.

    The product starts from the first pivot and is negated at the end after
    an odd number of row swaps, so a zero real or imaginary part of the result
    carries the sign that negation gives it.
    """
    size = len(rows)
    work = list(rows)
    det, negate = None, False
    for col in range(size):
        pivot_row = max(range(col, size), key=lambda r: np.min(np.abs(work[r][col].body)))
        row = _node_array((e.body for e in work[pivot_row]), (1, size))
        if np.any(_negligible(row, pivot=col)):
            if size <= 6:
                return _det_leibniz(rows)
            raise GrassmannDomainError(
                "no body-invertible pivot; Leibniz fallback only up to size 6"
            )
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
            negate = not negate
        piv = work[col][col]
        det = piv if det is None else det * piv
        piv_inv = inverse(piv)
        for r in range(col + 1, size):
            factor = work[r][col] * piv_inv
            if factor.is_zero():
                continue
            work[r] = [work[r][j] - factor * work[col][j] for j in range(size)]
    return -det if negate else det


def mat_inverse_even(rows: Sequence[Sequence[Supernumber]]) -> List[List[Supernumber]]:
    """Inverse of a square matrix with invertible body.

    A block of even entries, which commute, takes the range-keeping inverse
    (``_adjugate_inverse``) and scales its columns back; any other takes the
    terminating Neumann series (``_neumann_inverse``).  A matrix that is not
    square raises GrassmannError.  A body singular to working precision, at
    any node for a batch, raises GrassmannDomainError, and so does a body or
    a result that is not finite.  Dense rows run on coefficient vectors
    (``grassmann._on_vectors``).
    """
    rows, L = _in_one_algebra(*rows)
    if any(len(r) != len(rows) for r in rows):
        raise GrassmannError("mat_inverse_even needs a square matrix")
    return _on_vectors(lambda rows: _inverse_even(rows, L), L, rows)


def _inverse_even(rows, L: int):
    """mat_inverse_even of square rows, elements or ``_Dense``."""
    if not all(e.parity == "even" for r in rows for e in r):
        return _neumann_inverse(rows, L)
    Uinv, _, e = _adjugate_inverse(rows, L)
    with np.errstate(**_QUIET):
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
    """rows with row i times 2^-e_i.  Call under ``_QUIET``."""
    return [[_times_two_to(x, -ei) for x in r] for r, ei in zip(rows, e)]


def _adjugate_inverse(rows, L: int) -> Tuple[List[List[Supernumber]], Supernumber, np.ndarray]:
    """(U^{-1}, delta, e) for a square block of even entries, which commute,
    in L generators: the one range-keeping inverse of even blocks.

    U = 2^-E rows has row i scaled by 2^-e_i (``_row_exponents``; e is (n,),
    or (n, nodes) for a batch), so that det U neither overflows nor
    underflows, and delta = det(U)^{-1}.  Then rows^{-1} = U^{-1} 2^-E and
    det(rows)^{-1} = 2^-(e_0 + ...) delta: the caller puts 2^-E on the factor
    that meets U^{-1} next, since either can be out of range where the other
    is not.  U^{-1} is delta for [[u]] and adj(U) delta for a 2 x 2 U; from
    size 3 it is the Neumann series, and delta that of ``_det_even(U)``.
    The body checks are those of ``mat_inverse_even``.
    """
    e = _row_exponents(_regular_body(rows)[2])
    with np.errstate(**_QUIET):
        U = _scaled_rows(rows, e)
        if len(U) == 1:
            delta = inverse(U[0][0])
            return [[delta]], delta, e
        if len(U) == 2:
            (a, b), (c, d) = U
            delta = inverse(a * d - b * c)
            return [[d * delta, -(b * delta)], [-(c * delta), a * delta]], delta, e
        return _neumann_inverse(U, L), inverse(_det_even(U, L)), e


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

    def lift(a):  # constants, which a _Dense takes as operands too
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
    """Product of nested lists (P: r x k, Q: k x c) of elements or of
    ``_Dense`` vectors (``grassmann._on_vectors``), entry by entry, each sum
    from its first product: the one block product.  On vectors each product
    is one kernel call and each sum one vector sum, in the order of the
    products and sums on elements.
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
    entries run on their coefficient vectors, and the result is built once
    (``grassmann._on_vectors``); each check and step between is one code.
    The conversions to vectors are shared across calls through the bounded
    memo of ``grassmann``: ``sdet(M @ N)`` reads the vectors that ``@`` built.
    """
    return _sdet(M)


def _sdet(M: Supermatrix) -> Supernumber:
    """sdet, also for entries that carry a batch of nodes; a B body singular
    at any node raises for the whole batch."""
    return _on_vectors(lambda rows: _sdet_rows(rows, M.m, M.L), M.L, M.rows)


def _sdet_rows(rows, m: int, L: int):
    """sdet of square rows, elements or ``_Dense``, the first m even."""
    if _grading(rows, m) != "even":
        raise GrassmannDomainError("sdet is defined for even matrices")
    A, C, D, B = _split(rows, m)
    Uinv, delta, e = _adjugate_inverse(B, L)
    with np.errstate(**_QUIET):
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
    """pfaffian of square rows, elements or ``_Dense``."""
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

    def rec(idx: Tuple[int, ...]) -> Supernumber:
        # each term starts from its first factor, and the sum from its first
        # term; expansion sign (-1)^(pos+1) for the pos-th column after idx[0]
        for pos in range(1, len(idx)):
            rest = idx[1:pos] + idx[pos + 1:]
            term = rows[idx[0]][idx[pos]] * rec(rest) if rest else rows[idx[0]][idx[pos]]
            acc = term if pos == 1 else acc + term if pos % 2 else acc - term
        return acc

    pf = rec(tuple(range(size))) if size else one(L)
    if not _is_finite(pf):
        raise GrassmannDomainError("pfaffian overflows: a coefficient is not finite")
    return pf
