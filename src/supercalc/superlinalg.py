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
    _DROP_ZEROS,
    _as_super,
    _coefficient,
    _dense_coefficients,
    _dense_product,
    _from_dense,
    _in_one_algebra,
    _is_finite,
    _table_takes,
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
    carries a trailing node axis; the node axis stays last."""
    if a.ndim == 2:
        return linalg_fn(a)
    return np.moveaxis(linalg_fn(np.moveaxis(a, -1, 0)), 0, -1)


def _negligible(rows: np.ndarray, pivot: int | None = None) -> np.ndarray:
    """Where the body determinant of the square rows, or with ``pivot`` the
    entry rows[0, pivot] of one row, is 0 to working precision at the scale
    of the rows, node by node: |value| <= n eps prod_i ||rows[i]||.  rows is
    (k, n), or (k, n, nodes) for a batch.

    The test is the same for any multiple of the rows, and it runs on the
    rows scaled to entries of at most 1, where neither the determinant nor
    the row norms overflow or underflow; the parts are scaled apart, since a
    complex quotient by a subnormal peak can overflow.  An entry that is not
    finite makes its node not negligible, and leaves the caller's finite
    checks to raise.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        peak = np.abs(rows).max(axis=(0, 1))
        peak = np.where(peak > 0, peak, 1.0)
        unit = rows.real / peak + 1j * (rows.imag / peak)
        value = _per_node(np.linalg.det, unit) if pivot is None else unit[0, pivot]
        scale = np.prod(np.linalg.norm(unit, axis=1), axis=0)
        return np.abs(value) <= rows.shape[1] * np.finfo(float).eps * scale


class Supermatrix:
    """Graded (m|n)-square matrix of supernumbers (immutable by convention)."""

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
            tuple(_as_super(e, L) for e in r) for r in rows
        )

    # -- inspection --------------------------------------------------------

    @property
    def size(self) -> int:
        return self.m + self.n

    def entry(self, i: int, j: int) -> Supernumber:
        return self.rows[i][j]

    def block(self, which: str) -> List[List[Supernumber]]:
        m, n = self.m, self.n
        if which == "A":
            return [[self.rows[i][j] for j in range(m)] for i in range(m)]
        if which == "C":
            return [[self.rows[i][m + j] for j in range(n)] for i in range(m)]
        if which == "D":
            return [[self.rows[m + i][j] for j in range(m)] for i in range(n)]
        if which == "B":
            return [[self.rows[m + i][m + j] for j in range(n)] for i in range(n)]
        raise GrassmannError(f"unknown block {which!r}")

    def grade_of_index(self, i: int) -> int:
        return 0 if i < self.m else 1

    @property
    def parity(self) -> str:
        """'even', 'odd' or 'mixed' with respect to the block grading."""
        want_even = True
        want_odd = True
        for i in range(self.size):
            for j in range(self.size):
                e = self.rows[i][j]
                if e.is_zero():
                    continue
                block_parity = (self.grade_of_index(i) + self.grade_of_index(j)) % 2
                p = e.parity
                if p == "mixed":
                    return "mixed"
                is_even_entry = p == "even"
                if block_parity == 0:
                    want_even &= is_even_entry
                    want_odd &= not is_even_entry
                else:
                    want_even &= not is_even_entry
                    want_odd &= is_even_entry
        if want_even:
            return "even"
        if want_odd:
            return "odd"
        return "mixed"

    def body_matrix(self) -> np.ndarray:
        N = self.size
        out = np.zeros((N, N), dtype=complex)
        for i in range(N):
            for j in range(N):
                out[i, j] = self.rows[i][j].body
        return out

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
        return Supermatrix(self.m, self.n, _mat_mul(self.rows, other.rows, L), L)

    def scale(self, c) -> "Supermatrix":
        return Supermatrix(
            self.m, self.n,
            [[_as_super(c, self.L) * e for e in r] for r in self.rows], self.L,
        )

    def max_coeff_diff(self, other: "Supermatrix") -> float:
        from .grassmann import max_coeff_diff as mcd
        return max(
            mcd(self.rows[i][j], other.rows[i][j])
            for i in range(self.size) for j in range(self.size)
        )


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
    acc = zero(M.L)
    for i in range(M.m):
        acc = acc + M.rows[i][i]
    for i in range(M.m, M.size):
        acc = acc + sgn * M.rows[i][i]
    return acc


# ---------------------------------------------------------------------------
# determinants of even-entry matrices
# ---------------------------------------------------------------------------

def _det_leibniz(rows: Sequence[Sequence[Supernumber]], L: int) -> Supernumber:
    size = len(rows)
    acc = zero(L)
    for perm in itertools.permutations(range(size)):
        sign = 1
        seen = list(perm)
        for i in range(1, size):
            j = i
            while j > 0 and seen[j - 1] > seen[j]:
                seen[j - 1], seen[j] = seen[j], seen[j - 1]
                sign = -sign
                j -= 1
        term = one(L)
        for i in range(size):
            term = term * rows[i][perm[i]]
        acc = acc + (sign * term)
    return acc


def det_even(rows: Sequence[Sequence[Supernumber]]) -> Supernumber:
    """Determinant of a square matrix with commuting (even) entries.

    Leibniz expansion for size <= 4; Gaussian elimination with body-invertible
    pivots above that (entries commute, so ordinary row reduction is exact);
    Leibniz fallback up to size 6 when no body-invertible pivot exists.  A
    pivot counts as invertible when its body is not negligible against its
    row (``_negligible``), at every node for a batch.  A result that is not
    finite raises GrassmannDomainError.
    """
    rows, L = _in_one_algebra(*rows)
    size = len(rows)
    if any(len(r) != size for r in rows):
        raise GrassmannError("det_even needs a square matrix")
    for r in rows:
        for e in r:
            if e.parity not in ("even",):
                raise GrassmannDomainError("det_even needs even entries")
    if size == 0:
        return one(L)
    det = _det_leibniz(rows, L) if size <= 4 else _det_eliminate(rows, L)
    if not _is_finite(det):
        raise GrassmannDomainError("det_even overflows: a coefficient is not finite")
    return det


def _det_eliminate(rows: Sequence[Sequence[Supernumber]], L: int) -> Supernumber:
    """Gaussian elimination for det_even, with its Leibniz fallback."""
    size = len(rows)
    work = list(rows)
    det = one(L)
    for col in range(size):
        pivot_row = max(range(col, size), key=lambda r: np.min(np.abs(work[r][col].body)))
        row = _node_array((e.body for e in work[pivot_row]), (1, size))
        if np.any(_negligible(row, pivot=col)):
            if size <= 6:
                return _det_leibniz(rows, L)
            raise GrassmannDomainError(
                "no body-invertible pivot; Leibniz fallback only up to size 6"
            )
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
            det = -1.0 * det
        piv = work[col][col]
        det = det * piv
        piv_inv = inverse(piv)
        for r in range(col + 1, size):
            factor = work[r][col] * piv_inv
            if factor.is_zero():
                continue
            work[r] = [work[r][j] - factor * work[col][j] for j in range(size)]
    return det


def mat_inverse_even(rows: Sequence[Sequence[Supernumber]]) -> List[List[Supernumber]]:
    """Inverse of a square matrix with even entries and invertible body.

    Neumann split: with R = body(rows) and S the soul part,
    rows^{-1} = (I + R^{-1} S)^{-1} R^{-1}, and the series terminates.  A body
    singular to working precision (``_negligible``), at any node for a batch,
    raises GrassmannDomainError, and so does a result that is not finite.
    """
    rows, L = _in_one_algebra(*rows)
    size = len(rows)
    body = _node_array((e.body for r in rows for e in r), (size, size))
    if not np.isfinite(body).all():
        raise GrassmannDomainError("matrix body is not finite")
    if size and np.any(_negligible(body)):
        raise GrassmannDomainError("matrix body is singular to working precision")
    binv = _per_node(np.linalg.inv, body) if size else body
    if not np.isfinite(binv).all():
        raise GrassmannDomainError("matrix body inverse overflows: the body is nearly singular")

    def lift(a):
        return [[Supernumber(L, {0: _coefficient(a[i, j])}, _DROP_ZEROS) for j in range(size)]
                for i in range(size)]

    # T = -R^{-1} S with S = rows - R, a matrix of soul-only entries
    T = _mat_mul(lift(-binv), _mat_sub(rows, lift(body)), L)
    # geometric series sum_k T^k applied to R^{-1}
    acc = [[one(L) if i == j else zero(L) for j in range(size)] for i in range(size)]
    power = acc
    for _ in range(L):
        power = _mat_mul(power, T, L)
        if all(e.is_zero() for r in power for e in r):
            break
        acc = [[acc[i][j] + power[i][j] for j in range(size)] for i in range(size)]
    out = _mat_mul(acc, lift(binv), L)
    if not all(_is_finite(e) for r in out for e in r):
        raise GrassmannDomainError("matrix inverse overflows: a coefficient is not finite")
    return out


def _mat_mul(P, Q, L):
    """Product of nested lists of supernumbers (P: r x k, Q: k x c), every
    entry in L generators.

    A dense block product, one whose every product P[i][k] Q[k][j] would take
    the table kernel (see ``_dense_blocks``), turns each entry of P and Q into
    a coefficient vector once, sums each output entry's k kernel products as
    vectors and builds one element per output entry, through the ``_AS_IS``
    branch.  Any other block product takes the per-entry loop: each product
    chooses its own path in ``Supernumber.__mul__``, and each sum starts from
    the first product.  Both give the same coefficients bit for bit: the same
    kernel products, summed in the same order.
    """
    rp, cq = len(P), len(Q[0]) if Q else 0
    vectors = _dense_blocks(P, Q, L)
    if vectors is not None:
        X, Y = vectors
        out = []
        with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN as in the loop
            for i in range(rp):
                row = []
                for j in range(cq):
                    v = _dense_product(X[i][0], Y[0][j], L)
                    for k in range(1, len(Q)):
                        v += _dense_product(X[i][k], Y[k][j], L)
                    row.append(_from_dense(v, L))
                out.append(row)
        return out
    out = []
    for i in range(rp):
        row = []
        for j in range(cq):
            acc = P[i][0] * Q[0][j]
            for k in range(1, len(Q)):
                acc = acc + P[i][k] * Q[k][j]
            row.append(acc)
        out.append(row)
    return out


def _dense_blocks(P, Q, L):
    """P and Q with each entry as its length-2^L coefficient vector, or None
    unless every product P[i][k] Q[k][j] meets the table crossover and every
    entry has L generators and finite ``complex`` coefficients.  The cheap
    tests come first, so a batch or a small entry costs no per-pair work."""
    if not (P and Q and Q[0]):
        return None
    for k, row in enumerate(Q):
        pairs = min(len(r[k]._terms) for r in P) * min(len(e._terms) for e in row)
        if not _table_takes(pairs, L):
            return None
    X = [[_dense_coefficients(e) if e.L == L else None for e in r] for r in P]
    Y = [[_dense_coefficients(e) if e.L == L else None for e in r] for r in Q]
    if any(v is None for r in X + Y for v in r):
        return None
    return X, Y


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
    and so does a result that overflows.
    """
    out = _sdet(M)
    if not _is_finite(out):
        raise GrassmannDomainError("sdet overflows: a Schur block is nearly singular")
    return out


def _sdet(M: Supermatrix) -> Supernumber:
    """sdet, also for entries that carry a batch of nodes; a B body singular
    at any node raises for the whole batch."""
    if M.parity != "even":
        raise GrassmannDomainError("sdet is defined for even matrices")
    L = M.L
    A, B = M.block("A"), M.block("B")
    C, D = M.block("C"), M.block("D")
    if M.n == 0:
        return det_even(A)
    Binv = mat_inverse_even(B)
    Schur = _mat_sub(A, _mat_mul(_mat_mul(C, Binv, L), D, L))
    return det_even(Schur) * inverse(det_even(B))


def sm_inverse(M: Supermatrix) -> Supermatrix:
    """Two-sided inverse via the terminating Neumann series on the full matrix."""
    return Supermatrix(M.m, M.n, mat_inverse_even(M.rows), M.L)


# ---------------------------------------------------------------------------
# matrix exponential
# ---------------------------------------------------------------------------

def sm_exp(M: Supermatrix) -> Supermatrix:
    """exp(M) by scaling-and-squaring with a coefficient-level Taylor core.

    The body part behaves like the usual scalar scaling-and-squaring; every
    soul contribution is a finite nilpotent series at each Taylor order.
    """
    L = M.L
    scale = max(np.abs(M.body_matrix()).max() * M.size, M.max_abs(), 1e-30)
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
        acc = acc @ acc
    return acc


# ---------------------------------------------------------------------------
# generic diagonalization by degree recursion
# ---------------------------------------------------------------------------

def diagonalize_generic(M: Supermatrix, gap_factor: float = 1e-8):
    """Conjugate an even matrix with distinct body eigenvalues to diagonal form.

    Returns (X, E) with X M X^{-1} = E, E diagonal.  The body is handled by a
    dense eigensolver on the two diagonal blocks; soul corrections are built
    degree by degree, dividing by body eigenvalue gaps.  Raises when the
    minimal gap is below gap_factor * spectral radius.
    """
    if M.parity != "even":
        raise GrassmannDomainError("diagonalization implemented for even matrices")
    m, n, L = M.m, M.n, M.L
    N = m + n
    bodyA = np.array([[e.body for e in r] for r in M.block("A")], dtype=complex) \
        if m else np.zeros((0, 0), complex)
    bodyB = np.array([[e.body for e in r] for r in M.block("B")], dtype=complex) \
        if n else np.zeros((0, 0), complex)
    lamA, VA = np.linalg.eig(bodyA) if m else (np.zeros(0, complex), np.zeros((0, 0), complex))
    lamB, VB = np.linalg.eig(bodyB) if n else (np.zeros(0, complex), np.zeros((0, 0), complex))
    lam = np.concatenate([lamA, lamB])
    rad = max(np.abs(lam).max() if N else 0.0, 1e-300)
    for i in range(N):
        for j in range(i + 1, N):
            if abs(lam[i] - lam[j]) <= gap_factor * rad:
                raise GrassmannDomainError(
                    f"body eigenvalue gap |{lam[i]:.3g} - {lam[j]:.3g}| too small"
                )
    X0c = np.zeros((N, N), complex)
    if m:
        X0c[:m, :m] = np.linalg.inv(VA)
    if n:
        X0c[m:, m:] = np.linalg.inv(VB)
    X0 = lift_complex(X0c, m, n, L)
    X0inv = lift_complex(np.linalg.inv(X0c), m, n, L)
    K = X0 @ M @ X0inv

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

    Y = Ydeg[0]
    for k, Yk in Ydeg.items():
        if k:
            Y = Y + Yk
    E = Edeg[0]
    for k, Ek in Edeg.items():
        if k:
            E = E + Ek
    return Y @ X0, E


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

    Odd size returns 0.  Satisfies pfaffian(B)^2 = det_even(B).  A result
    that is not finite raises GrassmannDomainError.
    """
    rows, L = _in_one_algebra(*rows)
    size = len(rows)
    if any(len(r) != size for r in rows):
        raise GrassmannError("pfaffian needs a square matrix")
    for i in range(size):
        for j in range(size):
            if not (rows[i][j] + rows[j][i]).is_zero():
                raise GrassmannDomainError("matrix is not antisymmetric")
            if rows[i][j].parity not in ("even",):
                raise GrassmannDomainError("pfaffian needs even entries")
    if size % 2:
        return zero(L)

    def rec(idx: Tuple[int, ...]) -> Supernumber:
        if not idx:
            return one(L)
        i0 = idx[0]
        acc = zero(L)
        for pos in range(1, len(idx)):
            j = idx[pos]
            rest = idx[1:pos] + idx[pos + 1:]
            term = rows[i0][j] * rec(rest)
            # expansion sign (-1)^pos for the (pos+1)-th column, pos 1-based here
            acc = acc + (term if pos % 2 == 1 else -1.0 * term)
        return acc

    pf = rec(tuple(range(size)))
    if not _is_finite(pf):
        raise GrassmannDomainError("pfaffian overflows: a coefficient is not finite")
    return pf
