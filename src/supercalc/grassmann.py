"""Exact arithmetic in a finite-generator anticommuting coefficient algebra.

An element ("supernumber") is a finite complex linear combination of ordered
products of L anticommuting generators sigma_0, ..., sigma_{L-1}:

    X = sum_I  X_I * sigma^I,     sigma^I = sigma_{i1} sigma_{i2} ... (i1 < i2 < ...)

Each subset I of generators is encoded as a bitmask (bit i <-> sigma_i), so an
element is a sparse map {mask: complex coefficient}.  All operations below are
exact at coefficient level (floating-point arithmetic on coefficients, no
truncation): products of generators never grow past 2^L terms and every soul
power vanishes after finitely many steps.

A coefficient may also be a 1-D complex array with one value per quadrature
node.  Such a batch runs every node through one sequence of operations, and a
decision that depends on the coefficients (a zero body, say) is taken for all
nodes at once.

Products
--------
A product takes one of three paths, chosen from its operands alone; all give
the same coefficients up to the order of summation.

* A factor whose one term is the body (a ``complex`` or a batch) scales the
  other term by term, c * v, as the dict loop would but without visiting
  pairs or signs.  An element times a number takes this path too; a number
  times an element scales the same way in ``__rmul__``.
* The table kernel, ``_dense_product``, scatters both operands into
  length-2^L vectors and takes their disjoint mask pairs (J, K) at once from
  a per-L table, built on first use and cached: x[J] * y[K] * sign, summed
  into J|K.  The table holds all 3^L pairs, and one block of it holds the
  pairs of each parity pair (|J| mod 2, |K| mod 2), about 3^L / 4 of them.
  A product of two homogeneous operands (each even or each odd, as every
  entry of an even supermatrix is) takes the block of their parities, and
  one with a mixed operand the whole table.  Its cost grows with the pairs
  of its block or table, whatever the operands' density.
* The dict loop visits every pair of terms, skips the overlapping ones and
  adds the rest with their sort sign, the parity of popcount(J & s) for one
  mask s per partner K (``_sign_mask``).  Its cost grows with len(X) * len(Y).
  Under a first-order cut (see "Seeding"), a factor that is a seeded
  constant, b + c sigma^M with M a slot mask, takes one pass over the other
  factor per kind of pair instead (``_seeded_constant_product``): b times
  each term the cut keeps, and c sigma^M times each seed-free term, its sign
  from the one mask ``_sign_mask(M)``.  The sums, their order and the zeros
  dropped are the loop's.

The kernel takes a product when L <= 12 and its pair count is at least 512
and at least 3^L / 4 (``_table_takes``); these are where the kernel over the
whole table and the loop measured even.  The blocks leave that crossover in
place, since moving it would send products down the other path and change
their rounding.  Larger L never builds a table (it would hold 3^L pairs).
Products with a batch coefficient or a non-finite one take the dict loop.

``sdet``, ``det_even``, ``mat_inverse_even``, ``Supermatrix.__matmul__`` and
``berezin.gaussian_super`` decide once, on entry (``_on_vectors``): rows of
dense entries become ``_Dense`` vectors, every product, sum, scaling and
check runs on them, and each result is built once.  Other rows run the same
code on elements: the same bytes where their products all take the kernel.

An element costs one conversion to its vector however many dense calls and
kernel products read it: the conversions are shared across calls through a
bounded memo (``_MEMO``), keyed by the element's identity, which each
conversion fills and ``_from_dense`` fills too with the vector of every
element it builds.  So ``sdet(M @ N)`` reads the vectors ``@`` built, and the
elements ``gaussian_super`` forms last (det A, its square root and that
root's inverse) cost at most one conversion each.  A hit gives the bytes and grade of
a fresh conversion.  The memo keeps at most 64 elements and 1 MiB of
vectors, the least recently used leaving first; it holds each element it
keeps, and nothing else stores a vector on an element.

Construction
------------
Every element keeps three invariants: masks lie in [0, 2^L), coefficients
are exactly ``complex`` or 1-D complex arrays, and no coefficient is 0 (at
every node, for a batch).  Input from outside is validated:
``Supernumber(L, terms)``, ``make``, ``scalar``, ``gen`` and ``from_json``
check the masks, convert the coefficients, reject NaN and inf (at any node,
for a batch) with ``GrassmannError`` and drop zeros.  Results the package
computes from elements that already keep the invariants are stored as given:
each operation that can make a 0 drops it itself (``_nonzero``), a sum at
the masks both operands hold, the only ones that can cancel, and a product or
a scaling at each coefficient it makes, since one can underflow to 0.  The
builders other modules call drop their own zeros too: the Taylor table and
sum of the Grassmann continuation (``_taylor_terms``, ``_taylor_sum``), the
ordered product ``_monomial`` and the quadrature's node sum and stack
(``_node_sum``, ``_stack``).  No other module builds an element as is.

One algebra
-----------
An operation on several values first brings them into one algebra, the
smallest that holds them all: ``_in_one_algebra`` takes groups of numbers
and elements (a matrix row, the slots of a phase point), makes each number a
constant, validated as by ``scalar``, and embeds each element there.  ``embed`` to an element's own L is
the element itself, so a value already in place costs no copy.  ``+`` and
``*`` promote an operand with fewer generators the same way, so no operation
embeds a value only to pass it to a sum or a product.

Overflow
--------
Sums and products do not check their results, since they are the hot path:
``Supernumber(2, {0: 1e300, 3: 1}) * Supernumber(2, {0: 1e300})`` has an inf
body, and inf - inf is NaN.  Such a value is caught at the exits instead:
``inverse``, ``/``, ``apply_analytic`` and ``superlinalg``'s ``det_even``,
``mat_inverse_even``, ``sdet``, ``pfaffian``, ``sm_exp`` and
``diagonalize_generic`` return finite coefficients or raise
``GrassmannDomainError``, ``to_json`` raises ``GrassmannError`` and the
quadratures of ``berezin`` (``quad_box`` and the mixed integrals) raise
``QuadratureError``.  ``inverse`` and ``apply_analytic`` test the body
first, since 1/inf is 0 and would give a finite, wrong result.  On a batch,
``/``, ``inverse`` and ``apply_analytic`` overflow without numpy's warning
before their check.

Conventions
-----------
* ``body(X)`` is the coefficient at the empty product (mask 0); ``soul(X)`` is
  the rest, and is nilpotent: ``soul(X)**(L+1) == 0``.
* Parity: a term is even/odd according to popcount(mask) mod 2.
* Conjugation reverses products: ``conjugate(X*Y) == conjugate(Y)*conjugate(X)``;
  on a single monomial it contributes the reversal sign (-1)^{k(k-1)/2} of a
  k-generator product, together with complex conjugation of the coefficient.

Seeding
-------
``seed`` puts fresh generators above L on slot values, one fresh monomial
(its slot mask) per slot, and ``seed_parts`` reads a value computed from them
back by its fresh part: the part at a slot mask is the derivative along that
slot, and the seed-free part (at 0) is the value at the unseeded slot values,
so one evaluation gives both (``superspace._jet``).  A caller that reads
first derivatives only (``seed(..., first_order=True)``) never needs a term
whose fresh part is not one slot mask, and every product spends most of its
pairs on such terms.  So a first-order seeding attaches a cut to the seeded
values: the window of the seeding (its base L and its width) and the fresh
parts it allows, 0 and each slot mask.  The dict-loop product skips a pair
whose union has a fresh part ``(mask >> base) & window`` that is not allowed.
The test reads the window only, so the generators of a seeding nested above
it are never dropped by the outer cut.  Every result computed from a value
with a cut carries it on: ``+``, ``-``, negation, number or array times
element, ``/`` by a number, ``embed``, ``soul``, the Taylor continuation
(``_taylor_sum``, ``apply_analytic`` too), and through its products
``inverse``.  When both operands carry different cuts either one is kept,
since each is valid alone.  ``seed_parts`` clears the cut of the window it
reads back.

A cut is a permission to drop terms, never a duty: the table kernel and any
result built through the validating constructor keep every term, which costs
time and nothing else.  Products only ever add mask bits, so a dropped term
never feeds a kept coefficient, and every kept coefficient sums the same
pairs in the same order as without the cut: the derivatives read back are
the same bit for bit.  (A product whose operands the cut has thinned may
fall below the table kernel's crossover and take the dict loop; its kept
coefficients then agree up to the order of summation.)  All of this holds
only while fresh parts stay unions of slot masks, so an evaluation at
first-order seeded values must not differentiate by a fresh generator
(``gen_left_derivative``) or integrate over one.  Equality and hashing
ignore the cut.
"""

from __future__ import annotations

import cmath
import contextlib
import functools
import json
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import (Callable, Dict, FrozenSet, Iterable, List, Mapping, NamedTuple, Sequence,
                    Tuple)

import numpy as np

__all__ = [
    "Supernumber",
    "AnalyticSpec",
    "make",
    "zero",
    "one",
    "scalar",
    "gen",
    "inverse",
    "conjugate",
    "apply_analytic",
    "body",
    "soul",
    "parity",
    "degree_filter",
    "gen_left_derivative",
    "shift_generators",
    "seed",
    "seed_parts",
    "rk4_step",
    "chop",
    "max_abs",
    "weighted_dist",
    "max_coeff_diff",
    "approx_eq",
    "to_json",
    "from_json",
    "GrassmannError",
    "GrassmannDomainError",
]


class GrassmannError(ValueError):
    """Malformed input to an algebra operation."""


class GrassmannDomainError(GrassmannError):
    """Operation applied outside its domain (zero body, wrong parity, ...)."""


def _sign_mask(mk: int) -> int:
    """The bits with an odd number of mk's bits below them (negative when
    popcount(mk) is odd): J disjoint from K = mk sorts sigma^J sigma^K with
    the sign (-1)^popcount(J & _sign_mask(K)), one mask per partner K."""
    out = 0
    while mk:
        low = mk & -mk
        out ^= -(low << 1)  # flip every position above this bit
        mk ^= low
    return out


def _reorder_sign(mj: int, mk: int) -> int:
    """Sign of sorting the concatenation sigma^J . sigma^K into ascending order.

    J and K are disjoint bitmasks.  The sign is (-1)^t where t counts pairs
    (j in J, k in K) with j > k, i.e. the number of transpositions needed to
    interleave the two ascending blocks.
    """
    return -1 if (mj & _sign_mask(mk)).bit_count() & 1 else 1


# Where a product goes to the table kernel (see "Products" above): L at most
# _TABLE_MAX_L, and a term-pair count at least _TABLE_MIN_PAIRS and at least
# 3^L / _TABLE_ENTRIES_PER_PAIR.  Picked from per-product timings.
_TABLE_MAX_L = 12
_TABLE_MIN_PAIRS = 512
_TABLE_ENTRIES_PER_PAIR = 4


@functools.cache
def _pair_table(L: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Every disjoint pair (J, K) of L-generator masks, 3^L of them.

    Returns J, K, the bins 2(J|K) and 2(J|K) + 1 of each pair's real and
    imaginary part, interleaved, and the count of pairs whose sort sign
    (that of ``_reorder_sign``) is +1; those pairs come first.  The arrays are
    uint16 (L <= _TABLE_MAX_L) and read-only.  ``_pair_block`` splits it by
    the parities of J and K.
    """
    J = K = np.zeros(1, dtype=np.uint16)
    for i in range(L):
        bit = np.uint16(1 << i)
        J, K = np.concatenate([J, J | bit, J]), np.concatenate([K, K, K | bit])
    negative = np.zeros(J.size, dtype=np.uint16)
    for i in range(L):
        negative ^= (K >> i) & np.bitwise_count(J >> (i + 1)) & 1
    order = np.argsort(negative, kind="stable")
    return _table_of(J[order], K[order], J.size - int(np.count_nonzero(negative)))


def _table_of(J: np.ndarray, K: np.ndarray, positive: int
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The pairs (J, K) as ``_pair_table`` returns them: with their
    interleaved bins, all read-only, and their count of positive pairs."""
    bins = np.repeat(2 * (J | K), 2)
    bins[1::2] += 1
    for a in (J, K, bins):
        a.flags.writeable = False
    return J, K, bins, positive


@functools.cache
def _pair_block(L: int, pj: int | None, pk: int | None
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The pairs of ``_pair_table(L)`` whose J has pj generators mod 2 and
    whose K has pk, in the table's order (positive pairs first), as the table
    gives them; the whole table when pj or pk is None (a mixed operand).

    The four blocks split the 3^L pairs; the even-even one holds
    (3^L + 2 + (-1)^L) / 4.  A pair outside the block of its operands'
    parities has a zero factor, so its product is an exact 0 and leaving it
    out changes no sum.
    """
    J, K, _, positive = table = _pair_table(L)
    if pj is None or pk is None:
        return table
    keep = np.flatnonzero(((np.bitwise_count(J) & 1) == pj) & ((np.bitwise_count(K) & 1) == pk))
    return _table_of(J[keep], K[keep], int(np.searchsorted(keep, positive)))


class _Dense:
    """An element as its length-2^L coefficient vector v and its grade: 0
    when no odd coefficient is nonzero, 1 when no even one is, None when not
    known.  source is the element v came from (``_on_vectors``).  The other
    operand of ``*``, ``+``, ``-`` is a ``_Dense``, a number or a constant
    element; a scaling forms its parts as Python's complex product does, and
    a scaling by 0 is 0, as the zero element times an element is, also
    where v holds inf."""

    __slots__ = ("v", "grade", "L", "source")
    __array_ufunc__ = None  # numpy scalars on the left defer to __rmul__

    def __init__(self, v: np.ndarray, grade: int | None, L: int, source=None):
        self.v, self.grade, self.L, self.source = v, grade, L, source

    @property
    def body(self) -> complex:
        return complex(self.v[0])

    @property
    def parity(self) -> str:
        """As ``Supernumber.parity``; a known grade answers without a scan."""
        if self.grade == 0:
            return "even"
        if self.grade == 1:
            return "odd" if self.v.any() else "even"
        odd = np.bitwise_count(np.flatnonzero(self.v)) & 1
        return "mixed" if 0 < odd.sum() < odd.size else "odd" if odd.any() else "even"

    def is_zero(self) -> bool:
        return not self.v.any()

    def __mul__(self, other):
        if isinstance(other, _Dense):
            grade = None if None in (self.grade, other.grade) else self.grade ^ other.grade
            return _Dense(_dense_product(self, other, self.L), grade, self.L)
        if (c := _constant(other)) is None:
            return NotImplemented
        if c == 0:
            return _Dense(np.zeros_like(self.v), 0, self.L)
        x = self.v.view(np.float64).reshape(-1, 2)
        out, swapped = x * c.real, x[:, ::-1] * c.imag
        out[:, 0] -= swapped[:, 0]
        out[:, 1] += swapped[:, 1]
        return _Dense(out.view(complex).ravel(), self.grade, self.L)

    def __add__(self, other):
        if isinstance(other, _Dense):
            return _Dense(self.v + other.v, self.grade if self.grade == other.grade else None,
                          self.L)
        if (c := _constant(other)) is None:
            return NotImplemented
        if c == 0:
            return self
        v = self.v.copy()
        v[0] += c
        return _Dense(v, 0 if self.grade == 0 else None, self.L)

    __rmul__, __radd__ = __mul__, __add__

    def __neg__(self):
        return _Dense(-self.v, self.grade, self.L)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other


def _constant(c) -> complex | None:
    """c as a complex factor when it is a number or a constant element."""
    if isinstance(c, (int, float, complex)):
        return complex(c)
    if isinstance(c, Supernumber) and c._terms.keys() <= {0}:
        return complex(c._terms.get(0, 0j))
    return None


def _grade(masks: np.ndarray) -> int | None:
    """The grade of a ``_Dense`` whose nonzero masks are masks."""
    odd = int(np.count_nonzero(np.bitwise_count(masks) & 1))
    return 0 if not odd else 1 if odd == masks.size else None


class _VectorMemo:
    """The ``_Dense`` vectors of dense elements lately converted or built from
    a vector, keyed by the element's identity (see "Products").  An entry is a
    hit only for its own source; it holds that source, so the id cannot pass
    to another element while the entry stands, and elements are immutable, so
    a hit is never stale.  Its vectors are read-only.  At most ``max_entries``
    entries and ``max_nbytes`` bytes of vectors are kept, the least recently
    used leaving first."""

    def __init__(self, max_entries: int, max_nbytes: int):
        self.max_entries, self.max_nbytes = max_entries, max_nbytes
        self.entries: OrderedDict[int, _Dense] = OrderedDict()
        self.nbytes = 0
        self._lock = threading.Lock()

    def get(self, X: Supernumber) -> _Dense | None:
        key = id(X)
        with self._lock:
            d = self.entries.get(key)
            if d is None or d.source is not X:
                return None
            self.entries.move_to_end(key)
        return d

    def put(self, d: _Dense) -> _Dense:
        d.v.flags.writeable = False
        key = id(d.source)
        with self._lock:
            old = self.entries.pop(key, None)
            self.nbytes += d.v.nbytes - (0 if old is None else old.v.nbytes)
            self.entries[key] = d
            while len(self.entries) > self.max_entries or self.nbytes > self.max_nbytes:
                self.nbytes -= self.entries.popitem(last=False)[1].v.nbytes
        return d


# 64 entries hold the 16 entries of each of M, N and M @ N for dense (2|2)
# matrices, as sdet(M), sdet(N), sdet(M @ N) read them, with room for the
# results between; 1 MiB is 256 vectors at L = 8 and 16 at L = 12, the
# largest L the table kernel takes
_MEMO = _VectorMemo(64, 1 << 20)


def _dense_coefficients(X: Supernumber) -> _Dense | None:
    """X as a length-2^L vector with its grade, source X, or None when a
    coefficient is a batch or not finite (inf times an absent 0 would put NaN
    where the dict loop puts nothing).  Read from the memo (``_MEMO``) when X
    was converted or built from a vector lately, else converted and
    remembered."""
    d = _MEMO.get(X)
    if d is None and (d := _converted(X)) is not None:
        _MEMO.put(d)
    return d


def _converted(X: Supernumber) -> _Dense | None:
    """``_dense_coefficients`` of X, computed from its terms."""
    values = X._terms.values()
    if not {complex}.issuperset(map(type, values)):
        return None
    n = len(values)
    masks = np.fromiter(X._terms, dtype=np.intp, count=n)
    out = np.zeros(1 << X.L, dtype=complex)
    out[masks] = np.fromiter(values, dtype=complex, count=n)
    if not np.isfinite(out).all():
        return None
    return _Dense(out, _grade(masks), X.L, X)


def _dense_product(x: _Dense, y: _Dense, L: int) -> np.ndarray:
    """The product of two length-2^L coefficient vectors, as one: x[J] y[K]
    times the sort sign, summed into J|K over the pair block of their grades
    (``_pair_block``), in the table's order.  Overflow gives inf (and
    inf - inf NaN), as in the dict loop; call it where numpy leaves that
    quiet, as ``_table_product`` and ``_on_vectors`` do."""
    J, K, bins, positive = _pair_block(L, x.grade, y.grade)
    t = x.v.take(J)
    t *= y.v.take(K)
    t.view(np.float64)[2 * positive:] *= -1.0
    return np.bincount(bins, weights=t.view(np.float64), minlength=2 << L).view(complex)


def _from_dense(v: np.ndarray, L: int) -> Supernumber:
    """The element whose length-2^L coefficient vector is v, zeros dropped.
    When v is finite the memo (``_MEMO``) records the element's vector as a
    conversion would give it, so that a later dense call reads it without
    one: the nonzero entries of v on zeros (v may hold -0.0), with the grade
    of their masks."""
    nonzero = np.flatnonzero(v)
    values = v[nonzero]
    X = Supernumber(L, dict(zip(nonzero.tolist(), values.tolist())), _AS_IS)
    if np.isfinite(values).all():
        w = np.zeros(1 << L, dtype=complex)
        w[nonzero] = values
        _MEMO.put(_Dense(w, _grade(nonzero), L, X))
    return X


def _dense_rows(L: int, *groups):
    """The entry decision of ``_on_vectors``: the groups (lists of rows) with
    each nonzero entry as its ``_Dense``, or None unless every entry has L
    generators, no first-order cut and finite ``complex`` coefficients, and
    the fewest-term nonzero entry times itself meets the table crossover.
    Zero entries, which antisymmetric blocks hold, stay the zero element (a
    constant to a ``_Dense``).  A batch or a small entry fails a cheap test."""
    entries = [e for g in groups for r in g for e in r]
    sizes = [len(e._terms) for e in entries if e._terms]
    if not sizes or not _table_takes(min(sizes) ** 2, L):
        return None
    if any(e.L != L or e._cut is not None for e in entries):
        return None
    dense = tuple([[_dense_coefficients(e) if e._terms else e for e in r] for r in g]
                  for g in groups)
    return None if any(d is None for g in dense for r in g for d in r) else dense


def _elements(x):
    """x with each ``_Dense`` in it (nested in lists too) as its element: its
    source, or one built with ``_from_dense``."""
    if isinstance(x, _Dense):
        return x.source if x.source is not None else _from_dense(x.v, x.L)
    if isinstance(x, list):
        return [_elements(e) for e in x]
    return x


def _on_vectors(fn: Callable, L: int, *groups):
    """fn(*groups), run once: on the groups as ``_Dense`` vectors when they
    pass ``_dense_rows`` (overflow quiet, as on elements), else as given; the
    result comes back as elements.  fn is one code for both.  The entries'
    vectors come from the memo (``_dense_coefficients``) where an earlier
    call converted or built them, and the result's are recorded there."""
    dense = _dense_rows(L, *groups)
    if dense is None:
        return fn(*groups)
    with np.errstate(over="ignore", invalid="ignore"):
        return _elements(fn(*dense))


def _table_product(a: Supernumber, b: Supernumber) -> Supernumber | None:
    """a * b (same L) over the pair block of their parities.  None when an
    operand cannot be written as one dense vector."""
    if (x := _dense_coefficients(a)) is None or (y := _dense_coefficients(b)) is None:
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        return _from_dense(_dense_product(x, y, a.L), a.L)


def _table_takes(pairs: int, L: int) -> bool:
    """True when a product of `pairs` term pairs at L generators goes to the
    table kernel (see "Products" above)."""
    return (pairs >= _TABLE_MIN_PAIRS and L <= _TABLE_MAX_L
            and pairs * _TABLE_ENTRIES_PER_PAIR >= 3 ** L)


def _generator_count(L) -> int:
    if L < 0:
        raise GrassmannError("generator count L must be >= 0")
    return int(L)


def _coefficient(x):
    """A number or array as a clean coefficient factor: exactly ``complex``, or
    a complex array for a batch; None for anything else.  A 0-d array becomes a
    ``complex``, since a 0-d array times a coefficient gives a numpy scalar."""
    if isinstance(x, (int, float, complex)):
        return complex(x)
    if isinstance(x, np.ndarray):
        return complex(x) if x.ndim == 0 else np.asarray(x, dtype=complex)
    return None


class _Cut(NamedTuple):
    """The window of one first-order seeding (see "Seeding" above): terms
    whose fresh part ``(mask >> base) & window`` is not in ``allowed`` may be
    dropped."""

    base: int
    window: int
    allowed: FrozenSet[int]


def _cut_of(values: Iterable[Supernumber]) -> _Cut | None:
    """The first cut carried by one of values, or None."""
    return next((v._cut for v in values if v._cut is not None), None)


def _nonzero(c) -> bool:
    """True when the clean coefficient c is not 0, at some node for a batch.

    A batch is read at node 0 first, and scanned with ``any`` only when that
    node is 0: a nonzero batch is seldom 0 at its first node, and one read
    costs a small part of a scan.  NaN is not 0; a batch of no nodes is 0
    everywhere."""
    if type(c) is complex:
        return c != 0
    return bool(c.size) and (bool(c[0]) or bool(c.any()))


def _scaled(c, terms: Mapping[int, complex]) -> Dict[int, complex]:
    """{m: c * v} over terms, without the products that underflow to 0."""
    return {m: cv for m, v in terms.items()
            if (cv != 0 if type(cv := c * v) is complex else _nonzero(cv))}


def _add_into(out: Dict[int, complex], terms: Mapping[int, complex], c=None) -> None:
    """Add terms, each times c when c is given, into out in their order,
    skipping each product and deleting each sum that is 0: only a mask
    present in both can cancel."""
    for m, v in terms.items():
        if c is not None and not (v != 0 if type(v := c * v) is complex else _nonzero(v)):
            continue
        if m in out:
            v = out[m] + v
            if not (v != 0 if type(v) is complex else _nonzero(v)):
                del out[m]
                continue
        out[m] = v


def _seeded_constant_product(x: Mapping[int, complex], y: Mapping[int, complex],
                             cut: _Cut) -> Dict[int, complex] | None:
    """The terms of the dict loop's product x * y under cut when x or y is a
    seeded constant, exactly {0: b, M: c} with M a slot mask of cut (a
    body-only slot value seeded first-order, times a number); else None.

    The loop's pairs with such a factor are b times each term of the other
    operand that the cut keeps, and sigma^M times each of its seed-free terms,
    moved up by M.  So one pass over the other operand per kind of pair makes
    the loop's sums in its order, with its signs and its zero drops."""
    base, window, allowed = cut
    fresh = window << base
    for const in (y, x):
        if len(const) == 2:
            m0, M = const
            if not m0 and M & fresh == M and M >> base in allowed:
                break
    else:
        return None
    b, c = const[0], const[M]
    sign = _sign_mask(M)  # the sort sign of sigma^J sigma^M, for J disjoint from M
    if const is x:
        acc = {mk: b * ck for mk, ck in y.items() if (mk & fresh) >> base in allowed}
        if M.bit_count() & 1:
            # sigma^M sigma^K sorts with the sign of sigma^K sigma^M times (-1)^|K|
            sign = ~sign
        for mk, ck in y.items():
            if not mk & fresh:
                m, v = M | mk, c * ck
                if (mk & sign).bit_count() & 1:
                    acc[m] = acc[m] - v if m in acc else -v
                else:
                    acc[m] = acc[m] + v if m in acc else v
    else:
        acc = {}
        for mj, cj in x.items():
            fj = (mj & fresh) >> base
            if not fj:  # only a shifted term, which holds M, can come before mj
                acc[mj] = cj * b
                m, v = mj | M, cj * c
                if (mj & sign).bit_count() & 1:
                    acc[m] = acc[m] - v if m in acc else -v
                else:
                    acc[m] = acc[m] + v if m in acc else v
            elif fj in allowed:
                v = cj * b
                acc[mj] = acc[mj] + v if mj in acc else v
    return {m: v for m, v in acc.items() if (v != 0 if type(v) is complex else _nonzero(v))}


# Supernumber(L, terms, _AS_IS) stores a clean dict as given (see its docstring)
_AS_IS = True


class Supernumber:
    """Immutable sparse element of the L-generator algebra.

    Do not mutate ``_terms`` after construction; all public operations return
    new instances.  Every stored element keeps three invariants: each mask is
    in [0, 2^L); each coefficient is exactly ``complex`` or a complex
    ``ndarray`` (a batch); no coefficient is 0 (at every node, for a batch).

    ``Supernumber(L, terms)`` validates its input: it checks each mask's range,
    converts each coefficient to ``complex`` (a 1-D array, a batch, to a
    complex array; a 0-d array is a number, and more dimensions raise),
    raises ``GrassmannError`` on a NaN or inf coefficient (on any node of a
    batch) and drops zeros.  So do ``make``, ``scalar``, ``gen`` and
    ``from_json``, which build through it.

    Results the package computes itself from elements that already keep the
    invariants pass the private third argument ``_AS_IS`` and are stored as
    given, so each operation that can make a 0 drops it (a batch only when it
    is 0 at every node) with ``_nonzero``, or inline for a ``complex``:

    * ``+`` and ``-`` between elements, and ``rk4_step``'s sums, test the
      masks both operands hold;
    * the dict-loop product and its seeded-constant pass, the product with a
      body-only factor, a number or array times an element and division by a
      number test each coefficient they make, since a product can underflow
      to 0;
    * ``_as_super``, which makes a number or array a constant, stores nothing
      for 0;
    * ``_taylor_sum``, ``_node_sum`` and ``_stack`` test each sum they make.

    ``-X``, ``embed`` to another L, the table kernel and the results of
    dense supermatrix algebra (``_from_dense`` keeps the nonzero entries of a
    vector, once per result of ``_on_vectors``), ``zero``, ``one``, ``soul``,
    ``degree_filter``, ``conjugate``, ``chop``, ``gen_left_derivative``,
    ``seed`` and ``seed_parts`` make no 0.

    The masks must be in range and the coefficients exactly ``complex`` or
    complex arrays: a ``np.complex128`` stored here would send later products
    back to the dict loop (see ``_dense_coefficients``).  Arithmetic on clean
    coefficients stays clean (complex op complex is complex; complex op
    complex array is a complex array); a value from numpy, such as ``np.dot``,
    is converted first.

    The ``_AS_IS`` branch also takes a private fourth argument, the ``_cut``
    of a first-order seeding the result carries (see "Seeding" in the module
    docstring); a validated element has none.
    """

    __slots__ = ("L", "_terms", "_cut")

    # numpy arrays and scalars on the left of + and * defer to __radd__ and
    # __rmul__ instead of broadcasting over this object
    __array_ufunc__ = None

    def __init__(self, L: int, terms: Mapping[int, complex] | None = None,
                 _as_is: bool = False, _cut: _Cut | None = None):
        if _as_is:
            self.L = L
            self._terms = terms
            self._cut = _cut
            return
        self.L = _generator_count(L)
        self._cut = None
        clean: Dict[int, complex] = {}
        if terms:
            top = 1 << self.L
            for mask, c in terms.items():
                m = int(mask)
                if not (0 <= m < top):
                    raise GrassmannError(
                        f"mask {m} out of range for L={self.L} generators"
                    )
                if type(c) is not complex:
                    if isinstance(c, np.ndarray) and c.ndim:  # a 0-d array is a number
                        if c.ndim != 1:
                            raise GrassmannError(
                                f"coefficient of mask {m} is a {c.ndim}-d array; "
                                "a batch of nodes is 1-d"
                            )
                        c = np.asarray(c, dtype=complex)
                        if not np.isfinite(c).all():
                            raise GrassmannError(
                                f"coefficient of mask {m} is not finite at some node"
                            )
                        if _nonzero(c):
                            clean[m] = c
                        continue
                    c = complex(c)
                if not cmath.isfinite(c):
                    raise GrassmannError(f"coefficient {c} of mask {m} is not finite")
                if c != 0:
                    clean[m] = c
        self._terms = clean

    # -- basic inspection -------------------------------------------------

    @property
    def terms(self) -> Dict[int, complex]:
        """Copy of the sparse coefficient map."""
        return dict(self._terms)

    @property
    def body(self) -> complex:
        return self._terms.get(0, 0j)

    def coefficient(self, mask: int) -> complex:
        return self._terms.get(int(mask), 0j)

    def is_zero(self) -> bool:
        return not self._terms

    @property
    def parity(self) -> str:
        """'even', 'odd', or 'mixed' (zero counts as even)."""
        has_even = has_odd = False
        for m in self._terms:
            if m.bit_count() & 1:
                has_odd = True
            else:
                has_even = True
        if has_odd and has_even:
            return "mixed"
        return "odd" if has_odd else "even"

    def max_degree(self) -> int:
        return max((m.bit_count() for m in self._terms), default=0)

    # -- arithmetic --------------------------------------------------------

    def _promote(self, other) -> Tuple["Supernumber", "Supernumber"]:
        if isinstance(other, Supernumber):
            if other.L == self.L:
                return self, other
            L = max(self.L, other.L)
            return self.embed(L), other.embed(L)
        if isinstance(other, (int, float, complex)):
            return self, _as_super(other, self.L)
        return self, NotImplemented  # type: ignore[return-value]

    def embed(self, L: int) -> "Supernumber":
        """Reinterpret in an algebra with L generators; L below self.L only when
        the generators above it are unoccupied.  At L == self.L this is self,
        which is immutable, so the hot paths embed without building a copy."""
        L = _generator_count(L)
        if L == self.L:
            return self
        if L < self.L:
            for m in self._terms:
                if m >> L:
                    raise GrassmannError("cannot shrink below occupied generators")
        return Supernumber(L, self._terms, _AS_IS, self._cut)

    def __add__(self, other):
        a, b = (self, other) if isinstance(other, Supernumber) and other.L == self.L \
            else self._promote(other)
        if b is NotImplemented:
            return NotImplemented
        out = dict(a._terms)
        _add_into(out, b._terms)
        return Supernumber(a.L, out, _AS_IS, a._cut or b._cut)

    __radd__ = __add__

    def __neg__(self):
        return Supernumber(self.L, {m: -c for m, c in self._terms.items()}, _AS_IS, self._cut)

    def __sub__(self, other):
        a, b = self._promote(other)
        if b is NotImplemented:
            return NotImplemented
        return a + (-b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self._promote(other)
        if b is NotImplemented:
            return NotImplemented
        x, y = a._terms, b._terms
        cut = a._cut or b._cut
        # a factor whose one term is the body scales the other term by term;
        # the factors keep the dict loop's order, so the values are its own
        if len(x) == 1 and 0 in x:
            return Supernumber(a.L, _scaled(x[0], y), _AS_IS, cut)
        if len(y) == 1 and 0 in y:
            c = y[0]
            return Supernumber(a.L, {m: vc for m, v in x.items()
                                     if (vc != 0 if type(vc := v * c) is complex
                                         else _nonzero(vc))}, _AS_IS, cut)
        # a two-term operand never meets the table crossover (2 n < 3^L / 4
        # wherever n <= 2^L and 2 n >= 512), so a seeded constant goes first
        if cut is not None and (out := _seeded_constant_product(x, y, cut)) is not None:
            return Supernumber(a.L, out, _AS_IS, cut)
        if _table_takes(len(x) * len(y), a.L):
            out = _table_product(a, b)
            if out is not None:
                return out if cut is None else Supernumber(a.L, out._terms, _AS_IS, cut)
        acc: Dict[int, complex] = {}
        signed = [(mk, ck, _sign_mask(mk)) for mk, ck in y.items()]
        if cut is not None:
            base, window, allowed = cut
            fresh = window << base
            kept = [p for p in signed if (p[0] & fresh) >> base in allowed]
        for mj, cj in x.items():
            # block: the bits a partner of mj must not have
            block, partners = mj, signed
            if cut is not None:
                # the pair's fresh part must be allowed: 0 or one slot mask
                fj = (mj & fresh) >> base
                if not fj:
                    partners = kept
                elif fj in allowed:
                    block = mj | fresh  # slot masks are disjoint: no other fresh bit
                else:
                    continue  # two or more slot masks, and so every union with it
            for mk, ck, sk in partners:
                if block & mk:
                    continue
                m = mj | mk
                v = cj * ck
                if (mj & sk).bit_count() & 1:
                    acc[m] = acc[m] - v if m in acc else -v
                else:
                    acc[m] = acc[m] + v if m in acc else v
        return Supernumber(a.L, {m: v for m, v in acc.items()
                                 if (v != 0 if type(v) is complex else _nonzero(v))},
                           _AS_IS, cut)

    def __rmul__(self, other):
        # numbers inline: this is a hot path, and a call costs more than the test
        c = complex(other) if isinstance(other, (int, float, complex)) else _coefficient(other)
        if c is None:
            return NotImplemented
        return Supernumber(self.L, _scaled(c, self._terms), _AS_IS, self._cut)

    def __truediv__(self, other):
        if isinstance(other, (int, float, complex)):
            c = complex(other)
            if c == 0:
                raise GrassmannDomainError("division by zero")
            with _overflow_quietly(self):
                out = Supernumber(self.L, {m: q for m, v in self._terms.items()
                                           if _nonzero(q := v / c)}, _AS_IS, self._cut)
        elif isinstance(other, Supernumber):
            reciprocal = inverse(other)
            with _overflow_quietly(self, reciprocal):
                out = self * reciprocal
        else:
            return NotImplemented
        if not _is_finite(out):
            raise GrassmannDomainError("quotient overflows: a coefficient is not finite")
        return out

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = self if n else one(self.L)
        for _ in range(n - 1):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, (int, float, complex)):
            other = _as_super(other, self.L)
        if not isinstance(other, Supernumber):
            return NotImplemented
        mine, theirs = self._terms, other._terms
        if mine.keys() != theirs.keys():
            return False
        return all(c == theirs[m] if type(c) is complex and type(theirs[m]) is complex
                   else np.array_equal(c, theirs[m]) for m, c in mine.items())

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __repr__(self):
        if not self._terms:
            return f"Supernumber(L={self.L}, 0)"
        bits = []
        for m in sorted(self._terms):
            c = self._terms[m]
            mono = "".join(f"s{i}" for i in range(self.L) if m >> i & 1)
            text = f"[{c.size} nodes]" if isinstance(c, np.ndarray) else f"{c:.6g}"
            bits.append(f"{text}*{mono}" if mono else text)
        return f"Supernumber(L={self.L}, " + " + ".join(bits) + ")"


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def make(L: int, terms: Mapping[int, complex] | Iterable[Tuple[int, complex]]) -> Supernumber:
    """Build an element from {mask: coefficient} (or an iterable of pairs)."""
    if not isinstance(terms, Mapping):
        terms = dict(terms)
    return Supernumber(L, terms)


def zero(L: int) -> Supernumber:
    return Supernumber(_generator_count(L), {}, _AS_IS)


def one(L: int) -> Supernumber:
    return Supernumber(_generator_count(L), {0: 1.0 + 0j}, _AS_IS)


def scalar(L: int, c) -> Supernumber:
    """The constant c; an array c gives one constant per node."""
    return Supernumber(L, {0: c})


def gen(L: int, i: int) -> Supernumber:
    """The single generator sigma_i (0-based)."""
    if not (0 <= i < L):
        raise GrassmannError(f"generator index {i} out of range for L={L}")
    return Supernumber(L, {1 << i: 1.0 + 0j})


def _as_super(x, L: int | None = None) -> Supernumber:
    """x as a Supernumber, embedded in L generators when L is given; a number
    becomes a constant and an array one constant per node, unvalidated like
    the operands of a sum (see "Overflow")."""
    if isinstance(x, Supernumber):
        return x if L is None else x.embed(L)
    c = _coefficient(x)
    if c is None:
        c = complex(x)
    return Supernumber(L or 0, {0: c} if _nonzero(c) else {}, _AS_IS)


def _in_algebra(x, L: int) -> Supernumber:
    """x in the L-generator algebra: an element embedded, a number or array a
    constant validated as by ``scalar``, so a NaN or inf raises GrassmannError."""
    return x.embed(L) if isinstance(x, Supernumber) else scalar(L, x)


def _in_one_algebra(*groups: Iterable, L: int = 0
                    ) -> Tuple[Tuple[Tuple[Supernumber, ...], ...], int]:
    """Each group (an iterable of numbers and elements, such as a matrix row)
    as a tuple of elements of one algebra, the smallest with at least L
    generators that holds them all, and that algebra's generator count.  A
    number becomes a validated constant (``_in_algebra``); an element already
    there is itself, and groups of elements of one algebra with at least L
    generators are returned as they are, without a pass per entry."""
    groups = tuple(map(tuple, groups))
    sizes = {v.L if type(v) is Supernumber else -1 for g in groups for v in g}
    if len(sizes) == 1:
        (size,) = sizes
        if size >= L and size >= 0:
            return groups, size
    L = max([L, *(v.L for g in groups for v in g if isinstance(v, Supernumber))])
    return tuple(tuple(_in_algebra(v, L) for v in g) for g in groups), L


def _monomial(mask: int, factors: Sequence[Supernumber], L: int) -> Supernumber:
    """The ordered product of factors[s] over the bits s of mask, ascending, in
    the L-generator algebra; 1 for mask 0.  It starts from its first factor."""
    out = None
    for s, f in enumerate(factors):
        if mask >> s & 1:
            out = f.embed(L) if out is None else out * f
    return one(L) if out is None else out


# ---------------------------------------------------------------------------
# spec-named operations
# ---------------------------------------------------------------------------

def body(X: Supernumber) -> complex:
    return X.body


def soul(X: Supernumber) -> Supernumber:
    if isinstance(X, _Dense):
        return X - X.body
    return Supernumber(X.L, {m: c for m, c in X._terms.items() if m != 0}, _AS_IS, X._cut)


def parity(X: Supernumber) -> str:
    return X.parity


def degree_filter(X: Supernumber, k: int) -> Supernumber:
    """Part of X whose monomials have exactly k generators."""
    return Supernumber(X.L, {m: c for m, c in X._terms.items() if m.bit_count() == k}, _AS_IS)


def _holds_batch(*values: Supernumber) -> bool:
    """True when a coefficient of one of the values (a ``_Dense`` has none) is
    a batch of nodes."""
    return not all(type(c) is complex for X in values if isinstance(X, Supernumber)
                   for c in X._terms.values())


def _node_sum(weights: np.ndarray, X: Supernumber) -> Supernumber:
    """sum_k weights[k] X[k] over the nodes k of X: each coefficient, a batch
    or one value shared by all nodes, becomes its weighted sum."""
    return Supernumber(X.L, {
        m: s for m, c in X._terms.items()
        if _nonzero(s := complex(np.dot(weights, np.broadcast_to(c, weights.shape))))
    }, _AS_IS)


def _stack(values: Sequence) -> Supernumber:
    """One element whose coefficients hold values[k]'s at node k, in the
    algebra of the values; a number is a constant."""
    L = max(v.L for v in values if isinstance(v, Supernumber))
    terms: Dict[int, np.ndarray] = {}
    for k, v in enumerate(values):
        node = v._terms if isinstance(v, Supernumber) else {0: v}
        for mask, c in node.items():
            terms.setdefault(mask, np.zeros(len(values), dtype=complex))[k] = c
    return Supernumber(L, {m: c for m, c in terms.items() if _nonzero(c)}, _AS_IS)


def _overflow_quietly(*values: Supernumber):
    """A context in which arithmetic on a batch coefficient of the values
    overflows to inf (or NaN) without numpy's warning, so that the finite
    check after it raises GrassmannDomainError; a no-op when no value holds a
    batch."""
    if _holds_batch(*values):
        return np.errstate(over="ignore", invalid="ignore")
    return contextlib.nullcontext()


def _any_zero(b) -> bool:
    """True when the body b is 0, at any node for a batch."""
    if isinstance(b, np.ndarray):
        return not b.all()
    return b == 0


def inverse(X: Supernumber) -> Supernumber:
    """Multiplicative inverse; requires an invertible body.

    X = b(1 + b^{-1} s) with s nilpotent, so the finite geometric series
    b^{-1} sum_k (-b^{-1} s)^k terminates and is the exact two-sided inverse.
    With d the fewest generators in a monomial of s, it stops at s^(L // d)
    or at a power that is 0, forming no product known to vanish.  A body that
    is not finite raises GrassmannDomainError (1/inf would give 0), and so
    does a result that is not.  X may be a ``_Dense``.
    """
    b = X.body
    if not _is_finite(b):
        raise GrassmannDomainError("element with a body that is not finite has no inverse")
    if _any_zero(b):
        raise GrassmannDomainError("element with zero body has no inverse")
    s = soul(X)
    with _overflow_quietly(X):
        binv = 1.0 / b
        acc = one(X.L)
        power, d = s, _low_degree(s)
        for k in range(1, X.L // d + 1 if d else 1):
            if k > 1:
                power = power * s
                if power.is_zero():
                    break
            power = -binv * power
            acc = acc + power
        out = binv * acc
    if not _is_finite(out):
        raise GrassmannDomainError("inverse overflows: a coefficient is not finite")
    return out


def _low_degree(X) -> int:
    """The fewest generators in a monomial of X (or ``_Dense``), 0 for 0."""
    if isinstance(X, _Dense):
        masks = np.flatnonzero(X.v)
        return int(np.bitwise_count(masks).min()) if masks.size else 0
    return min((m.bit_count() for m in X._terms), default=0)


def conjugate(X: Supernumber) -> Supernumber:
    """Conjugation: complex-conjugate coefficients and reverse each monomial.

    Reversing a k-generator monomial contributes (-1)^{k(k-1)/2}; the map is an
    involution and an anti-homomorphism.
    """
    # k(k-1)/2 is odd where k = 2, 3 mod 4
    return Supernumber(X.L, {m: (-1 if m.bit_count() & 2 else 1) * c.conjugate()
                             for m, c in X._terms.items()}, _AS_IS)


# ---------------------------------------------------------------------------
# analytic continuation off the body
# ---------------------------------------------------------------------------

def _deriv_exp(k: int, z: complex) -> complex:
    return cmath.exp(z)


def _deriv_log(k: int, z: complex) -> complex:
    if k == 0:
        return cmath.log(z)
    return (-1) ** (k - 1) * math.factorial(k - 1) / z ** k


def _deriv_sin(k: int, z: complex) -> complex:
    v = (cmath.cos if k & 1 else cmath.sin)(z)
    return -v if k & 2 else v


def _deriv_cos(k: int, z: complex) -> complex:
    return _deriv_sin(k + 1, z)


def _deriv_sqrt(k: int, z: complex) -> complex:
    c = 1.0
    for j in range(k):
        c *= 0.5 - j
    return c * z ** (0.5 - k)


def _deriv_reciprocal(k: int, z: complex) -> complex:
    return (-1) ** k * math.factorial(k) * z ** (-(k + 1))


_NAMED_DERIVATIVES: Dict[str, Callable[[int, complex], complex]] = {
    "exp": _deriv_exp,
    "log": _deriv_log,
    "sin": _deriv_sin,
    "cos": _deriv_cos,
    "sqrt": _deriv_sqrt,
    "reciprocal": _deriv_reciprocal,
}

_NEEDS_NONZERO_BODY = {"log", "sqrt", "reciprocal"}


@dataclass(frozen=True)
class AnalyticSpec:
    """A scalar analytic function given with all its derivatives.

    Either one of the named elementary functions (exp, log, sin, cos, sqrt,
    reciprocal, integer power) or a user callback ``derivatives(k, z)``
    returning the k-th derivative at the complex point z.
    """

    kind: str
    exponent: int = 0
    derivatives: Callable[[int, complex], complex] | None = None

    @staticmethod
    def named(name: str) -> "AnalyticSpec":
        if name not in _NAMED_DERIVATIVES:
            raise GrassmannError(f"unknown named analytic function {name!r}")
        return AnalyticSpec(kind=name)

    @staticmethod
    def power(n: int) -> "AnalyticSpec":
        return AnalyticSpec(kind="power", exponent=int(n))

    @staticmethod
    def custom(derivatives: Callable[[int, complex], complex]) -> "AnalyticSpec":
        return AnalyticSpec(kind="custom", derivatives=derivatives)

    def derivative(self, k: int, z: complex) -> complex:
        if self.kind == "custom":
            assert self.derivatives is not None
            return complex(self.derivatives(k, z))
        if self.kind == "power":
            n = self.exponent
            if n >= 0 and k > n:
                return 0j
            c = 1.0
            for j in range(k):
                c *= n - j
            return c * z ** (n - k)  # negative n needs z != 0, checked upstream
        return _NAMED_DERIVATIVES[self.kind](k, z)


def _taylor_terms(xs: Sequence[Supernumber], L: int
                  ) -> List[Tuple[Tuple[int, ...], float, Supernumber]]:
    """The Taylor table of the even arguments xs in the L-generator algebra:
    (alpha, alpha!, the monomial prod_j soul(x_j)^alpha_j) for every
    multi-index alpha whose monomial is not 0, in lexicographic order.

    The monomial of alpha = 0 is 1.  Each soul power and each product of
    powers starts from its first factor, so no monomial is a copy made by
    multiplying with 1.  The products run under the cut of the arguments, if
    any (see "Seeding").
    """
    unit = one(L)
    table = [((), 1.0, unit)]
    for x in xs:
        s = soul(x.embed(L))
        powers = []
        p = s  # s^(L+1) = 0, so the loop ends
        while not p.is_zero():
            powers.append(p)
            p = p * s
        grown = []
        for alpha, fact, mono in table:
            grown.append((alpha + (0,), fact, mono))
            for k, p in enumerate(powers, 1):
                if mono is not unit:
                    p = mono * p
                    if p.is_zero():
                        break
                fact *= k
                grown.append((alpha + (k,), fact, p))
        table = grown
    return table


def _taylor_sum(deriv: Callable, q, terms, L: int, cut: _Cut | None) -> Supernumber:
    """The Grassmann continuation sum_alpha deriv(alpha, q) / alpha! *
    monomial_alpha over a Taylor table (``_taylor_terms``), summed into one
    dict and built as one element that carries ``cut``.  A term is skipped
    only when its derivative vanishes, at every node for a batch.  A division
    by alpha! = 1 and a product with a monomial coefficient that is exactly 1
    (the unit of alpha = 0, a first-order seed) are not made: the derivative
    is used as it is, so a term may share its array with the caller's."""
    out: Dict[int, complex] = {}
    for alpha, fact, mono in terms:
        d = deriv(alpha, q)
        c = _coefficient(d if fact == 1 else d / fact)
        if not _nonzero(c):
            continue
        for m, v in mono._terms.items():
            cv = c if type(v) is complex and v == 1 else c * v
            out[m] = out[m] + cv if m in out else cv
    return Supernumber(L, {m: c for m, c in out.items() if _nonzero(c)}, _AS_IS, cut)


def apply_analytic(spec: AnalyticSpec, X: Supernumber) -> Supernumber:
    """Evaluate a scalar analytic function on an even element.

    The one-variable case of the Grassmann continuation (``_taylor_sum``
    over ``_taylor_terms``, which ``superspace`` runs for many variables):
    f(X) = sum_k f^{(k)}(body) / k! * soul^k, which terminates because the
    soul is nilpotent.  The argument must be even so soul powers commute with
    everything in sight.  For a batch of nodes the derivatives are taken one
    node at a time.  A body that is not finite, a derivative that overflows or
    divides by a body that underflows to 0, and a result with a coefficient
    that is not finite raise GrassmannDomainError.
    """
    if X.parity not in ("even",):
        raise GrassmannDomainError("analytic functions act on even elements only")
    b = X.body
    if not _is_finite(b):
        raise GrassmannDomainError(f"{spec.kind} needs a finite body")
    if spec.kind in _NEEDS_NONZERO_BODY and _any_zero(b):
        raise GrassmannDomainError(f"{spec.kind} requires a nonzero body")
    if spec.kind == "power" and spec.exponent < 0 and _any_zero(b):
        raise GrassmannDomainError("negative power requires a nonzero body")

    def derivative(alpha: Tuple[int], z):
        k, = alpha
        try:
            if isinstance(z, np.ndarray):
                return np.array([spec.derivative(k, v) for v in z], dtype=complex)
            return spec.derivative(k, z)
        except (OverflowError, ZeroDivisionError) as exc:
            raise GrassmannDomainError(
                f"derivative {k} of {spec.kind} overflows at the body") from exc

    with _overflow_quietly(X):
        out = _taylor_sum(derivative, b, _taylor_terms((X,), X.L), X.L, X._cut)
    if not _is_finite(out):
        raise GrassmannDomainError(f"{spec.kind} overflows: a coefficient is not finite")
    return out


# ---------------------------------------------------------------------------
# generator-level calculus helpers
# ---------------------------------------------------------------------------

def gen_left_derivative(X: Supernumber, i: int) -> Supernumber:
    """Left derivative with respect to the single generator sigma_i.

    On an ascending monomial containing sigma_i the derivative removes it and
    picks up (-1)^(number of generators before position i).
    """
    if not (0 <= i < X.L):
        raise GrassmannError(f"generator index {i} out of range for L={X.L}")
    bit = 1 << i
    # m -> m ^ bit is one to one on the masks holding bit, so no term cancels
    return Supernumber(X.L, {m ^ bit: -c if (m & (bit - 1)).bit_count() & 1 else c
                             for m, c in X._terms.items() if m & bit}, _AS_IS)


def shift_generators(X: Supernumber, offset: int, L: int) -> Supernumber:
    """Relabel sigma_i -> sigma_{i+offset} inside an algebra of L generators."""
    return Supernumber(L, {m << offset: c for m, c in X._terms.items()})


def seed(even: Sequence[Supernumber], odd: Sequence[Supernumber], L: int, *,
         first_order: bool = False
         ) -> Tuple[Tuple[Supernumber, ...], Tuple[Supernumber, ...], List[int]]:
    """Put fresh generators above L on slot values: the place half of seeding.

    Even slot j gets the nilpotent pair sigma_{L+2j} sigma_{L+2j+1} and odd
    slot s the generator sigma_{L+2m+s}, m = len(even), in an algebra of
    L + 2m + n generators.  Returns the seeded even and odd values and, per
    slot, its fresh monomial as a mask relative to L.  In ``seed_parts`` of a
    function evaluated once at the seeded values, the part at a slot's mask is
    the derivative along that slot (the left derivative for an odd slot).

    Seeding: with ``first_order`` the seeded values carry the cut of this
    window (base L, width 2m + n, allowed fresh parts 0 and each slot mask),
    so products computed from them may drop every term whose fresh part is not
    allowed, the terms with two or more seeds among them (see "Seeding" in the
    module docstring).  The parts at 0 and at each slot mask come out the same
    bit for bit; the others may be missing.  The function evaluated there must
    not differentiate by a fresh generator or integrate over one.  Without it
    every monomial is kept, and each value keeps the cut, if any, of the value
    it was placed on.
    Each value is built once, with the terms and cut of ``v.embed(Lw) +
    fresh``; a value with more than L generators raises ``GrassmannError``.
    """
    m = len(even)
    Lw = L + 2 * m + len(odd)
    masks = [0b11 << 2 * j for j in range(m)] + [1 << 2 * m + s for s in range(len(odd))]
    cut = _Cut(L, (1 << (Lw - L)) - 1, frozenset([0, *masks])) if first_order else None
    values = (*even, *odd)
    if any(v.L > L for v in values):
        raise GrassmannError(f"a slot value has more generators than the base L={L}")
    lifted = [Supernumber(Lw, {**v._terms, mask << L: 1.0 + 0j}, _AS_IS, cut or v._cut)
              for v, mask in zip(values, masks)]
    return tuple(lifted[:m]), tuple(lifted[m:]), masks


def seed_parts(X: Supernumber, L: int) -> Dict[int, Supernumber]:
    """Split X by its generators at and above L: the read-back half of seeding.

    Returns {high: X_high} with X = sum_high sigma^(high << L) X_high and each
    X_high in the L-generator algebra.  Moving the fresh monomial left of the
    rest costs the sign (-1)^{|high| |low|}.

    Seeding: the parts keep a cut of X only when its window lies below L (a
    seeding the one read back here is nested in); the cut of the window read
    back here, or of one above it, is cleared.  When X was computed at
    first-order seeded values, only the parts at 0 and at each slot mask are
    complete.
    """
    cut = X._cut
    if cut is not None and cut.base + cut.window.bit_length() > L:
        cut = None
    parts: Dict[int, Dict[int, complex]] = {}
    below = (1 << L) - 1
    for mask, c in X._terms.items():
        high, low = mask >> L, mask & below
        if (high.bit_count() * low.bit_count()) & 1:
            c = -c
        parts.setdefault(high, {})[low] = c
    return {high: Supernumber(L, d, _AS_IS, cut) for high, d in parts.items()}


def rk4_step(field: Callable, t: float, y: Tuple[Supernumber, ...],
             h: float) -> Tuple[Supernumber, ...]:
    """One classic fourth-order Runge-Kutta step of dy/dt = field(t, y) for a
    tuple y of supernumbers; field returns a tuple of supernumbers of the same
    length, or ``GrassmannError`` is raised.  Each slot of a stage, a + c k,
    and of the step, a + (h/6) (((k1 + 2 k2) + 2 k3) + k4), is built once
    (``_combined``) with the bytes, L and cut of that expression, in one pass
    over the terms of each operand."""
    def shifted(c, *ks):
        if any(len(k) != len(y) for k in ks):
            raise GrassmannError(f"field must give {len(y)} slots, one per slot of y")
        return tuple(_combined(complex(c), *slot) for slot in zip(y, *ks))

    k1 = field(t, y)
    k2 = field(t + h / 2.0, shifted(h / 2.0, k1))
    k3 = field(t + h / 2.0, shifted(h / 2.0, k2))
    k4 = field(t + h, shifted(h, k3))
    return shifted(h / 6.0, k1, k2, k3, k4)


def _combined(c: complex, a: Supernumber, b: Supernumber, *more: Supernumber
              ) -> Supernumber:
    """a + c * b, or with more = (b2, b3, b4) a + c * (((b + 2 b2) + 2 b3) + b4),
    as one element: the scalings and sums of ``*`` and ``+`` in their order,
    with their zero drops, and the L and cut those would give: the largest L,
    and the first cut in the order a, b, more."""
    L, cut = a.L, a._cut
    for v in (b, *more):
        if v.L > L:
            L = v.L
        if cut is None:
            cut = v._cut
    total = b._terms
    if more:
        b2, b3, b4 = more
        total = dict(total)
        _add_into(total, b2._terms, 2.0 + 0j)
        _add_into(total, b3._terms, 2.0 + 0j)
        _add_into(total, b4._terms)
    out = dict(a._terms)
    _add_into(out, total, c)
    return Supernumber(L, out, _AS_IS, cut)


def chop(X: Supernumber, tol: float) -> Supernumber:
    """Drop coefficients with |c| <= tol, at every node for a batch (for long
    numerically-driven runs)."""
    return Supernumber(X.L, {m: c for m, c in X._terms.items() if _modulus(c) > tol}, _AS_IS)


# ---------------------------------------------------------------------------
# diagnostics and comparison
# ---------------------------------------------------------------------------

def _is_finite(X) -> bool:
    """True when every coefficient of X (a Supernumber, a ``_Dense`` or a
    number) is finite, at every node for a batch.  A batch array is read
    once: a finite sum of squares (``np.vdot``, a BLAS call that neither
    warns nor raises) proves each value finite, and only one that is not,
    as for values above 1e154, takes the test value by value."""
    if isinstance(X, _Dense):
        return bool(np.isfinite(X.v).all())
    coeffs = X._terms.values() if isinstance(X, Supernumber) else (X,)
    return all(cmath.isfinite(c) if type(c) is complex
               else cmath.isfinite(np.vdot(c, c)) or np.isfinite(c).all() for c in coeffs)


def _modulus(c) -> float:
    """|c|, the largest over the nodes of a batch."""
    return float(np.abs(c).max()) if isinstance(c, np.ndarray) else abs(c)


def max_abs(X: Supernumber) -> float:
    """Largest coefficient modulus, over all nodes for a batch."""
    if isinstance(X, _Dense):
        return float(np.abs(X.v).max())
    return max(map(_modulus, X._terms.values()), default=0.0)


def weighted_dist(X: Supernumber) -> float:
    """Diagnostic weighted norm sum_I 2^{-mask(I)} |X_I| / (1 + |X_I|).

    Only a diagnostic: every series in this package terminates, so no
    convergence decision is ever based on this value.  For a batch, |X_I| is
    the largest over the nodes.
    """
    total = 0.0
    for m, c in X._terms.items():
        a = _modulus(c)
        total += math.ldexp(a / (1.0 + a), -min(m, 1074))
    return total


def max_coeff_diff(X: Supernumber, Y: Supernumber) -> float:
    """Largest coefficient difference, over all nodes for a batch."""
    masks = set(X._terms) | set(Y._terms)
    return max(
        (_modulus(X._terms.get(m, 0j) - Y._terms.get(m, 0j)) for m in masks),
        default=0.0,
    )


def approx_eq(X: Supernumber, Y: Supernumber, tol: float = 1e-12) -> bool:
    return max_coeff_diff(X, Y) <= tol


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------

def to_json(X: Supernumber) -> str:
    """Serialize as {"L": int, "terms": [{"mask", "re", "im"}]} (masks ascending).

    Only what from_json reads back: finite coefficients, one node.
    """
    if any(isinstance(c, np.ndarray) for c in X._terms.values()):
        raise GrassmannError("a batch of nodes has no JSON form")
    if not _is_finite(X):
        raise GrassmannError("coefficients must be finite")
    terms = [
        {"mask": m, "re": X._terms[m].real, "im": X._terms[m].imag}
        for m in sorted(X._terms)
    ]
    return json.dumps({"L": X.L, "terms": terms})


def from_json(text: str) -> Supernumber:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GrassmannError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "L" not in doc or "terms" not in doc:
        raise GrassmannError('expected {"L": ..., "terms": [...]}')
    L = doc["L"]
    if not isinstance(L, int) or L < 0:
        raise GrassmannError("L must be a nonnegative integer")
    terms: Dict[int, complex] = {}
    prev = -1
    for item in doc["terms"]:
        if not isinstance(item, dict) or "mask" not in item:
            raise GrassmannError("each term needs a mask")
        m = item["mask"]
        if not isinstance(m, int) or m <= prev:
            raise GrassmannError("masks must be strictly increasing integers")
        prev = m
        re = float(item.get("re", 0.0))
        im = float(item.get("im", 0.0))
        if not (math.isfinite(re) and math.isfinite(im)):
            raise GrassmannError("coefficients must be finite")
        terms[m] = complex(re, im)
    return Supernumber(L, terms)
