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
  length-2^L vectors and takes all 3^L disjoint mask pairs (J, K) at once from
  a per-L table, built on first use and cached: x[J] * y[K] * sign, summed
  into J|K.  Its cost grows with 3^L, whatever the operands' density.
* The dict loop visits every pair of terms, skips the overlapping ones and
  adds the rest with their sort sign.  Its cost grows with the pair count
  len(X) * len(Y).

The kernel takes a product when L <= 12 and its pair count is at least 512
and at least 3^L / 4 (``_table_takes``); these are where the kernel and the
loop measured even.  Larger L never builds a table (it would hold 3^L pairs).
Products with a batch coefficient or a non-finite one take the dict loop.
``superlinalg._mat_mul`` calls the kernel itself for a block product whose
every entry product would take it, and sums each output entry's products as
vectors before it builds the element.

Construction
------------
Every element keeps three invariants: masks lie in [0, 2^L), coefficients
are exactly ``complex`` or 1-D complex arrays, and no coefficient is 0 (at
every node, for a batch).  Input from outside is validated:
``Supernumber(L, terms)``, ``make``, ``scalar``, ``gen`` and ``from_json``
check the masks, convert the coefficients, reject NaN and inf (at any node,
for a batch) with ``GrassmannError`` and drop zeros.  Results the package
computes from elements that already keep the invariants (sums, products,
negation, scaling, ``embed``, ``soul``, ``seed_parts`` and the like) take a
trusted branch of the constructor that only drops zeros, or stores the dict
as given when it cannot hold one; the ``Supernumber`` docstring lists which
operation takes which.

One algebra
-----------
An operation on several values first brings them into one algebra, the
smallest that holds them all: ``_in_one_algebra`` takes groups of numbers
and elements (a matrix row, the slots of a phase point), makes each number a
constant and embeds each element there.  ``embed`` to an element's own L is
the element itself, so a value already in place costs no copy.  ``+`` and
``*`` promote an operand with fewer generators the same way, so no operation
embeds a value only to pass it to a sum or a product.

Overflow
--------
Sums and products do not check their results, since they are the hot path:
``Supernumber(2, {0: 1e300, 3: 1}) * Supernumber(2, {0: 1e300})`` has an inf
body, and inf - inf is NaN.  Such a value is caught at the exits instead:
``inverse``, ``/``, ``apply_analytic`` and ``superlinalg``'s ``det_even``,
``mat_inverse_even``, ``sdet`` and ``pfaffian`` return finite coefficients or
raise ``GrassmannDomainError``, ``to_json`` raises ``GrassmannError`` and the
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
slot.  A caller that reads first derivatives only (``seed(...,
first_order=True)``) never needs a term whose fresh part is not one slot
mask, and every product spends most of its pairs on such terms.  So a
first-order seeding attaches a cut to the seeded values: the window of the
seeding (its base L and its width) and the fresh parts it allows, 0 and each
slot mask.  The dict-loop product skips a pair whose union has a fresh part
``(mask >> base) & window`` that is not allowed.  The test reads the window
only, so the generators of a seeding nested above it are never dropped by the
outer cut.  Every result computed from a value with a cut carries it on: ``+``,
``-``, negation, number or array times element, ``/`` by a number, ``embed``,
``soul``, ``superspace``'s Taylor continuation, and through their products
``inverse`` and ``apply_analytic``.  When both operands carry different cuts
either one is kept, since each is valid alone.  ``seed_parts`` clears the cut
of the window it reads back.

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
    "project",
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


def _reorder_sign(mj: int, mk: int) -> int:
    """Sign of sorting the concatenation sigma^J . sigma^K into ascending order.

    J and K are disjoint bitmasks.  The sign is (-1)^t where t counts pairs
    (j in J, k in K) with j > k, i.e. the number of transpositions needed to
    interleave the two ascending blocks.
    """
    count = 0
    kk = mk
    while kk:
        low = kk & -kk
        count += (mj >> low.bit_length()).bit_count()
        kk ^= low
    return -1 if (count & 1) else 1


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
    uint16 (L <= _TABLE_MAX_L) and read-only.
    """
    J = K = np.zeros(1, dtype=np.uint16)
    for i in range(L):
        bit = np.uint16(1 << i)
        J, K = np.concatenate([J, J | bit, J]), np.concatenate([K, K, K | bit])
    negative = np.zeros(J.size, dtype=np.uint16)
    for i in range(L):
        negative ^= (K >> i) & np.bitwise_count(J >> (i + 1)) & 1
    order = np.argsort(negative, kind="stable")
    J, K = J[order], K[order]
    bins = np.repeat(2 * (J | K), 2)
    bins[1::2] += 1
    for a in (J, K, bins):
        a.flags.writeable = False
    return J, K, bins, J.size - int(np.count_nonzero(negative))


def _dense_coefficients(X: Supernumber) -> np.ndarray | None:
    """X as a length-2^L vector, or None when a coefficient is a batch or not
    finite (inf times an absent 0 would put NaN where the dict loop puts nothing)."""
    values = X._terms.values()
    if not {complex}.issuperset(map(type, values)):
        return None
    n = len(values)
    out = np.zeros(1 << X.L, dtype=complex)
    out[np.fromiter(X._terms, dtype=np.intp, count=n)] = np.fromiter(values, dtype=complex, count=n)
    return out if np.isfinite(out).all() else None


def _dense_product(x: np.ndarray, y: np.ndarray, L: int) -> np.ndarray:
    """The product of two length-2^L coefficient vectors, as one: x[J] y[K]
    times the sort sign, summed into J|K over the pair table.  Overflow gives
    inf (and inf - inf NaN), quietly, as in the dict loop."""
    J, K, bins, positive = _pair_table(L)
    with np.errstate(over="ignore", invalid="ignore"):
        t = np.take(x, J)
        t *= np.take(y, K)
        np.negative(t[positive:], out=t[positive:])
        return np.bincount(bins, weights=t.view(np.float64), minlength=2 << L).view(complex)


def _from_dense(v: np.ndarray, L: int) -> Supernumber:
    """The element whose length-2^L coefficient vector is v, zeros dropped."""
    nonzero = np.flatnonzero(v)
    return Supernumber(L, dict(zip(nonzero.tolist(), v[nonzero].tolist())), _AS_IS)


def _table_product(a: Supernumber, b: Supernumber) -> Supernumber | None:
    """a * b (same L) over the pair table.  None when an operand cannot be
    written as one dense vector."""
    x = _dense_coefficients(a)
    y = None if x is None else _dense_coefficients(b)
    if y is None:
        return None
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


# The private third argument of Supernumber(L, terms, trust): how far terms
# computed inside the package are taken as given (see the class docstring).
_VALIDATE = 0
_DROP_ZEROS = 1
_AS_IS = 2


class Supernumber:
    """Immutable sparse element of the L-generator algebra.

    Do not mutate ``_terms`` after construction; all public operations return
    new instances.  Every stored element keeps three invariants: each mask is
    in [0, 2^L); each coefficient is exactly ``complex`` or a complex
    ``ndarray`` (a batch); no coefficient is 0 (at every node, for a batch).

    ``Supernumber(L, terms)`` validates its input: it checks each mask's range,
    converts each coefficient to ``complex`` (an array to a complex array),
    raises ``GrassmannError`` on a NaN or inf coefficient (on any node of a
    batch) and drops zeros.  So do ``make``, ``scalar``, ``gen`` and
    ``from_json``, which build through it.

    Results the package computes itself from elements that already keep the
    invariants pass a private third argument and skip the checks:

    * ``_DROP_ZEROS`` keeps every mask and coefficient as given and drops only
      the zeros (a batch only when it is 0 at every node): ``+``, ``-`` between
      elements, the dict-loop product, the product with a body-only factor, a
      number or array times an element, division by a number, a number
      promoted to a constant, and ``gen_left_derivative``;
    * ``_AS_IS`` stores the dict itself, which must already be clean: ``-X``,
      ``embed`` to another L, the table-kernel product and each entry of a
      dense block product (both through ``_from_dense``), ``zero``, ``one``,
      ``soul``, ``degree_filter``, ``conjugate``, ``chop``, ``seed`` and
      ``seed_parts``.

    The caller of either branch guarantees the masks are in range and the
    coefficients are exactly ``complex`` or complex arrays: a ``np.complex128``
    stored here would send later products back to the dict loop (see
    ``_dense_coefficients``).  Arithmetic on clean coefficients stays clean
    (complex op complex is complex; complex op complex array is a complex
    array); a value from numpy, such as ``np.dot``, is converted first.

    A trusted branch also takes a private fourth argument, the ``_cut`` of a
    first-order seeding the result carries (see "Seeding" in the module
    docstring); a validated element has none.
    """

    __slots__ = ("L", "_terms", "_cut")

    # numpy arrays and scalars on the left of + and * defer to __radd__ and
    # __rmul__ instead of broadcasting over this object
    __array_ufunc__ = None

    def __init__(self, L: int, terms: Mapping[int, complex] | None = None,
                 _trust: int = _VALIDATE, _cut: _Cut | None = None):
        if _trust:
            self.L = L
            self._cut = _cut
            if _trust == _AS_IS:
                self._terms = terms
            else:
                self._terms = {m: c for m, c in terms.items()
                               if (c != 0 if type(c) is complex else np.count_nonzero(c))}
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
                    if isinstance(c, np.ndarray):
                        c = np.asarray(c, dtype=complex)
                        if not np.isfinite(c).all():
                            raise GrassmannError(
                                f"coefficient of mask {m} is not finite at some node"
                            )
                        if np.count_nonzero(c):
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
            return self, Supernumber(self.L, {0: complex(other)}, _DROP_ZEROS)
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
        a, b = self._promote(other)
        if b is NotImplemented:
            return NotImplemented
        out = dict(a._terms)
        for m, c in b._terms.items():
            out[m] = out[m] + c if m in out else c
        return Supernumber(a.L, out, _DROP_ZEROS, a._cut or b._cut)

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
            c = x[0]
            return Supernumber(a.L, {m: c * v for m, v in y.items()}, _DROP_ZEROS, cut)
        if len(y) == 1 and 0 in y:
            c = y[0]
            return Supernumber(a.L, {m: v * c for m, v in x.items()}, _DROP_ZEROS, cut)
        if _table_takes(len(x) * len(y), a.L):
            out = _table_product(a, b)
            if out is not None:
                return out if cut is None else Supernumber(a.L, out._terms, _AS_IS, cut)
        acc: Dict[int, complex] = {}
        if cut is not None:
            base, window, allowed = cut
            fresh = window << base
            kept = [(mk, ck) for mk, ck in y.items() if (mk & fresh) >> base in allowed]
        for mj, cj in x.items():
            # block: the bits a partner of mj must not have
            block, partners = mj, y.items()
            if cut is not None:
                # the pair's fresh part must be allowed: 0 or one slot mask
                fj = (mj & fresh) >> base
                if not fj:
                    partners = kept
                elif fj in allowed:
                    block = mj | fresh  # slot masks are disjoint: no other fresh bit
                else:
                    continue  # two or more slot masks, and so every union with it
            for mk, ck in partners:
                if block & mk:
                    continue
                m = mj | mk
                v = cj * ck
                if _reorder_sign(mj, mk) > 0:
                    acc[m] = acc[m] + v if m in acc else v
                else:
                    acc[m] = acc[m] - v if m in acc else -v
        return Supernumber(a.L, acc, _DROP_ZEROS, cut)

    def __rmul__(self, other):
        # numbers inline: this is a hot path, and a call costs more than the test
        c = complex(other) if isinstance(other, (int, float, complex)) else _coefficient(other)
        if c is None:
            return NotImplemented
        return Supernumber(self.L, {m: c * v for m, v in self._terms.items()}, _DROP_ZEROS,
                           self._cut)

    def __truediv__(self, other):
        if isinstance(other, (int, float, complex)):
            c = complex(other)
            if c == 0:
                raise GrassmannDomainError("division by zero")
            with _overflow_quietly(self):
                out = Supernumber(self.L, {m: v / c for m, v in self._terms.items()},
                                  _DROP_ZEROS, self._cut)
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
        out = one(self.L)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, (int, float, complex)):
            other = Supernumber(self.L, {0: complex(other)}, _DROP_ZEROS)
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
    becomes a constant."""
    if isinstance(x, Supernumber):
        return x if L is None else x.embed(L)
    return Supernumber(_generator_count(L or 0), {0: complex(x)}, _DROP_ZEROS)


def _in_one_algebra(*groups: Iterable, L: int = 0
                    ) -> Tuple[Tuple[Tuple[Supernumber, ...], ...], int]:
    """Each group (an iterable of numbers and elements, such as a matrix row)
    as a tuple of elements of one algebra, the smallest with at least L
    generators that holds them all, and that algebra's generator count.  A
    number becomes a constant; an element already there is itself."""
    groups = [tuple(g) for g in groups]
    L = max([L, *(v.L for g in groups for v in g if isinstance(v, Supernumber))])
    return tuple(tuple(_as_super(v, L) for v in g) for g in groups), L


# ---------------------------------------------------------------------------
# spec-named operations
# ---------------------------------------------------------------------------

def body(X: Supernumber) -> complex:
    return X.body


def soul(X: Supernumber) -> Supernumber:
    return Supernumber(X.L, {m: c for m, c in X._terms.items() if m != 0}, _AS_IS, X._cut)


def parity(X: Supernumber) -> str:
    return X.parity


def project(X: Supernumber, mask: int) -> complex:
    """Coefficient of sigma^mask."""
    return X.coefficient(mask)


def degree_filter(X: Supernumber, k: int) -> Supernumber:
    """Part of X whose monomials have exactly k generators."""
    return Supernumber(X.L, {m: c for m, c in X._terms.items() if m.bit_count() == k}, _AS_IS)


def _overflow_quietly(*values: Supernumber):
    """A context in which arithmetic on a batch coefficient of the values
    overflows to inf (or NaN) without numpy's warning, so that the finite
    check after it raises GrassmannDomainError; a no-op when no value holds a
    batch."""
    if all(type(c) is complex for X in values for c in X._terms.values()):
        return contextlib.nullcontext()
    return np.errstate(over="ignore", invalid="ignore")


def _any_zero(b) -> bool:
    """True when the body b is 0, at any node for a batch."""
    if isinstance(b, np.ndarray):
        return not b.all()
    return b == 0


def inverse(X: Supernumber) -> Supernumber:
    """Multiplicative inverse; requires an invertible body.

    X = b(1 + b^{-1} s) with s nilpotent, so the finite geometric series
    b^{-1} sum_k (-b^{-1} s)^k terminates and is the exact two-sided inverse.
    A body that is not finite raises GrassmannDomainError (1/inf would give 0),
    and so does a result that is not.
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
        power = one(X.L)
        for _ in range(X.L):
            power = power * s
            if power.is_zero():
                break
            power = -binv * power
            acc = acc + power
        out = binv * acc
    if not _is_finite(out):
        raise GrassmannDomainError("inverse overflows: a coefficient is not finite")
    return out


def conjugate(X: Supernumber) -> Supernumber:
    """Conjugation: complex-conjugate coefficients and reverse each monomial.

    Reversing a k-generator monomial contributes (-1)^{k(k-1)/2}; the map is an
    involution and an anti-homomorphism.
    """
    out: Dict[int, complex] = {}
    for m, c in X._terms.items():
        k = m.bit_count()
        sgn = -1 if (k * (k - 1) // 2) & 1 else 1
        out[m] = sgn * c.conjugate()
    return Supernumber(X.L, out, _AS_IS)


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
    r = k % 4
    if r == 0:
        return cmath.sin(z)
    if r == 1:
        return cmath.cos(z)
    if r == 2:
        return -cmath.sin(z)
    return -cmath.cos(z)


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


def apply_analytic(spec: AnalyticSpec, X: Supernumber) -> Supernumber:
    """Evaluate a scalar analytic function on an even element.

    Uses the finite Taylor expansion around the body,
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

    def derivative(k: int):
        try:
            if isinstance(b, np.ndarray):
                return np.array([spec.derivative(k, z) for z in b], dtype=complex)
            return spec.derivative(k, b)
        except (OverflowError, ZeroDivisionError) as exc:
            raise GrassmannDomainError(
                f"derivative {k} of {spec.kind} overflows at the body") from exc

    s = soul(X)
    acc = scalar(X.L, derivative(0))
    power = one(X.L)
    fact = 1.0
    with _overflow_quietly(X):
        for k in range(1, X.L + 1):
            power = power * s
            if power.is_zero():
                break
            fact *= k
            acc = acc + (derivative(k) / fact) * power
    if not _is_finite(acc):
        raise GrassmannDomainError(f"{spec.kind} overflows: a coefficient is not finite")
    return acc


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
    out: Dict[int, complex] = {}
    for m, c in X._terms.items():
        if not (m & bit):
            continue
        below = (m & (bit - 1)).bit_count()
        out[m ^ bit] = out.get(m ^ bit, 0j) + (-c if below & 1 else c)
    return Supernumber(X.L, out, _DROP_ZEROS)


def shift_generators(X: Supernumber, offset: int, L: int) -> Supernumber:
    """Relabel sigma_i -> sigma_{i+offset} inside an algebra of L generators."""
    out: Dict[int, complex] = {}
    for m, c in X._terms.items():
        out[m << offset] = c
    return Supernumber(L, out)


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
    """
    m = len(even)
    Lw = L + 2 * m + len(odd)
    masks = [0b11 << 2 * j for j in range(m)] + [1 << 2 * m + s for s in range(len(odd))]
    lifted = [v.embed(Lw) + Supernumber(Lw, {mask << L: 1.0 + 0j}, _AS_IS)
              for v, mask in zip((*even, *odd), masks)]
    if first_order:
        cut = _Cut(L, (1 << (Lw - L)) - 1, frozenset([0, *masks]))
        lifted = [Supernumber(Lw, v._terms, _AS_IS, cut) for v in lifted]
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
    tuple y of supernumbers; field returns a tuple of the same length."""
    def shifted(k, c):
        return tuple(a + c * b for a, b in zip(y, k))

    k1 = field(t, y)
    k2 = field(t + h / 2.0, shifted(k1, h / 2.0))
    k3 = field(t + h / 2.0, shifted(k2, h / 2.0))
    k4 = field(t + h, shifted(k3, h))
    return tuple(a + (h / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                 for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4))


def chop(X: Supernumber, tol: float) -> Supernumber:
    """Drop coefficients with |c| <= tol, at every node for a batch (for long
    numerically-driven runs)."""
    return Supernumber(X.L, {m: c for m, c in X._terms.items() if _modulus(c) > tol}, _AS_IS)


# ---------------------------------------------------------------------------
# diagnostics and comparison
# ---------------------------------------------------------------------------

def _is_finite(X) -> bool:
    """True when every coefficient of X (a Supernumber or a number) is finite,
    at every node for a batch."""
    coeffs = X._terms.values() if isinstance(X, Supernumber) else (X,)
    return all(cmath.isfinite(c) if type(c) is complex else np.isfinite(c).all()
               for c in coeffs)


def _modulus(c) -> float:
    """|c|, the largest over the nodes of a batch."""
    return float(np.abs(c).max()) if isinstance(c, np.ndarray) else abs(c)


def max_abs(X: Supernumber) -> float:
    """Largest coefficient modulus, over all nodes for a batch."""
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
