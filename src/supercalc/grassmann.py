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

Conventions
-----------
* ``body(X)`` is the coefficient at the empty product (mask 0); ``soul(X)`` is
  the rest, and is nilpotent: ``soul(X)**(L+1) == 0``.
* Parity: a term is even/odd according to popcount(mask) mod 2.
* Conjugation reverses products: ``conjugate(X*Y) == conjugate(Y)*conjugate(X)``;
  on a single monomial it contributes the reversal sign (-1)^{k(k-1)/2} of a
  k-generator product, together with complex conjugation of the coefficient.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Sequence, Tuple

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


class Supernumber:
    """Immutable sparse element of the L-generator algebra.

    Do not mutate ``_terms`` after construction; all public operations return
    new instances.  Coefficients exactly equal to 0 (at every node, for a
    batch) are never stored.
    """

    __slots__ = ("L", "_terms")

    # numpy arrays and scalars on the left of + and * defer to __radd__ and
    # __rmul__ instead of broadcasting over this object
    __array_ufunc__ = None

    def __init__(self, L: int, terms: Mapping[int, complex] | None = None):
        if L < 0:
            raise GrassmannError("generator count L must be >= 0")
        self.L = int(L)
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
                        if np.count_nonzero(c):
                            clean[m] = c
                        continue
                    c = complex(c)
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
            return self, Supernumber(self.L, {0: complex(other)})
        return self, NotImplemented  # type: ignore[return-value]

    def embed(self, L: int) -> "Supernumber":
        """Reinterpret in an algebra with L >= self.L generators."""
        if L < self.L:
            for m in self._terms:
                if m >> L:
                    raise GrassmannError("cannot shrink below occupied generators")
        return Supernumber(L, self._terms)

    def __add__(self, other):
        a, b = self._promote(other)
        if b is NotImplemented:
            return NotImplemented
        out = dict(a._terms)
        for m, c in b._terms.items():
            out[m] = out[m] + c if m in out else c
        return Supernumber(a.L, out)

    __radd__ = __add__

    def __neg__(self):
        return Supernumber(self.L, {m: -c for m, c in self._terms.items()})

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
        acc: Dict[int, complex] = {}
        for mj, cj in a._terms.items():
            for mk, ck in b._terms.items():
                if mj & mk:
                    continue
                m = mj | mk
                v = cj * ck
                if _reorder_sign(mj, mk) > 0:
                    acc[m] = acc[m] + v if m in acc else v
                else:
                    acc[m] = acc[m] - v if m in acc else -v
        return Supernumber(a.L, acc)

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            c = complex(other)
        elif isinstance(other, np.ndarray):
            c = other
        else:
            return NotImplemented
        return Supernumber(self.L, {m: c * v for m, v in self._terms.items()})

    def __truediv__(self, other):
        if isinstance(other, (int, float, complex)):
            c = complex(other)
            return Supernumber(self.L, {m: v / c for m, v in self._terms.items()})
        if isinstance(other, Supernumber):
            return self * inverse(other)
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = one(self.L)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, (int, float, complex)):
            other = Supernumber(self.L, {0: complex(other)})
        if not isinstance(other, Supernumber):
            return NotImplemented
        return self._terms == other._terms

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
    return Supernumber(L, {})


def one(L: int) -> Supernumber:
    return Supernumber(L, {0: 1.0 + 0j})


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
        return x if L is None or x.L == L else x.embed(L)
    return Supernumber(L or 0, {0: complex(x)})


# ---------------------------------------------------------------------------
# spec-named operations
# ---------------------------------------------------------------------------

def body(X: Supernumber) -> complex:
    return X.body


def soul(X: Supernumber) -> Supernumber:
    return Supernumber(X.L, {m: c for m, c in X._terms.items() if m != 0})


def parity(X: Supernumber) -> str:
    return X.parity


def project(X: Supernumber, mask: int) -> complex:
    """Coefficient of sigma^mask."""
    return X.coefficient(mask)


def degree_filter(X: Supernumber, k: int) -> Supernumber:
    """Part of X whose monomials have exactly k generators."""
    return Supernumber(X.L, {m: c for m, c in X._terms.items() if m.bit_count() == k})


def _any_zero(b) -> bool:
    """True when the body b is 0, at any node for a batch."""
    if isinstance(b, np.ndarray):
        return not b.all()
    return b == 0


def inverse(X: Supernumber) -> Supernumber:
    """Multiplicative inverse; requires an invertible body.

    X = b(1 + b^{-1} s) with s nilpotent, so the finite geometric series
    b^{-1} sum_k (-b^{-1} s)^k terminates and is the exact two-sided inverse.
    """
    b = X.body
    if _any_zero(b):
        raise GrassmannDomainError("element with zero body has no inverse")
    s = soul(X)
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
        raise GrassmannDomainError("inverse overflows: the body is too small")
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
    return Supernumber(X.L, out)


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
    node at a time.
    """
    if X.parity not in ("even",):
        raise GrassmannDomainError("analytic functions act on even elements only")
    b = X.body
    if spec.kind in _NEEDS_NONZERO_BODY and _any_zero(b):
        raise GrassmannDomainError(f"{spec.kind} requires a nonzero body")
    if spec.kind == "power" and spec.exponent < 0 and _any_zero(b):
        raise GrassmannDomainError("negative power requires a nonzero body")

    def derivative(k: int):
        if isinstance(b, np.ndarray):
            return np.array([spec.derivative(k, z) for z in b], dtype=complex)
        return spec.derivative(k, b)

    s = soul(X)
    acc = scalar(X.L, derivative(0))
    power = one(X.L)
    fact = 1.0
    for k in range(1, X.L + 1):
        power = power * s
        if power.is_zero():
            break
        fact *= k
        acc = acc + (derivative(k) / fact) * power
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
    return Supernumber(X.L, out)


def shift_generators(X: Supernumber, offset: int, L: int) -> Supernumber:
    """Relabel sigma_i -> sigma_{i+offset} inside an algebra of L generators."""
    out: Dict[int, complex] = {}
    for m, c in X._terms.items():
        out[m << offset] = c
    return Supernumber(L, out)


def seed(even: Sequence[Supernumber], odd: Sequence[Supernumber],
         L: int) -> Tuple[Tuple[Supernumber, ...], Tuple[Supernumber, ...], List[int]]:
    """Put fresh generators above L on slot values: the place half of seeding.

    Even slot j gets the nilpotent pair sigma_{L+2j} sigma_{L+2j+1} and odd
    slot s the generator sigma_{L+2m+s}, m = len(even), in an algebra of
    L + 2m + n generators.  Returns the seeded even and odd values and, per
    slot, its fresh monomial as a mask relative to L.  In ``seed_parts`` of a
    function evaluated once at the seeded values, the part at a slot's mask is
    the derivative along that slot (the left derivative for an odd slot).
    """
    m = len(even)
    Lw = L + 2 * m + len(odd)
    masks = [0b11 << 2 * j for j in range(m)] + [1 << 2 * m + s for s in range(len(odd))]
    lifted = [v.embed(Lw) + Supernumber(Lw, {mask << L: 1.0})
              for v, mask in zip((*even, *odd), masks)]
    return tuple(lifted[:m]), tuple(lifted[m:]), masks


def seed_parts(X: Supernumber, L: int) -> Dict[int, Supernumber]:
    """Split X by its generators at and above L: the read-back half of seeding.

    Returns {high: X_high} with X = sum_high sigma^(high << L) X_high and each
    X_high in the L-generator algebra.  Moving the fresh monomial left of the
    rest costs the sign (-1)^{|high| |low|}.
    """
    parts: Dict[int, Dict[int, complex]] = {}
    below = (1 << L) - 1
    for mask, c in X._terms.items():
        high, low = mask >> L, mask & below
        if (high.bit_count() * low.bit_count()) & 1:
            c = -c
        parts.setdefault(high, {})[low] = c
    return {high: Supernumber(L, d) for high, d in parts.items()}


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
    """Drop coefficients with |c| <= tol (for long numerically-driven runs)."""
    return Supernumber(X.L, {m: c for m, c in X._terms.items() if abs(c) > tol})


# ---------------------------------------------------------------------------
# diagnostics and comparison
# ---------------------------------------------------------------------------

def _is_finite(X) -> bool:
    """True when every coefficient of X (a Supernumber or a number) is finite,
    at every node for a batch."""
    coeffs = X._terms.values() if isinstance(X, Supernumber) else (X,)
    return all(cmath.isfinite(c) if type(c) is complex else np.isfinite(c).all()
               for c in coeffs)


def max_abs(X: Supernumber) -> float:
    """Largest coefficient modulus, over all nodes for a batch."""
    return max(
        (float(np.abs(c).max()) if isinstance(c, np.ndarray) else abs(c)
         for c in X._terms.values()),
        default=0.0,
    )


def weighted_dist(X: Supernumber) -> float:
    """Diagnostic weighted norm sum_I 2^{-mask(I)} |X_I| / (1 + |X_I|).

    Only a diagnostic: every series in this package terminates, so no
    convergence decision is ever based on this value.
    """
    total = 0.0
    for m, c in X._terms.items():
        a = abs(c)
        total += math.ldexp(a / (1.0 + a), -min(m, 1074))
    return total


def max_coeff_diff(X: Supernumber, Y: Supernumber) -> float:
    masks = set(X._terms) | set(Y._terms)
    return max(
        (abs(X._terms.get(m, 0j) - Y._terms.get(m, 0j)) for m in masks),
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
