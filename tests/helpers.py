"""Shared test oracles and strategies.

The multiplication oracle here is deliberately independent of the package
implementation: dense arrays indexed by subset mask, with the reordering sign
computed by explicitly insertion-sorting the concatenated generator index
lists (counting transpositions), not by the popcount-prefix formula.
"""

from __future__ import annotations

import math
import sys

import numpy as np
from hypothesis import strategies as st

from supercalc import grassmann
from supercalc.grassmann import Supernumber


def bits_of(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if (mask >> i) & 1]


def perm_sign_by_sort(seq) -> int:
    """Sign of the permutation sorting seq ascending (explicit swap count)."""
    seq = list(seq)
    sign = 1
    for i in range(1, len(seq)):
        j = i
        while j > 0 and seq[j - 1] > seq[j]:
            seq[j - 1], seq[j] = seq[j], seq[j - 1]
            sign = -sign
            j -= 1
    return sign


def dense_from(x: Supernumber) -> list[complex]:
    out = [0j] * (1 << x.L)
    for m, c in x.terms.items():
        out[m] = c
    return out


def dense_mul_oracle(a: list[complex], b: list[complex], L: int) -> list[complex]:
    """Dense subset-convolution product with explicitly sorted signs."""
    out = [0j] * (1 << L)
    for J in range(1 << L):
        cj = a[J]
        if cj == 0:
            continue
        for K in range(1 << L):
            ck = b[K]
            if ck == 0 or (J & K):
                continue
            sign = perm_sign_by_sort(bits_of(J) + bits_of(K))
            out[J | K] += sign * cj * ck
    return out


def identical(a: Supernumber, b: Supernumber) -> bool:
    """Same L, masks in the same order, equal coefficients of the same type."""
    return (a.L == b.L and list(a.terms) == list(b.terms)
            and [type(c) for c in a.terms.values()] == [type(c) for c in b.terms.values()]
            and a == b)


def same_bytes(a: Supernumber, b: Supernumber) -> bool:
    """Same L, masks in the same order, and coefficients of the same type
    with the same bytes (signed zeros, inf and NaN too)."""
    return (a.L == b.L and list(a._terms) == list(b._terms)
            and all(type(x) is type(y) and np.asarray(x).tobytes() == np.asarray(y).tobytes()
                    for x, y in zip(a._terms.values(), b._terms.values())))


def dense_max_diff(a: list[complex], b: list[complex]) -> float:
    return max(abs(x - y) for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# hypothesis strategies
# ---------------------------------------------------------------------------

_coeff = st.complex_numbers(
    min_magnitude=0.0, max_magnitude=4.0, allow_nan=False, allow_infinity=False
)


@st.composite
def supernumbers(draw, L: int | None = None, parity: str | None = None,
                 max_terms: int = 6, nonzero_body: bool = False):
    if L is None:
        L = draw(st.integers(min_value=2, max_value=6))
    masks = list(range(1 << L))
    if parity == "even":
        masks = [m for m in masks if m.bit_count() % 2 == 0]
    elif parity == "odd":
        masks = [m for m in masks if m.bit_count() % 2 == 1]
    chosen = draw(st.lists(st.sampled_from(masks), max_size=max_terms, unique=True))
    terms = {m: draw(_coeff) for m in chosen}
    if nonzero_body:
        terms[0] = draw(
            st.complex_numbers(
                min_magnitude=0.25,
                max_magnitude=4.0,
                allow_nan=False,
                allow_infinity=False,
            )
        )
    return Supernumber(L, terms)


def random_supernumber(rng, L, parity, max_extra_terms=2, body=None, scale=0.6):
    """Random element with homogeneous parity (numpy Generator driven)."""
    terms = {}
    masks = [m for m in range(1 << L)
             if (m.bit_count() % 2 == (0 if parity == "even" else 1)) and m != 0]
    if masks:
        count = int(rng.integers(0, max_extra_terms + 1))
        for m in rng.choice(masks, size=min(count, len(masks)), replace=False):
            terms[int(m)] = complex(rng.standard_normal(), rng.standard_normal()) * scale
    if parity == "even":
        if body is None:
            body = complex(rng.standard_normal(), rng.standard_normal())
        if body != 0:
            terms[0] = complex(body)
    return Supernumber(L, terms)


def random_supermatrix(rng, m, n, L, diag_shift=None, soul_scale=0.6):
    """Random even graded matrix; diag_shift makes diagonal bodies distinct."""
    from supercalc.superlinalg import Supermatrix

    N = m + n
    rows = []
    for i in range(N):
        row = []
        for j in range(N):
            block_even = (i < m) == (j < m)
            par = "even" if block_even else "odd"
            e = random_supernumber(rng, L, par, scale=soul_scale)
            if block_even and i == j and diag_shift is not None:
                e = e + (diag_shift * (i + 1) + 0.5j * (i + 1) ** 2)
            row.append(e)
        rows.append(row)
    return Supermatrix(m, n, rows, L)


def overflowed(part: str) -> Supernumber:
    """An even element with an inf body (part "body") or an inf soul
    coefficient (part "soul"), made by a product that overflows: the public
    constructors reject inf, but products do not check their results."""
    if part == "body":
        return Supernumber(2, {0: 1e300, 0b11: 1.0}) * Supernumber(2, {0: 1e300})
    return Supernumber(4, {0: 1.0, 0b0011: 1e200}) * Supernumber(4, {0: 1.0, 0b1100: 1e200})


def count_linalg_calls(monkeypatch, names=("det", "inv", "norm", "solve")) -> list:
    """A list that records the name of each call to the given numpy.linalg
    functions from now until the test ends."""
    calls = []
    for name in names:
        fn = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda *a, _fn=fn, _name=name, **k: calls.append(_name) or _fn(*a, **k))
    return calls


def count_dense_products(monkeypatch) -> list:
    """A list that grows by one at each call to the table kernel
    ``grassmann._dense_product``, at every supercalc module that holds it,
    from now until the test ends."""
    calls = []
    kernel = grassmann._dense_product
    counted = lambda *a, **k: calls.append(1) or kernel(*a, **k)  # noqa: E731
    for name, module in list(sys.modules.items()):
        if name.startswith("supercalc") and getattr(module, "_dense_product", None) is kernel:
            monkeypatch.setattr(module, "_dense_product", counted)
    return calls


def rel_err(a: float, b: float) -> float:
    denom = max(abs(a), abs(b), 1e-300)
    return abs(a - b) / denom


def close(a: complex, b: complex, tol: float = 1e-12) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def factorial(n: int) -> int:
    return math.factorial(n)
