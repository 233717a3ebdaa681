"""Fourier transforms in odd variables and on the Gaussian-polynomial class.

The forward odd transform of v(theta_1..theta_n) is

    normalization * integral d^n(theta) exp(-i <theta|pi> / scale) v(theta),

with <theta|pi> = sum_j theta_j pi_j, evaluated exactly by expanding the
nilpotent kernel and taking the top-coefficient odd integral (default
descending measure).  The inverse transform flips the kernel sign and
integrates over the momentum-like variables, keeping theta in the first
pairing slot.  The default normalization scale^{n/2} * phase(n), with
phase(n) an eighth root of unity, makes the two transforms exact mutual
inverses for every nonzero complex scale, and unitary for the sesquilinear
coefficient pairing when the scale is 1.

A second convention ("real-kernel": no imaginary unit in the exponent,
sign-only phase) is provided as a documented switch; only the default
convention carries inversion and unitarity guarantees here.

The mixed transform acts on functions sum_a theta^a u_a(x) whose body
coefficients lie in the closed class polynomial * centered Gaussian; each
coefficient transforms by a closed-form shifted-moment rule and each bare
odd monomial by the odd transform (whose image is again a single monomial),
so the result factorizes and stays inside the class.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

from .berezin import OddPolynomial, _double_factorial, integrate_odd, odd_expand
from .grassmann import (
    AnalyticSpec,
    GrassmannError,
    Supernumber,
    apply_analytic,
    conjugate,
    zero,
)
from .superspace import BodyFunction, SuperFunction

__all__ = [
    "OddFourierConfig",
    "fo",
    "fo_bar",
    "odd_delta",
    "odd_pairing",
    "GaussPolyBody",
    "even_gauss_transform",
    "mixed_transform",
    "mixed_transform_bar",
]

_EXP = AnalyticSpec.named("exp")

_CONVENTIONS = ("standard", "real-kernel")


@dataclass(frozen=True)
class OddFourierConfig:
    """Shape and scale of the odd Fourier pair.

    n is the number of anticommuting variables; kernel_scale the nonzero
    complex scale in the kernel exp(-i <theta|pi> / kernel_scale).  The
    "standard" convention uses the eighth-root-of-unity phase that makes the
    forward/backward pair exactly inverse to each other; "real-kernel" drops
    the imaginary unit from the exponent and uses a sign-only phase.
    """

    n: int
    kernel_scale: complex = 1.0
    convention: str = "standard"

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 0:
            raise GrassmannError("variable count must be a nonnegative integer")
        if complex(self.kernel_scale) == 0:
            raise GrassmannError("kernel scale must be nonzero")
        if self.convention not in _CONVENTIONS:
            raise GrassmannError(f"unknown convention {self.convention!r}")

    @property
    def phase(self) -> complex:
        """Normalization phase (an eighth root of unity in either convention)."""
        n = self.n
        if self.convention == "standard":
            return cmath.exp(-0.25j * math.pi * n * (n - 2))
        return cmath.exp(0.5j * math.pi * n * (n - 1))

    @property
    def normalization(self) -> complex:
        """Overall prefactor kernel_scale^{n/2} (principal branch) * phase."""
        return complex(self.kernel_scale) ** (0.5 * self.n) * self.phase

    def _exponent_factor(self, inverse: bool) -> complex:
        unit = 1j if self.convention == "standard" else 1.0
        return (unit if inverse else -unit) / complex(self.kernel_scale)


def fo(v: OddPolynomial, cfg: OddFourierConfig) -> OddPolynomial:
    """Forward odd transform: normalization * integral of kernel * v.

    The integration variables fill the first pairing slot; the result is the
    polynomial in the target variables, with ambient coefficients passed
    through untouched.
    """
    return _odd_transform(v, cfg, inverse=False)


def fo_bar(w: OddPolynomial, cfg: OddFourierConfig) -> OddPolynomial:
    """Backward odd transform (kernel sign flipped, target slot first).

    Exact two-sided inverse of fo under the "standard" convention.
    """
    return _odd_transform(w, cfg, inverse=True)


def _odd_transform(v: OddPolynomial, cfg: OddFourierConfig,
                   inverse: bool) -> OddPolynomial:
    if not isinstance(v, OddPolynomial):
        raise GrassmannError("odd transform expects an OddPolynomial")
    if v.n != cfg.n:
        raise GrassmannError(
            f"input has {v.n} odd variables, config expects {cfg.n}")
    n, La = cfg.n, v.L
    factor = cfg._exponent_factor(inverse)
    L1 = La + n

    def in_target(tgt: Tuple[Supernumber, ...]) -> Supernumber:
        def integrand(src: Tuple[Supernumber, ...]) -> Supernumber:
            L2 = L1 + n
            pairing = zero(L2)
            for j in range(n):
                t, s = tgt[j], src[j]
                pairing = pairing + ((t * s) if inverse else (s * t))
            kern = apply_analytic(_EXP, pairing * factor)
            return kern * v.evaluate(src)

        return integrate_odd(odd_expand(integrand, n, L1))

    out = odd_expand(in_target, n, La)
    scale = cfg.normalization
    return OddPolynomial(n, {a: scale * c for a, c in out.coefficients.items()},
                         L=La)


def odd_delta(n: int, L: int = 0) -> OddPolynomial:
    """Top monomial theta_1...theta_n, the unit point mass of odd integration."""
    return OddPolynomial(n, {(1 << n) - 1: 1.0}, L=L)


def odd_pairing(v: OddPolynomial, w: OddPolynomial) -> Supernumber:
    """Sesquilinear coefficient pairing sum_a conj(v_a) * w_a."""
    if not isinstance(v, OddPolynomial) or not isinstance(w, OddPolynomial):
        raise GrassmannError("pairing expects OddPolynomial operands")
    if v.n != w.n:
        raise GrassmannError("pairing operands must share the variable count")
    acc = zero(max(v.L, w.L))
    for a, c in v.coefficients.items():
        d = w.coefficients.get(a)
        if d is not None:
            acc = acc + conjugate(c) * d
    return acc


# ---------------------------------------------------------------------------
# Gaussian-polynomial body class and its closed-form even transform
# ---------------------------------------------------------------------------

def _check_hbar(hbar: float) -> float:
    h = complex(hbar)
    if h.imag != 0 or h.real <= 0:
        raise GrassmannError("hbar must be real and positive")
    return h.real


class GaussPolyBody(BodyFunction):
    """Body function P(q) * exp(-decay * |q|^2 / 2) with polynomial P.

    ``poly`` maps exponent tuples (one entry per body variable) to complex
    coefficients.  The class is closed under differentiation and under the
    oscillatory even transform, which is what the mixed Fourier transform
    relies on.
    """

    def __init__(self, m: int, decay: float,
                 poly: Mapping[Tuple[int, ...], complex]):
        if not isinstance(m, int) or m < 1:
            raise GrassmannError("need at least one body variable")
        d = complex(decay)
        if d.imag != 0 or d.real <= 0:
            raise GrassmannError("Gaussian decay rate must be real and positive")
        self.m = m
        self.decay = d.real
        clean: Dict[Tuple[int, ...], complex] = {}
        for key, c in poly.items():
            k = tuple(int(e) for e in key)
            if len(k) != m or any(e < 0 for e in k):
                raise GrassmannError(f"bad monomial exponents {key!r}")
            cc = complex(c)
            if cc != 0:
                clean[k] = clean.get(k, 0j) + cc
        self.poly = clean

    def value(self, q) -> complex:
        qq = [complex(x) for x in q]
        if len(qq) != self.m:
            raise GrassmannError(f"expected {self.m} body arguments")
        p = 0j
        for k, c in self.poly.items():
            term = c
            for x, e in zip(qq, k):
                term *= x ** e
            p += term
        return p * cmath.exp(-0.5 * self.decay * sum(x * x for x in qq))

    def deriv_value(self, alpha: Tuple[int, ...], q) -> complex:
        f: GaussPolyBody = self
        for j, k in enumerate(alpha):
            for _ in range(int(k)):
                f = f.diff(j)
        return f.value(q)

    def diff(self, j: int) -> "GaussPolyBody":
        if not (0 <= j < self.m):
            raise GrassmannError(f"variable index {j} out of range")
        out: Dict[Tuple[int, ...], complex] = {}
        for k, c in self.poly.items():
            if k[j] > 0:
                down = k[:j] + (k[j] - 1,) + k[j + 1:]
                out[down] = out.get(down, 0j) + c * k[j]
            up = k[:j] + (k[j] + 1,) + k[j + 1:]
            out[up] = out.get(up, 0j) - c * self.decay
        return GaussPolyBody(self.m, self.decay, out)

    def scaled(self, c: complex) -> "GaussPolyBody":
        return GaussPolyBody(self.m, self.decay,
                             {k: complex(c) * v for k, v in self.poly.items()})


def even_gauss_transform(body: GaussPolyBody, hbar: float = 1.0,
                         inverse: bool = False) -> GaussPolyBody:
    """Closed-form oscillatory transform of P(q) exp(-g |q|^2 / 2).

    Forward kernel (2 pi hbar)^{-m/2} exp(-i <q|target> / hbar); ``inverse``
    flips the kernel sign.  Each monomial q^k turns into a polynomial of the
    same degree over the Gaussian exp(-|target|^2 / (2 g hbar^2)) via the
    shifted even-moment expansion, so the class is preserved and the two
    directions compose to the identity.
    """
    if not isinstance(body, GaussPolyBody):
        raise GrassmannError("even transform needs a Gaussian-polynomial body")
    h = _check_hbar(hbar)
    g = body.decay
    s = (1j if inverse else -1j) / (h * g)
    pref = (g * h) ** (-0.5 * body.m)
    out: Dict[Tuple[int, ...], complex] = {}
    for mono, c in body.poly.items():
        axes = []
        for kj in mono:
            terms = []
            for j in range(0, kj + 1, 2):
                terms.append((kj - j,
                              math.comb(kj, j) * _double_factorial(j - 1)
                              * g ** (-0.5 * j) * s ** (kj - j)))
            axes.append(terms)
        for combo in itertools.product(*axes):
            key = tuple(p for p, _ in combo)
            w = c * pref
            for _, f in combo:
                w *= f
            out[key] = out.get(key, 0j) + w
    return GaussPolyBody(body.m, 1.0 / (g * h * h), out)


# ---------------------------------------------------------------------------
# mixed transform on the Gaussian-polynomial class
# ---------------------------------------------------------------------------

def _monomial_image(mask: int, cfg: OddFourierConfig,
                    inverse: bool) -> Dict[int, complex]:
    """Odd transform of the bare monomial theta^mask, as scalar coefficients."""
    probe = OddPolynomial(cfg.n, {mask: 1.0})
    img = _odd_transform(probe, cfg, inverse)
    return {b: c.coefficient(0) for b, c in img.coefficients.items()}


def _add_same_class(f: GaussPolyBody, g: GaussPolyBody) -> GaussPolyBody:
    if abs(f.decay - g.decay) > 1e-12 * max(1.0, abs(f.decay)):
        raise GrassmannError(
            "cannot combine Gaussian bodies with different decay rates")
    poly = dict(f.poly)
    for k, c in g.poly.items():
        poly[k] = poly.get(k, 0j) + c
    return GaussPolyBody(f.m, f.decay, poly)


def _mixed(u: SuperFunction, cfg: OddFourierConfig, hbar: float,
           inverse: bool) -> SuperFunction:
    if not isinstance(u, SuperFunction):
        raise GrassmannError("mixed transform expects a SuperFunction")
    if u.n != cfg.n:
        raise GrassmannError(
            f"input has {u.n} odd variables, config expects {cfg.n}")
    out: Dict[int, GaussPolyBody] = {}
    for a, bf in u.coefficients.items():
        if not isinstance(bf, GaussPolyBody):
            raise GrassmannError(
                "body coefficient outside the polynomial-times-Gaussian class")
        tb = even_gauss_transform(bf, hbar, inverse)
        for b, c in _monomial_image(a, cfg, inverse).items():
            piece = tb.scaled(c)
            prev = out.get(b)
            out[b] = piece if prev is None else _add_same_class(prev, piece)
    return SuperFunction(u.m, u.n, out)


def mixed_transform(u: SuperFunction, cfg: OddFourierConfig,
                    hbar: float = 1.0) -> SuperFunction:
    """Factorized Fourier transform of sum_a theta^a u_a(x).

    Every body coefficient must be a GaussPolyBody; it transforms through
    even_gauss_transform while the bare monomial theta^a transforms through
    fo, whose image is a single monomial in the target odd variables.  The
    result is the sum of (odd image) * (transformed coefficient), again a
    SuperFunction over the Gaussian-polynomial class.
    """
    return _mixed(u, cfg, hbar, inverse=False)


def mixed_transform_bar(v: SuperFunction, cfg: OddFourierConfig,
                        hbar: float = 1.0) -> SuperFunction:
    """Backward mixed transform; exact inverse of mixed_transform on the class."""
    return _mixed(v, cfg, hbar, inverse=True)
