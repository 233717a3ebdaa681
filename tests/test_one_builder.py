"""grassmann is the one module that builds an element from a raw term dict,
and the one Taylor series serves every continuation."""

import importlib

import numpy as np
import pytest

from supercalc import berezin, grassmann as gr
from supercalc.grassmann import AnalyticSpec, Supernumber
from supercalc.superlinalg import det_even, mat_inverse_even, pfaffian
from supercalc.superspace import SuperFunction, SuperPoint, continue_body, expr_body

from helpers import random_supernumber


MODULES = ["grassmann", "superspace", "superlinalg", "berezin", "fourier_odd", "weyl_dynamics"]


@pytest.mark.parametrize("name", ["supercalc", *(f"supercalc.{m}" for m in MODULES)])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", MODULES[1:])
def test_only_grassmann_builds_elements_as_is(name):
    module = importlib.import_module(f"supercalc.{name}")
    assert not {"_AS_IS", "_nonzero", "_coefficient"} & set(vars(module))


@pytest.mark.parametrize("nodes", [None, 4])
def test_continue_body_and_apply_analytic_are_one_series(nodes):
    # exp's derivatives are cmath.exp in both, so the sums agree bit for bit
    b = 0.3 if nodes is None else np.linspace(-0.5, 0.5, nodes)
    X = Supernumber(6, {0: b, 0b11: 0.7, 0b1100: -1.1, 0b110000: 0.4, 0b1010: 2j})
    for name in ("exp", "sin", "cos"):
        one_variable = gr.apply_analytic(AnalyticSpec.named(name), X)
        series = continue_body(expr_body(f"{name}(q1)", 1), [X])
        assert list(one_variable._terms) == list(series._terms)
        for m, c in series._terms.items():
            assert np.array_equal(one_variable._terms[m], c)


def _unit_operands(monkeypatch):
    """Record every product one of whose operands is the constant 1 or a
    number +-1."""
    seen = []
    mul, rmul = Supernumber.__mul__, Supernumber.__rmul__

    def unit(v):
        if isinstance(v, Supernumber):
            return v == 1
        return isinstance(v, (int, float, complex)) and abs(v) == 1

    def wrapped_mul(self, other):
        if unit(self) or unit(other):
            seen.append((self, other))
        return mul(self, other)

    def wrapped_rmul(self, other):
        if unit(other):
            seen.append((other, self))
        return rmul(self, other)

    monkeypatch.setattr(Supernumber, "__mul__", wrapped_mul)
    monkeypatch.setattr(Supernumber, "__rmul__", wrapped_rmul)
    return seen


def test_series_and_products_start_from_their_first_term(monkeypatch):
    rng = np.random.default_rng(31)
    L = 6
    even = [random_supernumber(rng, L, parity="even") + 2.0 for _ in range(16)]
    thetas = [gr.gen(L, 0) + 0.5 * gr.gen(L, 3), gr.gen(L, 1) - gr.gen(L, 2)]
    xs = (Supernumber(L, {0: 1.3, 0b11: 0.4, 0b110000: 0.2}),
          Supernumber(L, {0: -0.6, 0b1100: 0.5, 0b11: 1j}))
    f = SuperFunction(2, 2, {0: expr_body("exp(q1) * q2", 2), 0b01: expr_body("q1", 2),
                             0b11: expr_body("sin(q2)", 2)})
    rows = [even[0:3], even[3:6], even[6:9]]
    anti = [[gr.zero(L), even[9], even[10], even[11]],
            [-even[9], gr.zero(L), even[12], even[13]],
            [-even[10], -even[12], gr.zero(L), even[14]],
            [-even[11], -even[13], -even[14], gr.zero(L)]]
    odd_poly = berezin.OddPolynomial(2, {0: even[0], 0b01: even[1], 0b11: even[2]})
    seen = _unit_operands(monkeypatch)
    gr.inverse(even[15])
    gr.apply_analytic(AnalyticSpec.named("exp"), even[15])
    continue_body(expr_body("q1 * exp(q2)", 2), even[:2])
    f.evaluate(SuperPoint(xs, tuple(thetas)))
    det_even(rows)
    mat_inverse_even(rows)
    pfaffian(anti)
    odd_poly.evaluate(thetas)
    berezin._measure_sign(3, (2, 1, 3))
    assert seen == []


def test_powers_eliminations_and_odd_integrals_start_from_their_first_factor(monkeypatch):
    rng = np.random.default_rng(37)
    L = 6
    even = [random_supernumber(rng, L, parity="even") + 2.0 for _ in range(26)]
    rows = [even[5 * i:5 * i + 5] for i in range(5)]
    top = berezin.OddPolynomial(2, {0b11: even[25]})
    seen = _unit_operands(monkeypatch)
    assert even[0] ** 0 == gr.one(L) and even[0] ** 1 is even[0]
    cube = even[0] ** 3
    det_even(rows)
    assert berezin.integrate_odd(top) is even[25]
    assert berezin.integrate_odd(top, order=(1, 2)) == -even[25]
    assert seen == []
    assert gr.max_coeff_diff(cube, even[0] * even[0] * even[0]) == 0.0
