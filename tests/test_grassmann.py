"""Core algebra: products, inverses, conjugation, analytic continuation, JSON."""

import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supercalc import grassmann as gr
from supercalc.grassmann import (
    AnalyticSpec,
    GrassmannDomainError,
    GrassmannError,
    Supernumber,
)

from helpers import (
    dense_from,
    dense_max_diff,
    dense_mul_oracle,
    identical,
    overflowed,
    supernumbers,
)


# ---------------------------------------------------------------------------
# product vs independent dense oracle
# ---------------------------------------------------------------------------

@settings(max_examples=150)
@given(st.data())
def test_mul_matches_dense_oracle(data):
    L = data.draw(st.integers(min_value=1, max_value=6))
    x = data.draw(supernumbers(L=L))
    y = data.draw(supernumbers(L=L))
    got = dense_from(x * y)
    want = dense_mul_oracle(dense_from(x), dense_from(y), L)
    assert dense_max_diff(got, want) < 1e-12


def test_mul_oracle_every_monomial_pair_small_L():
    # exhaustive single-monomial products for L <= 4: signs must agree exactly
    for L in range(1, 5):
        for J in range(1 << L):
            for K in range(1 << L):
                x = Supernumber(L, {J: 1.0})
                y = Supernumber(L, {K: 1.0})
                want = dense_mul_oracle(dense_from(x), dense_from(y), L)
                assert dense_max_diff(dense_from(x * y), want) == 0.0


@settings(max_examples=100)
@given(st.data())
def test_associativity(data):
    L = data.draw(st.integers(min_value=2, max_value=6))
    x = data.draw(supernumbers(L=L))
    y = data.draw(supernumbers(L=L))
    z = data.draw(supernumbers(L=L))
    assert gr.max_coeff_diff((x * y) * z, x * (y * z)) < 1e-12


@settings(max_examples=100)
@given(st.data())
def test_supercommutativity_homogeneous(data):
    L = data.draw(st.integers(min_value=2, max_value=5))
    px = data.draw(st.sampled_from(["even", "odd"]))
    py = data.draw(st.sampled_from(["even", "odd"]))
    x = data.draw(supernumbers(L=L, parity=px))
    y = data.draw(supernumbers(L=L, parity=py))
    sign = -1.0 if (px == "odd" and py == "odd") else 1.0
    assert gr.max_coeff_diff(x * y, sign * (y * x)) < 1e-12


@settings(max_examples=80)
@given(st.data())
def test_body_is_multiplicative_and_soul_nilpotent(data):
    L = data.draw(st.integers(min_value=1, max_value=5))
    x = data.draw(supernumbers(L=L))
    y = data.draw(supernumbers(L=L))
    assert abs((x * y).body - x.body * y.body) < 1e-12
    s = gr.soul(x)
    assert (s ** (L + 1)).is_zero()


def test_distributivity_and_scalars():
    L = 3
    x = Supernumber(L, {0: 1.0, 0b011: 2.0 - 1j})
    y = Supernumber(L, {0b001: 1j})
    z = Supernumber(L, {0b100: -2.0})
    assert gr.max_coeff_diff(x * (y + z), x * y + x * z) == 0.0
    assert (2.0 * x).coefficient(0b011) == 4.0 - 2j
    assert (x / 2).body == 0.5


# ---------------------------------------------------------------------------
# inverse
# ---------------------------------------------------------------------------

def test_inverse_pinned_example():
    # (2 + s0)^{-1} = 1/2 - s0/4: hand expansion of b^{-1}(1 - b^{-1} s)
    L = 2
    x = gr.scalar(L, 2.0) + gr.gen(L, 0)
    inv = gr.inverse(x)
    assert inv == Supernumber(L, {0: 0.5, 0b01: -0.25})
    assert gr.max_coeff_diff(x * inv, gr.one(L)) == 0.0


@settings(max_examples=100)
@given(st.data())
def test_inverse_two_sided(data):
    L = data.draw(st.integers(min_value=1, max_value=6))
    x = data.draw(supernumbers(L=L, nonzero_body=True))
    inv = gr.inverse(x)
    assert gr.max_coeff_diff(x * inv, gr.one(L)) < 1e-9
    assert gr.max_coeff_diff(inv * x, gr.one(L)) < 1e-9


def test_inverse_requires_body():
    with pytest.raises(GrassmannDomainError):
        gr.inverse(gr.gen(3, 1))


def test_division_by_zero_number_raises_domain_error():
    with pytest.raises(GrassmannDomainError):
        Supernumber(2, {0: 1, 3: 2}) / 0


# ---------------------------------------------------------------------------
# conjugation
# ---------------------------------------------------------------------------

def test_conjugate_pinned_values():
    L = 3
    s0, s1 = gr.gen(L, 0), gr.gen(L, 1)
    # product of two generators flips sign under conjugation
    assert gr.conjugate(s0 * s1) == -(s0 * s1)
    # single generator is fixed
    assert gr.conjugate(s0) == s0
    # coefficient is complex-conjugated
    assert gr.conjugate(2j * s0) == -2j * s0


@settings(max_examples=100)
@given(st.data())
def test_conjugate_antihomomorphism_and_involution(data):
    L = data.draw(st.integers(min_value=2, max_value=5))
    x = data.draw(supernumbers(L=L))
    y = data.draw(supernumbers(L=L))
    assert gr.max_coeff_diff(gr.conjugate(x * y), gr.conjugate(y) * gr.conjugate(x)) < 1e-12
    assert gr.max_coeff_diff(gr.conjugate(gr.conjugate(x)), x) < 1e-12


# ---------------------------------------------------------------------------
# analytic continuation
# ---------------------------------------------------------------------------

@settings(max_examples=60)
@given(st.data())
def test_exp_times_exp_of_minus_is_one(data):
    L = data.draw(st.integers(min_value=2, max_value=6))
    x = data.draw(supernumbers(L=L, parity="even"))
    ex = gr.apply_analytic(AnalyticSpec.named("exp"), x)
    emx = gr.apply_analytic(AnalyticSpec.named("exp"), -x)
    assert gr.max_coeff_diff(ex * emx, gr.one(L)) < 1e-9


@settings(max_examples=60)
@given(st.data())
def test_log_exp_round_trip_and_sqrt_square(data):
    L = data.draw(st.integers(min_value=2, max_value=5))
    x = data.draw(supernumbers(L=L, parity="even", nonzero_body=True))
    ex = gr.apply_analytic(AnalyticSpec.named("exp"), x)
    back = gr.apply_analytic(AnalyticSpec.named("log"), ex)
    # principal branch: bodies may differ by 2*pi*i
    shift = round((back.body - x.body).imag / (2 * math.pi))
    fixed = back - gr.scalar(L, 2j * math.pi * shift)
    assert gr.max_coeff_diff(fixed, x) < 1e-8

    r = gr.apply_analytic(AnalyticSpec.named("sqrt"), x)
    assert gr.max_coeff_diff(r * r, x) < 1e-9


@settings(max_examples=60)
@given(st.data())
def test_reciprocal_matches_inverse_and_trig_identity(data):
    L = data.draw(st.integers(min_value=2, max_value=5))
    x = data.draw(supernumbers(L=L, parity="even", nonzero_body=True))
    rec = gr.apply_analytic(AnalyticSpec.named("reciprocal"), x)
    assert gr.max_coeff_diff(rec, gr.inverse(x)) < 1e-9
    s = gr.apply_analytic(AnalyticSpec.named("sin"), x)
    c = gr.apply_analytic(AnalyticSpec.named("cos"), x)
    assert gr.max_coeff_diff(s * s + c * c, gr.one(L)) < 1e-9


def test_integer_power_and_custom_callback():
    L = 4
    x = gr.scalar(L, 1.5) + gr.gen(L, 0) * gr.gen(L, 1) + 0.5 * gr.gen(L, 2) * gr.gen(L, 3)
    p3 = gr.apply_analytic(AnalyticSpec.power(3), x)
    assert gr.max_coeff_diff(p3, x * x * x) < 1e-12
    pm2 = gr.apply_analytic(AnalyticSpec.power(-2), x)
    assert gr.max_coeff_diff(pm2 * x * x, gr.one(L)) < 1e-12
    # custom callback reproducing exp
    custom = AnalyticSpec.custom(lambda k, z: cmath.exp(z))
    want = gr.apply_analytic(AnalyticSpec.named("exp"), x)
    got = gr.apply_analytic(custom, x)
    assert gr.max_coeff_diff(got, want) == 0.0


def test_apply_analytic_domain_errors():
    L = 3
    odd = gr.gen(L, 0)
    with pytest.raises(GrassmannDomainError):
        gr.apply_analytic(AnalyticSpec.named("exp"), odd)
    soul_only = gr.gen(L, 0) * gr.gen(L, 1)
    with pytest.raises(GrassmannDomainError):
        gr.apply_analytic(AnalyticSpec.named("log"), soul_only)
    with pytest.raises(GrassmannDomainError):
        gr.apply_analytic(AnalyticSpec.named("sqrt"), soul_only)


def test_apply_analytic_exp_that_overflows_raises_domain_error():
    with pytest.raises(GrassmannDomainError):
        gr.apply_analytic(AnalyticSpec.named("exp"), Supernumber(2, {0: 1000.0, 0b11: 1.0}))


def test_apply_analytic_negative_power_of_a_subnormal_body_raises_domain_error():
    with pytest.raises(GrassmannDomainError):
        gr.apply_analytic(AnalyticSpec.power(-1), Supernumber(2, {0: 1e-320, 0b11: 1.0}))


# ---------------------------------------------------------------------------
# structure helpers
# ---------------------------------------------------------------------------

def test_parity_body_soul_project_degree():
    L = 3
    x = Supernumber(L, {0: 2.0, 0b011: 1.0, 0b111: -1j})
    assert x.parity == "mixed"
    assert gr.parity(gr.zero(L)) == "even"
    assert gr.body(x) == 2.0
    assert gr.soul(x) == Supernumber(L, {0b011: 1.0, 0b111: -1j})
    assert x.coefficient(0b011) == 1.0
    assert x.coefficient(0b101) == 0.0
    assert gr.degree_filter(x, 2) == Supernumber(L, {0b011: 1.0})
    assert gr.degree_filter(x, 3) == Supernumber(L, {0b111: -1j})
    assert x.max_degree() == 3


def test_gen_left_derivative_signs():
    L = 3
    s0, s1, s2 = (gr.gen(L, i) for i in range(3))
    m = s0 * s1
    assert gr.gen_left_derivative(m, 0) == s1
    assert gr.gen_left_derivative(m, 1) == -s0
    assert gr.gen_left_derivative(m, 2).is_zero()
    triple = s0 * s1 * s2
    assert gr.gen_left_derivative(triple, 2) == s0 * s1


def test_gen_left_derivative_rejects_index_out_of_range():
    for i in (2, 5, -1):
        with pytest.raises(gr.GrassmannError):
            gr.gen_left_derivative(gr.gen(2, 0), i)


def test_apply_analytic_on_a_batch_matches_each_node_alone():
    import numpy as np

    rng = np.random.default_rng(5)
    terms = {m: rng.normal(size=4) + 1j * rng.normal(size=4) for m in (0, 0b11, 0b1100, 0b1111)}
    terms[0] = terms[0] + 3.0
    X = Supernumber(4, terms)
    for spec in (AnalyticSpec.named("log"), AnalyticSpec.power(-2),
                 AnalyticSpec.custom(lambda k, z: 2.0 ** k * cmath.exp(2.0 * z))):
        got = gr.apply_analytic(spec, X)
        for k in range(4):
            alone = gr.apply_analytic(spec, Supernumber(4, {m: c[k] for m, c in terms.items()}))
            at_k = Supernumber(4, {m: c[k] for m, c in got.terms.items()})
            assert gr.max_coeff_diff(at_k, alone) <= 1e-13 * gr.max_abs(alone)
    terms[0] = np.array([1.0, 0.0, 2.0, 1.0])
    with pytest.raises(GrassmannDomainError):
        gr.apply_analytic(AnalyticSpec.named("log"), Supernumber(4, terms))


def test_embedding_and_promotion():
    a = gr.gen(2, 0)
    b = gr.gen(4, 3)
    prod = a * b
    assert prod.L == 4
    assert prod.coefficient(0b1001) == 1.0
    with pytest.raises(GrassmannError):
        b.embed(2)
    shifted = gr.shift_generators(a, 2, 6)
    assert shifted == gr.gen(6, 2)


def test_embed_at_the_same_L_is_the_element_itself():
    X = Supernumber(3, {0: 1.0, 0b101: 2.0})
    assert X.embed(3) is X
    wider = X.embed(5)
    assert wider is not X and wider.L == 5 and wider == X
    with pytest.raises(GrassmannError):
        X.embed(-1)


def test_in_one_algebra_puts_numbers_and_elements_in_the_largest_L():
    a, b = gr.gen(2, 1), gr.gen(5, 4)
    (first, second), L = gr._in_one_algebra((a, 2.0), [b, 0, np.float64(1.5)])
    assert L == 5
    assert all(isinstance(v, Supernumber) and v.L == 5 for v in first + second)
    assert first == (Supernumber(5, {0b10: 1.0}), gr.scalar(5, 2.0))
    assert second[0] is b and second[1].is_zero() and second[2] == gr.scalar(5, 1.5)
    (only,), L = gr._in_one_algebra(iter([a, 3]), L=7)
    assert L == 7 and [v.L for v in only] == [7, 7]
    (numbers,), L = gr._in_one_algebra([1, 2j])
    assert L == 0 and numbers == (gr.scalar(0, 1), gr.scalar(0, 2j))
    assert gr._in_one_algebra() == ((), 0)


def test_in_one_algebra_returns_aligned_groups_as_they_are(monkeypatch):
    # a phase state: every entry an element of one L, batches of 1 node too
    x = [gr.scalar(4, 1.5), gr.scalar(4, np.array([2.0])), gr.gen(4, 0) * gr.gen(4, 1)]
    th, pi = (gr.gen(4, 0), gr.gen(4, 1)), [gr.gen(4, 2), gr.gen(4, 3)]
    passes = []
    monkeypatch.setattr(gr, "_in_algebra", lambda v, L: passes.append(v) or v.embed(L))
    for L in (0, 4):
        (gx, gth, gpi, empty), got_L = gr._in_one_algebra(x, th, iter(pi), (), L=L)
        assert got_L == 4 and passes == [] and empty == ()
        assert all(a is b for a, b in zip(gx + gth + gpi, x + list(th) + pi))
        assert type(gx) is tuple and len(gpi) == 2
    # a larger L= re-wraps every entry
    (gth,), got_L = gr._in_one_algebra(th, L=5)
    assert got_L == 5 and [v.L for v in gth] == [5, 5] and len(passes) == 2


def test_chop_and_diagnostics():
    L = 2
    x = Supernumber(L, {0: 1.0, 0b01: 1e-15, 0b11: 3.0})
    y = gr.chop(x, 1e-12)
    assert y == Supernumber(L, {0: 1.0, 0b11: 3.0})
    assert gr.max_abs(x) == 3.0
    # weighted diagnostic: term at mask m carries weight 2^-m * |c|/(1+|c|)
    expect = 0.5 + (1e-15 / (1 + 1e-15)) / 2 + (3.0 / 4.0) / 8
    assert abs(gr.weighted_dist(x) - expect) < 1e-16


def _batch(c0, c1):
    return Supernumber(2, {0: np.array(c0), 1: np.array(c1)})


def test_chop_on_a_batch_drops_a_mask_only_when_every_node_is_small():
    x = _batch([1.0, 2.0], [1e-20, 3.0])
    assert gr.chop(x, 1e-12) == x
    assert gr.chop(x, 2.5) == Supernumber(2, {1: np.array([1e-20, 3.0])})
    assert gr.chop(_batch([1.0, 2.0], [1e-20, -1e-15]), 1e-12) == Supernumber(
        2, {0: np.array([1.0, 2.0])})


def test_distances_on_a_batch_take_the_largest_node():
    x = _batch([1.0, 2.0], [1e-20, 3.0])
    y = _batch([1.0, 2.5], [1e-20, 3.0])
    assert gr.max_coeff_diff(x, y) == 0.5
    assert gr.max_coeff_diff(x, x) == 0.0
    assert gr.approx_eq(x, x) and not gr.approx_eq(x, y)
    assert gr.max_coeff_diff(x, Supernumber(2, {0: 2.0})) == 3.0
    # weights: mask 0 at |c| = 2, mask 1 at |c| = 3
    assert abs(gr.weighted_dist(x) - (2.0 / 3.0 + (3.0 / 4.0) / 2)) < 1e-16


def test_batches_compare_equal_node_by_node():
    x = _batch([1.0, 2.0], [1e-20, 3.0])
    assert x == _batch([1.0, 2.0], [1e-20, 3.0])
    assert not x == _batch([1.0, 2.0], [1e-20, 4.0])
    assert x != _batch([1.0, 2.0], [1e-20, 4.0])
    assert x != Supernumber(2, {0: np.array([1.0, 2.0])})
    assert Supernumber(2, {0: np.array([2.0, 2.0])}) != 2


# a batch is 0 only when it is 0 at every node; _nonzero reads node 0 first,
# so the cases that matter are 0 at node 0 and nonzero past it

def test_a_batch_that_is_zero_at_node_zero_only_is_kept():
    assert gr._table_takes(2, 2) is False  # so x * y below takes the dict loop
    x = Supernumber(2, {0: np.array([0.0, 1.0]), 1: np.array([0.0, 2.0])})
    assert list(x.terms) == [0, 1]
    total = Supernumber(2, {0: np.array([1.0, 2.0])}) + Supernumber(2, {0: np.array([-1.0, 3.0])})
    assert list(total.terms) == [0]
    assert np.array_equal(total.terms[0], [0.0, 5.0])
    y = Supernumber(2, {2: np.array([3.0, 0.5])})
    product = x * y
    assert list(product.terms) == [2, 3]
    assert np.array_equal(product.terms[3], [0.0, 1.0])


def test_a_batch_that_is_zero_at_every_node_is_dropped():
    assert Supernumber(2, {0: np.zeros(3), 1: np.array([0.0, 1.0, 0.0])}).terms.keys() == {1}
    x = Supernumber(2, {0: np.array([1.0, 2.0])})
    assert (x - x).is_zero()
    tiny = Supernumber(2, {1: np.array([1e-200, -1e-200])})
    assert not tiny.is_zero()
    assert (tiny * Supernumber(2, {2: np.array([1e-200, 1e-200])})).is_zero()
    assert Supernumber(2, {0: np.zeros(0)}).is_zero()  # a batch of no nodes


def test_nan_at_node_zero_counts_as_nonzero():
    assert gr._nonzero(np.array([np.nan, 0.0], dtype=complex))
    assert gr._nonzero(np.array([complex(0.0, np.nan), 0.0]))
    assert not gr._nonzero(np.zeros(2, dtype=complex))
    assert list(gr._as_super(np.array([np.nan, 0.0]), 2).terms) == [0]


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------

@settings(max_examples=60)
@given(st.data())
def test_json_round_trip(data):
    x = data.draw(supernumbers())
    y = gr.from_json(gr.to_json(x))
    assert y == x and y.L == x.L


def test_json_schema_shape_and_validation():
    x = Supernumber(2, {0b10: 1.0 - 2.0j, 0: 3.0})
    doc = json.loads(gr.to_json(x))
    assert doc == {
        "L": 2,
        "terms": [
            {"mask": 0, "re": 3.0, "im": 0.0},
            {"mask": 2, "re": 1.0, "im": -2.0},
        ],
    }
    with pytest.raises(GrassmannError):
        gr.from_json('{"L": 2, "terms": [{"mask": 2, "re": 1}, {"mask": 1, "re": 1}]}')
    with pytest.raises(GrassmannError):
        gr.from_json('{"L": 1, "terms": [{"mask": 4, "re": 1}]}')
    with pytest.raises(GrassmannError):
        gr.from_json("not json")
    with pytest.raises(GrassmannError):
        gr.from_json('{"terms": []}')


# ---------------------------------------------------------------------------
# nilpotent seeding, overflow, JSON of what from_json cannot read
# ---------------------------------------------------------------------------

def test_seed_places_fresh_generators_and_reads_them_back_on_the_left():
    even, odd, masks = gr.seed((gr.scalar(1, 0.5),), (gr.gen(1, 0),), 1)
    assert masks == [0b011, 0b100]
    assert even == (Supernumber(4, {0: 0.5, 0b0110: 1.0}),)
    assert odd == (Supernumber(4, {0b0001: 1.0, 0b1000: 1.0}),)
    # sigma_0 sigma_2 = -sigma_2 sigma_0, so over L=1 the sigma_2 part is -sigma_0
    parts = gr.seed_parts(gr.gen(3, 0) * gr.gen(3, 2), 1)
    assert parts == {0b10: Supernumber(1, {0b1: -1.0})}


def test_inverse_that_overflows_raises():
    with pytest.raises(GrassmannDomainError):
        gr.inverse(Supernumber(2, {0: 1e-200, 0b11: 1.0}))


def test_to_json_rejects_values_from_json_cannot_read():
    with pytest.raises(GrassmannError):
        gr.to_json(Supernumber(2, {0: math.nan, 1: math.inf}))
    with pytest.raises(GrassmannError):
        gr.to_json(Supernumber(1, {0: np.array([1.0, 2.0])}))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(1.0, math.nan),
                                 complex(math.inf, 0.0)])
def test_public_constructors_reject_nan_and_inf(bad):
    with pytest.raises(GrassmannError):
        Supernumber(2, {0b11: bad})
    with pytest.raises(GrassmannError):  # one bad node of a batch
        Supernumber(2, {0: np.array([1.0, 2.0]), 0b01: np.array([0.5, bad, 3.0])})
    with pytest.raises(GrassmannError):
        gr.make(2, [(0, 1.0), (0b10, bad)])
    with pytest.raises(GrassmannError):
        gr.scalar(2, bad)
    with pytest.raises(GrassmannError):
        gr.scalar(2, np.array([bad, 1.0]))


def test_public_constructor_reads_a_0d_array_as_a_number():
    X = Supernumber(2, {0: np.array(2.0), 0b11: np.array(1.0 - 0.5j)})
    assert all(type(c) is complex for c in X._terms.values())
    assert gr.from_json(gr.to_json(X)) == X
    assert gr.from_json(gr.to_json(Supernumber(2, {0: np.array(2.0)}))) == gr.scalar(2, 2.0)
    assert gr.scalar(1, np.array(0.0)).is_zero()


def test_public_constructor_rejects_an_array_of_two_or_more_dimensions():
    with pytest.raises(GrassmannError):
        gr.scalar(1, np.ones((2, 2)))
    with pytest.raises(GrassmannError):
        Supernumber(2, {0b01: np.ones((1, 3))})
    with pytest.raises(GrassmannError):
        gr.make(1, [(0, np.zeros((2, 1, 1)))])


def test_to_json_rejects_a_coefficient_that_overflowed():
    X = 1e200 * Supernumber(1, {0: 1.0, 1: 1e200})
    assert not np.isfinite(X.coefficient(1))
    with pytest.raises(GrassmannError):
        gr.to_json(X)


def test_division_whose_quotient_overflows_raises_domain_error():
    # the divisor is not 0, but 1 / 1e-320 is inf
    with pytest.raises(GrassmannDomainError):
        Supernumber(1, {0: 1.0}) / 1e-320


def test_apply_analytic_whose_soul_coefficient_overflows_raises_domain_error():
    # exp(700) is finite, but its product with the soul coefficient 1e10 is not
    X = Supernumber(2, {0: 700.0, 0b11: 1e10})
    with pytest.raises(GrassmannDomainError):
        gr.apply_analytic(AnalyticSpec.named("exp"), X)


# products do not check for overflow; every exit does (module docstring)

def test_is_finite_of_a_batch_whose_sum_of_squares_is_not_finite():
    # the sum of squares of each batch decides where it is finite; where it
    # is not, the values do: that of 1e308 is inf, those of inf and nan nan
    big = np.array([1e308, 1e308])
    with np.errstate(over="raise", invalid="raise"):  # as in the quadrature
        assert gr._is_finite(Supernumber(1, {0: big, 1: 1j * big}))
    with np.errstate(over="ignore"):
        X = Supernumber(1, {0: big, 1: np.array([1.0, -1e308])}) * 10.0
    assert not gr._is_finite(X)
    assert not gr._is_finite(np.array([1.0, np.nan])) and not gr._is_finite(complex("nan"))


@pytest.mark.parametrize("part", ["body", "soul"])
def test_overflowed_operand_is_caught_by_inverse(part):
    x = overflowed(part)
    assert not gr._is_finite(x.body if part == "body" else x)
    with pytest.raises(GrassmannDomainError):  # 1/inf would give the zero element
        gr.inverse(x)


@pytest.mark.parametrize("part", ["body", "soul"])
def test_overflowed_operand_is_caught_by_division(part):
    x = overflowed(part)
    one = gr.one(x.L)
    for quotient in (lambda: x / one, lambda: one / x, lambda: x / 2):
        with pytest.raises(GrassmannDomainError):
            quotient()


@pytest.mark.parametrize("part", ["body", "soul"])
@pytest.mark.parametrize("spec", [AnalyticSpec.named(name) for name in
                                  ("exp", "log", "sin", "cos", "sqrt", "reciprocal")]
                         + [AnalyticSpec.power(-2), AnalyticSpec.power(3)])
def test_overflowed_operand_is_caught_by_apply_analytic(part, spec):
    with pytest.raises(GrassmannDomainError):
        gr.apply_analytic(spec, overflowed(part))


@pytest.mark.parametrize("part", ["body", "soul"])
def test_overflowed_operand_is_caught_by_to_json(part):
    with pytest.raises(GrassmannError):
        gr.to_json(overflowed(part))


# batches overflow quietly and raise through the finite checks (warnings are
# errors in this suite, so numpy's RuntimeWarning would surface instead)

def test_batch_quotient_by_an_element_that_overflows_raises_domain_error():
    with pytest.raises(GrassmannDomainError):
        Supernumber(1, {0: np.array([1.0, 1e300])}) / Supernumber(1, {0: 1e-10})

def test_batch_quotient_that_overflows_raises_domain_error():
    with pytest.raises(GrassmannDomainError):
        Supernumber(1, {0: np.array([1.0, 1e300])}) / 1e-10


def test_batch_apply_analytic_whose_soul_coefficient_overflows_raises_domain_error():
    X = Supernumber(2, {0: np.array([1.0, 700.0]), 0b11: 1e10})
    with pytest.raises(GrassmannDomainError):
        gr.apply_analytic(AnalyticSpec.named("exp"), X)


def test_batch_inverse_that_overflows_raises_domain_error():
    with pytest.raises(GrassmannDomainError):
        gr.inverse(Supernumber(2, {0: np.array([1.0, 1e-200]), 0b11: 1.0}))


# ---------------------------------------------------------------------------
# first-order seeding: the cut
# ---------------------------------------------------------------------------

def _slot_values(L):
    rng = np.random.default_rng(1049)

    def c():
        return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))

    even = (Supernumber(L, {0: 0.7, 0b011: c(), 0b110: c()}),
            Supernumber(L, {0: np.array([1.2, -0.4]), 0b101: c()}))
    odd = (Supernumber(L, {0b001: c(), 0b100: c(), 0b111: c()}),)
    return even, odd


def test_first_order_products_drop_exactly_the_terms_with_two_or_more_seeds():
    L = 3
    even, odd = _slot_values(L)
    cut_even, cut_odd, masks = gr.seed(even, odd, L, first_order=True)
    full_even, full_odd, full_masks = gr.seed(even, odd, L)
    assert masks == full_masks
    allowed = {0, *masks}

    def fresh(mask):
        return mask >> L

    cut_vals, full_vals = cut_even + cut_odd, full_even + full_odd
    for a, b in [(0, 1), (1, 0), (0, 2), (2, 1), (1, 1)]:
        got = cut_vals[a] * cut_vals[b]
        want = full_vals[a] * full_vals[b]
        if a != b:
            assert any(fresh(m) not in allowed for m in want.terms)
        assert all(fresh(m) in allowed for m in got.terms)
        kept = Supernumber(want.L, {m: c for m, c in want.terms.items() if fresh(m) in allowed})
        assert identical(got, kept)
    # a chain of products, sums and scalings keeps the rule; so does a product
    # with an operand that has no cut and holds terms with two seeds
    two_seeds = full_vals[0] * full_vals[1]
    for got, want in [
        (2.0 * (cut_vals[0] * cut_vals[1] - cut_vals[2] * cut_vals[2]) * cut_vals[0],
         2.0 * (full_vals[0] * full_vals[1] - full_vals[2] * full_vals[2]) * full_vals[0]),
        (two_seeds * cut_vals[2], two_seeds * full_vals[2]),
        (cut_vals[2] * two_seeds, full_vals[2] * two_seeds),
    ]:
        kept = Supernumber(want.L, {m: c for m, c in want.terms.items() if fresh(m) in allowed})
        assert identical(got, kept)


def test_seed_parts_clears_the_cut_it_reads_back_and_keeps_an_outer_one():
    L = 3
    even, odd = _slot_values(L)
    cut_even, cut_odd, masks = gr.seed(even, odd, L, first_order=True)
    X = cut_even[0] * cut_even[1] * cut_odd[0]
    assert X._cut is not None
    assert all(p._cut is None for p in gr.seed_parts(X, L).values())
    # an untruncated seeding nested above the window (as odd_expand seeds):
    # the outer cut rides on, leaves the nested generators alone (the part
    # with both of them survives), and outlives the nested read-back
    Lw = X.L
    _, inner, _ = gr.seed((), (gr.zero(Lw),) * 2, Lw)
    Y = X * inner[0] * inner[1]
    parts = gr.seed_parts(Y, Lw)
    assert parts[0b11]._cut is X._cut
    assert identical(parts[0b11], X)
