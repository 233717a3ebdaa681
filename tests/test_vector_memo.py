"""Elements that hold their coefficient vectors.

An element holds its term dict or its length-2^L coefficient vector, the form
the operation that made it produced.  An element that holds its vector builds
its dict at most once, by ``_terms_of``, and keeps it; a dict element is
converted by ``_vector_of`` for one use and stays a dict.  A vector is
read-only, finite, and the vector its terms give, with +0.0 and never -0.0
where it holds no term, and the element agrees with its dict twin on every
query and product.
"""

import copy
import pickle
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from supercalc import grassmann as gr
from supercalc.grassmann import Supernumber
from supercalc.superlinalg import sdet

from helpers import count_dict_builds, dict_twin, holds_terms, same_bytes, twins

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from workloads import WORKLOADS  # noqa: E402

L = 8


@pytest.fixture
def conversions(monkeypatch):
    """The elements converted from their terms to a vector, in order."""
    seen = []
    vector_of = gr._vector_of

    def spy(X):
        out = vector_of(X)
        if X._vec is None and out is not None:
            seen.append(X)
        return out

    monkeypatch.setattr(gr, "_vector_of", spy)
    return seen


def dense(rng, L=L, parity="even"):
    masks = [m for m in range(1 << L) if parity == "mixed" or m.bit_count() % 2 == (parity == "odd")]
    coeffs = rng.uniform(-1, 1, len(masks)) + 1j * rng.uniform(-1, 1, len(masks))
    return Supernumber(L, dict(zip(masks, coeffs.tolist())))


def assert_as_converted(X):
    """X's vector is the one a conversion of its terms gives, and its grade,
    where known, is that of its terms."""
    v, _ = gr._vector_of(dict_twin(X))
    assert X._vec.tobytes() == v.tobytes()
    odd = [m.bit_count() & 1 for m in X._terms]
    assert X._grade is None or not any(p != X._grade for p in odd)


def same_coefficients(a, b):
    """Same L and the same bytes at each mask, in any order of the masks (a
    dict sum appends a new mask where a vector's terms ascend)."""
    return a.L == b.L and a._terms.keys() == b._terms.keys() and all(
        np.asarray(c).tobytes() == np.asarray(b._terms[m]).tobytes() for m, c in a._terms.items())


def assert_no_minus_zero(X):
    zeros = X._vec == 0
    assert not np.signbit(X._vec.real[zeros]).any()
    assert not np.signbit(X._vec.imag[zeros]).any()


# ---------------------------------------------------------------------------
# one conversion per element
# ---------------------------------------------------------------------------

def test_a_berezinian_solve_converts_each_element_once(conversions, monkeypatch):
    # the workload's inputs are built as vectors, so no solve over its pool
    # converts or builds a dict, neither the first pass nor the second
    workload = WORKLOADS["berezinian_dense"]
    cases = workload.build(5)
    builds = count_dict_builds(monkeypatch)
    for _ in range(2):
        for case in cases:
            workload.solve(case)
        assert conversions == []
        assert builds == []
    # the same case held as dicts converts its entries for each use and
    # keeps no vector on them, so every solve of it gives the same bytes
    case = workload.build(5)[0]
    M, N, G, lam = case
    twin_case = (twins(M), twins(N), twins(G), lam)
    first = workload.solve(twin_case)
    assert conversions
    assert all(e._vec is None for S in twin_case[:3] for r in S.rows for e in r)
    for out in (workload.solve(twin_case), workload.solve(case)):
        assert all(same_bytes(a, b) for a, b in zip(first, out, strict=True))


def test_sdet_of_a_product_reads_the_vectors_the_product_built(conversions, monkeypatch):
    M, N, _, _ = WORKLOADS["berezinian_dense"].build(5)[0]
    builds = count_dict_builds(monkeypatch)
    MN = M @ N
    sdet(MN)
    sdet(M)
    assert conversions == [] and builds == []
    assert all(e._vec is not None and not holds_terms(e) for r in MN.rows for e in r)


# ---------------------------------------------------------------------------
# the vector form
# ---------------------------------------------------------------------------

def test_memo_vectors_are_read_only():
    rng = np.random.default_rng(109)
    X = dense(rng)
    for Y in (X, X * X, X + X, -X, 2.0 * X, gr.soul(X), copy.deepcopy(X),
              pickle.loads(pickle.dumps(X))):
        assert Y._vec is not None
        with pytest.raises(ValueError):
            Y._vec[0] = 1.0
    # a conversion is for its one use: the dict element keeps no vector
    converted = dict_twin(dense(rng))
    assert gr._vector_of(converted) is not None and converted._vec is None


def test_dense_input_is_stored_as_its_vector_only():
    rng = np.random.default_rng(111)
    X = dense(rng)
    assert X._vec is not None and not holds_terms(X)
    # parity, is_zero, body, max_abs and negation read the vector
    assert (X.parity, X.is_zero(), gr.max_abs(X) > 0) == ("even", False, True)
    assert X.body == X._vec[0]
    assert (-X)._vec is not None
    assert not holds_terms(X)
    # sparse, batch and large-L input keeps its dict
    for Y in (gr.gen(L, 0), Supernumber(2, {0: np.arange(3.0)}), dense(rng, 4),
              Supernumber(14, {m: 1.0 for m in range(0, 1 << 14, 7)})):
        assert Y._vec is None and holds_terms(Y)


def test_an_element_freed_and_rebuilt_gets_its_own_vector():
    # each element holds its own vector: elements of one term dict hold equal
    # vectors, never one shared array
    rng = np.random.default_rng(113)
    terms = dict(dense(rng)._terms)
    X, Y = Supernumber(L, terms), Supernumber(L, terms)
    converted, _ = gr._vector_of(dict_twin(X))
    assert X._vec is not Y._vec and X._vec is not converted
    assert X._vec.tobytes() == Y._vec.tobytes() == converted.tobytes()
    del X
    Z = Supernumber(L, terms)
    assert Z._vec.tobytes() == Y._vec.tobytes()


@pytest.mark.parametrize("kind", ["even", "odd", "mixed", "zero"])
def test_a_built_element_reads_back_as_converted(kind):
    # operations that meet +0.0 with a minus sign (negation, scaling by a
    # negative number, a dict minus a vector) must leave +0.0 where an element
    # holds no term, and their terms are the vector's nonzero entries
    rng = np.random.default_rng([127, len(kind)])
    X = dense(rng, parity="even" if kind == "zero" else kind)
    c = Supernumber(L, {0: 1.5, 0b11: complex(-0.0, 0.0)})
    built = [-X, -2.0 * X, (-0.5 + 0.25j) * X, c - X, X - X, X * X, gr.soul(X)]
    if kind == "zero":
        built = [X - X, -(X - X), 0.0 - (X - X), X * gr.zero(L) + (X - X)]
    for Y in built:
        if Y._vec is None:
            assert Y.is_zero()
            continue
        assert_as_converted(Y)
        assert_no_minus_zero(Y)
        assert all(v != 0 for v in Y._terms.values())
        assert Y.parity == dict_twin(Y).parity


def test_a_built_element_that_is_not_finite_is_not_recorded(conversions):
    # a dict with inf is not converted, and products with it take the dict
    # loop; so do products with a kernel product, sum or scaling that
    # overflows, which never takes the kernel again (inf times an absent 0
    # would put NaN where the dict loop puts nothing); the exits still raise
    rng = np.random.default_rng(131)
    X = dense(rng, 6)
    inf = X + 1e200 * Supernumber(6, {0b11: 1e200})
    assert inf._vec is None and gr._vector_of(inf) is None
    assert conversions == []
    assert (inf * X)._vec is None
    big = 1e200 * X
    for over in (big * big, big * 1e200 + big, 1e300 * big):
        assert gr._vector_of(over) is None and not gr._is_finite(over)
        assert over._terms.keys() <= set(X._terms)
        for Y in (X, big, over):
            assert (over * Y)._vec is None and (Y * over)._vec is None
            assert same_coefficients(over * Y, dict_twin(over) * dict_twin(Y))
    with pytest.raises(gr.GrassmannDomainError):
        gr.inverse(big * big)
    # a scaling by inf takes the dict loop too: NaN only where X holds a term
    for c in (np.inf, complex(np.inf, 1.0), np.nan):
        assert same_coefficients(c * X, c * dict_twin(X))
        assert (c * X)._terms.keys() == X._terms.keys()


def test_threads_reading_one_element_get_the_same_forms():
    # more threads than cores, switching often: each reads the lazily built
    # dict and the converted vector of shared elements, and every read gives
    # the bytes of a fresh build
    rng = np.random.default_rng(139)
    pool = [dense(rng) for _ in range(24)] + [dict_twin(dense(rng)) for _ in range(24)]
    want = [(dict(X._terms), gr._vector_of(dict_twin(X))[0].tobytes()) for X in pool]
    pool = [Supernumber(L, dict(X._terms)) if i < 24 else dict_twin(X)
            for i, X in enumerate(pool)]
    wrong = []

    def work(seed):
        pick = np.random.default_rng(seed)
        for _ in range(300):
            i = int(pick.integers(len(pool)))
            X = pool[i]
            terms, vector = want[i]
            if X._terms != terms or gr._vector_of(X)[0].tobytes() != vector:
                wrong.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


# ---------------------------------------------------------------------------
# an element and its dict twin
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("parity", ["even", "odd", "mixed"])
def test_an_element_and_its_dict_twin_agree(parity):
    rng = np.random.default_rng([151, len(parity)])
    X = dense(rng, parity=parity)
    twin = dict_twin(X)
    assert twin._vec is None
    assert X._terms == twin._terms and list(X._terms) == sorted(X._terms)
    assert X.body == twin.body and X.parity == twin.parity
    assert X == twin and hash(X) == hash(twin)
    assert gr.to_json(X) == gr.to_json(twin)
    assert gr.max_abs(X) == gr.max_abs(twin) and gr._low_degree(X) == gr._low_degree(twin)
    Y = dense(rng, parity="odd")
    others = [2.5, -1.5j, gr.scalar(L, 0.5 - 2j), gr.zero(L), Y, dict_twin(Y), gr.gen(L, 3),
              Supernumber(L, {0: np.arange(1.0, 4.0)}), gr.one(L) + gr.gen(L, 0) * gr.gen(L, 5)]
    for other in others:
        for a, b in ((X, other), (other, X)):
            ta, tb = (twin if a is X else a), (twin if b is X else b)
            assert same_coefficients(a * b, ta * tb), (parity, other)
            assert same_coefficients(a + b, ta + tb), (parity, other)
            assert same_coefficients(a - b, ta - tb), (parity, other)
    assert same_bytes(-X, -twin) and same_bytes(gr.soul(X), gr.soul(twin))
    # a first-order seeded constant gives the same bytes either way
    seeded = gr.seed([gr.scalar(L - 2, 0.5)], [], L - 2, first_order=True)[0][0]
    assert seeded.L == L
    assert same_bytes(X * seeded, twin * seeded) and same_bytes(seeded * X, seeded * twin)


def test_a_dict_element_sums_the_same_before_and_after_a_kernel_product():
    # a conversion keeps no vector on the dict element, so its sums take the
    # dict code after it met a vector as before: 1 - 0j where the other
    # operand holds nothing stays 1 - 0j, where a vector sum gives 1 + 0j
    rng = np.random.default_rng(157)
    X, Y = dense(rng), dense(rng, parity="odd")
    terms = dict(X._terms)
    terms[0b11] = complex(1.0, -0.0)  # Y is odd and holds nothing at 0b11
    twin = Supernumber(L, terms, gr._AS_IS)
    before = [twin + Y, Y + twin, twin - Y, Y - twin]
    product = twin * Y
    assert product._vec is not None and twin._vec is None
    after = [twin + Y, Y + twin, twin - Y, Y - twin]
    assert all(same_coefficients(a, b) for a, b in zip(before, after, strict=True))
    assert all(np.signbit(Z._terms[0b11].imag) for Z in after[:3])


@pytest.mark.parametrize("form", ["vector", "dict", "batch", "seeded"])
def test_an_element_copies_and_pickles_in_its_form(form):
    rng = np.random.default_rng(163)
    X = {"vector": dense(rng), "dict": dict_twin(dense(rng)),
         "batch": Supernumber(3, {0: np.arange(1.0, 4.0), 0b101: 2.0}),
         "seeded": gr.seed([gr.scalar(2, 0.5)], [], 2, first_order=True)[0][0]}[form]
    for Y in (copy.copy(X), copy.deepcopy(X), pickle.loads(pickle.dumps(X))):
        assert same_coefficients(Y, X) and Y.L == X.L
        assert (Y._vec is None) == (X._vec is None)
        if Y._vec is not None:
            assert not Y._vec.flags.writeable and Y._grade == X._grade
    # the lazy term mapping of a vector element copies too
    assert dict(copy.deepcopy(dense(rng)._terms).items())


def test_dense_parity_and_low_degree():
    rng = np.random.default_rng(137)
    for parity in ("even", "odd"):
        X = dense(rng, parity=parity)
        assert X.parity == dict_twin(X).parity == parity
        assert gr._low_degree(X) == gr._low_degree(dict_twin(X)) == (parity == "odd")
    # a zero vector counts as even whatever its grade says
    zero = np.zeros(1 << L, dtype=complex)
    assert Supernumber(L, (zero, 1), gr._VECTOR).parity == "even"
    assert gr._low_degree(Supernumber(L, (zero.copy(), 0), gr._VECTOR)) == 0
    s = gr.soul(dense(rng))
    assert s._vec is not None
    assert gr._low_degree(s) == gr._low_degree(dict_twin(s)) == 2
