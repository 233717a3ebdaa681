"""The memo of dense coefficient vectors (``grassmann._MEMO``).

Each dense element is converted to its ``_Dense`` vector once, however many
dense calls read it: ``_dense_coefficients`` reads the memo first, and
``_from_dense`` records the vector of each element it builds.  A hit must
give the bytes and grade of a fresh conversion, and the memo must stay
within its bounds.
"""

import gc
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from supercalc import grassmann as gr
from supercalc.grassmann import Supernumber
from supercalc.superlinalg import sdet

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from workloads import WORKLOADS  # noqa: E402

L = 8


@pytest.fixture
def memo(monkeypatch):
    """A cold memo with the module's bounds, in place of the module's one."""
    fresh = gr._VectorMemo(gr._MEMO.max_entries, gr._MEMO.max_nbytes)
    monkeypatch.setattr(gr, "_MEMO", fresh)
    return fresh


@pytest.fixture
def conversions(monkeypatch):
    """The elements converted from their terms, in order."""
    seen = []
    convert = gr._converted

    def spy(X):
        seen.append(X)
        return convert(X)

    monkeypatch.setattr(gr, "_converted", spy)
    return seen


def dense(rng, L=L, parity="even"):
    masks = [m for m in range(1 << L) if m.bit_count() % 2 == (parity == "odd")]
    coeffs = rng.uniform(-1, 1, len(masks)) + 1j * rng.uniform(-1, 1, len(masks))
    return Supernumber(L, dict(zip(masks, coeffs.tolist())))


def assert_as_converted(d, X):
    """d is X's vector as a fresh conversion gives it."""
    fresh = gr._converted(X)
    assert d.source is X
    assert d.grade == fresh.grade
    assert d.v.tobytes() == fresh.v.tobytes()


# ---------------------------------------------------------------------------
# one conversion per element
# ---------------------------------------------------------------------------

def test_a_berezinian_solve_converts_each_element_once(memo, conversions):
    # 108 conversions before the memo: M's and N's entries again in M @ N,
    # and each table product of gaussian_super's tail converted both operands
    workload = WORKLOADS["berezinian_dense"]
    case = workload.build(5)[0]
    workload.solve(case)
    assert len(conversions) <= 51
    assert len({id(X) for X in conversions}) == len(conversions)


def test_sdet_of_a_product_reads_the_vectors_the_product_built(memo, conversions):
    M, N, _, _ = WORKLOADS["berezinian_dense"].build(5)[0]
    MN = M @ N
    assert len(conversions) == 32
    conversions.clear()
    sdet(MN)
    sdet(M)
    assert conversions == []


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def test_the_memo_keeps_at_most_64_entries_and_1_mib():
    assert (gr._MEMO.max_entries, gr._MEMO.max_nbytes) == (64, 1 << 20)
    rng = np.random.default_rng(101)
    for _ in range(1000):
        gr._dense_coefficients(dense(rng))
    entries = gr._MEMO.entries
    assert len(entries) <= 64
    assert gr._MEMO.nbytes == sum(d.v.nbytes for d in entries.values()) <= 1 << 20


def test_the_byte_bound_holds_for_large_vectors(memo):
    # a dense L=12 vector is 64 KiB, so 1 MiB holds 16 of them
    rng = np.random.default_rng(103)
    kept = [dense(rng, 12) for _ in range(20)]
    for X in kept:
        gr._dense_coefficients(X)
    assert len(memo.entries) == 16
    assert memo.nbytes == 1 << 20
    # the least recently used left first
    sources = [d.source for d in memo.entries.values()]
    assert all(a is b for a, b in zip(sources, kept[4:], strict=True))


def test_a_hit_moves_its_entry_to_the_back(memo):
    rng = np.random.default_rng(107)
    first, *rest = [dense(rng) for _ in range(64)]
    for X in (first, *rest):
        gr._dense_coefficients(X)
    gr._dense_coefficients(first)
    gr._dense_coefficients(dense(rng))
    sources = [id(d.source) for d in memo.entries.values()]
    assert id(first) in sources and id(rest[0]) not in sources


def test_memo_vectors_are_read_only(memo):
    d = gr._dense_coefficients(dense(np.random.default_rng(109)))
    with pytest.raises(ValueError):
        d.v[0] = 1.0


def test_threads_sharing_the_memo_keep_its_count_and_bounds(memo):
    # more threads than cores, switching often: a lost update of the byte
    # count or of the order would break the sums below
    rng = np.random.default_rng(139)
    pool = [dense(rng) for _ in range(96)]
    wrong = []

    def work(seed):
        pick = np.random.default_rng(seed)
        for _ in range(300):
            X = pool[pick.integers(len(pool))]
            d = gr._dense_coefficients(X)
            if d.source is not X or d.v.tobytes() != gr._converted(X).v.tobytes():
                wrong.append(X)

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
    assert len(memo.entries) == memo.max_entries
    assert memo.nbytes == sum(d.v.nbytes for d in memo.entries.values())
    assert all(id(d.source) == key for key, d in memo.entries.items())


# ---------------------------------------------------------------------------
# a hit is never stale
# ---------------------------------------------------------------------------

def test_an_element_freed_and_rebuilt_gets_its_own_vector(memo, conversions):
    rng = np.random.default_rng(113)
    X = dense(rng)
    terms = dict(X._terms)
    gr._dense_coefficients(X)
    del X
    gc.collect()
    Y = Supernumber(L, terms)
    assert_as_converted(gr._dense_coefficients(Y), Y)
    # once the entries are pushed out and their elements freed, new elements
    # may take their ids; each still gets its own vector
    for _ in range(2 * memo.max_entries):
        gr._dense_coefficients(dense(rng))
    gc.collect()
    for _ in range(200):
        Z = Supernumber(L, terms) if rng.integers(2) else dense(rng, parity="odd")
        assert_as_converted(gr._dense_coefficients(Z), Z)


def _vector(rng, masks, zeros=()):
    v = np.zeros(1 << L, dtype=complex)
    v[masks] = rng.uniform(-1, 1, len(masks)) + 1j * rng.uniform(-1, 1, len(masks))
    for m, z in zeros:
        v[m] = z
    return v


@pytest.mark.parametrize("kind", ["even", "odd", "mixed", "zero"])
def test_a_built_element_reads_back_as_converted(kind, memo, conversions):
    # zeros inside the masks, -0.0 among them, are dropped from the element
    # and must not reach its recorded vector
    rng = np.random.default_rng([127, len(kind)])
    even = [m for m in range(1 << L) if m.bit_count() % 2 == 0]
    odd = [m for m in range(1 << L) if m.bit_count() % 2 == 1]
    masks = {"even": even, "odd": odd, "mixed": even + odd, "zero": []}[kind]
    zeros = [(m, z) for m, z in zip(masks[::7], (0j, complex(-0.0, 0.0), complex(0.0, -0.0)))]
    v = _vector(rng, masks, zeros)
    X = gr._from_dense(v, L)
    assert len(X._terms) == len(masks) - len(zeros)
    d = gr._dense_coefficients(X)
    assert conversions == []
    assert_as_converted(d, X)
    assert d.grade == {"even": 0, "odd": 1, "mixed": None, "zero": 0}[kind]
    assert d.parity == X.parity


def test_a_built_element_that_is_not_finite_is_not_recorded(memo):
    v = _vector(np.random.default_rng(131), list(range(1, 1 << L, 3)))
    v[5] = np.inf
    X = gr._from_dense(v, L)
    assert not memo.entries
    assert gr._dense_coefficients(X) is None


# ---------------------------------------------------------------------------
# grade-driven answers on vectors
# ---------------------------------------------------------------------------

def test_dense_parity_and_low_degree():
    rng = np.random.default_rng(137)
    for parity in ("even", "odd"):
        X = dense(rng, parity=parity)
        d = gr._converted(X)
        assert d.parity == X.parity == parity
        assert gr._low_degree(d) == gr._low_degree(X) == (parity == "odd")
    # a zero vector counts as even whatever its grade says
    assert gr._Dense(np.zeros(1 << L, dtype=complex), 1, L).parity == "even"
    assert gr._low_degree(gr._Dense(np.zeros(1 << L, dtype=complex), 0, L)) == 0
    s = gr.soul(dense(rng))
    assert gr._low_degree(gr._converted(s)) == gr._low_degree(s) == 2
