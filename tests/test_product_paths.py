"""Which path a product takes, and that each path gives the answer of the one
it stands in for.

* A factor whose one term is the body scales the other factor term by term in
  ``Supernumber.__mul__``; checked against the per-term dict loop, written out
  here with its sort sign taken from the independent helper.
* A seeded constant b + c sigma^M under a first-order cut takes one pass
  over the other factor (``grassmann._seeded_constant_product``); checked
  against the product at values seeded without a cut, filtered to the terms
  the cut keeps.
* A dense block product runs ``superlinalg._mat_mul`` on coefficient
  vectors after the one entry decision (``grassmann._dense_rows``), and sums
  each output entry as one vector; checked against the per-entry loop
  sum_k P[i][k] * Q[k][j].
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supercalc import grassmann as gr
from supercalc import superlinalg as sl
from supercalc.grassmann import Supernumber
from supercalc.superlinalg import from_blocks, sdet

from helpers import bits_of, perm_sign_by_sort, same_bytes

PARITIES = ("even", "odd", "mixed")
NODES = 4


def dense(rng, L, parity, body=None, scale=1.0):
    """Every mask of the given parity with a random coefficient."""
    masks = [m for m in range(1 << L)
             if parity == "mixed" or m.bit_count() % 2 == (parity == "odd")]
    coeffs = scale * (rng.standard_normal(len(masks)) + 1j * rng.standard_normal(len(masks)))
    terms = dict(zip(masks, coeffs.tolist()))
    if body is not None:
        terms[0] = body
    return Supernumber(L, terms)


def same_terms(X, L, terms):
    """X has L generators and exactly these terms: masks in the same order,
    the same coefficient types and the same bytes."""
    return (X.L == L and list(X._terms) == list(terms)
            and all(type(c) is type(terms[m])
                    and np.asarray(c).tobytes() == np.asarray(terms[m]).tobytes()
                    for m, c in X._terms.items()))


# ---------------------------------------------------------------------------
# body-only factors
# ---------------------------------------------------------------------------

def dict_loop(a, b):
    """The per-term product of a and b as the dict loop forms it: every
    disjoint pair, its sort sign, sums in pair order, zeros dropped."""
    L = max(a.L, b.L)
    acc = {}
    for mj, cj in a._terms.items():
        for mk, ck in b._terms.items():
            if mj & mk:
                continue
            m = mj | mk
            v = cj * ck
            if perm_sign_by_sort(bits_of(mj) + bits_of(mk)) > 0:
                acc[m] = acc[m] + v if m in acc else v
            else:
                acc[m] = acc[m] - v if m in acc else -v
    return L, {m: c for m, c in acc.items() if np.count_nonzero(c)}


@pytest.fixture
def loop_pairs(monkeypatch):
    """Partner masks the dict loop makes its signs from, one per partner per
    product (``grassmann._sign_mask``); a scaling makes none."""
    partners = []
    sign_mask = gr._sign_mask

    def counted(mk):
        partners.append(mk)
        return sign_mask(mk)

    monkeypatch.setattr(gr, "_sign_mask", counted)
    return partners


def mixed_element(rng, L, batch):
    """Random mixed-parity element; with batch set, every other coefficient
    carries NODES nodes."""
    terms = {}
    for i, m in enumerate(range(1, 1 << L, 3)):
        if batch and i % 2:
            terms[m] = rng.standard_normal(NODES) + 1j * rng.standard_normal(NODES)
        else:
            terms[m] = complex(rng.standard_normal(), rng.standard_normal())
    return Supernumber(L, terms)


@pytest.mark.parametrize("body_batch", [False, True])
@pytest.mark.parametrize("other_batch", [False, True])
def test_body_only_factor_equals_the_dict_loop_on_either_side(body_batch, other_batch,
                                                             loop_pairs):
    rng = np.random.default_rng([body_batch, other_batch])
    c = rng.standard_normal(NODES) + 1j * rng.standard_normal(NODES) if body_batch \
        else complex(-1.25, 0.5)
    B = Supernumber(6, {0: c})
    X = mixed_element(rng, 6, other_batch)
    for a, b in ((B, X), (X, B)):
        got = a * b
        assert not loop_pairs
        assert same_terms(got, *dict_loop(a, b))


def test_body_only_factor_with_fewer_generators_is_promoted(loop_pairs):
    rng = np.random.default_rng(5)
    small = Supernumber(3, {0: complex(2.0, -1.0)})
    big = mixed_element(rng, 6, True)
    for a, b in ((small, big), (big, small)):
        got = a * b
        assert got.L == 6
        assert same_terms(got, *dict_loop(a.embed(6), b.embed(6)))
    # and the other way round: the body-only factor has more generators
    got = mixed_element(rng, 3, False) * Supernumber(6, {0: np.arange(1.0, NODES + 1)})
    assert got.L == 6
    assert not loop_pairs


def test_a_number_factor_scales_like_the_dict_loop(loop_pairs):
    X = mixed_element(np.random.default_rng(6), 5, True)
    for n in (3, -0.5, 1.5 - 2j):
        got = X * n
        assert same_terms(got, *dict_loop(X, Supernumber(5, {0: complex(n)})))
    assert not loop_pairs


def test_the_spy_sees_a_product_of_two_sparse_elements(loop_pairs):
    # the positive control of the checks above: a product of two elements
    # that are not body-only takes the dict loop, one mask per partner
    a = Supernumber(6, {0b000001: 1.5, 0b000110: -2.0 + 1j})
    b = Supernumber(6, {0b101000: 0.5j, 0b000010: 3.0, 0: 1.0})
    got = a * b
    assert loop_pairs == list(b.terms)
    assert same_terms(got, *dict_loop(a, b))


def test_body_only_product_that_underflows_is_dropped(loop_pairs):
    tiny, s0 = Supernumber(2, {0: 1e-200}), Supernumber(2, {1: 1e-200})
    assert (tiny * s0).is_zero()
    assert (s0 * tiny).is_zero()
    # a batch is dropped only when it underflows at every node
    assert (Supernumber(2, {0: np.full(NODES, 1e-200)}) * s0).is_zero()
    some = Supernumber(2, {0: np.array([1e-200, 1.0, 1e-200, 2.0])}) * s0
    assert list(some.terms) == [1]
    assert np.array_equal(some.coefficient(1), [0.0, 1e-200, 0.0, 2e-200])
    assert not loop_pairs


# ---------------------------------------------------------------------------
# seeded constants
# ---------------------------------------------------------------------------

def seeded_slots(base, bodies, first_order):
    """The seeded values of body-only slots, two even and the rest odd."""
    values = [Supernumber(base, {0: b}) for b in bodies]
    even, odd, masks = gr.seed(values[:2], values[2:], base, first_order=first_order)
    return even + odd, masks


def first_order_oracle(full, base, masks):
    """full, a product at values seeded without a cut, with only the terms a
    first-order seeding keeps: fresh part 0 or one slot mask."""
    window, allowed = sum(masks), {0, *masks}
    return Supernumber(full.L, {m: c for m, c in full._terms.items()
                                if (m >> base) & window in allowed}, gr._AS_IS)


def other_operand(rng, base, masks, nested, batch, M):
    """A cut-free element: 12 terms whose fresh parts are 0, one slot mask or
    two, with generators above the window when nested, and some batch
    coefficients when batch; the shift by M of its first seed-free term is
    added before or after it, so that the two kinds of seeded pairs meet."""
    fresh = [0, 0, *masks, masks[0] | masks[1], masks[1] | masks[2]]
    top = base + sum(masks).bit_length()
    pairs = [int(rng.integers(1 << base)) | fresh[rng.integers(len(fresh))] << base
             | int(rng.integers(4 if nested else 1)) << top for _ in range(12)]
    free = next(m for m in pairs + [0] if not (m >> base) & sum(masks))
    pairs.insert(int(rng.integers(len(pairs) + 1)), free | M)
    terms = {}
    for i, m in enumerate(pairs):
        terms.setdefault(m, rng.standard_normal(NODES) + 1j * rng.standard_normal(NODES)
                         if batch and i % 3 == 1 else complex(*rng.standard_normal(2)))
    return Supernumber(top + 2 * nested, terms)


@settings(max_examples=80, deadline=None)
@given(slot=st.integers(0, 2), left=st.booleans(), batch=st.booleans(),
       nested=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_seeded_constant_product_equals_the_first_order_oracle(slot, left, batch, nested, seed):
    base = 3
    rng = np.random.default_rng(seed)
    body = rng.standard_normal(NODES) + 0j if batch and slot == 1 else complex(0.7, -0.2)
    bodies = [complex(1.5, 0.5), body, complex(-0.4, 0.0)]
    cut_vals, masks = seeded_slots(base, bodies, True)
    full_vals, _ = seeded_slots(base, bodies, False)
    k = complex(*rng.standard_normal(2))
    const, const_full = k * cut_vals[slot], k * full_vals[slot]
    # generators above the window belong to a seeding nested in this one
    other = other_operand(rng, base, masks, nested, batch, masks[slot] << base)
    pair = (const, other) if left else (other, const)
    assert gr._seeded_constant_product(pair[0]._terms, pair[1]._terms, const._cut) is not None
    got = pair[0] * pair[1]
    full = const_full * other if left else other * const_full
    assert got._cut == const._cut
    assert same_bytes(got, first_order_oracle(full, base, masks))


def test_odd_seeded_constant_signs_the_shift_of_a_nested_term():
    # 0.5 + sigma_4 (odd slot, window {4}) times 2 + eta theta_0, with eta =
    # sigma_5 nested above the window: sigma_4 eta theta_0 = +theta_0 sigma_4 eta
    _, (const,), _ = gr.seed((), (gr.scalar(4, 0.5),), 4, first_order=True)
    other = 2.0 + gr.gen(6, 5) * gr.gen(6, 0)
    assert other.terms == {0: 2, 33: -1}
    for got in (const * other, other * const):
        assert got.coefficient(49) == 1
    _, (full,), _ = gr.seed((), (gr.scalar(4, 0.5),), 4)
    assert same_bytes(const * other, full * other)
    assert same_bytes(other * const, other * full)


def test_seeded_constant_drops_the_two_seed_terms_of_a_cut_free_operand():
    base = 2
    cut_vals, masks = seeded_slots(base, [0.7, 1.2, 0.5], True)
    full_vals, _ = seeded_slots(base, [0.7, 1.2, 0.5], False)
    two_seeds = full_vals[0] * full_vals[1]
    both = (masks[0] | masks[1]) << base
    assert both == 60 and both in two_seeds.terms and two_seeds._cut is None
    for const, full in zip(cut_vals, full_vals):
        for got, want in ((two_seeds * const, two_seeds * full),
                          (const * two_seeds, full * two_seeds)):
            assert both not in got.terms
            assert same_bytes(got, first_order_oracle(want, base, masks))


def test_seeded_constant_product_drops_sums_that_cancel_and_products_that_underflow():
    (const, *_), masks = seeded_slots(3, [1.0, 1.0, 1.0], True)
    M = masks[0] << 3
    other = Supernumber(const.L, {0b001: 2.0, M | 0b001: -2.0, 0b010: 1e-320})
    tiny = 1e-10 * const
    for got in (const * other, other * const):
        assert list(got.terms) == [0b001, 0b010, M | 0b010]
    for got in (tiny * other, other * tiny):
        assert 0b010 not in got.terms and M | 0b010 not in got.terms


# ---------------------------------------------------------------------------
# dense block products
# ---------------------------------------------------------------------------

L = 8


def entry_loop(P, Q):
    """The per-entry loop: sum_k P[i][k] * Q[k][j], one product at a time."""
    return [[sum((P[i][k] * Q[k][j] for k in range(len(Q))), gr.zero(L))
             for j in range(len(Q[0]))] for i in range(len(P))]


def block_product(P, Q):
    """P Q as ``Supermatrix.__matmul__`` forms it, for blocks of any shape:
    one entry decision, then ``_mat_mul`` on vectors or on the elements."""
    return gr._on_vectors(sl._mat_mul, L, P, Q)


@pytest.fixture
def block_paths(monkeypatch):
    """For each entry decision, whether it took the vector path."""
    taken = []
    decide = gr._dense_rows

    def spy(L, *groups):
        out = decide(L, *groups)
        taken.append(out is not None)
        return out

    monkeypatch.setattr(gr, "_dense_rows", spy)
    return taken


@pytest.mark.parametrize("shape", [(2, 2, 2), (2, 1, 2), (1, 2, 1)])
def test_dense_block_product_matches_the_per_entry_loop(shape, block_paths):
    r, k, c = shape
    rng = np.random.default_rng(list(shape))
    for left in PARITIES:
        for right in PARITIES:
            P = [[dense(rng, L, left) for _ in range(k)] for _ in range(r)]
            Q = [[dense(rng, L, right) for _ in range(c)] for _ in range(k)]
            got = block_product(P, Q)
            want = entry_loop(P, Q)
            assert (len(got), len(got[0])) == (r, c)
            for i in range(r):
                for j in range(c):
                    scale = gr.max_abs(want[i][j])
                    assert got[i][j].L == L
                    assert gr.max_coeff_diff(got[i][j], want[i][j]) <= 1e-14 * scale
    assert block_paths == [True] * len(PARITIES) ** 2


def spoil(case, P, Q, rng):
    """Put one entry in P or Q that the dense block path cannot take."""
    if case == "batch":
        P[0][1] = P[0][1] + Supernumber(L, {0b11: np.arange(1.0, NODES + 1)})
    elif case == "inf":
        P[1][0] = P[1][0] + 1e200 * Supernumber(L, {0b11: 1e200})  # overflows to inf
    elif case == "sparse":
        Q[1][1] = gr.gen(L, 0)  # one term: no product with it meets the crossover
    elif case == "mixed_L":
        P[0][0] = dense(rng, L - 2, "even")


@pytest.mark.parametrize("case", ["batch", "inf", "sparse", "mixed_L"])
def test_block_the_dense_path_cannot_take_gives_the_loops_answer(case, block_paths):
    rng = np.random.default_rng(len(case))
    P = [[dense(rng, L, "even") for _ in range(2)] for _ in range(2)]
    Q = [[dense(rng, L, "odd") for _ in range(2)] for _ in range(2)]
    spoil(case, P, Q, rng)
    got = block_product(P, Q)
    assert block_paths == [False]
    want = entry_loop(P, Q)
    for i in range(2):
        for j in range(2):
            assert same_bytes(got[i][j], want[i][j]), (i, j)


def dense_even_matrix(rng):
    """(2|2) even matrix with dense L=8 souls and invertible diagonal bodies."""
    def block(parity, shift):
        body = rng.standard_normal((2, 2)) + shift * np.eye(2)
        return [[dense(rng, L, parity, body=complex(body[i, j]) if shift else None, scale=0.3)
                 for j in range(2)] for i in range(2)]

    return from_blocks(block("even", 2.0), block("odd", 0.0), block("odd", 0.0),
                       block("even", 2.0), L=L)


def test_zero_entries_take_the_vector_path_with_the_loops_bytes(block_paths):
    # an antisymmetric block has zeros on its diagonal, so zero entries pass
    # the entry decision; they stay the zero element and cost no kernel call
    rng = np.random.default_rng(4)
    P = [[dense(rng, L, "even") for _ in range(2)] for _ in range(2)]
    Q = [[dense(rng, L, "odd") for _ in range(2)] for _ in range(2)]
    Q[1][1] = gr.zero(L)
    got = block_product(P, Q)
    assert block_paths == [True]
    want = entry_loop(P, Q)
    for i in range(2):
        for j in range(2):
            assert same_bytes(got[i][j], want[i][j]), (i, j)


def test_sdet_of_a_dense_product_equals_the_per_entry_loop_bit_for_bit(monkeypatch,
                                                                         block_paths):
    rng = np.random.default_rng(88)
    M, N = dense_even_matrix(rng), dense_even_matrix(rng)
    fast = sdet(M @ N)
    assert block_paths and all(block_paths[:1]) and any(block_paths[1:])
    monkeypatch.setattr(gr, "_dense_rows", lambda L, *groups: None)
    slow = sdet(M @ N)
    assert same_bytes(fast, slow)
