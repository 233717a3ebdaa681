"""The one-pass builders of the flow's plumbing against the expressions they
stand in for, bit for bit.

* ``rk4_step`` forms each slot of a stage, a + c k, and of the step,
  a + (h/6) (((k1 + 2 k2) + 2 k3) + k4), as one element; the oracle is the
  stepper written with ``+`` and ``*`` on elements.
* ``seed`` builds each seeded value at once; the oracle embeds the slot value,
  adds its fresh monomial and re-wraps the sum with the cut.
* The dict loop signs its pairs with one mask per partner
  (``grassmann._sign_mask``); the oracles are the loop over the partner's bits
  that ``_reorder_sign`` ran before and an explicit insertion sort.
* ``_in_one_algebra`` returns groups already in one algebra as they are; the
  oracle puts every entry through ``_in_algebra``.
* ``odd_expand`` of a tuple-valued function expands every element from one
  seeding; the oracle is one call per element.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supercalc import grassmann as gr
from supercalc.berezin import OddPolynomial, odd_expand
from supercalc.grassmann import GrassmannError, Supernumber, gen, rk4_step, scalar, seed

from helpers import bits_of, perm_sign_by_sort, same_bytes

NODES = 3


def same(got, want):
    """Same L, masks in the same order, same coefficient types and bytes,
    and the same cut."""
    return same_bytes(got, want) and got._cut == want._cut


# ---------------------------------------------------------------------------
# oracles: the expressions the one-pass builders replace
# ---------------------------------------------------------------------------

def rk4_by_operators(field, t, y, h):
    def shifted(k, c):
        return tuple(a + c * b for a, b in zip(y, k))

    k1 = field(t, y)
    k2 = field(t + h / 2.0, shifted(k1, h / 2.0))
    k3 = field(t + h / 2.0, shifted(k2, h / 2.0))
    k4 = field(t + h, shifted(k3, h))
    return tuple(a + (h / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                 for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4))


def seed_by_operators(even, odd, L, first_order=False):
    m = len(even)
    Lw = L + 2 * m + len(odd)
    masks = [0b11 << 2 * j for j in range(m)] + [1 << 2 * m + s for s in range(len(odd))]
    lifted = [v.embed(Lw) + Supernumber(Lw, {mask << L: 1.0 + 0j}, gr._AS_IS)
              for v, mask in zip((*even, *odd), masks)]
    if first_order:
        cut = gr._Cut(L, (1 << (Lw - L)) - 1, frozenset([0, *masks]))
        lifted = [Supernumber(Lw, v._terms, gr._AS_IS, cut) for v in lifted]
    return tuple(lifted[:m]), tuple(lifted[m:]), masks


def in_one_algebra_by_entries(*groups, L=0):
    """Every entry of every group through ``_in_algebra``, as
    ``_in_one_algebra`` ran before it passed aligned groups through."""
    groups = [tuple(g) for g in groups]
    L = max([L, *(v.L for g in groups for v in g if isinstance(v, Supernumber))])
    return tuple(tuple(gr._in_algebra(v, L) for v in g) for g in groups), L


def sign_by_bit_loop(mj, mk):
    """The sort sign as ``_reorder_sign`` counted it pair by pair before."""
    count = 0
    kk = mk
    while kk:
        low = kk & -kk
        count += (mj >> low.bit_length()).bit_count()
        kk ^= low
    return -1 if (count & 1) else 1


# ---------------------------------------------------------------------------
# random elements: batches, a carried cut, mixed L, cancellations
# ---------------------------------------------------------------------------

# the cuts of two first-order seedings, over 1 and 2 generators; they fit L >= 3
CUTS = tuple(seed((), (gr.zero(L),), L, first_order=True)[1][0]._cut for L in (1, 2))


def element(rng, L, batch=False, cut_share=0.0, terms=4):
    """Random element with up to `terms` terms; with batch set, about half
    the coefficients carry NODES nodes, and from L = 3 up it carries one of
    CUTS with probability cut_share."""
    cut = CUTS[int(rng.integers(0, 2))] if L >= 3 and rng.random() < cut_share else None
    masks = rng.choice(1 << L, size=int(rng.integers(0, min(terms, 1 << L) + 1)), replace=False)
    out = {}
    for m in masks.tolist():
        if batch and rng.random() < 0.5:
            out[m] = rng.standard_normal(NODES) + 1j * rng.standard_normal(NODES)
        else:
            out[m] = complex(rng.standard_normal(), rng.standard_normal())
    X = Supernumber(L, out)
    return X if cut is None else Supernumber(L, X._terms, gr._AS_IS, cut)


def tiny(L):
    """An element whose coefficients underflow to 0 when scaled by 1/2 or less."""
    return Supernumber(L, {0: 5e-324, 1: np.full(NODES, 5e-324)})


def draw_state(rng):
    """A few slots of L 3 to 5, some batched, some carrying a cut."""
    return tuple(element(rng, int(rng.integers(3, 6)), batch=rng.random() < 0.5,
                         cut_share=0.3)
                 for _ in range(int(rng.integers(1, 5))))


def draw_slopes(rng, y, h):
    """k1..k4 for the state y: random elements, and elements that cancel a
    slot of y in a + c k (c = h/2, a power of two), or cancel in the sum
    (k2 = -k1/2, so k1 + 2 k2 is 0), or underflow when scaled."""
    ks = []
    for stage in range(4):
        k = []
        for j, a in enumerate(y):
            pick = rng.integers(0, 5)
            if pick == 0 and stage < 2:
                k.append(a * complex(-2.0 / h))
            elif pick == 1 and stage == 1:
                k.append(ks[0][j] * -0.5)
            elif pick == 2:
                k.append(tiny(a.L))
            else:
                k.append(element(rng, int(rng.integers(2, 6)), batch=rng.random() < 0.5,
                                 cut_share=0.2))
        ks.append(tuple(k))
    return ks


def replay(ks):
    """A field that returns k1, k2, k3 and k4 in turn, whatever its input."""
    calls = iter(ks)
    return lambda t, y: next(calls)


# ---------------------------------------------------------------------------
# rk4_step and seed
# ---------------------------------------------------------------------------

@settings(max_examples=150)
@given(st.integers(0, 2 ** 32 - 1))
def test_one_pass_rk4_step_equals_the_operator_expressions(key):
    rng = np.random.default_rng(key)
    y = draw_state(rng)
    h = 0.5
    ks = draw_slopes(rng, y, h)
    got = rk4_step(replay(ks), 0.0, y, h)
    want = rk4_by_operators(replay(ks), 0.0, y, h)
    assert len(got) == len(want)
    assert all(same(a, b) for a, b in zip(got, want))


def test_the_rk4_cases_reach_the_zero_drops():
    # the drawn cases include whole cancellations, so the drops are exercised
    dropped = 0
    for key in range(40):
        rng = np.random.default_rng(key)
        y = draw_state(rng)
        ks = draw_slopes(rng, y, 0.5)
        stage = tuple(a + 0.25 * k for a, k in zip(y, ks[0]))
        dropped += sum(len(s.terms) < len(set(a.terms) | set(k.terms))
                       for s, a, k in zip(stage, y, ks[0]))
    assert dropped > 0


@settings(max_examples=150)
@given(st.integers(0, 2 ** 32 - 1), st.booleans())
def test_one_pass_seed_equals_embed_add_and_cut(key, first_order):
    rng = np.random.default_rng(key)
    L = int(rng.integers(3, 6))
    even, odd = ([element(rng, int(rng.integers(0, L + 1)), batch=rng.random() < 0.5,
                          cut_share=0.3)
                  for _ in range(int(rng.integers(0, 3)))] for _ in range(2))
    got = seed(even, odd, L, first_order=first_order)
    want = seed_by_operators(even, odd, L, first_order=first_order)
    assert got[2] == want[2]
    for g, w in zip(got[:2], want[:2]):
        assert len(g) == len(w)
        assert all(same(a, b) for a, b in zip(g, w))


def test_seed_rejects_a_slot_value_wider_than_its_base():
    # sigma_5 would land among the fresh generators sigma_4, sigma_5, ...
    with pytest.raises(GrassmannError):
        seed((gen(6, 5),), (), 4)
    with pytest.raises(GrassmannError):
        seed((), (gen(3, 0), gen(5, 4)), 4, first_order=True)


@pytest.mark.parametrize("slots", [1, 3])
def test_rk4_step_rejects_a_field_of_the_wrong_length(slots):
    y = (scalar(2, 1.0), scalar(2, 2.0))
    with pytest.raises(GrassmannError):
        rk4_step(lambda t, y: (y[0],) * slots, 0.0, y, 0.1)


# ---------------------------------------------------------------------------
# the dict loop's sign: one mask per partner
# ---------------------------------------------------------------------------

@settings(max_examples=300)
@given(st.integers(1, 70).flatmap(
    lambda L: st.tuples(st.integers(0, (1 << L) - 1), st.integers(0, (1 << L) - 1))))
def test_the_partner_mask_gives_the_sort_sign(masks):
    mj, mk = masks
    mk &= ~mj
    want = sign_by_bit_loop(mj, mk)
    assert want == perm_sign_by_sort(bits_of(mj) + bits_of(mk))
    assert (-1) ** (mj & gr._sign_mask(mk)).bit_count() == want
    assert gr._reorder_sign(mj, mk) == want


# ---------------------------------------------------------------------------
# _combined: the L and the cut of the expression
# ---------------------------------------------------------------------------

def test_combined_takes_the_largest_L_and_the_first_cut_on_b():
    a, b = element(np.random.default_rng(1), 3), Supernumber(5, {0b10001: 2.0})
    b = Supernumber(5, b._terms, gr._AS_IS, CUTS[0])
    got = gr._combined(0.5 + 0j, a, b)
    assert got.L == 5 and got._cut == CUTS[0]
    assert same(got, a + 0.5 * b)


def test_combined_takes_the_first_cut_on_a_later_operand():
    rng = np.random.default_rng(2)
    a, b, b2 = (element(rng, L) for L in (4, 3, 5))
    b3, b4 = (Supernumber(L, element(rng, L)._terms, gr._AS_IS, cut)
              for L, cut in ((6, CUTS[1]), (3, CUTS[0])))
    for more, L, cut in (((b2, b3, b4), 6, CUTS[1]), ((b2, b2, b4), 5, CUTS[0])):
        got = gr._combined(0.25 + 0j, a, b, *more)
        assert got.L == L and got._cut == cut
        assert same(got, a + 0.25 * (((b + 2.0 * more[0]) + 2.0 * more[1]) + more[2]))


# ---------------------------------------------------------------------------
# _in_one_algebra: aligned groups pass through
# ---------------------------------------------------------------------------

def draw_entry(rng, L):
    """An element of L generators (sometimes a 1-node batch), an element of
    another L, or a number of one of the types callers pass."""
    pick = rng.integers(0, 6)
    if pick == 0:
        return element(rng, int(rng.integers(0, 6)), batch=rng.random() < 0.5)
    if pick == 1:
        return scalar(L, np.array([complex(rng.standard_normal(), 1.0)]))
    if pick == 2:
        return [1, -2.5, 3j, np.float64(0.5), 0.0][int(rng.integers(0, 5))]
    return element(rng, L, batch=rng.random() < 0.3, cut_share=0.2)


def draw_groups(rng):
    """Up to 3 groups of up to 3 entries, and the L= argument or none."""
    L = int(rng.integers(0, 6))
    groups = [[draw_entry(rng, L) for _ in range(int(rng.integers(0, 4)))]
              for _ in range(int(rng.integers(0, 4)))]
    return groups, ({"L": int(rng.integers(0, 7))} if rng.random() < 0.4 else {})


@settings(max_examples=200)
@given(st.integers(0, 2 ** 32 - 1))
def test_in_one_algebra_equals_the_entry_by_entry_path(key):
    groups, kwargs = draw_groups(np.random.default_rng(key))
    got, got_L = gr._in_one_algebra(*groups, **kwargs)
    want, want_L = in_one_algebra_by_entries(*groups, **kwargs)
    assert got_L == want_L and len(got) == len(want)
    for g_got, g_want, g in zip(got, want, groups):
        assert type(g_got) is tuple and len(g_got) == len(g_want)
        for a, b, v in zip(g_got, g_want, g):
            assert same(a, b)
            assert (a is v) == (b is v)


def test_the_in_one_algebra_cases_reach_both_paths():
    # aligned draws (every entry an element of one L, at least L=) and the rest
    aligned = 0
    for key in range(100):
        groups, kwargs = draw_groups(np.random.default_rng(key))
        entries = [v for g in groups for v in g]
        sizes = {v.L if isinstance(v, Supernumber) else -1 for v in entries}
        aligned += len(sizes) == 1 and min(sizes) >= kwargs.get("L", 0)
    assert 10 <= aligned <= 90


# ---------------------------------------------------------------------------
# odd_expand of several functions from one seeding
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n, L", [(1, 0), (2, 2), (2, 3), (3, 1)])
def test_a_tuple_valued_expansion_gives_the_parts_of_one_call_per_element(n, L):
    rng = np.random.default_rng(10 * n + L)
    polys = [OddPolynomial(n, {a: element(rng, L, batch=rng.random() < 0.5)
                               for a in range(1 << n)}, L=L) for _ in range(3)]
    shift = scalar(L, rng.standard_normal(NODES))
    exp = gr.AnalyticSpec.named("exp")

    def phase(th):
        # work the elements share, as the propagator columns share their phase
        odd = gen(L, 0) * th[0] if L else 0.0
        return gr.apply_analytic(exp, 0.5 + shift * th[0] * th[-1] + odd)

    fns = [lambda th, v=v: phase(th) * v.evaluate(th) for v in polys]
    fns.append(lambda th: 2.0)
    together = odd_expand(lambda th: tuple(f(th) for f in fns), n, L)
    assert type(together) is tuple and len(together) == len(fns)
    for got, f in zip(together, fns):
        want = odd_expand(f, n, L)
        assert (got.n, got.L) == (want.n, want.L)
        assert list(got.coefficients) == list(want.coefficients)
        assert all(same(got.coefficients[a], want.coefficients[a]) for a in want.coefficients)
    (alone,) = odd_expand(lambda th: (fns[0](th),), n, L)
    assert list(alone.coefficients) == list(together[0].coefficients)


def test_a_tuple_valued_expansion_rejects_any_element_that_escapes():
    with pytest.raises(GrassmannError, match="escaped"):
        odd_expand(lambda th: (th[0], gen(5, 4)), 2, 1)
