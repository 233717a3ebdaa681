"""The table kernel behind dense products, checked against independent oracles.

Hypothesis draws at most 6 terms per operand, so the property tests in
test_grassmann.py never reach the kernel; every product here does.
"""

import numpy as np
import pytest

from supercalc import grassmann as gr
from supercalc.grassmann import Supernumber

from helpers import dense_from, dense_max_diff, dense_mul_oracle, same_bytes

PARITIES = ("even", "odd", "mixed")
HOMOGENEOUS = ("even", "odd")


def dense(rng, L, parity, masks=None):
    """Every mask of the given parity (or of `masks`) with a random coefficient."""
    if masks is None:
        masks = [m for m in range(1 << L)
                 if parity == "mixed" or m.bit_count() % 2 == (parity == "odd")]
    coeffs = rng.standard_normal(len(masks)) + 1j * rng.standard_normal(len(masks))
    return Supernumber(L, dict(zip(masks, coeffs.tolist())))


@pytest.fixture
def kernel_calls(monkeypatch):
    """(L, pair count, answered) for each product that reaches the table
    kernel; answered is False when it handed the product back to the dict loop."""
    calls = []
    kernel = gr._table_product

    def counted(a, b):
        out = kernel(a, b)
        calls.append((a.L, len(a._terms) * len(b._terms), out is not None))
        return out

    monkeypatch.setattr(gr, "_table_product", counted)
    return calls


def dict_loop_product(monkeypatch, a, b):
    with monkeypatch.context() as m:
        m.setattr(gr, "_TABLE_MAX_L", -1)
        return a * b


def test_table_sign_matches_reorder_sign_for_every_disjoint_pair():
    for L in range(9):
        J, K, bins, positive = gr._pair_table(L)
        pairs = list(zip(J.tolist(), K.tolist()))
        assert len(pairs) == 3 ** L
        assert len(set(pairs)) == 3 ** L
        for i, (j, k) in enumerate(pairs):
            assert j & k == 0
            assert gr._reorder_sign(j, k) == (1 if i < positive else -1)
        assert np.array_equal(bins[0::2], 2 * (J | K))
        assert np.array_equal(bins[1::2], 2 * (J | K) + 1)


def whole_table_product(monkeypatch, a, b):
    """a * b over the table kernel with every product taking the whole table."""
    with monkeypatch.context() as m:
        m.setattr(gr, "_pair_block", lambda L, pj, pk: gr._pair_table(L))
        return gr._table_product(a, b)


def test_pair_blocks_split_the_table_by_parity_in_its_order():
    for L in range(9):
        J, K, bins, _ = gr._pair_table(L)
        sizes = {}
        for pj in (0, 1):
            for pk in (0, 1):
                bJ, bK, bbins, positive = gr._pair_block(L, pj, pk)
                keep = [i for i, (j, k) in enumerate(zip(J.tolist(), K.tolist()))
                        if j.bit_count() % 2 == pj and k.bit_count() % 2 == pk]
                assert bJ.tolist() == J[keep].tolist()
                assert bK.tolist() == K[keep].tolist()
                assert bbins.tolist() == bins.reshape(-1, 2)[keep].ravel().tolist()
                signs = [gr._reorder_sign(j, k) for j, k in zip(bJ.tolist(), bK.tolist())]
                assert signs == [1] * positive + [-1] * (len(signs) - positive)
                assert not any(a.flags.writeable for a in (bJ, bK, bbins))
                sizes[pj, pk] = len(bJ)
        assert sum(sizes.values()) == 3 ** L
        assert sizes[0, 0] == (3 ** L + 2 + (-1) ** L) // 4


@pytest.mark.parametrize("L", [6, 7, 8])
def test_block_products_equal_the_whole_table_bit_for_bit(L, monkeypatch):
    rng = np.random.default_rng(30 + L)
    for left in HOMOGENEOUS:
        for right in HOMOGENEOUS:
            x, y = dense(rng, L, left), dense(rng, L, right)
            assert same_bytes(gr._table_product(x, y), whole_table_product(monkeypatch, x, y))
            zero = gr.zero(L)
            for a, b in ((zero, y), (x, zero)):
                got = gr._table_product(a, b)
                assert got.is_zero() and same_bytes(got, whole_table_product(monkeypatch, a, b))


def test_overflowing_block_products_equal_the_whole_table_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(36)
    x, y = 1e200 * dense(rng, 6, "even"), 1e200 * dense(rng, 6, "odd")
    for a, b in ((x, x), (x, y), (y, x), (y, y)):
        got = gr._table_product(a, b)
        assert not gr._is_finite(got)
        assert same_bytes(got, whole_table_product(monkeypatch, a, b))


def test_a_mixed_operand_takes_the_whole_table(monkeypatch):
    rng = np.random.default_rng(37)
    blocks = []
    block = gr._pair_block

    def recorded(L, pj, pk):
        blocks.append((pj, pk, block(L, pj, pk)))
        return blocks[-1][-1]

    monkeypatch.setattr(gr, "_pair_block", recorded)
    even, odd, mixed = (dense(rng, 6, parity) for parity in PARITIES)
    for a, b in ((mixed, even), (odd, mixed), (mixed, mixed), (even, odd)):
        gr._table_product(a, b)
    whole = gr._pair_table(6)
    assert [(pj, pk) for pj, pk, _ in blocks] == [(None, 0), (1, None), (None, None), (0, 1)]
    assert all(table is whole for *_, table in blocks[:3])
    assert blocks[3][2] is block(6, 0, 1)


@pytest.mark.parametrize("L", [6, 7, 8])
def test_dense_products_match_the_oracle_for_every_parity_pair(L, kernel_calls):
    rng = np.random.default_rng(L)
    for left in PARITIES:
        for right in PARITIES:
            x, y = dense(rng, L, left), dense(rng, L, right)
            got = x * y
            want = dense_mul_oracle(dense_from(x), dense_from(y), L)
            assert dense_max_diff(dense_from(got), want) < 1e-12 * max(map(abs, want))
    assert [answered for *_, answered in kernel_calls] == [True] * len(PARITIES) ** 2


def test_dense_product_at_L10_matches_the_dict_loop(monkeypatch, kernel_calls):
    rng = np.random.default_rng(10)
    x, y = dense(rng, 10, "even"), dense(rng, 10, "odd")
    want = dict_loop_product(monkeypatch, x, y)
    assert not kernel_calls
    got = x * y
    assert kernel_calls == [(10, 512 * 512, True)]
    assert got.terms.keys() == want.terms.keys()
    assert gr.max_coeff_diff(got, want) < 1e-12 * gr.max_abs(want)


def test_table_product_stores_no_zero_coefficient(kernel_calls):
    rng = np.random.default_rng(1)
    x, y = dense(rng, 8, "even"), dense(rng, 8, "odd")
    prod = x * y
    assert all(m.bit_count() % 2 == 1 for m in prod.terms)
    assert all(c != 0 for c in prod.terms.values())
    # every term holds sigma_0, so every pair overlaps and the product is 0
    with_s0 = [m for m in range(1 << 6) if m & 1]
    a, b = dense(rng, 6, None, with_s0), dense(rng, 6, None, with_s0)
    assert (a * b).is_zero()
    assert kernel_calls == [(8, 128 * 128, True), (6, 32 * 32, True)]


def test_table_product_promotes_an_operand_with_fewer_generators(kernel_calls):
    rng = np.random.default_rng(2)
    x, y = dense(rng, 6, "mixed"), dense(rng, 8, "even")
    got = x * y
    assert got.L == 8
    assert kernel_calls == [(8, 64 * 128, True)]
    want = dense_mul_oracle(dense_from(x.embed(8)), dense_from(y), 8)
    assert dense_max_diff(dense_from(got), want) < 1e-12 * max(map(abs, want))


def test_batch_operand_above_the_crossover_equals_its_nodes_one_at_a_time(kernel_calls):
    rng = np.random.default_rng(3)
    L, nodes = 6, 3
    y = dense(rng, L, "odd")
    batch = Supernumber(L, {m: rng.standard_normal(nodes) + 1j * rng.standard_normal(nodes)
                            for m in range(1 << L) if m.bit_count() % 2 == 0})
    got = batch * y
    for i in range(nodes):
        node = Supernumber(L, {m: complex(c[i]) for m, c in batch.terms.items()})
        want = node * y
        at_node = Supernumber(L, {m: complex(c[i]) for m, c in got.terms.items()})
        assert gr.max_coeff_diff(at_node, want) < 1e-12 * gr.max_abs(want)
    assert kernel_calls == [(L, 32 * 32, False)] + [(L, 32 * 32, True)] * nodes


def test_non_finite_operand_takes_the_dict_loop(monkeypatch, kernel_calls):
    rng = np.random.default_rng(4)
    x, y = dense(rng, 6, "even"), dense(rng, 6, "even")
    x = x + 1e200 * Supernumber(6, {0b11: 1e200})  # overflows to inf
    got = x * y
    assert kernel_calls == [(6, 32 * 32, False)]
    assert got.terms.keys() == dict_loop_product(monkeypatch, x, y).terms.keys()


def test_overflowing_table_product_is_quiet_like_the_dict_loop(kernel_calls):
    rng = np.random.default_rng(5)
    x = 1e200 * dense(rng, 6, "even")
    prod = x * x
    assert kernel_calls == [(6, 32 * 32, True)]
    assert not np.isfinite(prod.body)


def test_sparse_product_at_L20_builds_no_table(kernel_calls):
    rng = np.random.default_rng(6)
    misses = gr._pair_table.cache_info().misses
    block_misses = gr._pair_block.cache_info().misses
    few = dense(rng, 20, None, [1 << i for i in range(0, 20, 3)])
    many = dense(rng, 20, None, [1 << i for i in range(20)] + [0, 3, 5, 6])
    for a, b in ((few, few), (few, many), (many, many)):
        assert (a * b).L == 20
    assert len(many.terms) ** 2 >= gr._TABLE_MIN_PAIRS
    assert not kernel_calls
    assert gr._pair_table.cache_info().misses == misses
    assert gr._pair_block.cache_info().misses == block_misses
