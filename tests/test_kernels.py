import itertools
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from guesslab import _kernels
from guesslab.coding import CodingFunction, min_net
from guesslab.errors import PreconditionError

from conftest import coding_functions, random_digraph

# (q-1)**2 + q fits in int64 for the first prime and not for the second
LARGEST_INT64_PRIME = 3037000493
SMALLEST_OVERFLOW_PRIME = 3037000507


def slow_rank(mat, q):
    """Rank over GF(q) by textbook Gauss-Jordan elimination on Python ints."""
    m = [[int(x) % q for x in r] for r in mat]
    rows, cols = len(m), len(m[0]) if len(m) else 0
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], -1, q)
        m[r] = [(x * inv) % q for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(x - f * y) % q for x, y in zip(m[i], m[r])]
        r += 1
    return r


def _batch(kind, q, n, size, seed):
    rng = np.random.default_rng(seed)
    if kind == "zero":
        return np.zeros((size, n, n), dtype=np.int64)
    if kind == "identity":
        return np.broadcast_to(np.eye(n, dtype=np.int64), (size, n, n)).copy()
    if kind == "deficient":
        # a product through an r-dimensional space has rank at most r < n
        r = rng.integers(0, max(n, 1), size=size)
        left = rng.integers(0, q, size=(size, n, n), dtype=np.int64)
        right = rng.integers(0, q, size=(size, n, n), dtype=np.int64)
        left *= (np.arange(n) < r[:, None])[:, None, :]
        return np.einsum("bij,bjk->bik", left % q, right % q) % q
    mats = rng.integers(0, q, size=(size, n, n), dtype=np.int64)
    if kind == "unreduced":
        mats += q * rng.integers(-(2**40), 2**40, size=mats.shape)
    return mats


def test_rank_against_row_reduction_oracle():
    rng = np.random.default_rng(7)
    mats = rng.integers(0, 3, size=(50, 5, 5)).astype(np.int64)
    got = _kernels.modular_ranks(mats.copy(), 3)
    for i in range(50):
        assert got[i] == slow_rank(mats[i], 3)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    q=st.sampled_from([2, 3, 5, 7, 13, 181, 191]),
    n=st.integers(0, 8),
    size=st.integers(1, 6),
    kind=st.sampled_from(["random", "zero", "identity", "deficient", "unreduced"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_ranks_match_python_elimination(q, n, size, kind, seed):
    mats = _batch(kind, q, n, size, seed)
    before = mats.copy()
    got = _kernels.modular_ranks(mats, q)
    assert np.array_equal(mats, before)
    assert got.shape == (size,)
    want = [slow_rank(m, q) for m in mats]
    assert got.tolist() == want
    if kind == "zero":
        assert want == [0] * size
    if kind == "identity":
        assert want == [n] * size
    if kind == "deficient" and n:
        assert max(want) < n


@pytest.mark.parametrize("kind", ["random", "deficient", "identity"])
def test_gf2_ranks_wider_than_one_word(kind):
    mats = _batch(kind, 2, 65, 4, seed=65)
    got = _kernels.modular_ranks(mats, 2)
    assert got.tolist() == [slow_rank(m, 2) for m in mats]


def packed_rows(mats):
    """(n, B) rows of a (B, n, n) batch, bit u of row i holding mats[b, i, u] mod 2,
    as Python ints, packed one bit at a time."""
    B, n = mats.shape[0], mats.shape[1]
    return [[sum((int(mats[b, i, u]) & 1) << u for u in range(n)) for b in range(B)]
            for i in range(n)]


# each dtype's widest n and the next n, which needs the next dtype
@pytest.mark.parametrize("n", [0, 1, 8, 9, 16, 17, 32, 33, 63, 64])
@pytest.mark.parametrize("kind", ["random", "deficient", "identity", "zero"])
def test_gf2_ranks_at_the_dtype_edges(n, kind):
    mats = _batch(kind, 2, n, 5, seed=n)
    want = [slow_rank(m, 2) for m in mats]
    dt = np.min_scalar_type((1 << n) - 1)
    rows = np.array(packed_rows(mats), dtype=dt).reshape(n, 5)
    before = rows.copy()
    assert _kernels.gf2_ranks(rows).tolist() == want
    assert np.array_equal(rows, before)
    # Python ints in an object array, and the packing done by modular_ranks
    assert _kernels.gf2_ranks(rows.astype(object)).tolist() == want
    assert _kernels.modular_ranks(mats, 2).tolist() == want
    if kind == "deficient" and n:
        assert max(want) < n
    assert _kernels.gf2_ranks(np.zeros((n, 0), dtype=dt)).shape == (0,)


def test_ranks_at_the_int64_limit():
    mats = _batch("random", LARGEST_INT64_PRIME, 4, 3, seed=3)
    mats[0, 3] = (2 * mats[0, 1] + 5 * mats[0, 2]) % LARGEST_INT64_PRIME
    got = _kernels.modular_ranks(mats, LARGEST_INT64_PRIME)
    assert got.tolist() == [slow_rank(m, LARGEST_INT64_PRIME) for m in mats]
    assert got[0] <= 3
    with pytest.raises(PreconditionError):
        _kernels.modular_ranks(np.ones((1, 2, 2), dtype=np.int64), SMALLEST_OVERFLOW_PRIME)


def test_ranks_of_an_empty_batch():
    assert _kernels.modular_ranks(np.zeros((0, 3, 3), dtype=np.int64), 3).shape == (0,)


def test_fix_mask_against_state_enumeration():
    rng = random.Random(5)
    for _ in range(30):
        g = random_digraph(rng, rng.randint(1, 5), p=0.4, loops=True)
        f = min_net(g, rng.choice([2, 3]))
        want = []
        for x in itertools.product(range(f.q), repeat=f.n):
            row = [0] * f.n
            for v in range(f.n):
                for u in f.supports[v]:
                    row[v] = row[v] * f.q + x[u]
            want.append(int(all(f.tables[v][row[v]] == x[v] for v in range(f.n))))
        got = _kernels.fixed_point_mask(f.n, f.q, f.supports, f.tables)
        assert got.tolist() == want


def full_enumeration_mask(n, q, supports, tables):
    """The kernel before prefix pruning: decode every state, test every vertex."""
    digs = _kernels._digits(np.arange(q**n), n, q)
    ok = np.ones(q**n, dtype=bool)
    for v in range(n):
        rows = _kernels._support_rows(digs, supports[v], q)
        ok &= np.asarray(tables[v], dtype=np.int64)[rows] == digs[:, v]
    return ok.astype(np.uint8)


@pytest.mark.parametrize("block", [_kernels.STATE_BLOCK, 4], ids=["default", "split"])
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(f=coding_functions(min_n=0, max_n=6, max_q=4))
@example(f=CodingFunction(0, 3, (), ()))
def test_fix_mask_matches_full_enumeration(block, f):
    # a block of 4 codes splits every frontier of more than 4 // q codes
    with mock.patch.object(_kernels, "STATE_BLOCK", block):
        got = _kernels.fixed_point_mask(f.n, f.q, f.supports, f.tables)
    assert got.dtype == np.uint8
    assert np.array_equal(got, full_enumeration_mask(f.n, f.q, f.supports, f.tables))


def test_ids_counts_against_subset_loop():
    rng = random.Random(77)
    for _ in range(20):
        g = random_digraph(rng, rng.randint(1, 10), p=0.3)
        masks = g.in_masks()
        need = [1 if g.in_degree(v) > 0 else 0 for v in range(g.n)]
        want = [0] * (g.n + 1)
        for x in range(1 << g.n):
            if all(not need[v] or x >> v & 1 or x & masks[v] for v in range(g.n)):
                want[x.bit_count()] += 1
        assert _kernels.ids_size_counts(masks, need, g.n).tolist() == want
