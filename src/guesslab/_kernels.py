"""Hot numeric kernels, vectorised with numpy.

- `fixed_point_mask`: which states of a coding function are fixed points,
  by growing state prefixes one vertex at a time and dropping each prefix
  as soon as a vertex whose inputs it sets is not fixed; memory is bounded
  by `STATE_BLOCK` codes per level, not by the q**n states.
- `modular_ranks`: ranks over GF(q) of a batch of square matrices, by a
  swap-free elimination; over GF(2) each row is packed into one machine
  word and eliminated by XOR (the M4RI idea, Albrecht-Bard-Hart 2010).
- `ids_size_counts`: in-dominating sets counted by size, over all subsets.

There is one implementation per kernel; `backend()` names it.
"""

from __future__ import annotations

import numpy as np

from .errors import PreconditionError


def backend() -> str:
    return "numpy"


# ---------------------------------------------------------------------------
# state codes and the fixed-point mask
# ---------------------------------------------------------------------------
#
# State code c encodes x big-endian: x[0] is the most significant digit, so
# ascending codes are lexicographically ascending tuples.  A table over a
# support is indexed the same way by the support's digits.

# fixed_point_mask holds at most STATE_BLOCK prefix codes per level (512 KiB
# of int64, so n * 512 KiB in all), and guessing._fix_masks decodes this many
# states at once (n * 512 KiB of digits).  Blocks of 2**18 codes, which leave
# a 2 MiB L2 cache, made fixed_point_mask 2x slower on 10-vertex identities.
STATE_BLOCK = 1 << 16


def _digits(codes, n, q):
    """(B, n) big-endian base-q digits of a batch of state codes."""
    weights = q ** np.arange(n - 1, -1, -1, dtype=np.int64)
    return (np.asarray(codes, dtype=np.int64)[:, None] // weights) % q


def _support_rows(digs, support, q):
    """Table row index of each decoded state, projected onto support."""
    weights = q ** np.arange(len(support) - 1, -1, -1, dtype=np.int64)
    return digs[:, list(support)] @ weights


def fixed_point_mask(n, q, supports, tables):
    """uint8 mask over state codes 0..q**n-1, 1 where f(x) == x.

    Prefix codes grow by one digit per level, in vertex order.  Vertex v is
    checked at level max(v, *supports[v]), where its own digit and its
    support's digits are first all set, and the prefixes it rejects are
    dropped.  A frontier that would grow past STATE_BLOCK codes is split and
    each part is finished depth-first.
    """
    closing = [[] for _ in range(n)]
    for v in range(n):
        closing[max((v, *supports[v]))].append(v)
    tabs = [np.asarray(t, dtype=np.int64) for t in tables]
    step = max(STATE_BLOCK // q, 1)
    out = np.zeros(q**n, dtype=np.uint8)
    stack = [(np.zeros(1, dtype=np.int64), 0)]
    while stack:
        codes, level = stack.pop()
        if level == n:
            out[codes] = 1
        elif len(codes) > step:
            stack += [(codes[i : i + step], level) for i in range(0, len(codes), step)]
        elif len(codes):
            codes = (codes[:, None] * q + np.arange(q)).ravel()
            for v in closing[level]:
                row = 0
                for u in supports[v]:
                    row = row * q + codes // q ** (level - u) % q
                codes = codes[tabs[v][row] == codes // q ** (level - v) % q]
            stack.append((codes, level + 1))
    return out


# ---------------------------------------------------------------------------
# batched rank over GF(q)
# ---------------------------------------------------------------------------
#
# Both eliminations are swap-free: for each column the first row that is
# nonzero there is the pivot, and a multiple of it is subtracted from every
# row that is nonzero there, the pivot row included.  The pivot row becomes
# zero, so it retires itself with no row swap and no gather or scatter of
# whole matrices; the rank is the number of columns that found a pivot.


def _ranks_gf2_packed(mats):
    """GF(2) ranks with each row of at most 64 columns in one uint64."""
    B, n, _ = mats.shape
    weights = np.uint64(1) << np.arange(n, dtype=np.uint64)
    rows = (mats & 1).astype(np.uint64) @ weights
    ranks = np.zeros(B, dtype=np.int64)
    bidx = np.arange(B)
    for c in range(n):
        has = (rows & weights[c]) != 0
        prow = rows[bidx, has.argmax(axis=1)]
        rows ^= np.where(has, prow[:, None], np.uint64(0))
        ranks += (prow & weights[c]) != 0
    return ranks


def _narrowest_dtype(q):
    need = (q - 1) ** 2 + q
    for dt in (np.int16, np.int32, np.int64):
        if need <= np.iinfo(dt).max:
            return dt
    raise PreconditionError(f"GF({q}) ranks need (q-1)**2 + q = {need} to fit in int64")


def _inverses(a, q):
    """a**(q-2) mod q: the inverse of each unit of a, by Fermat's little theorem.

    Square-and-multiply takes log2(q) steps and needs no table of q entries.
    """
    out = np.ones_like(a)
    e = q - 2
    while e:
        if e & 1:
            out = out * a % q
        a = a * a % q
        e >>= 1
    return out


def _ranks_mod(mats, q):
    """GF(q) ranks, entries held in the narrowest dtype that holds (q-1)**2 + q.

    Only the pivot column and the pivot row are reduced mod q at each step.
    The rest of the matrix is reduced only when the running bound on its
    entries' magnitude would otherwise leave the dtype.
    """
    B, n, _ = mats.shape
    dt = _narrowest_dtype(q)
    if mats.min() < 0 or mats.max() >= q:
        mats = mats % q
    A = mats.astype(dt)
    step = (q - 1) ** 2
    limit = np.iinfo(dt).max
    bound = q - 1  # no entry of A exceeds this in magnitude
    ranks = np.zeros(B, dtype=np.int64)
    bidx = np.arange(B)
    for c in range(n):
        col = A[:, :, c] % q
        piv = (col != 0).argmax(axis=1)
        pc = col[bidx, piv]
        ranks += pc != 0
        if c + 1 == n:
            break
        rest = A[:, :, c + 1 :]
        if bound + step > limit:
            rest %= q
            bound = q - 1
        prow = rest[bidx, piv] % q * _inverses(pc, q)[:, None] % q
        rest -= col[:, :, None] * prow[:, None, :]
        bound += step
    return ranks


def modular_ranks(mats, q):
    """Ranks over GF(q), q prime, of a (B, n, n) integer batch; mats is unchanged.

    Entries are read mod q.  Raises PreconditionError when (q-1)**2 + q
    does not fit in int64.
    """
    mats = np.asarray(mats)
    B, n = mats.shape[0], mats.shape[1]
    if B == 0 or n == 0:
        return np.zeros(B, dtype=np.int64)
    if q == 2 and n <= 64:
        return _ranks_gf2_packed(mats)
    return _ranks_mod(mats, q)


# ---------------------------------------------------------------------------
# in-dominating set counts by size
# ---------------------------------------------------------------------------

def ids_size_counts(in_masks, need, n):
    """counts[k] = number of in-dominating sets of size k (loopless digraph)."""
    in_masks = np.asarray(in_masks, dtype=np.int64)
    need = np.asarray(need, dtype=np.uint8)
    if n == 0:
        return np.ones(1, dtype=np.int64)
    counts = np.zeros(n + 1, dtype=np.int64)
    total = 1 << n
    chunk = 1 << 20
    for start in range(0, total, chunk):
        xs = np.arange(start, min(start + chunk, total), dtype=np.int64)
        ok = np.ones(xs.shape[0], dtype=bool)
        for v in range(n):
            if need[v]:
                ok &= ((xs >> v) & 1 == 1) | ((xs & in_masks[v]) != 0)
        good = xs[ok]
        pc = np.zeros(good.shape[0], dtype=np.int64)
        for v in range(n):
            pc += (good >> v) & 1
        counts += np.bincount(pc, minlength=n + 1)
    return counts
