"""Branch-and-bound helpers over Python-int bitsets."""

from __future__ import annotations

import itertools


def bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def subset_masks(n, size):
    """Bitmasks of the size-subsets of 0..n-1, in itertools.combinations order."""
    return [sum(c) for c in itertools.combinations([1 << v for v in range(n)], size)]


def max_clique(adj, n, universe=None):
    """Bitmask of a maximum clique of the graph given by adjacency bitmasks.

    Tomita-style search: candidates are greedily coloured and visited in
    reverse colour order, pruning when r_size + colour cannot beat the best.
    """
    if universe is None:
        universe = (1 << n) - 1
    if universe == 0:
        return 0

    best = 0
    best_size = 0

    def expand(r_mask, r_size, p):
        nonlocal best, best_size
        if p == 0:
            if r_size > best_size:
                best, best_size = r_mask, r_size
            return
        order = []
        bound = []
        colour = 0
        rest = p
        while rest:
            colour += 1
            avail = rest
            while avail:
                v = (avail & -avail).bit_length() - 1
                order.append(v)
                bound.append(colour)
                rest &= ~(1 << v)
                avail &= rest & ~adj[v]
        for i in range(len(order) - 1, -1, -1):
            if r_size + bound[i] <= best_size:
                return
            v = order[i]
            expand(r_mask | (1 << v), r_size + 1, p & adj[v])
            p &= ~(1 << v)

    # greedy seed so the colour bound bites immediately
    seed = 0
    size = 0
    cand = universe
    while cand:
        v = (cand & -cand).bit_length() - 1
        seed |= 1 << v
        size += 1
        cand &= adj[v]
    best, best_size = seed, size

    expand(0, 0, universe)
    return best


def max_independent_set(adj, n, universe=None):
    """Bitmask of a maximum independent set (clique of the complement)."""
    if universe is None:
        universe = (1 << n) - 1
    if universe == 0:
        return 0
    if all(adj[v] & universe == 0 for v in bits(universe)):
        return universe
    comp = [0] * n
    for v in bits(universe):
        comp[v] = ~adj[v] & universe & ~(1 << v)
    return max_clique(comp, n, universe)


def maximal_cliques_containing(adj, seed_mask, allowed):
    """All maximal cliques within `allowed` that contain `seed_mask`.

    Bron-Kerbosch with pivoting on the common neighbourhood of the seed.
    """
    p = allowed & ~seed_mask
    for v in bits(seed_mask):
        p &= adj[v]

    out = []

    def extend(r, p_mask, x_mask):
        if p_mask == 0 and x_mask == 0:
            out.append(r)
            return
        pool = p_mask | x_mask
        pivot = (pool & -pool).bit_length() - 1
        for v in bits(p_mask & ~adj[pivot]):
            extend(r | (1 << v), p_mask & adj[v], x_mask & adj[v])
            p_mask &= ~(1 << v)
            x_mask |= 1 << v

    extend(seed_mask, p, 0)
    return out
