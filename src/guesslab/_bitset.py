"""Branch-and-bound helpers over Python-int bitsets."""

from __future__ import annotations

import itertools

from .errors import check_bound


def bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def subset_masks(n, size):
    """Bitmasks of the size-subsets of 0..n-1, in itertools.combinations order."""
    return [sum(c) for c in itertools.combinations([1 << v for v in range(n)], size)]


def _complement(adj, universe):
    """Adjacency of the complement graph within universe, by vertex."""
    return {v: ~adj[v] & universe & ~(1 << v) for v in bits(universe)}


class _Stop(Exception):
    """Unwinds clique_search once its target is met or its budget spent."""


def clique_search(adj, universe, seed=0, target=None, orbits=None, budget=None):
    """(clique, nodes, orbit_pruned): a maximum clique within universe, as a
    bitmask, with the search nodes expanded and the root candidates dropped
    by orbits.

    Tomita-style search: candidates are greedily coloured and visited in
    reverse colour order, pruning when r_size + colour cannot beat the best.
    The incumbent starts as the larger of `seed`, a clique within universe,
    and a greedy clique.  The search returns its incumbent early once that
    has `target` vertices, or once it has expanded more than `budget` nodes.
    orbits[v] is a bitmask of vertices that automorphisms of the graph
    within universe map to v: a clique through one of them is the image of
    one through v, so once the root has branched on v they leave its
    candidates.
    """
    best = seed
    greedy = 0
    cand = universe
    while cand:
        v = (cand & -cand).bit_length() - 1
        greedy |= 1 << v
        cand &= adj[v]
    if greedy.bit_count() > best.bit_count():
        best = greedy
    best_size = best.bit_count()
    if target is None:
        target = universe.bit_count() + 1
    if budget is None:
        budget = float("inf")
    nodes = pruned = 0

    def expand(r_mask, r_size, p, drop):
        nonlocal best, best_size, nodes, pruned
        nodes += 1
        if nodes > budget:
            raise _Stop
        if p == 0:
            if r_size > best_size:
                best, best_size = r_mask, r_size
                if best_size >= target:
                    raise _Stop
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
            if p >> v & 1:  # else the root dropped v with an orbit
                expand(r_mask | (1 << v), r_size + 1, p & adj[v], None)
                p &= ~(1 << v)
                if drop is not None:
                    pruned += (p & drop[v]).bit_count()
                    p &= ~drop[v]

    if best_size < target:
        try:
            expand(0, 0, universe, orbits)
        except _Stop:
            pass
    return best, nodes, pruned


def max_clique(adj, n, universe=None):
    """Bitmask of a maximum clique of the graph given by adjacency bitmasks,
    refused past params.WORK_CAP search nodes, read when called."""
    # read here, not passed in: perfbench/spans.py counts this function's
    # work from (adj, n, universe) alone; params imports this module
    from . import params

    universe = (1 << n) - 1 if universe is None else universe
    clique, nodes, _ = clique_search(adj, universe, budget=params.WORK_CAP)
    check_bound("max clique search nodes", nodes, params.WORK_CAP, "guesslab.params.WORK_CAP")
    return clique


def max_independent_set(adj, n, universe=None):
    """Bitmask of a maximum independent set (clique of the complement), with
    no bound on the search: a reference for checking the bounded ones."""
    if universe is None:
        universe = (1 << n) - 1
    if all(adj[v] & universe == 0 for v in bits(universe)):
        return universe
    return clique_search(_complement(adj, universe), universe)[0]


def maximal_cliques_containing(adj, seed_mask, allowed, charge=None):
    """All maximal cliques within `allowed` that contain `seed_mask`.

    Bron-Kerbosch with pivoting on the common neighbourhood of the seed,
    depth first over an explicit stack; charge(1), if given, runs before
    each call.
    """
    out, frames = [], []  # frames: the open calls, as [r, p, x, branch vertices left]

    def call(r, p, x):
        if charge is not None:
            charge(1)
        if p | x:
            pivot = ((p | x) & -(p | x)).bit_length() - 1
            frames.append([r, p, x, p & ~adj[pivot]])
        else:
            out.append(r)

    p = allowed & ~seed_mask
    for v in bits(seed_mask):
        p &= adj[v]
    call(seed_mask, p, 0)
    while frames:
        r, p, x, left = frame = frames[-1]
        if not left:
            frames.pop()
            continue
        v = (left & -left).bit_length() - 1
        frame[1:] = p & ~(1 << v), x | 1 << v, left & ~(1 << v)
        call(r | 1 << v, p & adj[v], x & adj[v])
    return out
