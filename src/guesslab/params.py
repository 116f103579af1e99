"""Exact combinatorial parameters of small digraphs.

Everything here is exact branch-and-bound or exhaustive search.  Each
search refuses a graph over its one vertex bound, a module constant below
read when the search is called, before it starts; functions built on the
searches take no bound of their own.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _kernels
from ._bitset import bits, max_clique, max_independent_set, maximal_cliques_containing, subset_masks
from .digraph import _peel
from .errors import PreconditionError, check_bound

ALPHA_LIMIT = 16
CYCLE_LIMIT = 12
PARTITION_LIMIT = 12
IDS_LIMIT = 20
MODEL_LIMIT = 7
MATCHING_LIMIT = 20


@dataclass(frozen=True)
class GraphParams:
    """k: min feedback vertex set, alpha: max acyclic set, c: max disjoint
    cycles, mu: max matching, cp: min clique partition, isolated count."""

    k: int
    alpha: int
    c: int
    mu: int
    cp: int
    isolated: int


def _sym_adj(g):
    """Undirected adjacency bitmasks: the arcs present in both directions,
    loops dropped."""
    ins, outs = g.in_masks(), g.out_masks()
    return [ins[v] & outs[v] & ~(1 << v) for v in range(g.n)]


def _find_short_cycle(out_masks, mask):
    """A shortest directed cycle inside mask, as a vertex tuple, or None."""
    best = None
    for s in bits(mask):
        if out_masks[s] >> s & 1:
            return (s,)
        # BFS from s back to s
        dist = {s: 0}
        parent = {}
        frontier = [s]
        found = None
        while frontier and found is None:
            nxt = []
            for u in frontier:
                for w in bits(out_masks[u] & mask):
                    if w == s:
                        found = u
                        break
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        parent[w] = u
                        nxt.append(w)
                if found is not None:
                    break
            frontier = nxt
        if found is not None:
            cyc = [found]
            while cyc[-1] != s:
                cyc.append(parent[cyc[-1]])
            cyc.reverse()
            if best is None or len(cyc) < len(best):
                best = tuple(cyc)
                if len(best) <= 2:
                    return best
    return best


def max_acyclic_set(g):
    """A maximum acyclic vertex set, as a frozenset."""
    check_bound("vertices for a max acyclic set", g.n, ALPHA_LIMIT, "guesslab.params.ALPHA_LIMIT")
    return _max_acyclic_set(g)


def _max_acyclic_set(g):
    """max_acyclic_set with no vertex bound."""
    universe = sum(1 << v for v in range(g.n) if not g.has_loop(v))
    if g.is_undirected():
        return frozenset(bits(max_independent_set(_sym_adj(g), g.n, universe)))

    out_masks = g.out_masks()
    best = 0
    seen = set()

    def greedy_packing(mask):
        cnt = 0
        while True:
            cyc = _find_short_cycle(out_masks, mask)
            if cyc is None:
                return cnt
            for v in cyc:
                mask &= ~(1 << v)
            cnt += 1

    def rec(mask):
        nonlocal best
        if mask.bit_count() <= best.bit_count() or mask in seen:
            return
        seen.add(mask)
        cyc = _find_short_cycle(out_masks, mask)
        if cyc is None:
            best = mask
            return
        # every vertex-disjoint cycle forces at least one exclusion
        rest = mask
        for v in cyc:
            rest &= ~(1 << v)
        if mask.bit_count() - 1 - greedy_packing(rest) <= best.bit_count():
            return
        for v in cyc:
            rec(mask & ~(1 << v))

    rec(universe)
    return frozenset(bits(best))


def acyclic_number(g):
    return len(max_acyclic_set(g))


def feedback_number(g):
    """k(G), the minimum feedback vertex set size."""
    return g.n - acyclic_number(g)


def all_max_acyclic_sets(g):
    """Every maximum acyclic set; the minimum feedback vertex sets are the
    complements."""
    check_bound("vertices for all max acyclic sets", g.n, CYCLE_LIMIT,
                "guesslab.params.CYCLE_LIMIT")
    ins = g.in_masks()
    alpha_sets = subset_masks(g.n, acyclic_number(g))
    return [frozenset(bits(m)) for m in alpha_sets if _peel(ins, m) is not None]


def min_feedback_vertex_sets(g):
    everything = frozenset(range(g.n))
    return [everything - s for s in all_max_acyclic_sets(g)]


def _minimal_cycles_through(out_masks, in_masks, mask, v):
    """Directed cycles through v inside mask with no shorter v-cycle inside
    their vertex set, as (vertex mask, cycle) pairs.  Forward chords and
    interior arcs back to v are pruned, which preserves at least one
    optimal packing."""
    cycles = []
    if out_masks[v] >> v & 1:
        return [(1 << v, (v,))]

    def walk(path, path_mask):
        last = path[-1]
        for w in bits(out_masks[last] & mask & ~path_mask):
            # no arc from an earlier path vertex into w (forward chord)
            if any(out_masks[p] >> w & 1 for p in path[:-1]):
                continue
            if out_masks[w] >> v & 1:
                cycles.append((path_mask | 1 << w, tuple(path) + (w,)))
                continue
            walk(path + [w], path_mask | (1 << w))

    if out_masks[v] & in_masks[v] & mask & ~(1 << v):
        for w in bits(out_masks[v] & in_masks[v] & mask & ~(1 << v)):
            cycles.append((1 << v | 1 << w, (v, w)))
    for w in bits(out_masks[v] & mask & ~(1 << v)):
        if in_masks[v] >> w & 1:
            continue  # already recorded as a 2-cycle
        walk([v, w], (1 << v) | (1 << w))
    return cycles


def _max_packing(n, through):
    """(count, pieces): a largest family of vertex-disjoint pieces inside
    range(n).  through(mask) gives a vertex v of mask and the pieces inside
    mask through v, as (vertex mask, piece) pairs, or None if mask holds no
    piece; each mask either leaves v out or uses one piece through it."""
    memo = {}

    def rec(mask):
        if mask in memo:
            return memo[mask]
        found = through(mask)
        best = (0, ())
        if found is not None:
            v, pieces = found
            best = rec(mask & ~(1 << v))
            for used, piece in pieces:
                cnt, rest = rec(mask & ~used)
                if cnt + 1 > best[0]:
                    best = (cnt + 1, (piece,) + rest)
        memo[mask] = best
        return best

    return rec((1 << n) - 1)


def max_disjoint_cycles(g):
    """(count, cycles): a maximum family of vertex-disjoint directed cycles."""
    check_bound("vertices for disjoint cycle packing", g.n, CYCLE_LIMIT,
                "guesslab.params.CYCLE_LIMIT")
    in_masks = g.in_masks()
    out_masks = g.out_masks()
    undirected = g.is_undirected()

    def through(mask):
        if undirected:
            # a loop or an edge is a cycle: the lowest such vertex is the
            # lowest vertex of the shortest cycle _find_short_cycle returns
            v = next((v for v in bits(mask) if out_masks[v] & mask), None)
        else:
            short = _find_short_cycle(out_masks, mask)
            v = None if short is None else min(short)
        if v is None:
            return None
        return v, _minimal_cycles_through(out_masks, in_masks, mask, v)

    return _max_packing(g.n, through)


def max_matching(g):
    """Maximum matching size over the symmetric (undirected) edges."""
    check_bound("vertices for max matching", g.n, MATCHING_LIMIT, "guesslab.params.MATCHING_LIMIT")
    adj = _sym_adj(g)

    def through(mask):
        for u in bits(mask):
            if adj[u] & mask:
                return u, [(1 << u | 1 << w, (u, w)) for w in bits(adj[u] & mask)]
        return None

    return _max_packing(g.n, through)[0]


def _clique_covers(g, pairs, budget):
    """Covers of every pair {u, w} with w in pairs[u] by cliques of the
    undirected part of g, as lists of bitmasks: the first with at most
    `budget` cliques, each later one with fewer.  pairs[v] = 1 << v asks
    for v itself.

    Branches over the cliques through the lowest uncovered pair that are
    maximal among the vertices still holding one: cutting a cover's clique
    down to those vertices covers the same pairs, so the search is exact.
    A clique holds at most omega of those vertices, which prunes; after
    each cover found the search asks for one clique fewer.
    """
    adj = _sym_adj(g)
    omega = max(max_clique(adj, g.n).bit_count(), 1)
    cover = [1 << v for v in range(g.n) if pairs[v] and not adj[v]]  # lone vertices: a clique each

    def rec(uncovered):
        nonlocal budget
        live = sum(1 << v for v, m in enumerate(uncovered) if m)
        if live.bit_count() > (budget - len(cover)) * omega:
            return
        if not live:
            yield cover.copy()
            budget = len(cover) - 1
            return
        u = (live & -live).bit_length() - 1
        seed = 1 << u | uncovered[u] & -uncovered[u]
        for c in sorted(maximal_cliques_containing(adj, seed, live), key=int.bit_count, reverse=True):
            cover.append(c)
            yield from rec([m & ~c if c >> v & 1 else m for v, m in enumerate(uncovered)])
            cover.pop()

    return rec([m if adj[v] else 0 for v, m in enumerate(pairs)])


def _clique_cover(g, pairs, budget):
    """At most `budget` cliques covering the pairs, or None."""
    return next(_clique_covers(g, pairs, budget), None)


def _fewest_cliques(g, pairs):
    """The size of a smallest clique cover of the pairs; every pair on its
    own is a cover."""
    return min(map(len, _clique_covers(g, pairs, sum(m.bit_count() for m in pairs))))


def min_clique_partition(g):
    """Minimum number of cliques (bidirectional complete sets) covering V."""
    check_bound("vertices for clique partition", g.n, PARTITION_LIMIT,
                "guesslab.params.PARTITION_LIMIT")
    return _fewest_cliques(g, [1 << v for v in range(g.n)])


def isolated_count(g):
    return len(g.isolated_vertices())


def graph_params(g):
    """All exact parameters in one record."""
    alpha = acyclic_number(g)
    c, _ = max_disjoint_cycles(g)
    return GraphParams(
        k=g.n - alpha,
        alpha=alpha,
        c=c,
        mu=max_matching(g),
        cp=min_clique_partition(g),
        isolated=isolated_count(g),
    )


def is_vertex_full(g):
    """cp(G) == alpha(G).  A clique holds at most one vertex of an acyclic
    set, so cp >= alpha, and equality holds iff alpha cliques cover V."""
    check_bound("vertices for clique partition", g.n, PARTITION_LIMIT,
                "guesslab.params.PARTITION_LIMIT")
    return _clique_cover(g, [1 << v for v in range(g.n)], acyclic_number(g)) is not None


def is_edge_full(g):
    """Can alpha(G) - isolated cliques cover every edge?  Implies undirected.

    A clique holds at most one vertex of an independent set, so no cover is
    smaller.  On undirected graphs this holds iff some (then every) maximum
    independent set is strongly compatible.
    """
    check_bound("vertices for edge cover by cliques", g.n, PARTITION_LIMIT,
                "guesslab.params.PARTITION_LIMIT")
    if not g.is_undirected() or not g.is_loopless():
        return False
    return _clique_cover(g, _sym_adj(g), acyclic_number(g) - isolated_count(g)) is not None


def in_dominating_counts(g):
    """counts[k] = number of in-dominating sets of size k.  Loopless only."""
    check_bound("vertices for in-dominating sets", g.n, IDS_LIMIT, "guesslab.params.IDS_LIMIT")
    if not g.is_loopless():
        raise PreconditionError("in-dominating sets are defined for loopless graphs")
    in_masks = g.in_masks()
    need = [1 if m else 0 for m in in_masks]
    return tuple(int(x) for x in _kernels.ids_size_counts(in_masks, need, g.n))


def count_in_dominating_sets(g, k):
    counts = in_dominating_counts(g)
    if not (0 <= k <= g.n):
        return 0
    return counts[k]


def _check_model_graph(g):
    check_bound("vertices for an intersection model", g.n, MODEL_LIMIT,
                "guesslab.params.MODEL_LIMIT")
    if not g.is_undirected() or not g.is_loopless():
        raise PreconditionError("intersection models need an undirected loopless graph")


def min_intersection_model(g, budget):
    """An intersection model over a ground set of size `budget`, or None.

    Vertices get subsets X_v of range(budget) with u ~ v iff X_u and X_v
    intersect.  A cover C_0..C_{b-1} of the edges by b <= budget cliques
    gives the model X_v = {i : v in C_i}, and every model arises this way
    (Erdos-Goodman-Posa); isolated vertices get the empty set.
    """
    _check_model_graph(g)
    cover = _clique_cover(g, _sym_adj(g), budget)
    if cover is None:
        return None
    return tuple(frozenset(i for i, c in enumerate(cover) if c >> v & 1) for v in range(g.n))


def intersection_number(g):
    """Smallest ground-set size admitting an intersection model: the edge
    clique cover number."""
    _check_model_graph(g)
    return _fewest_cliques(g, _sym_adj(g))
