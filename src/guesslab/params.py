"""Exact combinatorial parameters of small digraphs.

Everything here is exact branch-and-bound or exhaustive search.  Each
search counts its work against WORK_CAP, read when it is called, in
units of at most tens of microseconds, and counts a listing before making
it; functions built on the searches take no bound of their own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _kernels
from ._bitset import _complement, bits, max_clique, maximal_cliques_containing, subset_masks
from .digraph import _peel
from .errors import PreconditionError, check_bound, meter

WORK_CAP = 1 << 20  # units of work per search, and sets per listing


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
    """A maximum acyclic vertex set, as a frozenset.  On an undirected graph
    it is a maximum independent set, one unit of work per search node.  A
    directed node can take milliseconds, so there each cycle scan of a mask
    costs one unit per vertex of the mask: the BFS roots it may try.
    Depth first over a stack of masks: a node packs shortest cycles
    greedily, each forcing one exclusion, and branches on the first."""
    universe = sum(1 << v for v in range(g.n) if not g.has_loop(v))
    if g.is_undirected():
        return frozenset(bits(max_clique(_complement(_sym_adj(g), universe), g.n, universe)))

    out_masks = g.out_masks()
    best = 0
    seen = set()
    charge = _meter("max acyclic set scan roots")
    stack = [universe]
    while stack:
        mask = stack.pop()
        if mask.bit_count() <= best.bit_count() or mask in seen:
            continue
        seen.add(mask)
        rest, cycles = mask, []
        while True:
            charge(rest.bit_count())
            cyc = _find_short_cycle(out_masks, rest)
            if cyc is None:
                break
            cycles.append(cyc)
            rest &= ~sum(1 << v for v in cyc)
        if not cycles:
            best = mask
        elif mask.bit_count() - len(cycles) > best.bit_count():
            stack += [mask & ~(1 << v) for v in reversed(cycles[0])]
    return frozenset(bits(best))


def acyclic_number(g):
    return len(max_acyclic_set(g))


def feedback_number(g):
    """k(G), the minimum feedback vertex set size."""
    return g.n - acyclic_number(g)


def all_max_acyclic_sets(g):
    """Every maximum acyclic set; the minimum feedback vertex sets are the
    complements."""
    alpha = acyclic_number(g)
    check_bound("vertex sets listed", math.comb(g.n, alpha), WORK_CAP, "guesslab.params.WORK_CAP")
    ins = g.in_masks()
    alpha_sets = subset_masks(g.n, alpha)
    return [frozenset(bits(m)) for m in alpha_sets if _peel(ins, m) is not None]


def min_feedback_vertex_sets(g):
    everything = frozenset(range(g.n))
    return [everything - s for s in all_max_acyclic_sets(g)]


def _meter(what):
    """charge(units) for one search: refuses once its units pass WORK_CAP."""
    return meter(what, WORK_CAP, "guesslab.params.WORK_CAP")


def _minimal_cycles_through(out_masks, in_masks, mask, v, charge=None):
    """Directed cycles through v inside mask with no shorter v-cycle inside
    their vertex set, as (vertex mask, cycle) pairs.  Forward chords and
    interior arcs back to v are pruned, which preserves at least one
    optimal packing.  Each path, before it tries its arcs, passes charge
    one unit per arc per path vertex: what the cycles it lists can hold."""
    charge = charge or (lambda units: None)
    if out_masks[v] >> v & 1:
        charge(1)
        return [(1 << v, (v,))]

    out_v = out_masks[v] & mask & ~(1 << v)
    charge(out_v.bit_count())
    cycles = [(1 << v | 1 << w, (v, w)) for w in bits(out_v & in_masks[v])]
    # depth first over the chordless paths from v: [path, its mask, the
    # out-neighbours of all its vertices but the last, arcs left to try]
    frames = [[[v], 1 << v, 0, out_v & ~in_masks[v]]]
    while frames:
        path, path_mask, chords, left = frame = frames[-1]
        if not left:
            frames.pop()
            continue
        w = (left & -left).bit_length() - 1
        frame[3] = left & ~(1 << w)
        if out_masks[w] >> v & 1:
            cycles.append((path_mask | 1 << w, tuple(path) + (w,)))
            continue
        chords |= out_masks[path[-1]]
        step = out_masks[w] & mask & ~path_mask & ~(1 << w)
        charge((len(path) + 1) * step.bit_count())
        frames.append([path + [w], path_mask | 1 << w, chords, step & ~chords])
    return cycles


def _max_packing(n, through):
    """(count, pieces): a largest family of vertex-disjoint pieces inside
    range(n).  through(mask, charge) gives a vertex v of mask and the pieces
    inside mask through v, as (vertex mask, piece) pairs, or None if mask
    holds no piece; each mask either leaves v out or uses one piece through
    it.  Each mask not met before costs one unit of work, and through
    charges its pieces.  Depth first over an explicit stack, which holds
    masks to visit and, under their parts, (mask, v, pieces) to settle."""
    memo = {}
    charge = _meter("packing search masks and pieces")
    stack = [(1 << n) - 1]
    while stack:
        mask = stack.pop()
        if isinstance(mask, tuple):  # its parts are known: settle it
            mask, v, pieces = mask
            best = memo[mask & ~(1 << v)]
            for used, piece in pieces:
                cnt, rest = memo[mask & ~used]
                if cnt + 1 > best[0]:
                    best = (cnt + 1, (piece,) + rest)
            memo[mask] = best
        elif mask not in memo:
            charge(1)
            found = through(mask, charge)
            if found is None:
                memo[mask] = (0, ())
                continue
            v, pieces = found
            stack.append((mask, v, pieces))
            stack += [mask & ~used for used, _ in reversed(pieces)]
            stack.append(mask & ~(1 << v))
    return memo[(1 << n) - 1]


def max_disjoint_cycles(g):
    """(count, cycles): a maximum family of vertex-disjoint directed cycles."""
    in_masks = g.in_masks()
    out_masks = g.out_masks()
    undirected = g.is_undirected()

    def through(mask, charge):
        if undirected:
            # a loop or an edge is a cycle: the lowest such vertex is the
            # lowest vertex of the shortest cycle _find_short_cycle returns
            v = next((v for v in bits(mask) if out_masks[v] & mask), None)
        else:
            short = _find_short_cycle(out_masks, mask)
            v = None if short is None else min(short)
        if v is None:
            return None
        return v, _minimal_cycles_through(out_masks, in_masks, mask, v, charge)

    return _max_packing(g.n, through)


def max_matching(g):
    """Maximum matching size over the symmetric (undirected) edges."""
    adj = _sym_adj(g)

    def through(mask, charge):
        for u in bits(mask):
            if adj[u] & mask:
                charge((adj[u] & mask).bit_count())
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
    each cover found the search asks for one clique fewer.  Depth first
    over an explicit stack; omega is its own search, and this one costs a
    unit per node plus one per call of the maximal-clique listing.
    """
    adj = _sym_adj(g)
    omega = max(max_clique(adj, g.n).bit_count(), 1)
    cover = [1 << v for v in range(g.n) if pairs[v] and not adj[v]]  # lone vertices: a clique each
    base = len(cover)
    charge = _meter("clique-cover search nodes")
    frames = []  # per open node: its uncovered pairs and the cliques left to try
    uncovered = [m if adj[v] else 0 for v, m in enumerate(pairs)]
    while True:
        charge(1)
        live = sum(1 << v for v, m in enumerate(uncovered) if m)
        if live and live.bit_count() <= (budget - len(cover)) * omega:
            u = (live & -live).bit_length() - 1
            cliques = maximal_cliques_containing(adj, 1 << u | uncovered[u] & -uncovered[u], live, charge)
            frames.append((uncovered, iter(sorted(cliques, key=int.bit_count, reverse=True))))
        elif not live and len(cover) <= budget:
            yield cover.copy()
            budget = len(cover) - 1
        while frames:
            del cover[base + len(frames) - 1:]  # the clique the top node tried last
            parent, cliques = frames[-1]
            c = next(cliques, None)
            if c is not None:
                cover.append(c)
                uncovered = [m & ~c if c >> v & 1 else m for v, m in enumerate(parent)]
                break
            frames.pop()
        else:
            return


def _clique_cover(g, pairs, budget):
    """At most `budget` cliques covering the pairs, or None."""
    return next(_clique_covers(g, pairs, budget), None)


def _fewest_cliques(g, pairs):
    """The size of a smallest clique cover of the pairs; every pair on its
    own is a cover."""
    return min(map(len, _clique_covers(g, pairs, sum(m.bit_count() for m in pairs))))


def min_clique_partition(g):
    """Minimum number of cliques (bidirectional complete sets) covering V."""
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
    return _clique_cover(g, [1 << v for v in range(g.n)], acyclic_number(g)) is not None


def is_edge_full(g):
    """Can alpha(G) - isolated cliques cover every edge?  Implies undirected.

    A clique holds at most one vertex of an independent set, so no cover is
    smaller.  On undirected graphs this holds iff some (then every) maximum
    independent set is strongly compatible.
    """
    if not g.is_undirected() or not g.is_loopless():
        return False
    return _clique_cover(g, _sym_adj(g), acyclic_number(g) - isolated_count(g)) is not None


def in_dominating_counts(g):
    """counts[k] = number of in-dominating sets of size k.  Loopless only."""
    check_bound(f"subsets swept, 2**{g.n}", 1 << g.n, WORK_CAP, "guesslab.params.WORK_CAP")
    if not g.is_loopless():
        raise PreconditionError("in-dominating sets are defined for loopless graphs")
    in_masks = g.in_masks()
    need = [1 if m else 0 for m in in_masks]
    return tuple(int(x) for x in _kernels.ids_size_counts(in_masks, need, g.n))


def count_in_dominating_sets(g, k):
    counts = in_dominating_counts(g)
    return counts[k] if 0 <= k <= g.n else 0


def _check_model_graph(g):
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
