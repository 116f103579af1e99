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
from ._bitset import _complement, bits, clique_search, max_clique, maximal_cliques_containing, subset_masks
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
        # BFS from s back to s; parent holds every vertex reached
        parent = {s: None}
        frontier = [s]
        found = None
        while frontier and found is None:
            nxt = []
            for u in frontier:
                for w in bits(out_masks[u] & mask):
                    if w == s:
                        found = u
                        break
                    if w not in parent:
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
    _check("vertex sets listed", math.comb(g.n, alpha))
    ins = g.in_masks()
    alpha_sets = subset_masks(g.n, alpha)
    return [frozenset(bits(m)) for m in alpha_sets if _peel(ins, m) is not None]


def min_feedback_vertex_sets(g):
    everything = frozenset(range(g.n))
    return [everything - s for s in all_max_acyclic_sets(g)]


def _meter(what):
    """charge(units) for one search: refuses once its units pass WORK_CAP."""
    return meter(what, WORK_CAP, "guesslab.params.WORK_CAP")


def _check(what, needed):
    """Refuses a listing or sweep of `needed` units over WORK_CAP."""
    check_bound(what, needed, WORK_CAP, "guesslab.params.WORK_CAP")


def _minimal_cycles_through(out_masks, in_masks, mask, v, charge=None):
    """Directed cycles through v inside mask, as (vertex mask, cycle) pairs:
    every chordless one, and some others; the loop alone if v has one.
    Cycles longer than two keep to the vertices that reach v inside mask,
    found first if v has an arc that is not one of a 2-cycle, at one unit
    per vertex whose in-arcs are read.  Paths from v are cut at forward
    chords and closed at the first arc back to v, so no listed cycle's
    vertex set holds a shorter cycle through v.  Each path, before it
    tries its arcs, passes charge one unit per arc per path vertex: what
    the cycles it lists can hold."""
    charge = charge or (lambda units: None)
    if out_masks[v] >> v & 1:
        charge(1)
        return [(1 << v, (v,))]

    out_v = out_masks[v] & mask & ~(1 << v)
    charge(out_v.bit_count())
    cycles = [(1 << v | 1 << w, (v, w)) for w in bits(out_v & in_masks[v])]
    reach = frontier = 1 << v if out_v & ~in_masks[v] else 0
    while frontier:
        charge(frontier.bit_count())
        back = 0
        for u in bits(frontier):
            back |= in_masks[u]
        frontier = back & mask & ~reach
        reach |= frontier
    # depth first over the chordless paths from v: [path, its mask, the
    # out-neighbours of all its vertices but the last, arcs left to try]
    frames = [[[v], 1 << v, 0, out_v & ~in_masks[v] & reach]]
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
        step = out_masks[w] & reach & ~path_mask & ~(1 << w)
        charge((len(path) + 1) * step.bit_count())
        frames.append([path + [w], path_mask | 1 << w, chords, step & ~chords])
    return cycles


def _max_disjoint(pieces, charge):
    """(count, pieces): a largest family of vertex-disjoint pieces from a
    list of (vertex mask, piece) pairs, in list order.

    A piece whose vertices, all but one, lie in no other piece meets at
    most one piece of any family, so some largest family holds it: such
    pieces are taken, and the pieces they meet dropped, until none is
    left.  The rest falls into parts, pieces joined by shared vertices,
    solved apart.  A loop is always taken or dropped that way, so no
    family in a part beats half the vertices the part covers; a greedy
    family, in list order or in the order the part was met, often
    reaches that.
    Otherwise the part's family is a maximum clique of the graph joining
    every two of its disjoint pieces, whose row for a piece clears the
    pieces holding any of its vertices.  The listing pays for these
    linear passes; a part's rows are charged one unit per word (a word
    per 64 pieces) before any is built, and each node of its clique
    search that many units."""
    holders = {}  # vertex -> indices of the pieces through it
    for i, (mask, _) in enumerate(pieces):
        for v in bits(mask):
            holders.setdefault(v, []).append(i)
    count = {v: len(held) for v, held in holders.items()}  # live pieces through v
    live, chosen = set(range(len(pieces))), []
    queue = list(range(len(pieces)))  # pieces that may have become takeable
    while queue:
        i = queue.pop()
        if i in live and sum(count[v] > 1 for v in bits(pieces[i][0])) <= 1:
            chosen.append(i)
            dropped = {j for v in bits(pieces[i][0]) for j in holders[v]} & live
            live -= dropped
            for u in (u for j in dropped for u in bits(pieces[j][0])):
                count[u] -= 1
                if count[u] == 1:
                    queue += [j for j in holders[u] if j in live]
    while live:  # the rest, one part of pieces joined by shared vertices at a time
        part, stack, covered = [], [live.pop()], 0
        while stack:
            part.append(stack.pop())
            covered |= pieces[part[-1]][0]
            for v in bits(pieces[part[-1]][0]):
                more = [j for j in holders.pop(v, ()) if j in live]
                live.difference_update(more)
                stack += more
        half, best = covered.bit_count() // 2, []
        for order in (sorted(part), part):  # list order, then the order pieces were met in
            family, used = [], 0
            for i in order:
                if not pieces[i][0] & used:
                    family.append(i)
                    used |= pieces[i][0]
            best = max(best, family, key=len)
        if len(best) < half:
            part.sort()
            words = -(-len(part) // 64)
            charge(len(part) * words)
            held = {}  # vertex -> bitmask of the positions in part through it
            for k, i in enumerate(part):
                for v in bits(pieces[i][0]):
                    held[v] = held.get(v, 0) | 1 << k
            everything = (1 << len(part)) - 1
            adj = []
            for i in part:
                clash = 0
                for v in bits(pieces[i][0]):
                    clash |= held[v]
                adj.append(everything & ~clash)
            family = clique_search(adj, everything, target=half, charge=lambda units: charge(units * words))[0]
            best = [part[k] for k in bits(family)]
        chosen += best
    chosen.sort()
    return len(chosen), tuple(pieces[i][1] for i in chosen)


def max_disjoint_cycles(g):
    """(count, cycles): a maximum family of vertex-disjoint directed cycles.
    The shortest cycle inside a cycle's vertex set is chordless, so some
    maximum family is made of chordless cycles, each listed through its
    lowest vertex; the others listed, whose vertices have more than one
    out-neighbour on the cycle, are dropped."""
    in_masks, out_masks = g.in_masks(), g.out_masks()
    charge = _meter("disjoint cycle listing and search")
    everything = (1 << g.n) - 1
    cycles = []
    for v in range(g.n):
        cycles += _minimal_cycles_through(out_masks, in_masks, everything >> v << v, v, charge)
    chordless = [(used, cyc) for used, cyc in cycles if all((out_masks[u] & used).bit_count() == 1 for u in cyc)]
    return _max_disjoint(chordless, charge)


def max_matching(g):
    """Maximum matching size over the symmetric (undirected) edges, one
    unit per edge, counted before they are listed."""
    later = [m >> u + 1 << u + 1 for u, m in enumerate(_sym_adj(g))]
    charge = _meter("matching search")
    charge(sum(m.bit_count() for m in later))
    edges = [(1 << u | 1 << w, (u, w)) for u, m in enumerate(later) for w in bits(m)]
    return _max_disjoint(edges, charge)[0]


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
    _check(f"subsets swept, 2**{g.n}", 1 << g.n)
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
