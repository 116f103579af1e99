"""Labelled digraphs with loops, the reduction operators, and path counting.

Vertices are 0..n-1.  Reducing operations relabel the survivors by
compacting them in their original order and report the old-to-new map.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from .errors import NotAcyclicError, PreconditionError, VertexRangeError


@dataclass(frozen=True)
class Digraph:
    """Directed graph; arcs are ordered pairs (u, v), loops permitted."""

    n: int
    arcs: frozenset

    def __post_init__(self):
        if self.n < 0:
            raise PreconditionError("vertex count must be non-negative")
        arcs = frozenset((int(u), int(v)) for u, v in self.arcs)
        object.__setattr__(self, "arcs", arcs)
        for u, v in arcs:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise VertexRangeError(f"arc ({u}, {v}) outside 0..{self.n - 1}")

    @classmethod
    def of(cls, n, arcs=()):
        return cls(n, frozenset(tuple(a) for a in arcs))

    # -- basic queries ------------------------------------------------------

    def check_vertex(self, v):
        if not (0 <= v < self.n):
            raise VertexRangeError(f"vertex {v} outside 0..{self.n - 1}")

    def has_arc(self, u, v):
        return (u, v) in self.arcs

    def has_loop(self, v):
        return (v, v) in self.arcs

    def loops(self):
        return frozenset(v for v, w in self.arcs if v == w)

    def in_neighbors(self, v):
        return tuple(sorted(u for u, w in self.arcs if w == v))

    def out_neighbors(self, v):
        return tuple(sorted(w for u, w in self.arcs if u == v))

    def in_degree(self, v):
        return sum(1 for u, w in self.arcs if w == v)

    def out_degree(self, v):
        return sum(1 for u, w in self.arcs if u == v)

    def arcs_sorted(self):
        return tuple(sorted(self.arcs))

    def is_undirected(self):
        return all((v, u) in self.arcs for u, v in self.arcs)

    def is_loopless(self):
        return not self.loops()

    def symmetric_edges(self):
        """Unordered pairs u < v carried by arcs in both directions."""
        return tuple(
            sorted((u, v) for u, v in self.arcs if u < v and (v, u) in self.arcs)
        )

    def isolated_vertices(self):
        touched = set()
        for u, v in self.arcs:
            touched.add(u)
            touched.add(v)
        return tuple(v for v in range(self.n) if v not in touched)

    def in_masks(self):
        masks = [0] * self.n
        for u, v in self.arcs:
            masks[v] |= 1 << u
        return masks

    def out_masks(self):
        masks = [0] * self.n
        for u, v in self.arcs:
            masks[u] |= 1 << v
        return masks

    def is_acyclic_within(self, vertices):
        sub = frozenset(vertices)
        try:
            topological_order(self, sub)
        except NotAcyclicError:
            return False
        return True

    def is_acyclic(self):
        return self.is_acyclic_within(range(self.n))


def topological_order(g, vertices):
    """Topological order of g[vertices]; raises NotAcyclicError on a cycle.

    Ties are broken by label so the order is deterministic.
    """
    sub = set(vertices)
    for v in sub:
        g.check_vertex(v)
    indeg = {v: 0 for v in sub}
    for u, v in g.arcs:
        if u in sub and v in sub:
            indeg[v] += 1
    ready = sorted(v for v, d in indeg.items() if d == 0)
    order = []
    while ready:
        v = ready.pop(0)
        order.append(v)
        for w in g.out_neighbors(v):
            if w in indeg and w != v:
                indeg[w] -= 1
                if indeg[w] == 0:
                    bisect.insort(ready, w)
    if len(order) != len(sub):
        raise NotAcyclicError(f"vertex set {sorted(sub)} induces a cycle")
    return order


def _compact_map(n, removed):
    keep = [v for v in range(n) if v not in removed]
    return {v: i for i, v in enumerate(keep)}


def reduce_vertex(g, v):
    """Vertex reduction: contract the loop-free vertex v through its arcs.

    Returns (reduced graph, old-to-new label map).  If v carries a loop the
    graph is returned unchanged with the identity map, by convention.
    """
    g.check_vertex(v)
    if g.has_loop(v):
        return g, {u: u for u in range(g.n)}
    m = _compact_map(g.n, {v})
    ins = [u for u, w in g.arcs if w == v and u != v]
    outs = [w for u, w in g.arcs if u == v and w != v]
    arcs = {(m[u], m[w]) for u, w in g.arcs if u != v and w != v}
    arcs.update((m[u], m[w]) for u in ins for w in outs)
    return Digraph.of(g.n - 1, arcs), m


def _fold_reductions(obj, seq, reduce_step):
    """Fold reduce_step(obj, v) -> (obj, old-to-new map) over original labels."""
    cur = obj
    total = {v: v for v in range(obj.n)}
    for v in seq:
        if v not in total:
            raise VertexRangeError(f"vertex {v} no longer present")
        cur, step = reduce_step(cur, total[v])
        total = {orig: step[lab] for orig, lab in total.items() if lab in step}
    return cur, total


def reduce_sequence(g, seq):
    """Fold reduce_vertex over a sequence of original vertex labels."""
    return _fold_reductions(g, seq, reduce_vertex)


def reduce_set(g, vertices):
    """Set reduction G^{-I}: checked acyclic I removed all at once.

    Adds an arc (u, w) whenever g has one or a directed path from u to w
    whose internal vertices all lie in I.  Returns (graph, old-to-new map).
    """
    sub = frozenset(vertices)
    order = topological_order(g, sub)  # raises if g[I] is cyclic
    m = _compact_map(g.n, sub)
    arcs = {(m[u], m[w]) for u, w in g.arcs if u not in sub and w not in sub}
    # reach[i] = set of j in I reachable from i by arcs inside I (reflexive)
    reach = {}
    for i in reversed(order):
        acc = {i}
        for j in g.out_neighbors(i):
            if j in sub and j != i:
                acc |= reach[j]
        reach[i] = acc
    for u in m:
        entry = set()
        for i in g.out_neighbors(u):
            if i in sub:
                entry |= reach[i]
        for j in entry:
            for w in g.out_neighbors(j):
                if w not in sub:
                    arcs.add((m[u], m[w]))
    return Digraph.of(g.n - len(sub), arcs), m


def add_loops(g):
    """The graph with a loop added on every vertex."""
    return Digraph.of(g.n, set(g.arcs) | {(v, v) for v in range(g.n)})


def strip_loops(g):
    return Digraph.of(g.n, {(u, v) for u, v in g.arcs if u != v})


def symmetrized(g):
    """Add the reverse of every arc."""
    return Digraph.of(g.n, set(g.arcs) | {(v, u) for u, v in g.arcs})


def bidirectional_union(g1, g2):
    """Disjoint union plus all arcs in both directions between the parts."""
    arcs = set(g1.arcs)
    arcs.update((u + g1.n, v + g1.n) for u, v in g2.arcs)
    for a in range(g1.n):
        for b in range(g1.n, g1.n + g2.n):
            arcs.add((a, b))
            arcs.add((b, a))
    return Digraph.of(g1.n + g2.n, arcs)


def _path_weights_from(g, sub, order, u):
    """w[i] = number of u -> i paths entering I immediately, internal in I."""
    w = {}
    for i in order:
        acc = 1 if g.has_arc(u, i) else 0
        for j in g.in_neighbors(i):
            if j in w and j != i:
                acc += w[j]
        w[i] = acc
    return w


def count_paths_through(g, vertices, u, v, include_direct=False):
    """Number of directed u -> v paths whose internal vertices all lie in I.

    Only paths with at least one internal vertex are counted; pass
    include_direct=True to also count a direct arc (u, v) as a path with
    zero internal vertices.  u == v is allowed (closed paths through I).
    """
    sub = frozenset(vertices)
    g.check_vertex(u)
    g.check_vertex(v)
    if u in sub or v in sub:
        raise PreconditionError("endpoints must lie outside the set")
    order = topological_order(g, sub)
    w = _path_weights_from(g, sub, order, u)
    total = sum(w[i] for i in order if g.has_arc(i, v))
    if include_direct and g.has_arc(u, v):
        total += 1
    return total


def is_compatible(g, vertices, mode="strong"):
    """Strong/weak compatibility of a non-empty acyclic set (checked).

    Strong: for all distinct u, v outside I, (u, v) is an arc iff some
    path from u to v runs through I.  Weak: arcs need at least one such
    path, non-arcs need zero or at least two.
    """
    if mode not in ("strong", "weak"):
        raise ValueError(f"unknown mode {mode!r}")
    sub = frozenset(vertices)
    if not sub:
        raise PreconditionError("compatibility needs a non-empty set")
    order = topological_order(g, sub)
    outside = [x for x in range(g.n) if x not in sub]
    for u in outside:
        w = _path_weights_from(g, sub, order, u)
        for v in outside:
            if u == v:
                continue
            cnt = sum(w[i] for i in order if g.has_arc(i, v))
            if g.has_arc(u, v):
                if cnt < 1:
                    return False
            elif mode == "strong":
                if cnt >= 1:
                    return False
            elif cnt == 1:
                return False
    return True
