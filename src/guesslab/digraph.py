"""Labelled digraphs with loops, the reduction operators, and path counting.

Vertices are 0..n-1.  Reducing operations relabel the survivors by
compacting them in their original order and report the old-to-new map.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._bitset import bits
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
        ins = [0] * self.n
        outs = [0] * self.n
        for u, v in arcs:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise VertexRangeError(f"arc ({u}, {v}) outside 0..{self.n - 1}")
            ins[v] |= 1 << u
            outs[u] |= 1 << v
        # per-vertex in/out neighbourhoods as bitmasks, the one adjacency
        object.__setattr__(self, "_in", tuple(ins))
        object.__setattr__(self, "_out", tuple(outs))

    @classmethod
    def of(cls, n, arcs=()):
        """A digraph from any iterable of (u, v) pairs."""
        return cls(n, arcs)

    # -- basic queries ------------------------------------------------------

    def check_vertex(self, v):
        if not (0 <= v < self.n):
            raise VertexRangeError(f"vertex {v} outside 0..{self.n - 1}")

    def has_arc(self, u, v):
        return (u, v) in self.arcs

    def has_loop(self, v):
        return (v, v) in self.arcs

    def loops(self):
        return frozenset(v for v in range(self.n) if self._in[v] >> v & 1)

    def in_neighbors(self, v):
        self.check_vertex(v)
        return tuple(bits(self._in[v]))

    def out_neighbors(self, v):
        self.check_vertex(v)
        return tuple(bits(self._out[v]))

    def in_degree(self, v):
        self.check_vertex(v)
        return self._in[v].bit_count()

    def out_degree(self, v):
        self.check_vertex(v)
        return self._out[v].bit_count()

    def arcs_sorted(self):
        return tuple(sorted(self.arcs))

    def is_undirected(self):
        return self._in == self._out

    def is_loopless(self):
        return not self.loops()

    def symmetric_edges(self):
        """Unordered pairs u < v carried by arcs in both directions."""
        return tuple(
            (u, v) for u in range(self.n) for v in bits(self._in[u] & self._out[u]) if u < v
        )

    def isolated_vertices(self):
        return tuple(v for v in range(self.n) if not self._in[v] | self._out[v])

    def in_masks(self):
        return list(self._in)

    def out_masks(self):
        return list(self._out)

    def _mask(self, vertices):
        mask = 0
        for v in vertices:
            self.check_vertex(v)
            mask |= 1 << v
        return mask

    def is_acyclic_within(self, vertices):
        return _peel(self._in, self._mask(vertices)) is not None

    def is_acyclic(self):
        return self.is_acyclic_within(range(self.n))


def _peel(in_masks, mask):
    """Peel the smallest vertex with no in-arc inside mask until mask is empty.

    Returns the peeled order, which is Kahn's order with ties broken by
    label, or None if mask induces a cycle (a loop counts as one).
    """
    order = []
    while mask:
        rest = mask
        while rest:  # bits(mask) inlined: this is the prover's inner loop
            low = rest & -rest
            v = low.bit_length() - 1
            if not in_masks[v] & mask:
                break
            rest ^= low
        else:
            return None
        order.append(v)
        mask ^= low
    return order


def topological_order(g, vertices):
    """Topological order of g[vertices]; raises NotAcyclicError on a cycle.

    Ties are broken by label so the order is deterministic.
    """
    mask = g._mask(vertices)
    order = _peel(g._in, mask)
    if order is None:
        raise NotAcyclicError(f"vertex set {list(bits(mask))} induces a cycle")
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
    ins = list(bits(g._in[v]))
    outs = list(bits(g._out[v]))
    arcs = {(m[u], m[w]) for u, w in g.arcs if u != v and w != v}
    arcs.update((m[u], m[w]) for u in ins for w in outs)
    return Digraph.of(g.n - 1, arcs), m


def _fold_reductions(obj, seq, reduce_step):
    """Fold reduce_step(obj, v) -> (obj, old-to-new map) over original labels."""
    cur = obj
    total = {v: v for v in range(obj.n)}
    for v in seq:
        if not (0 <= v < obj.n):
            raise VertexRangeError(f"vertex {v} outside 0..{obj.n - 1}")
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
    inside = g._mask(sub)
    m = _compact_map(g.n, sub)
    # exits[v]: the vertices outside I that v reaches by an arc or by a path
    # whose internal vertices all lie in I; I in reverse topological order first
    exits = {}
    for v in [*reversed(order), *m]:
        acc = g._out[v] & ~inside
        for j in bits(g._out[v] & inside):
            acc |= exits[j]
        exits[v] = acc
    arcs = {(m[u], m[w]) for u in m for w in bits(exits[u])}
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


def _path_counts(in_masks, inside, order, u):
    """c[v] for every vertex v: the u -> v paths with at least one internal
    vertex and every internal vertex in I.

    inside is I's bitmask and order its peel order; w[i] counts the u -> i
    paths that enter I at once and stay in it.
    """
    w = [0] * len(in_masks)
    for i in order:
        acc = in_masks[i] >> u & 1
        for j in bits(in_masks[i] & inside):
            acc += w[j]
        w[i] = acc
    return [sum(w[i] for i in bits(m & inside)) for m in in_masks]


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
    total = _path_counts(g._in, g._mask(sub), order, u)[v]
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
    return _compatible(g._in, g._mask(sub), order, mode == "weak")


def _compatible(in_masks, inside, order, weak):
    """is_compatible on in-bitmasks, for an acyclic I given by its mask and peel order."""
    outside = [x for x in range(len(in_masks)) if not inside >> x & 1]
    for u in outside:
        counts = _path_counts(in_masks, inside, order, u)
        for v in outside:
            if u == v:
                continue
            cnt = counts[v]
            if in_masks[v] >> u & 1:
                if cnt < 1:
                    return False
            elif cnt == 1 or (cnt and not weak):
                return False
    return True
