"""Generators for the named graphs and the explicit constructions.

Every generator is deterministic; the verification of each output
(fixed-point counts, interaction graphs, parameters) lives in the tests
next to the oracles.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .coding import CodingFunction, min_net
from .digraph import Digraph, _compatible, _path_counts, symmetrized, topological_order
from .errors import PreconditionError
from .linear import LinearCodingFunction, is_prime
from .params import _find_short_cycle, max_acyclic_set


@dataclass(frozen=True)
class NamedGraph:
    name: str
    params: tuple
    graph: Digraph


def _complete(n):
    return Digraph.of(n, [(u, v) for u in range(n) for v in range(n) if u != v])


def _tournament(n):
    return Digraph.of(n, [(u, v) for u in range(n) for v in range(n) if u < v])


def _in_star(n):
    return Digraph.of(n, [(i, n - 1) for i in range(n - 1)])


def _out_star(n):
    return Digraph.of(n, [(n - 1, i) for i in range(n - 1)])


def _star(n):
    return symmetrized(_in_star(n))


def _cycle(n):
    if n == 1:
        return Digraph.of(1, [(0, 0)])
    return Digraph.of(n, [(i, (i + 1) % n) for i in range(n)])


def _biclique(a, b):
    if a < 0 or b < 0:
        raise PreconditionError("biclique part sizes must be non-negative")
    arcs = set()
    for u in range(a):
        for v in range(a, a + b):
            arcs.add((u, v))
            arcs.add((v, u))
    return Digraph.of(a + b, arcs)


def grotzsch_graph():
    """Outer 5-cycle, inner 5 vertices matched to the outer neighbourhoods,
    hub joined to the inner ring.  Triangle-free with chromatic number 4."""
    arcs = set()

    def edge(u, v):
        arcs.add((u, v))
        arcs.add((v, u))

    for i in range(5):
        edge(i, (i + 1) % 5)
    for i in range(5):
        edge(5 + i, (i + 1) % 5)
        edge(5 + i, (i + 4) % 5)
    for i in range(5):
        edge(10, 5 + i)
    return Digraph.of(11, arcs)


def clebsch_graph():
    """Folded 5-cube on the 4-bit vectors: adjacent iff the difference has
    weight 1 or 4."""
    arcs = set()
    for u in range(16):
        for v in range(16):
            if u != v and bin(u ^ v).count("1") in (1, 4):
                arcs.add((u, v))
    return Digraph.of(16, arcs)


def fig1_graph():
    return Digraph.of(4, [(0, 1), (1, 0), (2, 0), (3, 0), (3, 1), (1, 2), (2, 3)])


def fig6_graph():
    arcs = [
        (0, 1),
        (0, 2), (2, 0),
        (0, 3), (3, 0),
        (4, 0),
        (1, 4),
        (2, 3), (3, 2),
        (2, 4), (4, 2),
        (3, 4), (4, 3),
    ]
    return Digraph.of(5, arcs)


def fig5_graph():
    """The merged graph of the non-strictly-solvable two-unicast instance."""
    return Digraph.of(4, [(0, 2), (2, 0), (1, 3), (3, 1), (0, 3)])


def gk_family(k, variant="maximal"):
    """The gk family on I = {i_1..i_{k-1}}, J = {j_1..j_k}; for k >= 3 it is
    not linearly solvable.

    Vertices: i_a -> a-1, j_b -> k-1 + b-1.  The maximal variant carries
    every optional arc (the published picture for k = 3); the minimal one
    keeps only the forced arcs.  At k = 2 both variants are the same graph,
    the bidirected path on 3 vertices, which routing solves.
    """
    if k < 2:
        raise PreconditionError("the family needs k >= 2")
    if variant not in ("maximal", "minimal"):
        raise ValueError(f"unknown variant {variant!r}")

    def i_(a):
        return a - 1

    def j_(b):
        return k - 1 + b - 1

    arcs = set()
    if variant == "maximal":
        for a in range(1, k):
            for b in range(a + 1, k):
                arcs.add((i_(a), i_(b)))
        for a in range(1, k):
            for b in range(a + 1, k):
                arcs.add((j_(a), j_(b)))
        for a in range(1, k):
            arcs.add((j_(a), j_(k)))
    else:
        arcs.add((j_(1), j_(k)))
    arcs.add((j_(k), j_(1)))

    def edge(u, v):
        arcs.add((u, v))
        arcs.add((v, u))

    edge(i_(1), j_(1))
    for a in range(1, k):
        for b in range(2, k):
            edge(i_(a), j_(b))
    for c in range(2, k):
        edge(i_(c), j_(k))
    return Digraph.of(2 * k - 1, arcs)


_FAMILIES = {
    "K": lambda n, m=None: _complete(n) if m is None else _biclique(n, m),
    "E": lambda n: Digraph.of(n, []),
    "T": _tournament,
    "iS": _in_star,
    "oS": _out_star,
    "S": _star,
    "C": _cycle,
    "grotzsch": grotzsch_graph,
    "clebsch": clebsch_graph,
    "fig1": fig1_graph,
    "fig5": fig5_graph,
    "fig6": fig6_graph,
    "gk": gk_family,
}


def named(name, *params):
    """Named generator lookup: K/E/T/iS/oS/S/C families with a size, K with
    two sizes for bicliques, gk with k (and variant), plus the fixed graphs."""
    if name not in _FAMILIES:
        raise PreconditionError(f"unknown graph family {name!r}")
    try:
        inspect.signature(_FAMILIES[name]).bind(*params)
    except TypeError:
        raise PreconditionError(f"wrong number of parameters for {name!r}: {len(params)}") from None
    graph = _FAMILIES[name](*params)
    return NamedGraph(name, tuple(params), graph)


# ---------------------------------------------------------------------------
# linear constructions
# ---------------------------------------------------------------------------

def clique_solution(n, q):
    """f_i = -sum_{j != i} x_j mod q on the clique; q**(n-1) fixed points."""
    if n < 1 or q < 2:
        raise PreconditionError("need n >= 1 and q >= 2")
    rows = tuple(
        tuple(0 if u == i else (q - 1) for u in range(n)) for i in range(n)
    )
    return LinearCodingFunction(n, q, rows)


def unit_witness(g, q):
    """A coding function with interaction graph exactly g and at least q
    fixed points: follow a chordless cycle, take min everywhere else."""
    cycle = _find_short_cycle(g.out_masks(), (1 << g.n) - 1)
    if cycle is None:
        raise PreconditionError("the graph has no cycle")
    f = min_net(g, q)
    tabs = list(f.tables)
    for i, v in enumerate(cycle):
        sup = f.supports[v]
        x = _kernels._digits(np.arange(q ** len(sup)), len(sup), q)
        prev = x[:, sup.index(cycle[i - 1])]
        tabs[v] = tuple(np.where((x >= prev[:, None]).all(1), prev, (prev + 1) % q).tolist())
    return CodingFunction(g.n, q, f.supports, tuple(tabs))


def _next_prime(x):
    p = max(2, x + 1)
    while not is_prime(p):
        p += 1
    return p


def sls_construction(g, designated):
    """Strict linear solution from a strongly compatible maximum acyclic set.

    Picks the smallest prime above every through-path count, weights the
    arcs into the feedback part by N(j, v)/N(v, v), and leaves plain sums
    on the acyclic part; reducing the set yields the identity.
    """
    sub = frozenset(designated)
    if not g.is_loopless():
        raise PreconditionError("loops are not allowed here")
    if not sub:
        if g.arcs:
            raise PreconditionError("an empty set is only valid for an arcless graph")
        return LinearCodingFunction(g.n, 2, tuple(tuple(0 for _ in range(g.n)) for _ in range(g.n)))
    order = topological_order(g, sub)
    if len(sub) != len(max_acyclic_set(g)):
        raise PreconditionError("the set is not a maximum acyclic set")
    ins, inside = g.in_masks(), sum(1 << i for i in sub)
    if not _compatible(ins, inside, order, weak=False):
        raise PreconditionError("the set is not strongly compatible")
    outside = [v for v in range(g.n) if v not in sub]
    counts = {u: _path_counts(ins, inside, order, u) for u in outside}  # counts[u][v]: u -> v
    if any(counts[v][v] == 0 for v in outside):
        raise PreconditionError("every feedback vertex needs a cycle through the set")
    q = _next_prime(max((counts[u][v] for u in outside for v in outside), default=0))
    rows = [[0] * g.n for _ in range(g.n)]
    for i in sorted(sub):
        for u in g.in_neighbors(i):
            rows[i][u] = 1
    for v in outside:
        inv = pow(counts[v][v], -1, q)
        for u in g.in_neighbors(v):
            if u in sub:
                rows[v][u] = inv
            else:
                rows[v][u] = (-counts[u][v] * inv) % q
    return LinearCodingFunction(g.n, q, tuple(tuple(r) for r in rows))


@dataclass(frozen=True)
class Embedding:
    graph: Digraph
    designated: tuple
    extended: bool


def embed_in_sls(d):
    """Extend d to a graph with a strongly compatible maximum acyclic set.

    Acyclic inputs come back unchanged with the whole vertex set designated.
    Otherwise every arc gets n+1 parallel length-2 paths and every vertex a
    2-cycle gadget through a fresh vertex, which makes the added set both
    strongly compatible and maximum.
    """
    if not d.is_loopless():
        raise PreconditionError("loops are not allowed here")
    if d.is_acyclic():
        return Embedding(d, tuple(range(d.n)), False)
    arcs = set(d.arcs)
    added = []
    nxt = d.n
    for (u, v) in d.arcs_sorted():
        for _ in range(d.n + 1):
            arcs.add((u, nxt))
            arcs.add((nxt, v))
            added.append(nxt)
            nxt += 1
    for v in range(d.n):
        arcs.add((v, nxt))
        arcs.add((nxt, v))
        added.append(nxt)
        nxt += 1
    return Embedding(Digraph.of(nxt, arcs), tuple(added), True)


def kkk_solution(k):
    """Strict linear solution of K_{k,k} over the smallest prime q >= 3k^2.

    The matrix is the Cauchy matrix C[i][j] = 1 / (x_i - y_j) mod q with
    x_i = k + i and y_j = j.  Every square submatrix of a Cauchy matrix is
    nonsingular (Roth-Lempel), so C is invertible and C and its inverse are
    zero-free.  The inverse is taken in closed form,
    (C^-1)[i][j] = (-1)**(k-1) prod_t (x_j - y_t)(x_t - y_i)
                   / ((x_j - y_i) prod_{t!=j} (x_j - x_t) prod_{t!=i} (y_i - y_t));
    every difference lies in (-2k, 2k), so none vanishes mod q.
    """
    if k < 1:
        raise PreconditionError("need k >= 1")
    q = _next_prime(3 * k * k - 1)
    x, y = range(k, 2 * k), range(k)
    cauchy = [[pow(x[i] - y[j], -1, q) for j in range(k)] for i in range(k)]

    def inverse_entry(i, j):
        num = (-1) ** (k - 1) * math.prod((x[j] - y[t]) * (x[t] - y[i]) for t in range(k))
        den = (x[j] - y[i]) * math.prod(x[j] - x[t] for t in range(k) if t != j)
        den *= math.prod(y[i] - y[t] for t in range(k) if t != i)
        return num * pow(den, -1, q) % q

    inverse = [[inverse_entry(i, j) for j in range(k)] for i in range(k)]
    n = 2 * k
    rows = [[0] * n for _ in range(n)]
    for j in range(k):
        for i in range(k):
            rows[k + j][i] = cauchy[i][j]
            rows[i][k + j] = inverse[j][i]
    return LinearCodingFunction(n, q, tuple(tuple(r) for r in rows))


# ---------------------------------------------------------------------------
# graph and coding-function reduction targets
# ---------------------------------------------------------------------------

def dh_graph_construction(d, h):
    """A graph G with G[J] = h whose set reduction recovers d.

    One subdivision vertex per arc of d missing from h; returns (G, I)."""
    if h.n != d.n or not h.arcs <= d.arcs:
        raise PreconditionError("h must be a spanning subgraph of d")
    missing = sorted(d.arcs - h.arcs)
    arcs = set(h.arcs)
    added = []
    nxt = d.n
    for (u, v) in missing:
        arcs.add((u, nxt))
        arcs.add((nxt, v))
        added.append(nxt)
        nxt += 1
    return Digraph.of(nxt, arcs), tuple(added)


def reduction_target_fn(d, h, q):
    """A coding function whose interaction graph restricted to J is d and
    whose I-reduction has interaction graph exactly h.

    Subdivision variables shift the unwanted inputs by x_u + q - 1 - x_e,
    everything feeds a min clamped at q - 1.  Returns (f, I)."""
    if h.n != d.n:
        raise PreconditionError("d and h must share the vertex set")
    if q < 2:
        raise PreconditionError("alphabet size must be at least 2")
    n0 = d.n
    i_d = sorted(d.arcs - h.arcs)
    i_h = sorted(h.arcs - d.arcs)
    sub_id = {}
    nxt = n0
    for e in i_d + i_h:
        sub_id[e] = nxt
        nxt += 1
    sups = []
    tabs = []
    for j in range(n0):
        in_d = set(d.in_neighbors(j))
        in_h = set(h.in_neighbors(j))
        shifted = sorted(in_d - in_h)
        plain = sorted(in_d & in_h)
        carried = sorted(sub_id[(w, j)] for w in (in_h - in_d))
        shift_vars = [sub_id[(u, j)] for u in shifted]
        sup = tuple(sorted(set(shifted) | set(plain) | set(carried) | set(shift_vars)))
        x = _kernels._digits(np.arange(q ** len(sup)), len(sup), q)
        at = {w: p for p, w in enumerate(sup)}
        shift = x[:, [at[u] for u in shifted]] + q - 1 - x[:, [at[e] for e in shift_vars]]
        vals = np.hstack([shift, x[:, [at[w] for w in plain + carried]]])
        sups.append(sup)
        tabs.append(tuple(vals.min(axis=1, initial=q - 1).tolist()))
    for e in i_d + i_h:
        u = e[0]
        sups.append((u,))
        tabs.append(tuple(range(q)))
    f = CodingFunction(nxt, q, tuple(sups), tuple(tabs))
    return f, tuple(range(n0, nxt))


def vanish_reduction_fn(g, v, h, q):
    """A function with interaction graph exactly g whose v-reduction's
    interaction graph is exactly h, for a universal loop-free vertex v.

    h lives on the compacted labels of g minus v."""
    g.check_vertex(v)
    others = [u for u in range(g.n) if u != v]
    if set(g.in_neighbors(v)) != set(others) or set(g.out_neighbors(v)) != set(others):
        raise PreconditionError("v must be universal")
    if any(g.in_degree(u) < 2 for u in range(g.n)):
        raise PreconditionError("minimum in-degree must be at least 2")
    if h.n != g.n - 1:
        raise PreconditionError("h must span g minus v")
    compact = {u: i for i, u in enumerate(others)}
    induced = {
        (compact[a], compact[b]) for a, b in g.arcs if a != v and b != v
    }
    if not h.arcs <= frozenset(induced):
        raise PreconditionError("h must be a spanning subgraph of g minus v")
    if q < 2:
        raise PreconditionError("alphabet size must be at least 2")

    sups = []
    tabs = []
    for u in range(g.n):
        sup = g.in_neighbors(u)
        nonzero = _kernels._digits(np.arange(q ** len(sup)), len(sup), q) != 0
        if u == v:
            tab = nonzero.any(axis=1)
        else:
            pool = [a for a in sup if a != v]
            p = [sup.index(a) for a in pool if (compact[a], compact[u]) in h.arcs]
            qq = [sup.index(a) for a in pool if (compact[a], compact[u]) not in h.arcs]
            tab = nonzero[:, p].all(1) & (nonzero[:, sup.index(v)] | ~nonzero[:, qq].all(1))
        sups.append(sup)
        tabs.append(tuple(tab.astype(np.int64).tolist()))
    return CodingFunction(g.n, q, tuple(sups), tuple(tabs))
