"""Exact guessing numbers and the loop-full closed form.

Counts of fixed points are the source of truth everywhere; log_q values
are derived for presentation only.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels, coding, params
from ._bitset import _complement, bits, clique_by_parts
from .coding import CodingFunction, _essential_positions
from .digraph import Digraph, add_loops, strip_loops
from .errors import PreconditionError, check_bound, meter
from .params import acyclic_number, in_dominating_counts, max_disjoint_cycles

STATE_CAP = 4096
COMBO_CAP = 1 << 22


@dataclass(frozen=True)
class SearchStats:
    """What an exact search did.

    c and k give the bounds q**c <= answer <= q**k and are always computed.
    nodes counts the search nodes expanded, and orbit_pruned the root
    candidates dropped as images of searched ones under a symmetry.
    closed_by is "sandwich" (the bounds met, nothing searched), "stop-rule"
    (the incumbent reached the upper bound) or "exhausted".
    """

    method: str
    c: int
    k: int
    nodes: int = 0
    orbit_pruned: int = 0
    closed_by: str = "exhausted"


@dataclass(frozen=True)
class GuessingReport:
    """Result of a guessing-number computation.

    kind is "g" (interaction graph contained in G), "h" (equal to G), or
    "h-loops-formula" (strict value of a loop-full graph via the
    in-dominating-set sum).  max_fix is the exact count.  stats records what
    the search for kind "g" did; the strict routes leave it None.
    """

    graph: Digraph
    q: int
    kind: str
    max_fix: int
    witness: CodingFunction | None = None
    method: str = ""
    stats: SearchStats | None = None

    @property
    def value(self):
        return math.log(self.max_fix, self.q) if self.max_fix > 0 else float("-inf")


def _bitsets(rows):
    """Each row of a 2-D bool array as a Python int with bit i = row[i]."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


DIFF_BLOCK = 1 << 20  # difference codes built at once


def _conflict_rows(digs, q, clash):
    """Bitset adjacency over decoded states: x and y conflict iff clash holds
    at the code of their digit-wise difference (x - y) mod q."""
    m = len(digs)
    # holds every code and every digit + q
    dtype = np.int32 if 2 * len(clash) <= np.iinfo(np.int32).max else np.int64
    cols = np.ascontiguousarray(digs.T, dtype=dtype)
    step = max(1, DIFF_BLOCK // max(m, 1))
    adj = []
    for lo in range(0, m, step):
        codes = np.zeros((min(step, m - lo), m), dtype=dtype)
        for col in cols:  # Horner over the digits, most significant first
            diff = np.subtract.outer(col[lo : lo + step] + q, col)
            codes *= q
            codes += np.remainder(diff, q, out=diff)
        adj += _bitsets(clash[codes])
    return adj


def _witness_from_states(g, q, chosen_codes):
    """Tables on the in-neighbourhoods that fix the chosen consistent states."""
    digs = _kernels._digits(chosen_codes, g.n, q)
    sups = tuple(g.in_neighbors(v) for v in range(g.n))
    tabs = []
    for v, sup in enumerate(sups):
        table = np.zeros(q ** len(sup), dtype=np.int64)
        table[_kernels._support_rows(digs, sup, q)] = digs[:, v]
        tabs.append(tuple(table.tolist()))
    return CodingFunction(g.n, q, sups, tuple(tabs))


def _root_orbits(digs, q):
    """orbits[i]: the states of digs with the support of state i, or None at
    q = 2.  Permuting the nonzero symbols of each coordinate keeps every
    conflict and fixes state 0; its orbits are the support patterns, and at
    q = 2 they are single states."""
    if q == 2:
        return None
    supports = ((digs != 0) @ (1 << np.arange(digs.shape[1]))).tolist()
    classes = {}
    for i, support in enumerate(supports):
        classes[support] = classes.get(support, 0) | 1 << i
    return [classes[support] for support in supports]


def guessing_number(g, q):
    """Exact max |Fix(f)| over coding functions with G(f) inside g.

    A set of states is the fixed-point set of some such f iff no two of its
    states conflict: x and y conflict iff some vertex v has x_v != y_v while
    x and y agree on the in-neighbourhood N(v).  That depends only on the
    difference d = x - y mod q (d_v != 0 and d is 0 on N(v)), so translating
    every state by the same t maps consistent sets to consistent sets of the
    same size.  Translating a maximum set by one of its own states puts state
    0 in it; so the answer is 1 plus a maximum independent set among the
    states that do not conflict with 0, where x and y conflict iff x - y
    conflicts with 0.  _bitset.clique_by_parts searches that set one
    connected component at a time; the witness extends the chosen partial
    tables by zero.

    The answer lies between q**c, which routing along c disjoint cycles
    attains, and q**k, the feedback bound.  When c = k that is the answer
    (`method` "routing-sandwich", no search).  Otherwise the search starts
    from the routing fixed points and stops once 1 plus what the components
    hold reaches q**k (closed_by "stop-rule").  For q >= 3, once the root
    of a component has branched on a state, the states with its support
    leave that root (see _root_orbits).  The q**n conflict states count
    against STATE_CAP, and the search nodes against params.WORK_CAP.
    """
    if q < 2:
        raise PreconditionError("alphabet size must be at least 2")
    k = g.n - acyclic_number(g)
    c, cycles = max_disjoint_cycles(g)
    if c == k:
        stats = SearchStats("routing-sandwich", c, k, closed_by="sandwich")
        return GuessingReport(g, q, "g", q**k, _routing(g, q, cycles), stats.method, stats)
    check_bound(f"conflict states, {q}**{g.n}", q**g.n, STATE_CAP, "guesslab.guessing.STATE_CAP")
    digs = _kernels._digits(np.arange(q**g.n), g.n, q)
    clash = np.zeros(len(digs), dtype=bool)  # the difference conflicts with 0
    for v in range(g.n):
        clash |= (digs[:, v] != 0) & ~digs[:, list(g.in_neighbors(v))].any(axis=1)
    universe = np.flatnonzero(~clash)[1:]  # code 0 is state 0 itself
    adj = _conflict_rows(digs[universe], q, clash)
    orbits = _root_orbits(digs[universe], q)
    # the routing fixed points: constant on each cycle, 0 elsewhere
    weights = np.array([sum(q ** (g.n - 1 - v) for v in cyc) for cyc in cycles], dtype=np.int64)
    codes = _kernels._digits(np.arange(q ** len(cycles)), len(cycles), q) @ weights
    seed = sum(1 << int(i) for i in np.searchsorted(universe, codes[1:]))
    full = (1 << len(universe)) - 1
    found, nodes, pruned = clique_by_parts(
        _complement(adj, full), full, seed, q**k - 1, orbits, params._meter("clique-search nodes"))
    chosen = [0] + universe[list(bits(found))].tolist()
    witness = _witness_from_states(g, q, chosen)
    closed = "stop-rule" if len(chosen) == q**k else "exhausted"
    stats = SearchStats("conflict-graph-state-0-fixed", c, k, nodes, pruned, closed)
    return GuessingReport(g, q, "g", len(chosen), witness, stats.method, stats)


# ---------------------------------------------------------------------------
# strict guessing
# ---------------------------------------------------------------------------

def _essential_local_tables(q, d):
    """All tables on d inputs that depend essentially on every input, from
    the q**(q**d) candidates, which the caller counts first."""
    return [
        flat
        for flat in itertools.product(range(q), repeat=q**d)
        if len(_essential_positions(q, d, flat)) == d
    ]


MASK_BLOCK = 1 << 22  # booleans compared at once, tables x states


def _fix_masks(g, q, v, tables):
    """One bitmask per table: the state codes where that table at v fixes v."""
    total = q**g.n
    sup = g.in_neighbors(v)
    tabs = np.asarray(tables, dtype=np.int64).reshape(len(tables), q ** len(sup))
    width = min(total, _kernels.STATE_BLOCK)
    step = MASK_BLOCK // width
    masks = [0] * len(tabs)
    for lo in range(0, total, width):
        digs = _kernels._digits(np.arange(lo, min(lo + width, total)), g.n, q)
        rows = _kernels._support_rows(digs, sup, q)
        for t in range(0, len(tabs), step):
            fixed = tabs[t : t + step, rows] == digs[:, v]
            for i, bitset in enumerate(_bitsets(fixed), t):
                masks[i] |= bitset << lo
    return masks


def strict_guessing_number(g, q):
    """Exact max |Fix(f)| over f whose interaction graph equals g.

    Loop-full graphs take the closed-form route (in-dominating-set sum)
    with the explicit witness.  Everything else is a depth-first search
    with one level per vertex: a child ANDs its parent's state mask with
    one distinct fix mask of an essential table, the child with the most
    states is popped first, and one that cannot beat the incumbent or
    whose (level, mask) was reached before is dropped.  COMBO_CAP counts
    the candidate table rows, once per in-degree, and the state tests
    first, then each AND's words.
    """
    if q < 2:
        raise PreconditionError("alphabet size must be at least 2")
    if g.n > 0 and all(g.has_loop(v) for v in range(g.n)):
        core = strip_loops(g)
        count = _ids_fixed_count(core, q)
        witness = loopfull_witness(core, q)
        return GuessingReport(g, q, "h-loops-formula", count, witness, "ids-sum")
    best, tables = _strict_exhaustive(g, q)
    witness = CodingFunction(
        g.n, q, tuple(g.in_neighbors(v) for v in range(g.n)), tuple(tables)
    )
    return GuessingReport(g, q, "h", best, witness, "exhaustive")


def _strict_exhaustive(g, q):
    if g.n == 0:
        return 1, ()
    states = q**g.n
    words = -(-states // 64)
    # candidate table rows scanned, state tests, and 64-bit words ANDed
    charge = meter("strict enumeration work", COMBO_CAP, "guesslab.guessing.COMBO_CAP")
    per_vertex = []
    listed = {}  # in-degree -> its essential tables
    for v in range(g.n):
        d = g.in_degree(v)
        if d not in listed:
            rows = q**d
            # past max(64, COMBO_CAP bits) rows q**rows is surely over it: stop there
            charge(q ** min(rows, max(64, COMBO_CAP.bit_length() + 1)) * rows)
            listed[d] = _essential_local_tables(q, d)
        tables = listed[d]
        charge(len(tables) * states)  # each table is tested on every state
        masks = {}
        for t, m in zip(tables, _fix_masks(g, q, v, tables)):
            masks.setdefault(m, t)
        per_vertex.append(masks)
    best, found, seen = -1, (), set()
    stack = [((1 << states) - 1, ())]  # a state mask and the tables that cut it out
    while stack:
        acc, chosen = stack.pop()
        level = len(chosen)
        if acc.bit_count() <= best:
            continue  # the incumbent rose after this node was pushed
        if level == g.n:
            best, found = acc.bit_count(), chosen
            continue
        charge(len(per_vertex[level]) * words)  # one states-bit AND per fix mask
        children = []
        for m, t in per_vertex[level].items():
            child = acc & m
            if child.bit_count() > best and (level, child) not in seen:
                seen.add((level, child))
                children.append((child, chosen + (t,)))
        stack += sorted(children, key=lambda node: node[0].bit_count())  # most states on top
    return best, found


# ---------------------------------------------------------------------------
# loop-full closed form
# ---------------------------------------------------------------------------

def _ids_fixed_count(g_loopless, q):
    counts = in_dominating_counts(g_loopless)
    return sum((q - 1) ** k * counts[k] for k in range(len(counts)))


def h_loops(g_loopless, q):
    """Strict guessing count of the loop-full closure of a loopless graph,
    via sum_k (q-1)^k I_k."""
    if q < 2:
        raise PreconditionError("alphabet size must be at least 2")
    if not g_loopless.is_loopless():
        raise PreconditionError("h_loops expects the loopless core")
    count = _ids_fixed_count(g_loopless, q)
    return GuessingReport(add_loops(g_loopless), q, "h-loops-formula", count, None, "ids-sum")


def loopfull_witness(g_loopless, q):
    """The coding function on the loop-full closure whose fixed points are
    exactly the states with in-dominating nonzero support.

    Vertex v copies its own value, plus 1 (mod q) when it has in-neighbours
    and they and v are all 0; its table has q**(d+1) rows for in-degree d.
    """
    if not g_loopless.is_loopless():
        raise PreconditionError("loopfull_witness expects the loopless core")
    n = g_loopless.n
    sups = tuple(tuple(sorted({v, *g_loopless.in_neighbors(v)})) for v in range(n))
    rows = sum(q ** len(sup) for sup in sups)
    coding._check("witness table rows", rows)
    tabs = []
    for v, sup in enumerate(sups):
        tab = _kernels._digits(np.arange(q ** len(sup)), len(sup), q)[:, sup.index(v)]
        if len(sup) > 1:
            tab[0] = 1 % q  # row 0 is the all-zero assignment
        tabs.append(tuple(tab.tolist()))
    return CodingFunction(n, q, sups, tuple(tabs))


# ---------------------------------------------------------------------------
# solvability
# ---------------------------------------------------------------------------

def is_solvable(g, q):
    """g(G, q) reaches the feedback bound q**k(G)."""
    return _solvability(g, q)[0]


def _solvability(g, q):
    """(is_solvable(g, q), k(G)), with k read from the search's bounds."""
    report = guessing_number(g, q)
    return report.max_fix == q**report.stats.k, report.stats.k


def is_routing_solvable(g):
    """c(G) == k(G)."""
    c, _ = max_disjoint_cycles(g)
    return c == g.n - acyclic_number(g)


def routing_witness(g, q):
    """Routing function along a maximum disjoint cycle family.

    Cycle vertices copy their predecessor, everything else is constant 0;
    the fixed points are the states constant on each cycle and 0 elsewhere.
    """
    return _routing(g, q, max_disjoint_cycles(g)[1])


def _routing(g, q, cycles):
    """routing_witness along the given vertex-disjoint cycles; the q rows of
    each cycle vertex's table count against coding.STATE_LIMIT."""
    coding._check(f"routing table rows, {q} per cycle vertex", q * sum(map(len, cycles)))
    pred = {v: cyc[i - 1] for cyc in cycles for i, v in enumerate(cyc)}
    sups = tuple((pred[v],) if v in pred else () for v in range(g.n))
    tabs = tuple(tuple(range(q)) if v in pred else (0,) for v in range(g.n))
    return CodingFunction(g.n, q, sups, tabs)
