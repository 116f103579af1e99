"""Exact guessing numbers and the loop-full closed form.

Counts of fixed points are the source of truth everywhere; log_q values
are derived for presentation only.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels, params
from ._bitset import bits, max_independent_set
from .coding import CodingFunction, _essential_positions
from .digraph import Digraph, add_loops, strip_loops
from .errors import PreconditionError, check_bound
from .params import acyclic_number, in_dominating_counts, max_disjoint_cycles

STATE_CAP = 4096
TABLE_CAP = 1 << 20
COMBO_CAP = 1 << 22
WITNESS_ROW_CAP = 1 << 20  # rows over all loop-full witness tables


@dataclass(frozen=True)
class GuessingReport:
    """Result of a guessing-number computation.

    kind is "g" (interaction graph contained in G), "h" (equal to G), or
    "h-loops-formula" (strict value of a loop-full graph via the
    in-dominating-set sum).  max_fix is the exact count.
    """

    graph: Digraph
    q: int
    kind: str
    max_fix: int
    witness: CodingFunction | None = None
    method: str = ""

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


def _components(adj, universe):
    """Bitmasks of the connected components of the graph within universe."""
    while universe:
        comp = frontier = universe & -universe
        while frontier:
            reach = 0
            for v in bits(frontier):
                reach |= adj[v]
            frontier = reach & universe & ~comp
            comp |= frontier
        universe &= ~comp
        yield comp


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
    conflicts with 0.  That set is searched one connected component at a
    time; the witness extends the chosen partial tables by zero.
    """
    if q < 2:
        raise PreconditionError("alphabet size must be at least 2")
    check_bound(f"conflict states, {q}**{g.n}", q**g.n, STATE_CAP, "guesslab.guessing.STATE_CAP")
    digs = _kernels._digits(np.arange(q**g.n), g.n, q)
    clash = np.zeros(len(digs), dtype=bool)  # the difference conflicts with 0
    for v in range(g.n):
        clash |= (digs[:, v] != 0) & ~digs[:, list(g.in_neighbors(v))].any(axis=1)
    universe = np.flatnonzero(~clash)[1:]  # code 0 is state 0 itself
    adj = _conflict_rows(digs[universe], q, clash)
    sol = 0  # the union of one maximum independent set per component
    for comp in _components(adj, (1 << len(universe)) - 1):
        sol |= max_independent_set(adj, len(universe), comp)
    chosen = [0] + universe[list(bits(sol))].tolist()
    witness = _witness_from_states(g, q, chosen)
    return GuessingReport(g, q, "g", len(chosen), witness, "conflict-graph-state-0-fixed")


# ---------------------------------------------------------------------------
# strict guessing
# ---------------------------------------------------------------------------

def _essential_local_tables(q, d):
    """All tables on d inputs that depend essentially on every input."""
    rows = q**d
    # past max(64, TABLE_CAP bits) rows q**rows is surely over it: stop there
    needed = q ** min(rows, max(64, TABLE_CAP.bit_length() + 1))
    check_bound(f"local tables on {d} inputs", needed, TABLE_CAP, "guesslab.guessing.TABLE_CAP")
    return [
        flat
        for flat in itertools.product(range(q), repeat=rows)
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
    with the explicit witness; everything else is exhaustive enumeration
    of per-vertex essential tables, with deduplicated fixed-state masks.
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
    # distinct partial masks can never outnumber the subsets of the state
    # space, so bound the stage-by-stage work, not the raw product
    state_cap_sets = 1 << states if states <= 30 else None
    prev = 1
    work = 0  # state tests, plus 64-bit words ANDed
    knob = "guesslab.guessing.COMBO_CAP"
    per_vertex = []
    for v in range(g.n):
        tables = _essential_local_tables(q, g.in_degree(v))
        work += len(tables) * states  # each table is tested on every state
        check_bound("strict enumeration work", work, COMBO_CAP, knob)
        masks = {}
        for t, m in zip(tables, _fix_masks(g, q, v, tables)):
            masks.setdefault(m, t)
        per_vertex.append(masks)
        work += prev * len(masks) * words  # one states-bit AND per combination
        check_bound("strict enumeration work", work, COMBO_CAP, knob)
        prev *= len(masks)
        if state_cap_sets is not None:
            prev = min(prev, state_cap_sets)
    partial = {(1 << states) - 1: ()}
    for masks in per_vertex:
        nxt = {}
        for acc, chosen in partial.items():
            for m, t in masks.items():
                key = acc & m
                if key not in nxt:
                    nxt[key] = chosen + (t,)
        partial = nxt
    best_mask = max(partial, key=lambda m: m.bit_count())
    return best_mask.bit_count(), partial[best_mask]


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
    check_bound("vertices for the witness", n, params.IDS_LIMIT, "guesslab.params.IDS_LIMIT")
    sups = tuple(tuple(sorted({v, *g_loopless.in_neighbors(v)})) for v in range(n))
    rows = sum(q ** len(sup) for sup in sups)
    check_bound("witness table rows", rows, WITNESS_ROW_CAP, "guesslab.guessing.WITNESS_ROW_CAP")
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
    report = guessing_number(g, q)
    return report.max_fix == q ** (g.n - acyclic_number(g))


def is_routing_solvable(g):
    """c(G) == k(G)."""
    c, _ = max_disjoint_cycles(g)
    return c == g.n - acyclic_number(g)


def routing_witness(g, q):
    """Routing function along a maximum disjoint cycle family.

    Cycle vertices copy their predecessor, everything else is constant 0;
    the fixed points are the states constant on each cycle and 0 elsewhere.
    """
    _, cycles = max_disjoint_cycles(g)
    pred = {}
    for cyc in cycles:
        for i, v in enumerate(cyc):
            pred[v] = cyc[i - 1]
    sups = []
    tabs = []
    for v in range(g.n):
        if v in pred:
            sups.append((pred[v],))
            tabs.append(tuple(range(q)))
        else:
            sups.append(())
            tabs.append((0,))
    return CodingFunction(g.n, q, tuple(sups), tuple(tabs))
