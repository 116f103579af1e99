"""Coding functions f: [q]^n -> [q]^n as explicit per-vertex tables.

Each vertex v owns a sorted support tuple and a value table of length
q**len(support).  Rows are indexed big-endian in support order, i.e. the
row for assignment (a_0, ..., a_{d-1}) to (s_0, ..., s_{d-1}) is
sum a_k * q**(d-1-k); `_kernels._digits` decodes rows into assignments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels, params
from .digraph import Digraph, _compact_map, _fold_reductions, topological_order
from .errors import PreconditionError, VertexRangeError, check_bound

STATE_LIMIT = 1 << 24


def _check(what, needed):
    """Refuses `needed` states or table rows over STATE_LIMIT."""
    check_bound(what, needed, STATE_LIMIT, "guesslab.coding.STATE_LIMIT")


def _axis_runs(q, d, table, p):
    """The q values of a big-endian table along input p, one run per setting of the others."""
    stride = q ** (d - 1 - p)
    for base in range(0, len(table), stride * q):
        for start in range(base, base + stride):
            yield table[start : start + stride * q : stride]


def _essential_positions(q, d, table):
    """Positions p < d of the inputs a big-endian table depends on essentially."""
    return [p for p in range(d) if any(run.count(run[0]) < q for run in _axis_runs(q, d, table, p))]


@dataclass(frozen=True)
class Local:
    """A single local map keyed by original vertex labels."""

    inputs: tuple
    table: tuple


def _tighten_local(q, inputs, table):
    """The same local map on its essential inputs only, re-tabulated."""
    d = len(inputs)
    keep = _essential_positions(q, d, table)
    if len(keep) == d:
        return Local(tuple(inputs), tuple(table))
    cut = tuple(slice(None) if p in keep else 0 for p in range(d))
    tab = np.asarray(table).reshape((q,) * d)[cut].ravel().tolist()
    return Local(tuple(inputs[p] for p in keep), tuple(tab))


@dataclass(frozen=True)
class CodingFunction:
    n: int
    q: int
    supports: tuple
    tables: tuple

    def __post_init__(self):
        if self.q < 2:
            raise PreconditionError("alphabet size must be at least 2")
        if len(self.supports) != self.n or len(self.tables) != self.n:
            raise ValueError("need one support and one table per vertex")
        sups = tuple(tuple(int(u) for u in s) for s in self.supports)
        tabs = tuple(tuple(int(t) for t in tab) for tab in self.tables)
        object.__setattr__(self, "supports", sups)
        object.__setattr__(self, "tables", tabs)
        for v in range(self.n):
            s = sups[v]
            if list(s) != sorted(set(s)):
                raise ValueError(f"support of vertex {v} must be sorted and distinct")
            for u in s:
                if not (0 <= u < self.n):
                    raise VertexRangeError(f"support entry {u} out of range")
            if len(tabs[v]) != self.q ** len(s):
                raise ValueError(f"table of vertex {v} has wrong length")
            for val in tabs[v]:
                if not (0 <= val < self.q):
                    raise ValueError(f"table value {val} outside alphabet")

    @classmethod
    def from_state_functions(cls, n, q, fns):
        """Build from callables over full states; supports become essential."""
        _check(f"states, {q}**{n}", q**n)
        full = tuple(range(n))
        states = list(map(tuple, _kernels._digits(np.arange(q**n), n, q).tolist()))
        tables = tuple(tuple(int(fns[v](x)) % q for x in states) for v in range(n))
        raw = cls(n, q, tuple(full for _ in range(n)), tables)
        return raw.canonicalize()

    # -- evaluation ---------------------------------------------------------

    def local_value(self, v, x):
        r = 0
        for s in self.supports[v]:
            r = r * self.q + x[s]
        return self.tables[v][r]

    def evaluate(self, x):
        return tuple(self.local_value(v, x) for v in range(self.n))

    # -- essential supports -------------------------------------------------

    def canonicalize(self):
        """Shrink every declared support to the essential one; self if already so."""
        locs = [_tighten_local(self.q, s, t) for s, t in zip(self.supports, self.tables)]
        if all(loc.inputs == s for loc, s in zip(locs, self.supports)):
            return self
        return CodingFunction(
            self.n, self.q, tuple(loc.inputs for loc in locs), tuple(loc.table for loc in locs)
        )


def _support_graph(f):
    """Arc (u, v) iff u lies in the declared support of f_v."""
    return Digraph.of(f.n, ((u, v) for v, sup in enumerate(f.supports) for u in sup))


def interaction_graph(f):
    """Arc (u, v) iff f_v depends essentially on x_u."""
    return _support_graph(f.canonicalize())


def _substitute(f, i, cum):
    """f_i with each input u in cum replaced by the local map cum[u].

    Tabulated big-endian over the sorted inputs that f_i then reads
    essentially; f_i comes back as it is if it reads none of cum.  The
    q**len(inputs) rows are refused over STATE_LIMIT before any is built,
    and decoded _kernels.STATE_BLOCK rows at a time.
    """
    sup = f.supports[i]
    if not any(u in cum for u in sup):
        return Local(sup, f.tables[i])
    q = f.q
    inputs = sorted({w for u in sup for w in (cum[u].inputs if u in cum else (u,))})
    rows = q ** len(inputs)
    _check(f"substituted rows, {q}**{len(inputs)}", rows)
    table = np.asarray(f.tables[i])
    inner = {u: np.asarray(cum[u].table) for u in sup if u in cum}
    out = np.empty(rows, dtype=np.int64)
    for lo in range(0, rows, _kernels.STATE_BLOCK):
        digs = _kernels._digits(np.arange(lo, min(lo + _kernels.STATE_BLOCK, rows)), len(inputs), q)
        vals = np.empty((len(digs), len(sup)), dtype=np.int64)  # column p: the value fed to sup[p]
        for p, u in enumerate(sup):
            if u in cum:
                at = _kernels._support_rows(digs, [inputs.index(w) for w in cum[u].inputs], q)
                vals[:, p] = inner[u][at]
            else:
                vals[:, p] = digs[:, inputs.index(u)]
        out[lo : lo + len(digs)] = table[_kernels._support_rows(vals, range(len(sup)), q)]
    return _tighten_local(q, inputs, out.tolist())


def _eliminate(f, cum):
    """Drop the vertices of cum from a canonical f, substituting their local
    maps; (canonical function, old-to-new map)."""
    m = _compact_map(f.n, cum)
    locs = [_substitute(f, i, cum) for i in m]
    sups = tuple(tuple(m[u] for u in loc.inputs) for loc in locs)
    return CodingFunction(len(m), f.q, sups, tuple(loc.table for loc in locs)), m


def _drop(h, v):
    """Drop the loop-free vertex v of a canonical h; (canonical function, old-to-new map)."""
    return _eliminate(h, {v: Local(h.supports[v], h.tables[v])})


def reduce_vertex(f, v):
    """v-reduction: substitute f_v for x_v everywhere, drop v; that is
    reduce_set(f, {v}).

    Returns (reduced function, old-to-new map); if v is looped in G(f) the
    function comes back canonical with the identity map.
    """
    if not (0 <= v < f.n):
        raise VertexRangeError(f"vertex {v} out of range")
    f = f.canonicalize()
    if v in f.supports[v]:
        return f, {u: u for u in range(f.n)}
    return _drop(f, v)


def reduce_sequence(f, seq):
    """Fold reduce_vertex over original labels."""
    return _fold_reductions(f, seq, reduce_vertex)


def cumulative(f, vertices):
    """Cumulative coding function on an acyclic set I of G(f).

    Returns {i: Local} with inputs drawn from V minus I, tightened to the
    essential ones, built by the triangular recursion in topological order.
    """
    return _cumulative(f.canonicalize(), vertices)


def _cumulative(f, vertices):
    """cumulative() of a canonical f, whose supports are its interaction graph."""
    cum = {}
    for i in topological_order(_support_graph(f), vertices):  # raises NotAcyclicError
        cum[i] = _substitute(f, i, cum)
    return cum


def reduce_set(f, vertices):
    """I-reduction via the cumulative function; equals any fold order."""
    f = f.canonicalize()
    return _eliminate(f, _cumulative(f, vertices))


def fixed_points(f):
    """All states with f(x) = x, lexicographically sorted tuples."""
    _check(f"states, {f.q}**{f.n}", f.q**f.n)
    mask = _kernels.fixed_point_mask(f.n, f.q, f.supports, f.tables)
    digs = _kernels._digits(np.nonzero(mask)[0], f.n, f.q)
    return tuple(map(tuple, digs.tolist()))


def count_fixed_points(f):
    _check(f"states, {f.q}**{f.n}", f.q**f.n)
    mask = _kernels.fixed_point_mask(f.n, f.q, f.supports, f.tables)
    return int(mask.sum())


def min_net(g, q):
    """f_i(x) = min of the in-neighbour values, with min(empty) = q - 1."""
    if q < 2:
        raise PreconditionError("alphabet size must be at least 2")
    sups = tuple(g.in_neighbors(v) for v in range(g.n))
    tabs = {}  # a vertex's table depends only on its in-degree
    for d in {len(s) for s in sups}:
        tabs[d] = tuple(_kernels._digits(np.arange(q**d), d, q).min(axis=1, initial=q - 1).tolist())
    return CodingFunction(g.n, q, sups, tuple(tabs[len(s)] for s in sups))


def is_nondecreasing(f):
    """Monotone in every coordinate over every table row."""
    return all(
        run == tuple(sorted(run))
        for sup, tab in zip(f.supports, f.tables)
        for p in range(len(sup))
        for run in _axis_runs(f.q, len(sup), tab, p)
    )


def mindim(f):
    """Minimum dimension over all reduced forms of f.

    A depth-first search over an explicit stack, memoised on the bitmask S
    of the original vertices removed, which fixes the form even where S is
    cyclic in G(f): by induction on the removal order, x_S = f_S(y, x_S) has
    one solution x_S(y) for each setting y of the other vertices, and the
    form is the canonical y -> f_{V-S}(y, x_S(y)).  Each form, however many
    sets reach it, is expanded once and charges params.WORK_CAP 1 plus its
    table rows.  Counting the fixed points first caps q**n by STATE_LIMIT.
    """
    fix = count_fixed_points(f)
    floor = 0
    while f.q**floor < fix:
        floor += 1
    best = f.n
    sets, forms = set(), set()
    charge = params._meter("mindim reduced forms and rows")
    stack = [(0, f.canonicalize(), tuple(range(f.n)), None)]  # (S, parent, its labels, vertex to drop)
    while stack and best > floor:
        removed, h, labels, v = stack.pop()
        if removed in sets:
            continue
        sets.add(removed)
        if v is not None:
            h, labels = _drop(h, v)[0], labels[:v] + labels[v + 1 :]
        if (h.supports, h.tables) in forms:
            continue
        forms.add((h.supports, h.tables))
        charge(1 + sum(map(len, h.tables)))
        best = min(best, h.n)
        loop_free = [u for u in range(h.n) if u not in h.supports[u]]
        stack.extend((removed | 1 << labels[u], h, labels, u) for u in reversed(loop_free))
    return best
