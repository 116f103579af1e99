"""Linear coding functions over Z_q and exact linear guessing numbers.

Coefficient matrices carry a unit of Z_q on every arc (mode h) or a unit or
zero (mode g); conjugating by a diagonal of units keeps the fixed points, so
the search fixes 1 on a spanning forest of each matrix's zero pattern.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels, coding
from .coding import CodingFunction, count_fixed_points
from ._bitset import bits, subset_masks
from .digraph import Digraph, _compatible, _peel, topological_order
from .errors import PreconditionError, check_bound
from .params import acyclic_number

NOT_LINEARLY_SOLVABLE = "not-linearly-solvable"
NOT_STRICTLY_LINEARLY_SOLVABLE = "not-strictly-linearly-solvable"
INCONCLUSIVE = "inconclusive"

SEARCH_CAP = 1 << 26
SEARCH_BATCH = 1 << 15
PROVER_WORK_CAP = 1 << 20  # vertex sets the prover lists, and those its sweep tests


def units(q):
    return tuple(a for a in range(1, q) if math.gcd(a, q) == 1)


def _unit_count(q):
    """Euler's phi(q), the number of units of Z_q, by trial division."""
    count, rest, d = q, q, 2
    while d * d <= rest:
        if rest % d == 0:
            count -= count // d
            while rest % d == 0:
                rest //= d
        d += 1
    if rest > 1:
        count -= count // rest
    return count


def is_prime(q):
    return q >= 2 and _unit_count(q) == q - 1


@dataclass(frozen=True)
class LinearCodingFunction:
    """f_i(x) = sum_u rows[i][u] * x_u mod q."""

    n: int
    q: int
    rows: tuple

    def __post_init__(self):
        if self.q < 2:
            raise PreconditionError("modulus must be at least 2")
        rows = tuple(tuple(int(a) % self.q for a in r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        if len(rows) != self.n or any(len(r) != self.n for r in rows):
            raise ValueError("coefficient matrix must be n x n")

    def support_graph(self):
        arcs = {
            (u, i)
            for i in range(self.n)
            for u in range(self.n)
            if self.rows[i][u] != 0
        }
        return Digraph.of(self.n, arcs)

    def to_coding_function(self):
        sups = []
        tabs = []
        for i in range(self.n):
            sup = tuple(u for u in range(self.n) if self.rows[i][u] != 0)
            coeffs = np.array([self.rows[i][u] for u in sup], dtype=np.int64)
            digs = _kernels._digits(np.arange(self.q ** len(sup)), len(sup), self.q)
            sups.append(sup)
            tabs.append(tuple((digs @ coeffs % self.q).tolist()))
        return CodingFunction(self.n, self.q, tuple(sups), tuple(tabs))


@dataclass(frozen=True)
class LinearReport:
    graph: Digraph
    q: int
    mode: str
    max_fix: int
    dim: int | None
    witness: LinearCodingFunction | None

    @property
    def value(self):
        return math.log(self.max_fix, self.q) if self.max_fix > 0 else float("-inf")


def count_fixed_linear(f):
    """(count, dim): solutions of (A - I) x = 0 mod q.

    Prime q gives q**(n - rank) with the dimension; composite q counts the
    fixed points of the tabulated function under the state cap, with dim None.
    q whose elimination overflows int64 is refused before primality is tested.
    """
    n, q = f.n, f.q
    _kernels._narrowest_dtype(q)  # is_prime trial-divides up to sqrt(q)
    if n == 0:
        return 1, 0
    if is_prime(q):
        m = np.zeros((1, n, n), dtype=np.int64)
        for i in range(n):
            for u in range(n):
                m[0, i, u] = f.rows[i][u]
            m[0, i, i] = (m[0, i, i] - 1) % q
        rank = int(_kernels.modular_ranks(m, q)[0])
        return q ** (n - rank), n - rank
    check_bound(f"states, {q}**{n}", q**n, coding.STATE_LIMIT, "guesslab.coding.STATE_LIMIT")
    return count_fixed_points(f.to_coding_function()), None


def _pattern_blocks(arcs, n, mode, phi):
    """(present, free) bool arrays, a row per zero pattern and a column per
    arc, SEARCH_BATCH patterns a block.  Mode "g" walks every subset of arcs
    ascending, arcs[0] the most significant bit; mode "h" has arcs as its one
    pattern.  free marks the present arcs off the pattern's greedy spanning
    forest, grown in arc order with a component label per vertex and row
    (loops never join it); with one unit (q = 2) every present arc is free."""
    m = len(arcs)
    for lo in range(0, 1 << m if mode == "g" else 1, SEARCH_BATCH):
        if mode == "g":
            codes = np.arange(lo, min(lo + SEARCH_BATCH, 1 << m), dtype=">u8").view(np.uint8)
            present = np.unpackbits(codes.reshape(-1, 8), axis=1)[:, 64 - m :].view(bool)
        else:
            present = np.ones((1, m), dtype=bool)
        tree = np.zeros_like(present)
        if phi > 1:
            label = np.broadcast_to(np.arange(n), (len(present), n))
            for j, (u, i) in enumerate(arcs):
                if u != i:
                    lu, li = label[:, u, None], label[:, i, None]
                    tree[:, j] = present[:, j] & (lu != li)[:, 0]
                    label = np.where(tree[:, j, None] & (label == li), lu, label)
        yield present, present & ~tree


def _coefficient_batches(present, free, phi, unit):
    """Coefficients on the arcs of a block's gauge-fixed matrices in unit's
    dtype, SEARCH_BATCH a batch: forest arcs carry 1, absent arcs 0, and each
    pattern's free arcs count up through the units, the first most significant."""
    if phi == 1:  # one matrix per pattern, so the block is one batch
        yield present.astype(unit.dtype)
        return
    # place[:, j]: phi**(free arcs after arc j), the weight of arc j's unit digit
    place = phi ** (np.cumsum(free[:, ::-1], axis=1)[:, ::-1] - free)
    counts = phi ** free.sum(axis=1)
    starts = np.cumsum(counts) - counts
    total = int(counts.sum())
    for lo in range(0, total, SEARCH_BATCH):
        k = np.arange(lo, min(lo + SEARCH_BATCH, total), dtype=np.int64)
        p = np.searchsorted(starts, k, side="right") - 1
        digits = (k - starts[p])[:, None] // place[p] % phi
        yield np.where(free[p], unit[digits], present[p])


def _coefficient_function(vals, arcs, n, q):
    rows = [[0] * n for _ in range(n)]
    for (u, i), a in zip(arcs, vals.tolist()):
        rows[i][u] = a
    return LinearCodingFunction(n, q, rows)


def linear_guessing(g, q, mode="g"):
    """Exact max fixed-point count over coefficient matrices on g.

    mode "g": each arc carries 0 or a unit (interaction graph inside g);
    mode "h": units only (interaction graph exactly g).  A diagonal D of
    units gives D(A - I)D^-1 = DAD^-1 - I, so the scan fixes a gauge: per
    zero pattern only the phi(q)**(arcs off its forest) matrices with 1 on
    the pattern's greedy spanning forest.  The witness is the first
    maximiser in (pattern, free units) order, patterns ascending with the
    first sorted arc as the most significant bit.  The gauge-fixed count
    (times q**n states for composite q) is refused over SEARCH_CAP before
    any rank is taken; mode "g" checks its 2**arcs patterns first.
    """
    if q < 2:
        raise PreconditionError("alphabet size must be at least 2")
    if mode not in ("g", "h"):
        raise ValueError(f"unknown mode {mode!r}")
    dt = _kernels._narrowest_dtype(q)  # refuses q whose elimination overflows int64
    arcs = g.arcs_sorted()
    m, n = len(arcs), g.n
    phi = _unit_count(q)  # sizes the unit alphabet without listing it
    prime = phi == q - 1
    knob = "guesslab.linear.SEARCH_CAP"
    patterns = 1 << m if mode == "g" else 1
    check_bound(f"coefficient patterns, 2**{m}", patterns, SEARCH_CAP, knob)
    # a single block of patterns is labelled once, for both the count and the scan
    kept = list(_pattern_blocks(arcs, n, mode, phi)) if patterns <= SEARCH_BATCH else None
    hist = sum(np.bincount(free.sum(axis=1), minlength=m + 1)
               for _, free in kept or _pattern_blocks(arcs, n, mode, phi))
    total = sum(int(c) * phi**k for k, c in enumerate(hist))
    # composite q enumerates all q**n states of every matrix
    what, needed = ("gauge-fixed coefficient matrices", total) if prime else (
        "gauge-fixed matrix states", total * q**n)
    check_bound(what, needed, SEARCH_CAP, knob)
    # list the units only if some arc is free: a forest at a huge prime q needs none
    unit = np.array(units(q) if total > patterns else (1,), dtype=dt)
    tails, heads = np.array(arcs, dtype=np.intp).reshape(m, 2).T
    minus_identity = np.eye(n, dtype=dt) * (q - 1)  # loops add to it; ranks read mod q
    best = 0, None, None  # fixed points as a Python int (q**dim can pass int64), dim, vals
    for present, free in kept or _pattern_blocks(arcs, n, mode, phi):
        for vals in _coefficient_batches(present, free, phi, unit):
            if prime:
                mats = np.repeat(minus_identity[None], len(vals), axis=0)
                mats[:, heads, tails] += vals
                dims = n - _kernels.modular_ranks(mats, q)
                idx = int(np.argmax(dims))
                fix, dim = q ** int(dims[idx]), int(dims[idx])
            else:
                fixes = [count_fixed_linear(_coefficient_function(v, arcs, n, q))[0] for v in vals]
                idx = int(np.argmax(fixes))
                fix, dim = fixes[idx], None
            if fix > best[0]:
                best = fix, dim, vals[idx]
    return LinearReport(g, q, mode, *best[:2], _coefficient_function(best[2], arcs, n, q))


def linear_reduce(f, vertices):
    """Symbolic I-reduction of a linear coding function.

    Substitutes each eliminated row into the others; I must be acyclic in
    the support graph.  Returns (reduced function, old-to-new map).
    """
    sub = frozenset(vertices)
    graph = f.support_graph()
    topological_order(graph, sub)  # validates acyclicity
    n, q = f.n, f.q
    rows = [list(r) for r in f.rows]
    remaining = [v for v in range(n) if v not in sub]
    for v in sorted(sub):
        if rows[v][v] % q != 0:
            raise PreconditionError(f"vertex {v} acquired a loop during elimination")
        coeffs = rows[v]
        for i in range(n):
            if i == v:
                continue
            c = rows[i][v]
            if c:
                for u in range(n):
                    rows[i][u] = (rows[i][u] + c * coeffs[u]) % q
                rows[i][v] = 0
        rows[v] = [0] * n
    m = {v: i for i, v in enumerate(remaining)}
    out_rows = tuple(
        tuple(rows[v][u] for u in remaining) for v in remaining
    )
    return LinearCodingFunction(len(remaining), q, out_rows), m


@dataclass(frozen=True)
class Certificate:
    verdict: str
    witness: frozenset | None = None


def weak_compat_certificate(g):
    """Search every maximum acyclic set for a weak-compatibility violation.

    A violating set proves h_L(G, q) < k(G) for every q; otherwise the
    check is inconclusive.  This is the prover's first sweep, refused over
    PROVER_WORK_CAP sets before they are listed.
    """
    alpha = acyclic_number(g)
    check_bound("vertex sets listed for the certificate", math.comb(g.n, alpha), PROVER_WORK_CAP,
                "guesslab.linear.PROVER_WORK_CAP")
    alpha_sets = subset_masks(g.n, alpha)
    hit = _weak_violation(g.in_masks(), alpha_sets)
    if hit is None:
        return Certificate(INCONCLUSIVE)
    return Certificate(NOT_STRICTLY_LINEARLY_SOLVABLE, frozenset(bits(alpha_sets[hit])))


def _weak_violation(in_masks, alpha_sets):
    """Index of the first set in alpha_sets, the bitmasks of every alpha-set
    in combinations order, that is non-empty, acyclic and not weakly
    compatible in the graph given by in_masks; None if there is none."""
    for i, m in enumerate(alpha_sets):
        order = _peel(in_masks, m)
        if order and not _compatible(in_masks, m, order, weak=True):
            return i
    return None


def prove_not_linearly_solvable(g):
    """Sound, incomplete non-solvability prover.

    G is linearly solvable iff some spanning subgraph H with k(H) = k(G)
    is strictly linearly solvable; strict solvability forces every maximum
    acyclic set of H to be weakly compatible.  If every such H violates
    that necessary condition, no alphabet can solve G linearly.  The sweep
    over the H is refused once it has listed or tested PROVER_WORK_CAP
    vertex sets; the listing is counted before it is made.
    """
    knob = "guesslab.linear.PROVER_WORK_CAP"
    arcs = g.arcs_sorted()
    n, alpha = g.n, acyclic_number(g)
    # the alpha-sets, the (alpha+1)-sets, and per arc those holding its ends
    ends = [len({u, v}) for u, v in arcs]
    listed = math.comb(n, alpha) + math.comb(n, alpha + 1) + sum(
        math.comb(n - e, alpha + 1 - e) for e in ends if e <= alpha + 1)
    check_bound("vertex sets listed by the prover", listed, PROVER_WORK_CAP, knob)
    alpha_sets = subset_masks(n, alpha)
    # removing arcs is monotone, so only the (alpha+1)-sets holding both
    # ends of the removed arc can have turned acyclic
    upper = subset_masks(n, alpha + 1)
    holding = [[m for m in upper if m >> u & m >> v & 1] for u, v in arcs]
    work = 0

    def passes(ins, start):
        # True if ins, or a subgraph of it with some of arcs[start:] removed
        # and k still k(G), has only weakly compatible maximum acyclic sets
        nonlocal work
        hit = _weak_violation(ins, alpha_sets)
        work += len(alpha_sets) if hit is None else hit + 1
        check_bound("vertex sets tested by the prover", work, PROVER_WORK_CAP, knob)
        if hit is None:
            return True
        for j in range(start, len(arcs)):
            u, v = arcs[j]
            child = ins.copy()
            child[v] &= ~(1 << u)
            drop = next((i for i, m in enumerate(holding[j]) if _peel(child, m) is not None), None)
            work += len(holding[j]) if drop is None else drop + 1
            if drop is None and passes(child, j + 1):
                return True
        return False

    return Certificate(INCONCLUSIVE if passes(g.in_masks(), 0) else NOT_LINEARLY_SOLVABLE)
