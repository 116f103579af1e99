"""Linear coding functions over Z_q and exact linear guessing numbers.

Coefficient matrices carry a unit of Z_q on every arc (mode h) or a unit or
zero (mode g); conjugating by a diagonal of units keeps the fixed points, so
the search fixes 1 on a spanning forest of each matrix's zero pattern.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels, coding, params
from .coding import CodingFunction, count_fixed_points
from ._bitset import bits, subset_masks
from .digraph import Digraph, _compatible, _peel, topological_order
from .errors import PreconditionError, check_bound

NOT_LINEARLY_SOLVABLE = "not-linearly-solvable"
NOT_STRICTLY_LINEARLY_SOLVABLE = "not-strictly-linearly-solvable"
INCONCLUSIVE = "inconclusive"

SEARCH_CAP = 1 << 26
SEARCH_BATCH = 1 << 15


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
    scanned: int  # gauge-fixed matrices ranked or tabulated
    closed_by: str  # "stop-rule" (max_fix reached q**k) or "exhausted"

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
        m = (np.array(f.rows, dtype=np.int64) - np.eye(n, dtype=np.int64)) % q
        rank = int(_kernels.modular_ranks(m[None], q)[0])
        return q ** (n - rank), n - rank
    coding._check(f"states, {q}**{n}", q**n)
    return count_fixed_points(f.to_coding_function()), None


def _ramp(total):
    """(lo, hi) ranges that cover 0..total in order, their sizes doubling from
    SEARCH_BATCH >> 5 up to SEARCH_BATCH, so a scan that stops early stops
    soon after the range that holds its answer."""
    lo, size = 0, SEARCH_BATCH >> 5
    while lo < total:
        yield lo, min(lo + size, total)
        lo, size = lo + size, min(2 * size, SEARCH_BATCH)


def _pattern_blocks(arcs, n, mode, phi):
    """(present, free) bool arrays, a row per zero pattern and a column per
    arc, in _ramp blocks.  Mode "g" walks every subset of arcs ascending,
    arcs[0] the most significant bit; mode "h" has arcs as its one pattern.
    free marks the present arcs off the pattern's greedy spanning forest,
    grown in arc order with a component label per vertex and row (loops
    never join it); with one unit (q = 2) every present arc is free."""
    m = len(arcs)
    width = -(-m // 8)  # the low bytes of a big-endian code that hold its m bits
    for lo, hi in _ramp(1 << m if mode == "g" else 1):
        if mode == "g":
            codes = np.arange(lo, hi, dtype=">u8").view(np.uint8).reshape(-1, 8)[:, 8 - width :]
            present = np.unpackbits(codes, axis=1)[:, 8 * width - m :].view(bool)
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
        yield present, (present & ~tree if phi > 1 else present)


def _coefficient_batches(present, free, phi, unit):
    """Coefficients on the arcs of a block's gauge-fixed matrices, phi > 1, in
    unit's dtype and _ramp batches: forest arcs carry 1, absent arcs 0, and each
    pattern's free arcs count up through the units, the first most significant."""
    # place[:, j]: phi**(free arcs after arc j), the weight of arc j's unit digit
    place = phi ** (np.cumsum(free[:, ::-1], axis=1)[:, ::-1] - free)
    counts = phi ** free.sum(axis=1)
    starts = np.cumsum(counts) - counts
    total = int(counts.sum())
    for lo, hi in _ramp(total):
        k = np.arange(lo, hi, dtype=np.int64)
        p = np.searchsorted(starts, k, side="right") - 1
        digits = (k - starts[p])[:, None] // place[p] % phi
        yield np.where(free[p], unit[digits], present[p])


def _gf2_rows(present, heads, tails, n):
    """(n, B) rows of A - I over GF(2) for a block of zero patterns, in the
    narrowest unsigned dtype of n bits (Python ints past 64): row i has bit u
    per present arc (u, i), and bit i unless a present loop on i cancels it."""
    dt = np.min_scalar_type((1 << n) - 1)
    bit = dt.type(1) << np.arange(n, dtype=dt)
    rows = np.repeat(bit[:, None], len(present), axis=1)
    for j, (i, u) in enumerate(zip(heads, tails)):
        rows[i] ^= present[:, j] * bit[u : u + 1]  # an array, not a scalar: keeps dt
    return rows


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

    No coding function on g fixes more than q**k states, k the feedback
    number, so the scan stops after the batch whose best count reaches
    q**k (closed_by "stop-rule").  Batches ramp from 1,024 matrices up to
    SEARCH_BATCH, so the stop lands near the first such matrix; the scan
    order is unchanged, so the witness is the same first maximiser as a
    full scan's.  params.feedback_number runs before the scan, charging
    params.WORK_CAP for its acyclic-set search.
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
    # composite q enumerates all q**n states of every matrix
    states = 1 if prime else q**n
    # the pattern of every arc is mode h's one block; free arcs only grow with
    # the pattern, so whether it has any decides below if the units are listed
    (_, free), = every = list(_pattern_blocks(arcs, n, "h", phi))
    kept = every if mode == "h" else None
    # a pattern S has at most |S| free arcs, so only a bound past the cap needs the count
    if (1 + phi if mode == "g" else phi) ** m * states > SEARCH_CAP:
        # a few blocks of patterns are labelled once, for both the count and the scan
        if kept is None and patterns <= SEARCH_BATCH:
            kept = list(_pattern_blocks(arcs, n, mode, phi))
        hist = sum(np.bincount(free.sum(axis=1), minlength=m + 1)
                   for _, free in kept or _pattern_blocks(arcs, n, mode, phi))
        total = sum(int(c) * phi**k for k, c in enumerate(hist))
        what = "gauge-fixed coefficient matrices" if prime else "gauge-fixed matrix states"
        check_bound(what, total * states, SEARCH_CAP, knob)
    bound = q ** params.feedback_number(g)
    # list the units only if some arc is free: a forest at a huge prime q needs none
    unit = np.array(units(q) if phi > 1 and free.any() else (1,), dtype=dt)
    tails, heads = np.array(arcs, dtype=np.intp).reshape(m, 2).T
    minus_identity = np.eye(n, dtype=dt) * (q - 1)  # loops add to it; ranks read mod q
    best = 0, None, None  # fixed points as a Python int (q**dim can pass int64), dim, vals
    scanned, closed_by = 0, "exhausted"
    # at q = 2 a pattern is its own matrix, so a block is one batch
    batches = (vals for present, free in kept or _pattern_blocks(arcs, n, mode, phi)
               for vals in ([present] if q == 2 else
                            _coefficient_batches(present, free, phi, unit)))
    for vals in batches:
        if prime:
            if q == 2:  # rows packed straight from the pattern bits
                dims = n - _kernels.gf2_ranks(_gf2_rows(vals, heads, tails, n))
            else:
                mats = np.repeat(minus_identity[None], len(vals), axis=0)
                mats[:, heads, tails] += vals
                dims = n - _kernels.modular_ranks(mats, q)
            idx = int(np.argmax(dims))
            fix, dim = q ** int(dims[idx]), int(dims[idx])
        else:
            fixes = [count_fixed_linear(_coefficient_function(v, arcs, n, q))[0] for v in vals]
            idx = int(np.argmax(fixes))
            fix, dim = fixes[idx], None
        scanned += len(vals)
        if fix > best[0]:
            best = fix, dim, vals[idx]
        if best[0] == bound:
            closed_by = "stop-rule"
            break
    witness = _coefficient_function(best[2], arcs, n, q)
    return LinearReport(g, q, mode, *best[:2], witness, scanned, closed_by)


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
    params.WORK_CAP sets before they are listed.
    """
    alpha = params.acyclic_number(g)
    params._check("vertex sets listed for the certificate", math.comb(g.n, alpha))
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
    over the H is refused once it has listed or tested params.WORK_CAP
    vertex sets; the listing is counted before it is made.

    Depth first over an explicit stack of (in-masks of H, j): the entry
    stands for H minus arcs[j], G itself for j = -1, and its children
    remove one more arc past arcs[j].
    """
    arcs = g.arcs_sorted()
    n, alpha = g.n, params.acyclic_number(g)
    # the alpha-sets, the (alpha+1)-sets, and per arc those holding its ends
    ends = [len({u, v}) for u, v in arcs]
    listed = math.comb(n, alpha) + math.comb(n, alpha + 1) + sum(
        math.comb(n - e, alpha + 1 - e) for e in ends if e <= alpha + 1)
    params._check("vertex sets listed by the prover", listed)
    alpha_sets = subset_masks(n, alpha)
    # removing arcs is monotone, so only the (alpha+1)-sets holding both
    # ends of the removed arc can have turned acyclic
    upper = subset_masks(n, alpha + 1)
    holding = [[m for m in upper if m >> u & m >> v & 1] for u, v in arcs]
    # a set's acyclicity in H depends only on the arcs inside it that H lacks,
    # so it is memoised per (set, those arcs); inner[set]: the arcs inside it
    inner, acyclic, width = {}, {}, len(arcs)
    charge = params._meter("vertex sets tested by the prover")
    stack = [(g.in_masks(), 0, -1)]  # gone: the arcs of G that H lacks, by index
    while stack:
        ins, gone, j = stack.pop()
        if j >= 0:
            u, v = arcs[j]
            ins = ins.copy()
            ins[v] &= ~(1 << u)
            gone |= 1 << j
            # an (alpha+1)-set turned acyclic: k fell, so H leaves the sweep;
            # each set tested is charged, whether the memo answers it or not
            for tested, m in enumerate(holding[j], 1):
                key = m << width | gone & (inner.get(m) or inner.setdefault(
                    m, sum(1 << i for i, (a, b) in enumerate(arcs) if m >> a & m >> b & 1)))
                found = acyclic.get(key)
                if found is None:
                    found = acyclic[key] = _peel(ins, m) is not None
                if found:
                    break
            else:
                tested = 0
            charge(tested or len(holding[j]))
            if tested:
                continue
        hit = _weak_violation(ins, alpha_sets)
        charge(len(alpha_sets) if hit is None else hit + 1)
        if hit is None:  # every maximum acyclic set of H is weakly compatible
            return Certificate(INCONCLUSIVE)
        stack += [(ins, gone, i) for i in range(len(arcs) - 1, j, -1)]
    return Certificate(NOT_LINEARLY_SOLVABLE)
