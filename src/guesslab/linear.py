"""Linear coding functions over Z_q and exact linear guessing numbers.

Strict-mode coefficient matrices carry units of Z_q on every arc of the
target graph and zeros elsewhere; subgraph freedom in g_L mode is
expressed by allowing zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .coding import STATE_LIMIT, CodingFunction, count_fixed_points
from ._bitset import bits, subset_masks
from .digraph import Digraph, _compatible, _peel, topological_order
from .errors import PreconditionError, check_bound
from .params import acyclic_number

NOT_LINEARLY_SOLVABLE = "not-linearly-solvable"
NOT_STRICTLY_LINEARLY_SOLVABLE = "not-strictly-linearly-solvable"
INCONCLUSIVE = "inconclusive"

SEARCH_CAP = 1 << 26
SEARCH_BATCH = 1 << 15
PROVER_WORK_CAP = 1 << 20  # vertex sets the prover's sweep tests
CERTIFICATE_LIMIT = 12


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
    """
    n, q = f.n, f.q
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
    check_bound(f"states, {q}**{n}", q**n, STATE_LIMIT, "guesslab.coding.STATE_LIMIT")
    return count_fixed_points(f.to_coding_function()), None


def _scatter_matrices(codes, arcs, allowed, n, q):
    """Matrices (A - I) mod q for a batch of mixed-radix coefficient codes;
    allowed is a range of consecutive coefficients."""
    base = len(allowed)
    B = codes.shape[0]
    mats = np.zeros((B, n, n), dtype=np.int64)
    digits = codes.copy()
    for pos in range(len(arcs) - 1, -1, -1):
        u, i = arcs[pos]
        mats[:, i, u] = allowed.start + digits % base
        digits //= base
    for i in range(n):
        mats[:, i, i] = (mats[:, i, i] - 1) % q
    return mats


def linear_guessing(g, q, mode="g", search_cap=SEARCH_CAP):
    """Exact max fixed-point count over coefficient matrices on g.

    mode "g": each arc carries 0 or a unit (interaction graph inside g);
    mode "h": units only (interaction graph exactly g).  The witness is
    the lexicographically first maximiser over the sorted arc list.
    """
    if q < 2:
        raise PreconditionError("alphabet size must be at least 2")
    if mode not in ("g", "h"):
        raise ValueError(f"unknown mode {mode!r}")
    _kernels._narrowest_dtype(q)  # refuses q whose elimination overflows int64
    arcs = g.arcs_sorted()
    phi = _unit_count(q)  # sizes the coefficient alphabet without listing it
    prime = phi == q - 1
    base = phi + (mode == "g")
    total = base ** len(arcs)
    # composite q enumerates all q**n states of every matrix
    what, needed = ("coefficient matrices", total) if prime else ("matrix states", total * q**g.n)
    check_bound(f"{what}, {base}**{len(arcs)}", needed, search_cap, "linear_guessing(search_cap=)")
    if not prime:
        # the check bounds q once there is an arc; with none, list nothing
        allowed = ((0,) if mode == "g" else ()) + (units(q) if arcs else ())
        return _linear_guessing_slow(g, q, mode, arcs, allowed, total)
    allowed = range(0 if mode == "g" else 1, q)  # the units of GF(q), unlisted
    # the fixed-point count q**(n - rank) can exceed int64, so select by
    # minimum rank and form the count as a Python int
    best_rank = g.n + 1
    best_code = 0
    for start in range(0, total, SEARCH_BATCH):
        codes = np.arange(start, min(start + SEARCH_BATCH, total), dtype=np.int64)
        mats = _scatter_matrices(codes, arcs, allowed, g.n, q)
        ranks = _kernels.modular_ranks(mats, q)
        idx = int(np.argmin(ranks))
        if int(ranks[idx]) < best_rank:
            best_rank = int(ranks[idx])
            best_code = start + idx
    witness = _decode_witness(best_code, arcs, allowed, g.n, q)
    dim = g.n - best_rank
    return LinearReport(g, q, mode, q**dim, dim, witness)


def _decode_witness(code, arcs, allowed, n, q):
    rows = [[0] * n for _ in range(n)]
    base = len(allowed)
    for pos in range(len(arcs) - 1, -1, -1):
        u, i = arcs[pos]
        rows[i][u] = allowed[code % base]
        code //= base
    return LinearCodingFunction(n, q, tuple(tuple(r) for r in rows))


def _linear_guessing_slow(g, q, mode, arcs, allowed, total):
    best_count = -1
    best = None
    for code in range(total):
        f = _decode_witness(code, arcs, allowed, g.n, q)
        count, _ = count_fixed_linear(f)
        if count > best_count:
            best_count = count
            best = f
    return LinearReport(g, q, mode, best_count, None, best)


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


def weak_compat_certificate(g, limit=CERTIFICATE_LIMIT):
    """Search every maximum acyclic set for a weak-compatibility violation.

    A violating set proves h_L(G, q) < k(G) for every q; otherwise the
    check is inconclusive.
    """
    check_bound("vertices for the certificate", g.n, limit, "weak_compat_certificate(limit=)")
    alpha_sets = subset_masks(g.n, acyclic_number(g))
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
    over the H is refused once it has tested PROVER_WORK_CAP vertex sets.
    """
    arcs = g.arcs_sorted()
    alpha = acyclic_number(g)
    alpha_sets = subset_masks(g.n, alpha)
    # removing arcs is monotone, so only the (alpha+1)-sets holding both
    # ends of the removed arc can have turned acyclic
    holding = [[m for m in subset_masks(g.n, alpha + 1) if m >> u & m >> v & 1] for u, v in arcs]
    work = 0

    def passes(ins, start):
        # True if ins, or a subgraph of it with some of arcs[start:] removed
        # and k still k(G), has only weakly compatible maximum acyclic sets
        nonlocal work
        hit = _weak_violation(ins, alpha_sets)
        work += len(alpha_sets) if hit is None else hit + 1
        check_bound("vertex sets tested by the prover", work, PROVER_WORK_CAP,
                    "guesslab.linear.PROVER_WORK_CAP")
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
