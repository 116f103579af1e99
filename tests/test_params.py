import itertools
import random

import pytest
from hypothesis import given, settings

from guesslab import params
from guesslab.constructions import clebsch_graph, grotzsch_graph
from guesslab._bitset import bits, max_clique, maximal_cliques_containing
from guesslab.digraph import Digraph, bidirectional_union, is_compatible, strip_loops, symmetrized
from guesslab.errors import PreconditionError, ResourceBoundError
from guesslab.linear import INCONCLUSIVE, NOT_STRICTLY_LINEARLY_SOLVABLE, weak_compat_certificate
from guesslab.params import (
    _find_short_cycle,
    _minimal_cycles_through,
    acyclic_number,
    all_max_acyclic_sets,
    count_in_dominating_sets,
    graph_params,
    in_dominating_counts,
    intersection_number,
    is_edge_full,
    is_vertex_full,
    max_acyclic_set,
    max_disjoint_cycles,
    max_matching,
    min_clique_partition,
    min_feedback_vertex_sets,
    min_intersection_model,
)

from conftest import complete_graph, digraphs, random_digraph, undirected_cycle


def brute_alpha(g):
    best = 0
    for r in range(g.n, -1, -1):
        for combo in itertools.combinations(range(g.n), r):
            if g.is_acyclic_within(combo):
                return r
    return best


def test_params_k3():
    p = graph_params(complete_graph(3))
    assert (p.k, p.alpha, p.c, p.mu, p.cp, p.isolated) == (2, 1, 1, 1, 1, 0)


def test_params_c5():
    p = graph_params(undirected_cycle(5))
    assert (p.k, p.alpha, p.c, p.mu, p.cp) == (3, 2, 2, 2, 3)


def test_params_acyclic():
    p = graph_params(Digraph.of(4, [(0, 1), (1, 2), (2, 3)]))
    assert p.k == 0 and p.c == 0 and p.alpha == 4


def test_params_empty_graph():
    p = graph_params(Digraph.of(0))
    assert p == graph_params(Digraph.of(0))
    assert (p.k, p.alpha, p.c, p.mu, p.cp, p.isolated) == (0, 0, 0, 0, 0, 0)


def test_alpha_matches_bruteforce_and_invariants():
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randint(1, 7)
        g = random_digraph(rng, n, p=0.3, loops=True)
        p = graph_params(g)
        assert p.alpha == brute_alpha(g)
        assert p.alpha + p.k == n
        assert p.c <= p.k
        # a loop is a 1-cycle no matching edge covers, so mu = c needs looplessness
        if g.is_undirected() and g.is_loopless():
            assert p.mu == p.c


def test_undirected_mu_equals_c():
    rng = random.Random(77)
    for _ in range(200):
        n = rng.randint(2, 7)
        g = symmetrized(random_digraph(rng, n, p=0.3))
        p = graph_params(g)
        assert p.mu == p.c


def test_alpha_limit_enforced():
    with pytest.raises(ResourceBoundError) as exc:
        max_acyclic_set(Digraph.of(20, []))
    assert exc.value.needed == 20 > exc.value.cap == 16
    assert exc.value.knob == "guesslab.params.ALPHA_LIMIT"


def test_all_max_acyclic_sets():
    c5 = undirected_cycle(5)
    sets = all_max_acyclic_sets(c5)
    assert len(sets) == 5
    assert all(len(s) == 2 for s in sets)
    fvs = min_feedback_vertex_sets(c5)
    assert all(len(s) == 3 for s in fvs)


def test_disjoint_cycle_witness():
    g = undirected_cycle(4)
    c, cycles = max_disjoint_cycles(g)
    assert c == 2
    used = [v for cyc in cycles for v in cyc]
    assert len(used) == len(set(used))


def test_loops_count_as_cycles():
    g = Digraph.of(3, [(0, 0), (1, 2), (2, 1)])
    c, _ = max_disjoint_cycles(g)
    assert c == 2


def test_matching():
    assert max_matching(complete_graph(4)) == 2
    assert max_matching(Digraph.of(3, [(0, 1)])) == 0  # one-way arc is no edge
    assert max_matching(undirected_cycle(7)) == 3


def test_vertex_full_edge_full_examples():
    k22 = Digraph.of(4, [(0, 2), (2, 0), (0, 3), (3, 0), (1, 2), (2, 1), (1, 3), (3, 1)])
    assert is_vertex_full(k22)
    assert not is_edge_full(k22)
    p3 = Digraph.of(3, [(0, 1), (1, 0), (1, 2), (2, 1)])
    assert is_edge_full(p3)
    assert not is_vertex_full(undirected_cycle(5))
    assert not is_edge_full(Digraph.of(2, [(0, 1)]))  # directed arc
    # C4 plus two isolated vertices: its 4 edges need 4 cliques, which is
    # alpha = 4 but more than alpha - isolated = 2
    c4_isolated = bidirectional_union(undirected_cycle(4), Digraph.of(2, []))
    assert not is_edge_full(c4_isolated)


def test_ids_counts_k3():
    k3 = complete_graph(3)
    assert in_dominating_counts(k3) == (0, 3, 3, 1)
    assert count_in_dominating_sets(k3, 1) == 3
    assert count_in_dominating_sets(k3, 0) == 0
    assert count_in_dominating_sets(k3, 3) == 1


def test_ids_full_set_always_dominates():
    rng = random.Random(3)
    for _ in range(50):
        g = random_digraph(rng, rng.randint(1, 7), p=0.3)
        assert in_dominating_counts(g)[g.n] == 1


def test_ids_outward_star_identity():
    # sum_k (q-1)^k I_k = q^n - q^{n-1} + (q-1)^{n-1} for the outward star
    n = 3
    o = Digraph.of(n, [(n - 1, i) for i in range(n - 1)])
    for q in (2, 3, 5):
        counts = in_dominating_counts(o)
        total = sum((q - 1) ** k * counts[k] for k in range(n + 1))
        assert total == q**n - q ** (n - 1) + (q - 1) ** (n - 1)


def test_ids_rejects_loops():
    with pytest.raises(PreconditionError):
        in_dominating_counts(Digraph.of(1, [(0, 0)]))


def test_intersection_model_examples():
    p3 = Digraph.of(3, [(0, 1), (1, 0), (1, 2), (2, 1)])
    model = min_intersection_model(p3, 2)
    assert model is not None
    for u in range(3):
        for v in range(u + 1, 3):
            assert bool(model[u] & model[v]) == p3.has_arc(u, v)
    k22 = Digraph.of(4, [(0, 2), (2, 0), (0, 3), (3, 0), (1, 2), (2, 1), (1, 3), (3, 1)])
    assert min_intersection_model(k22, 2) is None
    assert intersection_number(k22) > 2


def test_intersection_model_isolated_vertices():
    g = Digraph.of(3, [(0, 1), (1, 0)])
    model = min_intersection_model(g, 1)
    assert model is not None and model[2] == frozenset()


def plain_intersection_model(g, budget):
    """Reference model search: backtracking over the subset X_v of each vertex
    in turn, with interchangeable fresh elements used in prefix order."""
    adj = [sum(1 << u for u in range(g.n) if u != v and g.has_arc(u, v)) for v in range(g.n)]
    sets = [0] * g.n

    def candidates(used):
        for t in range(0, budget - used + 1):
            block = ((1 << t) - 1) << used
            for sub in range(1 << used):
                yield sub | block, used + t

    def consistent(v, mask):
        for u in range(v):
            if (adj[v] >> u & 1) != (1 if sets[u] & mask else 0):
                return False
        return True

    def rec(v, used):
        if v == g.n:
            return True
        for mask, new_used in candidates(used):
            if consistent(v, mask):
                sets[v] = mask
                if rec(v + 1, new_used):
                    return True
        sets[v] = 0
        return False

    return budget >= 0 and rec(0, 0)


def test_intersection_models_match_the_plain_search():
    for n in range(6):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [e for i, e in enumerate(pairs) if mask >> i & 1]
            g = Digraph.of(n, edges + [(v, u) for u, v in edges])
            theta = intersection_number(g)
            for b in (theta - 1, theta):
                model = min_intersection_model(g, b)
                assert (model is not None) == (b == theta) == plain_intersection_model(g, b), (edges, b)
                if model is not None:
                    assert all(x < b for xs in model for x in xs)
                    for u, v in pairs:
                        assert bool(model[u] & model[v]) == ((u, v) in edges), (edges, b)


def _undirected_adj(g):
    return [sum(1 << u for u in range(g.n) if u != v and g.has_arc(u, v) and g.has_arc(v, u))
            for v in range(g.n)]


def plain_clique_partition(g):
    """Reference clique partition: branch and bound over the maximal cliques
    containing the lowest uncovered vertex, from a greedy cover, pruned by
    |uncovered| / omega."""
    if g.n == 0:
        return 0
    adj = _undirected_adj(g)
    omega = max(max_clique(adj, g.n).bit_count(), 1)
    best = 0
    mask = (1 << g.n) - 1
    while mask:
        v = (mask & -mask).bit_length() - 1
        c = 1 << v
        cand = adj[v] & mask
        while cand:
            w = (cand & -cand).bit_length() - 1
            c |= 1 << w
            cand &= adj[w] & mask
        mask &= ~c
        best += 1

    def rec(mask, used):
        nonlocal best
        if mask == 0:
            best = min(best, used)
            return
        if used + -(-mask.bit_count() // omega) >= best:
            return
        v = (mask & -mask).bit_length() - 1
        for c in sorted(maximal_cliques_containing(adj, 1 << v, mask), key=lambda c: -c.bit_count()):
            rec(mask & ~c, used + 1)

    rec((1 << g.n) - 1, 0)
    return best


def plain_max_matching(g):
    """Reference matching: memoised over vertex sets, the lowest vertex with
    a neighbour is left out or matched to one."""
    adj = _undirected_adj(g)
    memo = {}

    def rec(mask):
        if mask in memo:
            return memo[mask]
        u = None
        for x in bits(mask):
            if adj[x] & mask:
                u = x
                break
        if u is None:
            return 0
        best = rec(mask & ~(1 << u))
        for w in bits(adj[u] & mask):
            best = max(best, 1 + rec(mask & ~(1 << u) & ~(1 << w)))
        memo[mask] = best
        return best

    return rec((1 << g.n) - 1)


def plain_disjoint_cycles(g):
    """Reference cycle packing: memoised over vertex sets, the lowest vertex
    of a shortest cycle is left out or covered by one of its minimal cycles;
    a later cycle replaces the best only if it packs strictly more."""
    ins, outs = g.in_masks(), g.out_masks()
    memo = {}

    def rec(mask):
        if mask not in memo:
            short = _find_short_cycle(outs, mask)
            best = (0, ())
            if short is not None:
                v = min(short)
                best = rec(mask & ~(1 << v))
                for _, cyc in _minimal_cycles_through(outs, ins, mask, v):
                    cnt, rest = rec(mask & ~sum(1 << w for w in cyc))
                    if cnt + 1 > best[0]:
                        best = (cnt + 1, (cyc,) + rest)
            memo[mask] = best
        return memo[mask]

    return rec((1 << g.n) - 1)


def cover_sizes(g, pairs, budget):
    """Sizes of the covers _clique_covers yields, after checking that each
    has at most `budget` cliques, fewer than the one before, and covers
    every asked pair with cliques of the undirected part."""
    adj = _undirected_adj(g)
    sizes = []
    for cover in params._clique_covers(g, pairs, budget):
        assert len(cover) <= min([budget] + [s - 1 for s in sizes])
        for c in cover:
            assert all(c & ~(1 << v) & ~adj[v] == 0 for v in range(g.n) if c >> v & 1)
        for u, m in enumerate(pairs):
            assert all(any(c >> u & c >> w & 1 for c in cover) for w in range(g.n) if m >> w & 1)
        sizes.append(len(cover))
    return sizes


def check_covers_and_packings(g, covers=True):
    """cp, vertex-fullness, matching and cycle packing against the oracles
    and, on undirected loopless graphs, edge-fullness against the
    intersection number (against the covers past MODEL_LIMIT).  With
    covers, also every cover the search yields, and the intersection number
    against the plain model search."""
    vertices = [1 << v for v in range(g.n)]
    alpha = acyclic_number(g)
    cp = plain_clique_partition(g)
    assert min_clique_partition(g) == cp
    assert is_vertex_full(g) == (cp == alpha)
    assert max_matching(g) == plain_max_matching(g)
    assert max_disjoint_cycles(g) == plain_disjoint_cycles(g)
    if covers:
        assert min(cover_sizes(g, vertices, g.n)) == cp
        assert bool(cover_sizes(g, vertices, alpha)) == (cp == alpha)
    if not (g.is_undirected() and g.is_loopless()):
        assert not is_edge_full(g)
        return
    budget = alpha - len(g.isolated_vertices())
    edges = _undirected_adj(g)
    if g.n > params.MODEL_LIMIT:
        assert is_edge_full(g) == bool(cover_sizes(g, edges, budget))
        return
    theta = intersection_number(g)
    assert is_edge_full(g) == (theta <= budget)
    if covers:
        assert min(cover_sizes(g, edges, len(g.arcs))) == theta
        assert bool(cover_sizes(g, edges, budget)) == (theta <= budget)
        assert plain_intersection_model(g, theta) and not plain_intersection_model(g, theta - 1)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(digraphs())
def test_cover_and_packing_searches_match_their_oracles(g):
    check_covers_and_packings(g)
    check_covers_and_packings(strip_loops(symmetrized(g)))


def test_cover_and_packing_searches_on_every_small_graph():
    for n in range(7):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [e for i, e in enumerate(pairs) if mask >> i & 1]
            check_covers_and_packings(Digraph.of(n, edges + [(v, u) for u, v in edges]), n <= 5)


def test_clebsch_and_union_fixture(monkeypatch):
    cl = clebsch_graph()
    assert cl.n == 16 and cl.is_undirected()
    assert acyclic_number(cl) == 5
    union = bidirectional_union(Digraph.of(6, []), cl)
    assert union.n == 22
    monkeypatch.setattr(params, "ALPHA_LIMIT", 22)
    monkeypatch.setattr(params, "PARTITION_LIMIT", 22)
    assert acyclic_number(union) == 6
    assert min_clique_partition(union) > 6


def test_grotzsch_complement_union(monkeypatch):
    gr = grotzsch_graph()
    comp = Digraph.of(
        11,
        [
            (u, v)
            for u in range(11)
            for v in range(11)
            if u != v and not gr.has_arc(u, v)
        ],
    )
    assert acyclic_number(comp) == 2
    assert min_clique_partition(comp) == 4
    union = bidirectional_union(Digraph.of(3, []), comp)
    monkeypatch.setattr(params, "PARTITION_LIMIT", 14)
    assert acyclic_number(union) == 3
    assert min_clique_partition(union) == 4


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(digraphs())
def test_weak_certificate_is_first_violation_in_combinations_order(g):
    out_masks = g.out_masks()
    alpha = brute_alpha(g)
    want = None
    for combo in itertools.combinations(range(g.n), alpha) if alpha else ():
        acyclic = _find_short_cycle(out_masks, sum(1 << v for v in combo)) is None
        if acyclic and not is_compatible(g, combo, "weak"):
            want = frozenset(combo)
            break
    cert = weak_compat_certificate(g)
    assert cert.witness == want
    assert cert.verdict == (INCONCLUSIVE if want is None else NOT_STRICTLY_LINEARLY_SOLVABLE)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(digraphs())
def test_max_matching_against_networkx(g):
    nx = pytest.importorskip("networkx")
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from((u, v) for u, v in g.arcs if u != v and (v, u) in g.arcs)
    assert max_matching(g) == len(nx.max_weight_matching(h, maxcardinality=True))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(digraphs())
def test_undirected_max_acyclic_set_against_networkx(d):
    nx = pytest.importorskip("networkx")
    g = symmetrized(d)
    loopless = [v for v in range(g.n) if (v, v) not in g.arcs]
    h = nx.Graph()
    h.add_nodes_from(loopless)
    h.add_edges_from((u, v) for u, v in g.arcs if u != v and u in h and v in h)
    _, size = nx.max_weight_clique(nx.complement(h), weight=None)
    s = max_acyclic_set(g)
    assert len(s) == size
    assert all((u, v) not in g.arcs for u in s for v in s)
