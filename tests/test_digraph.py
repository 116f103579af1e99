import itertools
import random

import pytest
from hypothesis import given, settings

from guesslab._bitset import bits
from guesslab.constructions import fig1_graph, fig6_graph, gk_family
from guesslab.digraph import (
    Digraph,
    _compatible,
    _path_counts,
    _peel,
    add_loops,
    bidirectional_union,
    count_paths_through,
    is_compatible,
    reduce_sequence,
    reduce_set,
    reduce_vertex,
    topological_order,
)
from guesslab.errors import NotAcyclicError, PreconditionError, VertexRangeError
from guesslab.params import _find_short_cycle, all_max_acyclic_sets, max_acyclic_set

from conftest import (
    acyclic_subsets,
    complete_graph,
    digraphs,
    random_acyclic_subset,
    random_digraph,
    undirected_cycle,
)


def test_digraph_validation():
    with pytest.raises(VertexRangeError):
        Digraph.of(2, [(0, 2)])
    g = Digraph.of(3, [(0, 1), (0, 1)])
    assert len(g.arcs) == 1
    assert Digraph.of(0).n == 0


def test_undirected_predicate():
    assert undirected_cycle(4).is_undirected()
    assert not Digraph.of(2, [(0, 1)]).is_undirected()
    assert Digraph.of(1, [(0, 0)]).is_undirected()  # a loop is its own reverse


def test_reduce_vertex_fig1():
    g = fig1_graph()
    reduced, relabel = reduce_vertex(g, 3)
    assert relabel == {0: 0, 1: 1, 2: 2}
    assert reduced == Digraph.of(3, [(0, 1), (1, 0), (2, 0), (1, 2), (2, 1)])


def test_reduce_vertex_loop_convention():
    g = Digraph.of(2, [(0, 0), (0, 1)])
    reduced, relabel = reduce_vertex(g, 0)
    assert reduced == g
    assert relabel == {0: 0, 1: 1}


def test_reduce_vertex_path_contraction():
    g = Digraph.of(3, [(0, 1), (1, 2)])
    reduced, relabel = reduce_vertex(g, 1)
    assert reduced == Digraph.of(2, [(0, 1)])
    assert relabel == {0: 0, 2: 1}


def test_reduce_vertex_out_of_range():
    with pytest.raises(VertexRangeError):
        reduce_vertex(Digraph.of(2, []), 5)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(digraphs())
def test_reduce_vertex_matches_its_definition(g):
    # arc (u, w) iff u -> w or u -> v -> w, the survivors compacted in order
    for v in range(g.n):
        reduced, relabel = reduce_vertex(g, v)
        if g.has_loop(v):
            assert (reduced, relabel) == (g, {u: u for u in range(g.n)})
            continue
        keep = [u for u in range(g.n) if u != v]
        assert relabel == {u: i for i, u in enumerate(keep)}
        want = {
            (relabel[u], relabel[w])
            for u in keep
            for w in keep
            if g.has_arc(u, w) or (g.has_arc(u, v) and g.has_arc(v, w))
        }
        assert reduced == Digraph.of(g.n - 1, want)


def test_reduce_set_fig1():
    g = fig1_graph()
    reduced, relabel = reduce_set(g, {2, 3})
    assert reduced == Digraph.of(2, [(0, 1), (1, 0), (1, 1)])
    assert relabel == {0: 0, 1: 1}


def test_reduce_set_empty_and_degenerate():
    g = fig1_graph()
    assert reduce_set(g, set())[0] == g
    empty = Digraph.of(0)
    assert reduce_set(empty, set())[0] == empty


def test_reduce_set_rejects_cyclic():
    g = Digraph.of(2, [(0, 1), (1, 0)])
    with pytest.raises(NotAcyclicError):
        reduce_set(g, {0, 1})
    with pytest.raises(NotAcyclicError):
        reduce_set(Digraph.of(1, [(0, 0)]), {0})


def test_reduce_set_matches_folded_vertex_reductions():
    rng = random.Random(22)
    for _ in range(500):
        n = rng.randint(2, 8)
        g = random_digraph(rng, n, p=0.25, loops=True)
        sub = random_acyclic_subset(rng, g)
        if sub is None:
            continue
        target, _ = reduce_set(g, sub)
        for perm in itertools.permutations(sub):
            got, _ = reduce_sequence(g, perm)
            assert got == target


def test_removed_graph_contained_in_reduction():
    rng = random.Random(5)
    for _ in range(200):
        g = random_digraph(rng, rng.randint(2, 7), p=0.3)
        sub = random_acyclic_subset(rng, g)
        if sub is None:
            continue
        reduced, relabel = reduce_set(g, sub)
        kept = {
            (relabel[u], relabel[v])
            for u, v in g.arcs
            if u in relabel and v in relabel
        }
        assert kept <= reduced.arcs


def test_reducing_maximal_acyclic_set_loops_everything():
    rng = random.Random(9)
    for _ in range(100):
        g = random_digraph(rng, rng.randint(2, 7), p=0.4)
        best = max_acyclic_set(g)
        reduced, _ = reduce_set(g, best)
        assert all(reduced.has_loop(v) for v in range(reduced.n))


def test_add_loops_and_union():
    e2 = Digraph.of(2, [])
    assert add_loops(e2).arcs == frozenset({(0, 0), (1, 1)})
    k2 = bidirectional_union(Digraph.of(1, []), Digraph.of(1, []))
    assert k2 == Digraph.of(2, [(0, 1), (1, 0)])
    u = bidirectional_union(e2, complete_graph(2))
    assert u.n == 4 and (0, 2) in u.arcs and (2, 0) in u.arcs and (2, 3) in u.arcs


def test_count_paths_through_basics():
    g = Digraph.of(3, [(0, 1), (1, 2)])
    assert count_paths_through(g, {1}, 0, 2) == 1
    g2 = Digraph.of(3, [(0, 1), (1, 2), (0, 2)])
    assert count_paths_through(g2, {1}, 0, 2) == 1
    assert count_paths_through(g2, {1}, 0, 2, include_direct=True) == 2


def test_count_paths_through_gk():
    g3 = gk_family(3)
    # no path from j_3 (vertex 4) to j_1 (vertex 2) through I = {0, 1}
    assert count_paths_through(g3, {0, 1}, 4, 2) == 0
    assert g3.has_arc(4, 2)


def test_count_paths_closed_walk():
    g = fig6_graph()
    assert count_paths_through(g, {0, 1}, 4, 4) == 1  # 4 -> 0 -> 1 -> 4


def test_count_paths_validation():
    g = Digraph.of(3, [(0, 1), (1, 2)])
    with pytest.raises(PreconditionError):
        count_paths_through(g, {1}, 1, 2)
    with pytest.raises(NotAcyclicError):
        count_paths_through(Digraph.of(4, [(1, 2), (2, 1), (0, 3)]), {1, 2}, 0, 3)


def test_compatibility_fig6():
    g = fig6_graph()
    assert is_compatible(g, {0, 1}, "strong")
    assert is_compatible(g, {0, 1}, "weak")
    assert not is_compatible(g, {0, 4}, "strong")
    assert is_compatible(g, {0, 4}, "weak")


def test_compatibility_gk_weak_fails():
    g3 = gk_family(3)
    assert not is_compatible(g3, {0, 1}, "weak")


def test_compatibility_triangle_free_independent_set():
    # any through-path would close a triangle, so an outside edge kills it
    c5 = undirected_cycle(5)
    for sub in all_max_acyclic_sets(c5):
        assert not is_compatible(c5, sub, "weak")


def test_compatibility_validation():
    g = fig6_graph()
    with pytest.raises(PreconditionError):
        is_compatible(g, set(), "weak")
    with pytest.raises(NotAcyclicError):
        is_compatible(g, {2, 3}, "weak")
    with pytest.raises(ValueError):
        is_compatible(g, {0, 1}, "kinda")


def test_strong_implies_weak():
    rng = random.Random(14)
    for _ in range(300):
        g = random_digraph(rng, rng.randint(2, 6), p=0.35)
        sub = random_acyclic_subset(rng, g)
        if sub is None:
            continue
        if is_compatible(g, sub, "strong"):
            assert is_compatible(g, sub, "weak")


def enumerated_paths(g, sub, u, v):
    """Oracle: every u -> v path with at least one internal vertex and all of
    them in sub, listed one by one; sub is acyclic, so every such walk is a
    path."""
    found = []

    def extend(path):
        for y in g.out_neighbors(path[-1]):
            if y == v and len(path) > 1:
                found.append((*path, y))
            if y in sub:
                extend((*path, y))

    extend((u,))
    return found


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(digraphs(max_n=6))
def test_path_counts_and_compatibility_match_path_enumeration(g):
    for sub in acyclic_subsets(g):
        outside = [x for x in range(g.n) if x not in sub]
        counts = {}
        for u in outside:
            for v in outside:
                counts[u, v] = len(enumerated_paths(g, sub, u, v))
                assert count_paths_through(g, sub, u, v) == counts[u, v]
                direct = counts[u, v] + g.has_arc(u, v)
                assert count_paths_through(g, sub, u, v, include_direct=True) == direct
        pairs = [(u, v) for u in outside for v in outside if u != v]
        strong = all(g.has_arc(u, v) == (counts[u, v] >= 1) for u, v in pairs)
        weak = all(
            counts[u, v] >= 1 if g.has_arc(u, v) else counts[u, v] != 1 for u, v in pairs
        )
        assert is_compatible(g, sub, "strong") == strong
        assert is_compatible(g, sub, "weak") == weak


def plain_compatible(in_masks, inside, order, weak):
    """Oracle: exact path counts from one outside source u at a time, then
    every outside v other than u checked against them."""
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


@pytest.mark.parametrize("seed", range(4))
def test_compatible_matches_the_per_source_scan(seed):
    # every acyclic subset, in both modes, of random digraphs with loops
    rng = random.Random(seed)
    verdicts = set()
    for _ in range(40):
        g = random_digraph(rng, rng.randint(1, 7), p=rng.uniform(0.15, 0.6), loops=True)
        ins = g.in_masks()
        for inside in range(1, 1 << g.n):
            order = _peel(ins, inside)
            for weak in (False, True) if order is not None else ():
                verdict = _compatible(ins, inside, order, weak)
                assert verdict == plain_compatible(ins, inside, order, weak)
                verdicts.add((weak, verdict))
    assert len(verdicts) == 4


def test_topological_order_deterministic():
    g = Digraph.of(4, [(2, 0), (3, 0)])
    assert topological_order(g, {0, 1, 2, 3}) == [1, 2, 3, 0]


def kahn_order(g, sub):
    """Kahn's algorithm with a sorted ready list, or None on a cycle."""
    indeg = {v: sum(1 for u, w in g.arcs if w == v and u in sub) for v in sub}
    ready = sorted(v for v, d in indeg.items() if d == 0)
    order = []
    while ready:
        v = ready.pop(0)
        order.append(v)
        for u, w in g.arcs:
            if u == v and w in indeg and w != v:
                indeg[w] -= 1
                if indeg[w] == 0:
                    ready = sorted(ready + [w])
    return order if len(order) == len(sub) else None


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(digraphs())
def test_adjacency_queries_match_arc_scan(g):
    arcs = g.arcs
    for v in range(g.n):
        ins = tuple(sorted(u for u, w in arcs if w == v))
        outs = tuple(sorted(w for u, w in arcs if u == v))
        assert g.in_neighbors(v) == ins and g.out_neighbors(v) == outs
        assert g.in_degree(v) == len(ins) and g.out_degree(v) == len(outs)
        assert g.in_masks()[v] == sum(1 << u for u in ins)
        assert g.out_masks()[v] == sum(1 << w for w in outs)
    assert g.loops() == frozenset(u for u, w in arcs if u == w)
    touched = {u for a in arcs for u in a}
    assert g.isolated_vertices() == tuple(v for v in range(g.n) if v not in touched)
    assert g.symmetric_edges() == tuple(sorted((u, w) for u, w in arcs if u < w and (w, u) in arcs))
    assert g.is_undirected() == all((w, u) in arcs for u, w in arcs)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(digraphs())
def test_topological_order_is_sorted_kahn(g):
    for mask in range(1 << g.n):
        sub = set(bits(mask))
        want = kahn_order(g, sub)
        if want is None:
            with pytest.raises(NotAcyclicError):
                topological_order(g, sub)
        else:
            assert topological_order(g, sub) == want


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(digraphs())
def test_acyclic_within_agrees_with_cycle_search(g):
    out_masks = g.out_masks()
    for mask in range(1 << g.n):
        assert g.is_acyclic_within(bits(mask)) == (_find_short_cycle(out_masks, mask) is None)


def test_adjacency_queries_check_the_vertex():
    g = Digraph.of(2, [(0, 1)])
    for query in (g.in_neighbors, g.out_neighbors, g.in_degree, g.out_degree):
        with pytest.raises(VertexRangeError):
            query(-1)
        with pytest.raises(VertexRangeError):
            query(2)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(digraphs())
def test_reduce_set_equals_every_fold_property(g):
    for sub in acyclic_subsets(g):
        target = reduce_set(g, sub)
        for perm in itertools.permutations(sub):
            assert reduce_sequence(g, perm) == target, perm


def test_reduce_sequence_label_errors():
    g = Digraph.of(2, [(0, 1)])
    for v in (5, 2, -1):
        with pytest.raises(VertexRangeError, match="outside"):
            reduce_sequence(g, [v])
    with pytest.raises(VertexRangeError, match="no longer present"):
        reduce_sequence(g, [1, 1])
