import itertools
import random

import pytest

from guesslab.coding import count_fixed_points, fixed_points, interaction_graph, min_net
from guesslab.coding import reduce_set as table_reduce_set
from guesslab.coding import reduce_vertex as table_reduce_vertex
from guesslab.constructions import (
    Embedding,
    clebsch_graph,
    clique_solution,
    dh_graph_construction,
    embed_in_sls,
    fig1_graph,
    fig6_graph,
    gk_family,
    grotzsch_graph,
    kkk_solution,
    named,
    reduction_target_fn,
    sls_construction,
    unit_witness,
    vanish_reduction_fn,
)
from guesslab.digraph import Digraph, reduce_set
from guesslab.errors import PreconditionError
from guesslab.linear import count_fixed_linear, is_prime, linear_reduce, units
from guesslab.params import _find_short_cycle, acyclic_number, min_clique_partition

from conftest import complete_graph, product_table, random_digraph


def test_named_families():
    assert named("T", 3).graph.arcs == frozenset({(0, 1), (0, 2), (1, 2)})
    assert named("K", 3).graph == complete_graph(3)
    assert named("K", 2, 2).graph.n == 4
    assert named("E", 4).graph.arcs == frozenset()
    assert named("iS", 3).graph.arcs == frozenset({(0, 2), (1, 2)})
    assert named("oS", 3).graph.arcs == frozenset({(2, 0), (2, 1)})
    assert named("S", 3).graph.is_undirected()
    assert named("C", 4).graph.arcs == frozenset({(0, 1), (1, 2), (2, 3), (3, 0)})
    assert named("fig1").graph == fig1_graph()
    with pytest.raises(PreconditionError):
        named("nope")


def brute_chromatic(g):
    n = g.n
    adj = [set(g.out_neighbors(v)) for v in range(n)]
    for k in range(1, n + 1):
        for colouring in itertools.product(range(k), repeat=n):
            if all(colouring[u] != colouring[v] for u in range(n) for v in adj[u] if u < v):
                return k
    return n


def test_grotzsch():
    gr = grotzsch_graph()
    assert gr.n == 11 and gr.is_undirected()
    adj = [set(gr.out_neighbors(v)) for v in range(11)]
    assert not any(
        w in adj[u] for u, v in gr.symmetric_edges() for w in adj[v] if w != u
    )  # triangle-free
    # chromatic number 4 == minimum clique partition of the complement
    comp = Digraph.of(
        11, [(u, v) for u in range(11) for v in range(11) if u != v and v not in adj[u]]
    )
    assert min_clique_partition(comp) == 4


def test_clebsch():
    cl = clebsch_graph()
    assert cl.n == 16
    assert all(cl.in_degree(v) == 5 for v in range(16))
    assert acyclic_number(cl) == 5


def test_clique_solution_examples():
    assert set(fixed_points(clique_solution(3, 2).to_coding_function())) == {
        (0, 0, 0),
        (0, 1, 1),
        (1, 0, 1),
        (1, 1, 0),
    }
    assert count_fixed_linear(clique_solution(1, 3))[0] == 1
    assert count_fixed_linear(clique_solution(4, 3))[0] == 27
    assert clique_solution(5, 6).support_graph() == complete_graph(5)


def test_unit_witness_examples():
    c3 = Digraph.of(3, [(0, 1), (1, 2), (2, 0)])
    w = unit_witness(c3, 3)
    fx = fixed_points(w)
    assert all((a, a, a) in fx for a in range(3))
    k3 = complete_graph(3)
    w2 = unit_witness(k3, 2)
    assert interaction_graph(w2) == k3
    assert count_fixed_points(w2) >= 2
    # source vertex: the layered family is fixed
    g = Digraph.of(4, [(0, 1), (1, 2), (2, 1), (2, 3)])
    w3 = unit_witness(g, 3)
    assert interaction_graph(w3) == g
    fx3 = fixed_points(w3)
    for a in range(3):
        assert (2, a, a, a) in fx3
    with pytest.raises(PreconditionError):
        unit_witness(Digraph.of(2, [(0, 1)]), 2)


def test_sls_construction_fig6():
    f = sls_construction(fig6_graph(), (0, 1))
    assert f.q == 2
    assert f.support_graph() == fig6_graph()
    assert count_fixed_linear(f)[0] == f.q ** 3
    red, _ = linear_reduce(f, {0, 1})
    assert red.rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_sls_construction_clique_singleton():
    for n in (2, 3, 4):
        g = complete_graph(n)
        f = sls_construction(g, (0,))
        assert f.support_graph() == g
        assert count_fixed_linear(f)[0] == f.q ** (n - 1)
        assert all(c == 0 or c in units(f.q) for row in f.rows for c in row)


def test_sls_construction_rejects_bad_sets():
    g = fig6_graph()
    with pytest.raises(PreconditionError):
        sls_construction(g, (0, 4))  # maximum but not strongly compatible
    with pytest.raises(PreconditionError):
        sls_construction(g, (1,))  # not maximum
    with pytest.raises(PreconditionError):
        sls_construction(Digraph.of(1, [(0, 0)]), (0,))  # loop


def test_sls_construction_of_an_arcless_graph():
    # the empty set names an arcless graph, whose strict solution is the zero map
    f = sls_construction(Digraph.of(3), [])
    assert (f.n, f.q, f.rows) == (3, 2, ((0, 0, 0),) * 3)
    with pytest.raises(PreconditionError, match="arcless"):
        sls_construction(Digraph.of(3, [(0, 1)]), [])


def test_embed_acyclic_inputs_come_back_unchanged():
    single_arc = Digraph.of(2, [(0, 1)])
    emb = embed_in_sls(single_arc)
    assert emb == Embedding(single_arc, (0, 1), False)
    e3 = Digraph.of(3, [])
    emb2 = embed_in_sls(e3)
    assert emb2.graph == e3 and not emb2.extended


def test_embed_pipeline_all_small_digraphs():
    # every loopless digraph on <= 3 vertices embeds into a strictly
    # linearly solvable graph via its designated acyclic set; the largest
    # embedding, of 6 arcs on 3 vertices, has 3 + 6 * 4 + 3 = 30 vertices
    for n in range(1, 4):
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        for r in range(len(pairs) + 1):
            for arcs in itertools.combinations(pairs, r):
                d = Digraph.of(n, arcs)
                emb = embed_in_sls(d)
                g, designated = emb.graph, emb.designated
                induced = frozenset(
                    (u, v) for u, v in g.arcs if u < d.n and v < d.n
                )
                assert induced == d.arcs  # d is an induced subgraph
                f = sls_construction(g, designated)
                assert f.support_graph() == g
                k = g.n - acyclic_number(g)
                assert count_fixed_linear(f)[0] == f.q**k
                red, _ = linear_reduce(f, designated)
                assert all(
                    red.rows[i][j] == (1 if i == j else 0)
                    for i in range(red.n)
                    for j in range(red.n)
                )


def test_embed_rejects_loops():
    with pytest.raises(PreconditionError):
        embed_in_sls(Digraph.of(1, [(0, 0)]))


def test_kkk_solutions():
    f1 = kkk_solution(1)
    assert f1.q == 3
    assert f1.rows[1][0] == 1 and f1.rows[0][1] == 1
    f2 = kkk_solution(2)
    assert f2.q == 13
    assert count_fixed_linear(f2)[0] == 13**2
    assert f2.support_graph() == named("K", 2, 2).graph
    f3 = kkk_solution(3)
    assert f3.q == 29
    assert count_fixed_linear(f3)[0] == 29**3
    assert f3.support_graph() == named("K", 3, 3).graph
    with pytest.raises(PreconditionError):
        kkk_solution(0)


@pytest.mark.parametrize("k", range(1, 9))
def test_kkk_solution_is_a_zero_free_inverse_pair(k):
    f = kkk_solution(k)
    q = f.q
    assert q >= 3 * k * k and is_prime(q) and not any(is_prime(p) for p in range(3 * k * k, q))
    m = [[f.rows[k + j][i] for j in range(k)] for i in range(k)]
    minv = [[f.rows[i][k + j] for i in range(k)] for j in range(k)]
    assert all(x != 0 for row in m + minv for x in row)
    prod = [[sum(m[i][t] * minv[t][j] for t in range(k)) % q for j in range(k)] for i in range(k)]
    assert prod == [[int(i == j) for j in range(k)] for i in range(k)]
    assert f.support_graph() == named("K", k, k).graph
    assert count_fixed_linear(f) == (q**k, k)


def test_gk_family_fig4():
    g3 = gk_family(3)
    want = Digraph.of(
        5,
        [(0, 1), (2, 3), (2, 4), (3, 4), (4, 2)]
        + [(0, 2), (2, 0), (0, 3), (3, 0), (1, 3), (3, 1), (1, 4), (4, 1)],
    )
    assert g3 == want


def test_gk_family_bullets():
    for k in (2, 3, 4, 5):
        for variant in ("maximal", "minimal"):
            g = gk_family(k, variant)
            i_set = set(range(k - 1))
            j_set = set(range(k - 1, 2 * k - 1))
            jk = 2 * k - 2
            j1 = k - 1
            assert g.is_acyclic_within(i_set)
            assert g.is_acyclic_within(j_set - {jk})
            # path from j_1 to j_k inside J
            frontier = {j1}
            seen = set()
            while frontier:
                x = frontier.pop()
                seen.add(x)
                frontier |= {w for w in g.out_neighbors(x) if w in j_set and w not in seen}
            assert jk in seen
            assert [w for w in g.out_neighbors(jk) if w in j_set] == [j1]
    with pytest.raises(PreconditionError):
        gk_family(1)


def test_gk_feedback_number():
    assert acyclic_number(gk_family(3)) == 2
    assert acyclic_number(gk_family(4, "minimal")) == 3
    # matching {i_a j_a} of size k-1 exists
    g = gk_family(3)
    assert g.has_arc(0, 2) and g.has_arc(2, 0)
    assert g.has_arc(1, 3) and g.has_arc(3, 1)


def test_dh_construction():
    rng = random.Random(7)
    two_cycle = Digraph.of(2, [(0, 1), (1, 0)])
    g, added = dh_graph_construction(two_cycle, Digraph.of(2, []))
    assert len(added) == 2
    red, _ = reduce_set(g, added)
    assert red == two_cycle
    # h == d means nothing to add
    g2, added2 = dh_graph_construction(two_cycle, two_cycle)
    assert g2 == two_cycle and added2 == ()
    with pytest.raises(PreconditionError):
        dh_graph_construction(two_cycle, Digraph.of(2, [(0, 1), (1, 1)]))
    for _ in range(150):
        n = rng.randint(1, 5)
        d = random_digraph(rng, n, p=0.4, loops=True)
        h = Digraph.of(n, {a for a in d.arcs if rng.random() < 0.5})
        g, added = dh_graph_construction(d, h)
        induced = frozenset((u, v) for u, v in g.arcs if u < n and v < n)
        assert induced == h.arcs
        red, _ = reduce_set(g, added)
        assert red == d


def test_reduction_target_fn():
    # statement-level check of the D/H pair: G(f)[J] = D, G(f^{-I}) = H
    d = Digraph.of(2, [(0, 1), (1, 0)])
    h = Digraph.of(2, [])
    f, added = reduction_target_fn(d, h, 2)
    gf = interaction_graph(f)
    assert frozenset((u, v) for u, v in gf.arcs if u < 2 and v < 2) == d.arcs
    red, _ = table_reduce_set(f, added)
    assert interaction_graph(red) == h

    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 4)
        q = rng.choice([2, 3])
        d = random_digraph(rng, n, p=0.4)
        h = random_digraph(rng, n, p=0.4)
        f, added = reduction_target_fn(d, h, q)
        gf = interaction_graph(f)
        assert frozenset((u, v) for u, v in gf.arcs if u < n and v < n) == d.arcs
        red, _ = table_reduce_set(f, added)
        assert interaction_graph(red) == h


def test_vanish_reduction_fn():
    k4 = complete_graph(4)
    e3 = Digraph.of(3, [])
    f = vanish_reduction_fn(k4, 3, e3, 2)
    assert interaction_graph(f) == k4
    red, _ = table_reduce_vertex(f, 3)
    assert interaction_graph(red) == e3
    # h = g minus v erases nothing beyond v
    full = Digraph.of(3, [(u, v) for u in range(3) for v in range(3) if u != v])
    f2 = vanish_reduction_fn(k4, 3, full, 2)
    red2, _ = table_reduce_vertex(f2, 3)
    assert interaction_graph(red2) == full
    # arbitrary spanning subgraphs at q = 3 as well
    rng = random.Random(90)
    for _ in range(20):
        h = Digraph.of(3, {a for a in full.arcs if rng.random() < 0.5})
        f3 = vanish_reduction_fn(k4, 3, h, 3)
        assert interaction_graph(f3) == k4
        red3, _ = table_reduce_vertex(f3, 3)
        assert interaction_graph(red3) == h
    with pytest.raises(PreconditionError):
        vanish_reduction_fn(Digraph.of(3, [(0, 2), (1, 2), (2, 0), (2, 1)]), 2, Digraph.of(2, []), 2)


def test_tables_match_the_product_oracle():
    # each builder's tables equal its definition, assignment by assignment
    rng = random.Random(13)
    for _ in range(100):
        n, q = rng.randint(0, 6), rng.randint(2, 4)
        g = random_digraph(rng, n, p=rng.random() * 0.7, loops=rng.random() < 0.3)
        sups = [g.in_neighbors(v) for v in range(n)]
        lowest = [product_table(s, q, lambda env: min(env.values(), default=q - 1)) for s in sups]
        assert min_net(g, q).tables == tuple(lowest)
        cycle = _find_short_cycle(g.out_masks(), (1 << n) - 1)
        if cycle is None:
            continue
        for i, v in enumerate(cycle):

            def follow(env, u=cycle[i - 1]):
                return env[u] if all(x >= env[u] for x in env.values()) else (env[u] + 1) % q

            lowest[v] = product_table(sups[v], q, follow)
        assert unit_witness(g, q).tables == tuple(lowest)
    for _ in range(60):
        n, q = rng.randint(1, 4), rng.choice([2, 3])
        d = random_digraph(rng, n, p=0.5, loops=True)
        h = random_digraph(rng, n, p=0.5, loops=True)
        f, added = reduction_target_fn(d, h, q)
        sub = dict(zip(sorted(d.arcs - h.arcs) + sorted(h.arcs - d.arcs), added))
        for j in range(n):
            in_d, in_h = set(d.in_neighbors(j)), set(h.in_neighbors(j))

            def value(env, j=j, in_d=in_d, in_h=in_h):
                vals = [q - 1] + [env[u] + q - 1 - env[sub[(u, j)]] for u in in_d - in_h]
                vals += [env[u] for u in in_d & in_h] + [env[sub[(w, j)]] for w in in_h - in_d]
                return min(vals) % q

            assert f.tables[j] == product_table(f.supports[j], q, value)
    for _ in range(40):
        n, q = rng.randint(3, 5), rng.choice([2, 3])
        v = rng.randrange(n)
        arcs = [(a, b) for a in range(n) for b in range(n) if a != b]
        g = Digraph.of(n, [(a, b) for a, b in arcs if v in (a, b) or rng.random() < 0.7])
        if any(g.in_degree(u) < 2 for u in range(n)):
            continue
        others = [u for u in range(n) if u != v]
        kept = [(a, b) for a, b in sorted(g.arcs) if v not in (a, b) and rng.random() < 0.6]
        h = Digraph.of(n - 1, [(others.index(a), others.index(b)) for a, b in kept])
        f = vanish_reduction_fn(g, v, h, q)
        for u in range(n):
            if u == v:
                tab = product_table(f.supports[u], q, lambda env: int(any(env.values())))
            else:
                conj = [a for a, b in kept if b == u]
                disj = [a for a in g.in_neighbors(u) if a != v and a not in conj]

                def value(env, conj=conj, disj=disj):
                    kept_all = all(env[a] for a in conj)
                    return int(kept_all and (env[v] != 0 or any(env[a] == 0 for a in disj)))

                tab = product_table(f.supports[u], q, value)
            assert f.tables[u] == tab
