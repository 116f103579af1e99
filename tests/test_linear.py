import itertools
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from guesslab import _kernels, linear
from guesslab.coding import count_fixed_points, interaction_graph
from guesslab.coding import reduce_set as table_reduce_set
from guesslab.constructions import clique_solution, fig6_graph, gk_family
from guesslab.digraph import (
    Digraph,
    add_loops,
    bidirectional_union,
    count_paths_through,
    is_compatible,
    symmetrized,
)
from guesslab.errors import NotAcyclicError, PreconditionError, ResourceBoundError
from guesslab.guessing import guessing_number, is_routing_solvable
from guesslab.linear import (
    INCONCLUSIVE,
    NOT_LINEARLY_SOLVABLE,
    NOT_STRICTLY_LINEARLY_SOLVABLE,
    LinearCodingFunction,
    count_fixed_linear,
    linear_guessing,
    linear_reduce,
    prove_not_linearly_solvable,
    weak_compat_certificate,
)
from guesslab.params import acyclic_number, feedback_number, is_vertex_full, min_clique_partition

from conftest import complete_graph, digraphs, random_digraph, undirected_cycle


def k22_paper_solution(q=3):
    # f1 = (x3 + x4)/2, f2 = (x3 - x4)/2, f3 = x1 + x2, f4 = x1 - x2
    inv2 = pow(2, -1, q)
    rows = (
        (0, 0, inv2, inv2),
        (0, 0, inv2, (q - inv2) % q),
        (1, 1, 0, 0),
        (1, q - 1, 0, 0),
    )
    return LinearCodingFunction(4, q, rows)


def test_dim_fix_clique():
    cnt, dim = count_fixed_linear(clique_solution(3, 2))
    assert cnt == 4 and dim == 2


def test_dim_fix_identity():
    ident = LinearCodingFunction(3, 5, tuple(tuple(1 if i == j else 0 for j in range(3)) for i in range(3)))
    cnt, dim = count_fixed_linear(ident)
    assert cnt == 125 and dim == 3


def test_count_fixed_linear_refuses_a_modulus_past_int64_before_testing_primality():
    # trial division to sqrt(2**61 - 1) would take minutes
    with pytest.raises(PreconditionError, match="fit in int64"):
        count_fixed_linear(LinearCodingFunction(1, 2**61 - 1, ((0,),)))


def test_dim_fix_k22_paper_solution():
    f = k22_paper_solution(3)
    cnt, dim = count_fixed_linear(f)
    assert cnt == 9 and dim == 2
    k22 = Digraph.of(4, [(0, 2), (2, 0), (0, 3), (3, 0), (1, 2), (2, 1), (1, 3), (3, 1)])
    assert f.support_graph() == k22
    assert count_fixed_points(f.to_coding_function()) == 9
    assert interaction_graph(f.to_coding_function()) == k22


@st.composite
def linear_functions(draw):
    n = draw(st.integers(1, 4))
    q = draw(st.integers(2, 6))
    rows = draw(st.lists(st.lists(st.integers(0, q - 1), min_size=n, max_size=n), min_size=n, max_size=n))
    return LinearCodingFunction(n, q, tuple(map(tuple, rows)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(linear_functions())
def test_count_fixed_linear_matches_state_enumeration(f):
    n, q = f.n, f.q
    count = sum(
        all(sum(f.rows[i][u] * x[u] for u in range(n)) % q == x[i] for i in range(n))
        for x in itertools.product(range(q), repeat=n)
    )
    cnt, dim = count_fixed_linear(f)
    assert cnt == count
    if q in (2, 3, 5):
        assert count == q**dim
    else:
        assert dim is None


def test_dim_fix_composite_modulus():
    f = LinearCodingFunction(2, 4, ((0, 3), (3, 0)))
    cnt, dim = count_fixed_linear(f)
    assert dim is None
    brute = sum(
        1
        for x in itertools.product(range(4), repeat=2)
        if (3 * x[1]) % 4 == x[0] and (3 * x[0]) % 4 == x[1]
    )
    assert cnt == brute


def test_linear_guessing_k3():
    rep = linear_guessing(complete_graph(3), 2, "g")
    assert rep.max_fix == 4 and rep.dim == 2
    assert count_fixed_linear(rep.witness)[0] == 4


def test_linear_guessing_gk():
    g3 = gk_family(3)
    assert linear_guessing(g3, 2, "g").max_fix == 4
    assert linear_guessing(g3, 3, "g").max_fix == 9


def test_linear_guessing_c5():
    c5 = undirected_cycle(5)
    for q in (2, 3):
        rep = linear_guessing(c5, q, "g")
        assert rep.max_fix == q**2  # k = 3 never reached
    assert feedback_number(c5) == 3


@pytest.mark.parametrize("n", [64, 70])
def test_linear_guessing_count_beyond_int64(n):
    # all loops, q = 2: the identity fixes all 2**n states; n = 70 also
    # takes ranks of matrices wider than one 64-bit word
    rep = linear_guessing(add_loops(Digraph.of(n, [])), 2, "h")
    assert rep.max_fix == 2**n and rep.dim == n
    assert count_fixed_linear(rep.witness) == (2**n, n)


def test_linear_guessing_cap():
    # refused on its 2**30 zero patterns, before any pattern array is built
    with pytest.raises(ResourceBoundError) as exc:
        linear_guessing(complete_graph(6), 5, "g")
    assert exc.value.needed == 2**30 > exc.value.cap and exc.value.knob


def test_linear_guessing_c7_strict_q5_runs_under_the_cap():
    # 4**14 matrices scanned plainly; the gauge leaves 4**8.  C7 is
    # triangle-free and not routing-solvable, so the paper's second result
    # puts it below q**k
    c7 = undirected_cycle(7)
    rep = linear_guessing(c7, 5, "h")
    assert rep.witness.support_graph() == c7
    assert count_fixed_linear(rep.witness) == (rep.max_fix, rep.dim)
    k = feedback_number(c7)
    assert not is_routing_solvable(c7) and rep.max_fix < 5**k


def plain_linear_guessing(g, q, mode):
    """Oracle: every coefficient matrix on g, coded mixed-radix over the
    sorted arcs (the first most significant) with digits 0 (mode g only)
    then the units; returns (max_fix, dim, first maximiser)."""
    arcs = g.arcs_sorted()
    allowed = np.array(((0,) if mode == "g" else ()) + linear.units(q), dtype=np.int64)
    total = len(allowed) ** len(arcs)
    best = (0, None, None)
    for start in range(0, total, 1 << 12):
        digits = np.arange(start, min(start + (1 << 12), total), dtype=np.int64)
        mats = np.zeros((len(digits), g.n, g.n), dtype=np.int64)
        for u, i in reversed(arcs):
            mats[:, i, u] = allowed[digits % len(allowed)]
            digits //= len(allowed)
        if linear.is_prime(q):
            dims = g.n - _kernels.modular_ranks(mats - np.eye(g.n, dtype=np.int64), q)
            counts = [(q ** int(d), int(d)) for d in dims]
        else:
            counts = [(count_fixed_linear(LinearCodingFunction(g.n, q, m))[0], None) for m in mats]
        idx = max(range(len(counts)), key=lambda j: (counts[j][0], -j))
        if counts[idx][0] > best[0]:
            best = (*counts[idx], LinearCodingFunction(g.n, q, mats[idx]))
    return best


def greedy_forest(g):
    """Arcs of g's spanning forest grown in sorted arc order, loops skipped."""
    comp = list(range(g.n))
    forest = []
    for u, i in g.arcs_sorted():
        cu, ci = comp[u], comp[i]
        if cu != ci:
            forest.append((u, i))
            comp = [cu if c == ci else c for c in comp]
    return forest


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(digraphs(max_n=5), st.sampled_from([2, 3, 4, 5]), st.sampled_from("gh"))
def test_gauge_fixed_search_matches_the_plain_scan(g, q, mode):
    base = len(linear.units(q)) + (mode == "g")
    # composite q tabulates each matrix's q**n states, so bound those too
    assume(base ** len(g.arcs) * (1 if linear.is_prime(q) else q**g.n) <= 1 << 16)
    max_fix, dim, first = plain_linear_guessing(g, q, mode)
    rep = linear_guessing(g, q, mode)
    assert (rep.max_fix, rep.dim) == (max_fix, dim)
    assert count_fixed_linear(rep.witness)[0] == max_fix
    support = rep.witness.support_graph()
    assert support == g if mode == "h" else support.arcs <= g.arcs
    assert all(rep.witness.rows[i][u] == 1 for u, i in greedy_forest(support))
    if q == 2:
        assert rep.witness == first


def test_strict_witness_support_is_exact():
    rng = random.Random(70)
    done = 0
    while done < 30:
        g = random_digraph(rng, rng.randint(1, 4), p=0.4, loops=True)
        if len(g.arcs) > 8:
            continue
        rep = linear_guessing(g, 3, "h")
        assert rep.witness.support_graph() == g
        f = rep.witness.to_coding_function()
        assert interaction_graph(f) == g
        assert count_fixed_points(f) == rep.max_fix
        done += 1


def test_linear_reduce_chain():
    f = LinearCodingFunction(3, 5, ((0, 0, 0), (2, 0, 0), (0, 3, 0)))
    reduced, relabel = linear_reduce(f, {1})
    assert relabel == {0: 0, 2: 1}
    assert reduced.rows == ((0, 0), (6 % 5, 0))


def test_linear_reduce_requires_acyclic():
    f = LinearCodingFunction(2, 3, ((0, 1), (1, 0)))
    with pytest.raises(NotAcyclicError):
        linear_reduce(f, {0, 1})


def test_linear_reduce_agrees_with_table_reduction():
    rng = random.Random(888)
    done = 0
    while done < 300:
        n = rng.randint(2, 5)
        q = rng.choice([2, 3, 5])
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for u in range(n):
                if rng.random() < 0.3:
                    rows[i][u] = rng.randrange(1, q)
        f = LinearCodingFunction(n, q, tuple(tuple(r) for r in rows))
        g = f.support_graph()
        acyclic_sets = [
            s
            for r in (1, 2)
            for s in itertools.combinations(range(n), r)
            if g.is_acyclic_within(s)
        ]
        if not acyclic_sets:
            continue
        sub = rng.choice(acyclic_sets)
        lin, relabel = linear_reduce(f, sub)
        tab, relabel2 = table_reduce_set(f.to_coding_function(), sub)
        assert relabel == relabel2
        assert lin.to_coding_function().canonicalize() == tab
        done += 1


def test_arc_erasure_needs_through_path():
    # an arc that disappears under linear reduction has a path through I
    rng = random.Random(4321)
    done = 0
    while done < 300:
        n = rng.randint(3, 5)
        q = rng.choice([2, 3, 5])
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for u in range(n):
                if rng.random() < 0.35:
                    rows[i][u] = rng.randrange(1, q)
        f = LinearCodingFunction(n, q, tuple(tuple(r) for r in rows))
        g = f.support_graph()
        acyclic_sets = [
            s
            for r in (1, 2)
            for s in itertools.combinations(range(n), r)
            if g.is_acyclic_within(s)
        ]
        if not acyclic_sets:
            continue
        sub = rng.choice(acyclic_sets)
        lin, relabel = linear_reduce(f, sub)
        red_g = lin.support_graph()
        for u, v in g.arcs:
            if u in relabel and v in relabel and not red_g.has_arc(relabel[u], relabel[v]):
                assert count_paths_through(g, sub, u, v) >= 1
        done += 1


def test_weak_compat_certificate_examples():
    cert = weak_compat_certificate(gk_family(3))
    assert cert.verdict == NOT_STRICTLY_LINEARLY_SOLVABLE
    assert cert.witness == frozenset({0, 1})
    assert weak_compat_certificate(fig6_graph()).verdict == INCONCLUSIVE
    for n in (2, 3, 4):
        assert weak_compat_certificate(complete_graph(n)).verdict == INCONCLUSIVE


def test_prove_not_linearly_solvable_examples():
    assert prove_not_linearly_solvable(gk_family(3)).verdict == NOT_LINEARLY_SOLVABLE
    assert prove_not_linearly_solvable(undirected_cycle(5)).verdict == NOT_LINEARLY_SOLVABLE
    assert prove_not_linearly_solvable(complete_graph(3)).verdict == INCONCLUSIVE


def test_prove_not_arc_cap():
    # 28 arcs are no bar; the sweep itself runs past its work bound
    with pytest.raises(ResourceBoundError) as exc:
        prove_not_linearly_solvable(gk_family(4, "maximal"))
    assert exc.value.needed > exc.value.cap == linear.PROVER_WORK_CAP
    assert exc.value.knob == "guesslab.linear.PROVER_WORK_CAP"


def plain_prove(g):
    """Oracle: the sweep with one Digraph per visited spanning subgraph, its
    maximum acyclic sets checked by is_compatible and a drop in k found by
    testing every (alpha+1)-set, with no bound on the work."""
    arcs = g.arcs_sorted()
    alpha = acyclic_number(g)

    def weakly_compatible(h):
        return alpha == 0 or all(
            is_compatible(h, s, "weak")
            for s in itertools.combinations(range(g.n), alpha)
            if h.is_acyclic_within(s)
        )

    def k_drops(h):
        return any(h.is_acyclic_within(s) for s in itertools.combinations(range(g.n), alpha + 1))

    def passes(kept, start):
        if weakly_compatible(Digraph.of(g.n, [arcs[j] for j in kept])):
            return True
        for j in range(start, len(arcs)):
            rest = kept - {j}
            if not k_drops(Digraph.of(g.n, [arcs[i] for i in rest])) and passes(rest, j + 1):
                return True
        return False

    return INCONCLUSIVE if passes(frozenset(range(len(arcs))), 0) else NOT_LINEARLY_SOLVABLE


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(digraphs(max_n=6))
def test_prover_matches_the_plain_sweep(g):
    assert prove_not_linearly_solvable(g).verdict == plain_prove(g)


def test_prover_matches_the_plain_sweep_on_small_graphs():
    # every graph on at most 6 vertices; five are not linearly solvable
    nx = pytest.importorskip("networkx")
    verdicts = []
    for G in nx.graph_atlas_g()[1:209]:
        edges = list(G.edges())
        g = Digraph.of(G.number_of_nodes(), edges + [(v, u) for u, v in edges])
        verdicts.append(prove_not_linearly_solvable(g).verdict)
        assert verdicts[-1] == plain_prove(g)
    assert verdicts.count(NOT_LINEARLY_SOLVABLE) == 5


def test_triangle_free_atlas_not_linear_iff_not_routing():
    # the paper's second result on every non-empty triangle-free graph on
    # at most 7 vertices, K_{3,4} among them
    nx = pytest.importorskip("networkx")
    verdicts = []
    for G in nx.graph_atlas_g():
        if G.number_of_edges() == 0 or any(nx.triangles(G).values()):
            continue
        edges = list(G.edges())
        g = Digraph.of(G.number_of_nodes(), edges + [(v, u) for u, v in edges])
        verdicts.append((is_routing_solvable(g), prove_not_linearly_solvable(g).verdict))
    assert len(verdicts) == 165
    assert verdicts.count((False, NOT_LINEARLY_SOLVABLE)) == 12
    assert verdicts.count((True, INCONCLUSIVE)) == 153


def test_gk_spanning_subgraph_structure():
    # every spanning subgraph keeping (j_k, j_1) is certified non-strict,
    # and dropping that arc lowers the feedback number
    for k in (2, 3, 4):
        g = gk_family(k, "minimal")
        jk = 2 * k - 2
        j1 = k - 1
        kg = feedback_number(g)
        without = Digraph.of(g.n, set(g.arcs) - {(jk, j1)})
        assert feedback_number(without) < kg or k == 2
        arcs = [a for a in g.arcs_sorted() if a != (jk, j1)]
        rng = random.Random(k)
        for _ in range(40):
            keep = {a for a in arcs if rng.random() < 0.7} | {(jk, j1)}
            h = Digraph.of(g.n, keep)
            if feedback_number(h) != kg:
                continue
            if k == 2:
                continue  # the k = 2 family member is genuinely solvable
            assert weak_compat_certificate(h).verdict == NOT_STRICTLY_LINEARLY_SOLVABLE


def test_clique_partition_lower_bound():
    rng = random.Random(55)
    done = 0
    while done < 40:
        g = symmetrized(random_digraph(rng, rng.randint(2, 5), p=0.4))
        cp = min_clique_partition(g)
        # run the clique-partition solution and count its fixed points
        q = 3
        rows = [[0] * g.n for _ in range(g.n)]
        remaining = set(range(g.n))
        adj = {v: set(g.out_neighbors(v)) for v in range(g.n)}
        parts = []
        while remaining:
            v = min(remaining)
            part = {v}
            for w in sorted(remaining - {v}):
                if all(w in adj[u] and u in adj[w] for u in part):
                    part.add(w)
            parts.append(sorted(part))
            remaining -= part
        for part in parts:
            for i in part:
                for j in part:
                    if i != j:
                        rows[i][j] = q - 1
        f = LinearCodingFunction(g.n, q, tuple(tuple(r) for r in rows))
        cnt, _ = count_fixed_linear(f)
        assert cnt >= q ** (g.n - len(parts)) and len(parts) >= cp
        exact = linear_guessing(g, q, "g") if len(g.arcs) <= 12 else None
        if exact is not None:
            assert exact.max_fix >= q ** (g.n - cp)
        done += 1


def test_linear_never_beats_general():
    rng = random.Random(202)
    done = 0
    while done < 30:
        g = random_digraph(rng, rng.randint(1, 4), p=0.4, loops=True)
        if len(g.arcs) > 9:
            continue
        lin = linear_guessing(g, 2, "g").max_fix
        gen = guessing_number(g, 2).max_fix
        assert lin <= gen
        done += 1


def test_alpha2_strictly_solvable_implies_vertex_full():
    # undirected graphs with alpha = 2: exhaustive strict linear search can
    # only reach q^k on vertex-full graphs; scope follows the search cap
    scopes = {2: 6, 3: 5, 5: 4}
    for q, max_n in scopes.items():
        for n in range(3, max_n + 1):
            for mask in range(1 << (n * (n - 1) // 2)):
                pairs = list(itertools.combinations(range(n), 2))
                arcs = []
                for idx, (u, v) in enumerate(pairs):
                    if mask >> idx & 1:
                        arcs += [(u, v), (v, u)]
                g = Digraph.of(n, arcs)
                if acyclic_number(g) != 2:
                    continue
                rep = linear_guessing(g, q, "h")
                if rep.max_fix == q ** (n - 2):
                    assert is_vertex_full(g)


def test_bidirectional_union_formula():
    rng = random.Random(60)
    q = 2
    pairs_checked = 0
    while pairs_checked < 8:
        n1, n2 = rng.randint(1, 3), rng.randint(1, 3)
        g1 = symmetrized(random_digraph(rng, n1, p=0.4))
        g2 = symmetrized(random_digraph(rng, n2, p=0.4))
        union = bidirectional_union(g1, g2)
        if len(union.arcs) > 20:
            continue
        d1 = linear_guessing(g1, q, "g").dim
        d2 = linear_guessing(g2, q, "g").dim
        got = linear_guessing(union, q, "g").dim
        assert got == min(n1 + d2, n2 + d1)
        pairs_checked += 1


def test_union_e2_k2():
    union = bidirectional_union(Digraph.of(2, []), complete_graph(2))
    rep = linear_guessing(union, 2, "g")
    assert rep.dim == 2 == min(2 + 1, 2 + 0)
