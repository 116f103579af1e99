"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Criterion 5 checks that the gk family is not linearly solvable for k >= 3,
and that the prover stays sound on the k = 2 member: that member is the
bidirected path on 3 vertices, which routing solves (the 2-cycle {1, 2}
is a packing of k = 1 disjoint cycles), so a sound prover must return
"inconclusive".
"""

import itertools
import json
import math
import random
import subprocess
import sys
from contextlib import contextmanager

import pytest

from guesslab._bitset import bits
from guesslab.coding import (
    CodingFunction,
    count_fixed_points,
    fixed_points,
    interaction_graph,
    min_net,
    reduce_sequence,
    reduce_set,
    reduce_vertex,
)
from guesslab.constructions import (
    clique_solution,
    embed_in_sls,
    fig1_graph,
    fig6_graph,
    gk_family,
    kkk_solution,
    named,
    sls_construction,
)
from guesslab.digraph import Digraph, add_loops
from guesslab.digraph import reduce_sequence as graph_reduce_sequence
from guesslab.digraph import reduce_set as graph_reduce_set
from guesslab.digraph import reduce_vertex as graph_reduce_vertex
from guesslab.guessing import (
    _strict_exhaustive,
    guessing_number,
    h_loops,
    is_routing_solvable,
    routing_witness,
    strict_guessing_number,
)
from guesslab.linear import (
    INCONCLUSIVE,
    NOT_LINEARLY_SOLVABLE,
    LinearCodingFunction,
    count_fixed_linear,
    linear_guessing,
    linear_reduce,
    prove_not_linearly_solvable,
)
from guesslab.params import (
    acyclic_number,
    feedback_number,
    in_dominating_counts,
    is_edge_full,
    is_vertex_full,
    isolated_count,
    max_disjoint_cycles,
    min_clique_partition,
    min_intersection_model,
)
from guesslab.serialize import emit_dot, emit_json, parse
from guesslab.unicast import butterfly_instance, to_guessing_digraph

from conftest import (
    complete_graph,
    directed_cycle,
    random_acyclic_subset,
    random_coding_function,
    random_digraph,
    undirected_cycle,
)


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {title}: FAIL")
        raise
    print(f"ACCEPTANCE {number:02d} {title}: PASS")


def fig1_function():
    return CodingFunction.from_state_functions(
        4,
        2,
        [
            lambda x: x[2] & (x[1] | x[3]),
            lambda x: x[0] | x[3],
            lambda x: x[1],
            lambda x: x[2],
        ],
    )


def test_criterion_01_fig1_golden_suite():
    with criterion(1, "fig1 golden suite"):
        f = fig1_function()
        g = fig1_graph()
        assert interaction_graph(f) == g

        f4, _ = reduce_vertex(f, 3)
        g4, _ = graph_reduce_vertex(g, 3)
        assert interaction_graph(f4).arcs < g4.arcs  # strictly inside

        f34, _ = reduce_set(f, {2, 3})
        g34, _ = graph_reduce_set(g, {2, 3})
        assert interaction_graph(f34) == g34

        f134, _ = reduce_set(f, {0, 2, 3})
        assert f134.n == 1 and interaction_graph(f134).has_loop(0)

        assert fixed_points(f) == ((0, 0, 0, 0), (1, 1, 1, 1))
        assert fixed_points(f4) == ((0, 0, 0), (1, 1, 1))
        assert fixed_points(f34) == ((0, 0), (1, 1))
        assert fixed_points(f134) == ((0,), (1,))


def test_criterion_02_reduction_preservation():
    with criterion(2, "reduction preserves fixed points and order"):
        rng = random.Random(0xACCE2)
        for _ in range(500):
            n = rng.randint(1, 5)
            q = rng.choice([2, 3])
            f = random_coding_function(rng, n, q).canonicalize()
            base = count_fixed_points(f)
            seen = set()
            stack = [f]
            while stack:
                h = stack.pop()
                key = (h.n, h.supports, h.tables)
                if key in seen:
                    continue
                seen.add(key)
                assert count_fixed_points(h) == base
                for v in range(h.n):
                    if v not in h.supports[v]:
                        stack.append(reduce_vertex(h, v)[0])

        for _ in range(500):
            n = rng.randint(2, 5)
            q = rng.choice([2, 3])
            f = random_coding_function(rng, n, q).canonicalize()
            sub = random_acyclic_subset(rng, interaction_graph(f))
            if sub is None:
                continue
            target, _ = reduce_set(f, sub)
            for perm in itertools.permutations(sub):
                assert reduce_sequence(f, perm)[0] == target

        for _ in range(500):
            g = random_digraph(rng, rng.randint(2, 8), p=0.25, loops=True)
            sub = random_acyclic_subset(rng, g)
            if sub is None:
                continue
            target, _ = graph_reduce_set(g, sub)
            for perm in itertools.permutations(sub):
                assert graph_reduce_sequence(g, perm)[0] == target


def test_criterion_03_loopfull_formula_cross_validation():
    with criterion(3, "loop-full strict value vs in-dominating sum"):
        pairs = [(u, v) for u in range(3) for v in range(3) if u != v]
        for r in range(len(pairs) + 1):
            for arcs in itertools.combinations(pairs, r):
                g = Digraph.of(3, arcs)
                # the enumeration itself: loop-full graphs take the formula route
                brute, _ = _strict_exhaustive(add_loops(g), 2)
                assert brute == h_loops(g, 2).max_fix

        def ids_sum(g, q):
            counts = in_dominating_counts(g)
            return sum((q - 1) ** k * counts[k] for k in range(len(counts)))

        for n in range(2, 7):
            for q in (2, 3, 5):
                assert ids_sum(named("K", n).graph, q) == q**n - 1
                assert ids_sum(named("T", n).graph, q) == q**n - q ** (n - 2)
                assert ids_sum(named("iS", n).graph, q) == q**n - 1
                star_value = q**n - q ** (n - 1) + (q - 1) ** (n - 1)
                assert ids_sum(named("oS", n).graph, q) == star_value
                assert ids_sum(named("S", n).graph, q) == star_value


def test_criterion_04_butterfly_clique():
    with criterion(4, "butterfly and the clique solution"):
        k3 = complete_graph(3)
        rep = guessing_number(k3, 2)
        assert rep.max_fix == 4 and rep.value == pytest.approx(2.0)
        sol = clique_solution(3, 2)
        assert count_fixed_linear(sol)[0] == 4
        assert count_fixed_points(sol.to_coding_function()) == 4
        assert to_guessing_digraph(butterfly_instance()) == k3


def test_criterion_05_gk_family():
    with criterion(5, "non-linearly-solvable family"):
        g3 = gk_family(3)
        assert len(g3.arcs) == 13
        assert linear_guessing(g3, 2, "g").max_fix == 2**2
        assert linear_guessing(g3, 3, "g").max_fix == 3**2
        assert prove_not_linearly_solvable(g3).verdict == NOT_LINEARLY_SOLVABLE
        assert (
            prove_not_linearly_solvable(gk_family(4, "minimal")).verdict
            == NOT_LINEARLY_SOLVABLE
        )
        # Soundness on the k = 2 member: gk_family(2) is the bidirected path
        # 0-1-2 with feedback number 1, and the 2-cycle {1, 2} is a disjoint
        # cycle packing of size 1, so routing solves it and linear coding
        # reaches q^k = q.  A sound prover must stay inconclusive there.
        g2 = gk_family(2)
        assert is_routing_solvable(g2)
        for q in (2, 3):
            assert linear_guessing(g2, q, "g").max_fix == q
        assert prove_not_linearly_solvable(g2).verdict == INCONCLUSIVE


def test_criterion_06_triangle_free_classification():
    with criterion(6, "triangle-free linear solvability boundary"):
        for n, cycle in ((5, undirected_cycle(5)), (7, undirected_cycle(7))):
            k = feedback_number(cycle)
            for q in (2, 3):
                assert linear_guessing(cycle, q, "g").max_fix == q ** (k - 1)

        for n in range(1, 7):
            all_pairs = list(itertools.combinations(range(n), 2))
            for mask in range(1 << len(all_pairs)):
                adj = [0] * n
                arcs = []
                for idx, (u, v) in enumerate(all_pairs):
                    if mask >> idx & 1:
                        adj[u] |= 1 << v
                        adj[v] |= 1 << u
                        arcs += [(u, v), (v, u)]
                if any(
                    mask >> idx & 1 and adj[u] & adj[v]
                    for idx, (u, v) in enumerate(all_pairs)
                ):
                    continue  # has a triangle
                g = Digraph.of(n, arcs)
                alpha = acyclic_number(g)
                if min_clique_partition(g) != alpha:
                    continue  # not vertex-full
                k = n - alpha
                c, _ = max_disjoint_cycles(g)
                assert c == k
                witness = routing_witness(g, 2)
                assert count_fixed_points(witness) == 2**k


def _monotone_tables(q, d):
    out = []
    for flat in itertools.product(range(q), repeat=q**d):
        ok = True
        for p in range(d):
            stride = q ** (d - 1 - p)
            block = stride * q
            for base in range(0, len(flat), block):
                for off in range(stride):
                    if any(
                        flat[base + off + (a + 1) * stride] < flat[base + off + a * stride]
                        for a in range(q - 1)
                    ):
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            out.append(flat)
    return out


def _max_fix_nondecreasing(g, q):
    n = g.n
    partial = {(1 << q**n) - 1}
    weights = [q ** (n - 1 - u) for u in range(n)]
    for v in range(n):
        sup = g.in_neighbors(v)
        masks = set()
        for t in _monotone_tables(q, len(sup)):
            m = 0
            for code in range(q**n):
                x = [(code // w) % q for w in weights]
                r = 0
                for s in sup:
                    r = r * q + x[s]
                if t[r] == x[v]:
                    m |= 1 << code
            masks.add(m)
        partial = {a & m for a in partial for m in masks}
    return max(x.bit_count() for x in partial)


def test_criterion_07_nondecreasing_vs_routing():
    with criterion(7, "non-decreasing functions match routing only"):
        k3 = complete_graph(3)
        assert _monotone_tables(2, 2) and len(_monotone_tables(2, 2)) == 6
        best_k3 = _max_fix_nondecreasing(k3, 2)
        assert best_k3 == 2
        assert best_k3 < 2 ** feedback_number(k3)
        c5 = undirected_cycle(5)
        best_c5 = _max_fix_nondecreasing(c5, 2)
        assert best_c5 < 2 ** feedback_number(c5)


def test_criterion_08_strongly_compatible_pipeline():
    with criterion(8, "strongly compatible construction pipeline"):
        fig6 = fig6_graph()
        f = sls_construction(fig6, (0, 1))
        assert f.support_graph() == fig6
        assert count_fixed_linear(f)[0] == f.q ** feedback_number(fig6)
        red, _ = linear_reduce(f, {0, 1})
        assert red.rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

        for n in range(1, 4):
            pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
            for r in range(len(pairs) + 1):
                for arcs in itertools.combinations(pairs, r):
                    d = Digraph.of(n, arcs)
                    emb = embed_in_sls(d)
                    g, designated = emb.graph, emb.designated
                    fg = sls_construction(g, designated)
                    assert fg.support_graph() == g
                    k = g.n - acyclic_number(g)
                    assert count_fixed_linear(fg)[0] == fg.q**k
                    red, _ = linear_reduce(fg, designated)
                    assert all(
                        red.rows[i][j] == (1 if i == j else 0)
                        for i in range(red.n)
                        for j in range(red.n)
                    )


def test_criterion_09_balanced_biclique_solutions():
    with criterion(9, "balanced biclique strict solutions"):
        f2 = kkk_solution(2)
        assert f2.q == 13
        f3 = kkk_solution(3)
        assert f3.q == 29
        for k, f in ((2, f2), (3, f3)):
            m = [[f.rows[k + j][i] for j in range(k)] for i in range(k)]
            minv = [[f.rows[i][k + j] for i in range(k)] for j in range(k)]
            assert all(x != 0 for row in m for x in row)
            assert all(x != 0 for row in minv for x in row)
            prod = [
                [
                    sum(m[i][t] * minv[t][j] for t in range(k)) % f.q
                    for j in range(k)
                ]
                for i in range(k)
            ]
            assert prod == [[1 if i == j else 0 for j in range(k)] for i in range(k)]
            assert count_fixed_linear(f)[0] == f.q**k
            assert f.support_graph() == named("K", k, k).graph
            assert interaction_graph(f.to_coding_function()) == named("K", k, k).graph

        inv2 = pow(2, -1, 3)
        paper = LinearCodingFunction(
            4,
            3,
            (
                (0, 0, inv2, inv2),
                (0, 0, inv2, (3 - inv2) % 3),
                (1, 1, 0, 0),
                (1, 2, 0, 0),
            ),
        )
        assert count_fixed_linear(paper)[0] == 9


def test_criterion_10_edge_full_equivalences():
    with criterion(10, "edge-full equivalences"):
        for n in range(1, 7):
            pairs = list(itertools.combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                adj = [0] * n
                arcs = []
                for idx, (u, v) in enumerate(pairs):
                    if mask >> idx & 1:
                        adj[u] |= 1 << v
                        adj[v] |= 1 << u
                        arcs += [(u, v), (v, u)]
                g = Digraph.of(n, arcs)
                alpha = acyclic_number(g)
                ind_sets = [
                    s
                    for s in range(1, 1 << n)
                    if all(adj[v] & s == 0 for v in bits(s))
                ]

                def strongly(s):
                    outside = [u for u in range(n) if not s >> u & 1]
                    for u in outside:
                        for v in outside:
                            if u != v and bool(adj[u] & adj[v] & s) != bool(
                                adj[u] >> v & 1
                            ):
                                return False
                    return True

                exists_sc = any(strongly(s) for s in ind_sets)
                maxsets = [s for s in ind_sets if bin(s).count("1") == alpha]
                some_max = any(strongly(s) for s in maxsets)
                all_max = all(strongly(s) for s in maxsets)
                edge_full = is_edge_full(g)
                model = (
                    min_intersection_model(g, alpha - isolated_count(g)) is not None
                )
                assert exists_sc == some_max == all_max == edge_full == model

        k22 = named("K", 2, 2).graph
        assert is_vertex_full(k22)
        assert not is_edge_full(k22)
        inv2 = pow(2, -1, 3)
        paper = LinearCodingFunction(
            4,
            3,
            (
                (0, 0, inv2, inv2),
                (0, 0, inv2, (3 - inv2) % 3),
                (1, 1, 0, 0),
                (1, 2, 0, 0),
            ),
        )
        assert paper.support_graph() == k22
        assert count_fixed_linear(paper)[0] == 9 == 3 ** feedback_number(k22)


def test_criterion_11_sandwich_and_bounds():
    with criterion(11, "sandwich inequalities and fixed-point bounds"):
        loopfull_cores = {
            "E2": Digraph.of(2, []),
            "K2": complete_graph(2),
            "K3": complete_graph(3),
            "T3": named("T", 3).graph,
            "iS3": named("iS", 3).graph,
            "S3": named("S", 3).graph,
        }
        strict_small = {
            3: [directed_cycle(2), directed_cycle(3), Digraph.of(3, [(0, 1), (1, 2)]), Digraph.of(2, [])],
            4: [directed_cycle(2)],
            5: [],
        }
        for q in (3, 4, 5):
            corpus = []
            for g in loopfull_cores.values():
                closed = add_loops(g)
                corpus.append(
                    (
                        closed,
                        strict_guessing_number(closed, q).max_fix,
                        strict_guessing_number(closed, q - 1).max_fix,
                    )
                )
            for g in strict_small[q]:
                corpus.append(
                    (
                        g,
                        strict_guessing_number(g, q).max_fix,
                        strict_guessing_number(g, q - 1).max_fix,
                    )
                )
            for g, h_q, h_qm1 in corpus:
                g_q = guessing_number(g, q).max_fix
                g_qm1 = guessing_number(g, q - 1).max_fix
                # counts compare exactly: g(G,q) >= h(G,q) >= g(G,q-1) log_q(q-1)
                assert g_q >= h_q >= g_qm1
                lhs = math.log(g_q, q)
                mid = math.log(h_q, q)
                low = math.log(g_qm1, q - 1) * math.log(q - 1, q)
                tail = lhs - g.n * math.log(1 + 1 / (q - 1), q)
                assert lhs >= mid - 1e-12
                assert mid >= low - 1e-12
                assert low >= tail - 1e-12

        rng = random.Random(0xACCE11)
        for _ in range(200):
            n = rng.randint(1, 5)
            q = rng.choice([2, 3])
            g = random_digraph(rng, n, p=0.35, loops=True)
            f = min_net(g, q)
            assert count_fixed_points(f) <= q ** feedback_number(g)
            if g.is_acyclic():
                assert count_fixed_points(f) == 1
        for _ in range(100):
            f = random_coding_function(rng, rng.randint(1, 5), 2).canonicalize()
            assert count_fixed_points(f) <= 2 ** feedback_number(interaction_graph(f))


def test_criterion_12_cli_round_trips_and_exit_codes():
    with criterion(12, "cli round-trips and exit codes"):
        rng = random.Random(0xACCE12)
        for _ in range(1000):
            g = random_digraph(rng, rng.randint(0, 8), p=rng.random() * 0.5, loops=True)
            dot = emit_dot(g)
            assert parse(dot) == g and emit_dot(parse(dot)) == dot
            js = emit_json(g)
            assert parse(js) == g and emit_json(parse(js)) == js

        def cli(cmd, stdin=None):
            return subprocess.run(
                [sys.executable, "-m", "guesslab.cli"] + cmd,
                input=stdin,
                capture_output=True,
                text=True,
            )

        built = cli(["construct", "gk", "3"])
        assert built.returncode == 0
        verdict = cli(["solvable", "-", "--prove-nonlinear"], stdin=built.stdout)
        assert verdict.returncode == 1
        assert NOT_LINEARLY_SOLVABLE in verdict.stdout

        clique = cli(["construct", "clique", "3"])
        guessed = cli(["guess", "-", "-q", "2", "--json"], stdin=clique.stdout)
        assert guessed.returncode == 0
        data = json.loads(guessed.stdout)
        assert data["max_fix"] == 4 and data["value"] == pytest.approx(2.0)

        missing = cli(["guess", "missing.dot", "-q", "2"])
        assert missing.returncode == 2
