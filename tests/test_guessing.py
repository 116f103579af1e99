import itertools
import math
import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guesslab import _kernels, guessing
from guesslab._bitset import max_independent_set
from guesslab.coding import CodingFunction, count_fixed_points, interaction_graph, min_net
from guesslab.digraph import Digraph, add_loops, reduce_vertex, symmetrized
from guesslab.errors import PreconditionError, ResourceBoundError
from guesslab.guessing import (
    _strict_exhaustive,
    guessing_number,
    h_loops,
    is_routing_solvable,
    is_solvable,
    loopfull_witness,
    routing_witness,
    strict_guessing_number,
)
from guesslab.constructions import gk_family, named, unit_witness
from guesslab.params import acyclic_number, feedback_number

from conftest import complete_graph, digraphs, random_digraph, undirected_cycle


def brute_force_max_fix(g, q):
    """Independent oracle: enumerate every f with G(f) inside g.

    Every tuple of per-vertex tables on the in-neighbourhoods (read from
    g.arcs) is tried; numpy counts the states each tuple fixes.
    """
    n = g.n
    states = np.array(list(itertools.product(range(q), repeat=n)), dtype=np.int64)
    fixes = []  # fixes[v][t, x]: table t at vertex v maps state x to x[v]
    for v in range(n):
        sup = sorted(u for u, w in g.arcs if w == v)
        row = np.zeros(len(states), dtype=np.int64)
        for u in sup:
            row = row * q + states[:, u]
        tables = np.array(list(itertools.product(range(q), repeat=q ** len(sup))))
        fixes.append(tables[:, row] == states[:, v])
    # rows of acc: every tuple of tables at vertices 1..n-1, in product order
    acc = np.ones((1, len(states)), dtype=bool)
    for fix in fixes[1:]:
        acc = (acc[:, None, :] & fix[None, :, :]).reshape(-1, len(states))
    return max(int((acc & fix0).sum(axis=1).max()) for fix0 in fixes[0])


def plain_max_fix(g, q):
    """Oracle: a maximum independent set of the conflict graph over all q**n
    states, with no symmetry used, one connected component at a time.  x and
    y conflict iff some vertex v has x_v != y_v while x and y agree on v's
    in-neighbourhood."""
    states = np.array(list(itertools.product(range(q), repeat=g.n)), dtype=np.int64)
    conflict = np.zeros((len(states), len(states)), dtype=bool)
    for v in range(g.n):
        sup = list(g.in_neighbors(v))
        same = (states[:, None, sup] == states[None, :, sup]).all(axis=2)
        conflict |= same & (states[:, None, v] != states[None, :, v])
    adj = [sum(1 << int(j) for j in np.flatnonzero(row)) for row in conflict]
    return sum(
        max_independent_set(adj, len(states), sum(1 << v for v in comp)).bit_count()
        for comp in nx.connected_components(nx.from_numpy_array(conflict))
    )


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from([(2, 8), (3, 5)]).flatmap(
        lambda qn: st.tuples(st.just(qn[0]), digraphs(max_n=qn[1]))
    )
)
def test_fixing_state_0_matches_the_plain_search(case):
    q, g = case
    rep = guessing_number(g, q)
    assert rep.max_fix == plain_max_fix(g, q)
    assert count_fixed_points(rep.witness) == rep.max_fix
    assert interaction_graph(rep.witness).arcs <= g.arcs
    assert rep.witness.evaluate((0,) * g.n) == (0,) * g.n


def test_guessing_gk4_below_the_feedback_bound():
    g = gk_family(4)
    assert (g.n, acyclic_number(g)) == (7, 3)
    rep = guessing_number(g, 2)
    assert rep.max_fix == 10 < 2 ** (g.n - acyclic_number(g))
    assert count_fixed_points(rep.witness) == 10


def test_guessing_searches_components_apart():
    # vertex 2 reads only itself, so states with different x_2 never
    # conflict: the conflict graph is three copies of one graph, which the
    # max-clique search does not finish in minutes when given whole
    arcs = [(0, 1), (0, 4), (2, 0), (2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 4), (4, 0), (4, 3)]
    g = Digraph.of(5, arcs)
    assert guessing_number(g, 3).max_fix == plain_max_fix(g, 3) == 9


@pytest.mark.parametrize("block", [1, 100])
def test_guessing_blocked_difference_codes(block, monkeypatch):
    cases = [(undirected_cycle(7), 2), (complete_graph(4), 3), (gk_family(3), 2)]
    want = [guessing_number(g, q) for g, q in cases]
    monkeypatch.setattr(guessing, "DIFF_BLOCK", block)
    got = [guessing_number(g, q) for g, q in cases]
    assert [(r.max_fix, r.witness) for r in got] == [(r.max_fix, r.witness) for r in want]


def test_guessing_k3():
    rep = guessing_number(complete_graph(3), 2)
    assert rep.max_fix == 4
    assert rep.value == pytest.approx(2.0)
    assert count_fixed_points(rep.witness) == 4
    assert interaction_graph(rep.witness).arcs <= complete_graph(3).arcs


def test_guessing_acyclic():
    g = Digraph.of(4, [(0, 1), (1, 2), (0, 3)])
    assert guessing_number(g, 2).max_fix == 1
    assert guessing_number(g, 3).max_fix == 1


def test_guessing_c5_matches_brute_force():
    # the exact conflict-graph oracle and plain function enumeration agree
    # on 5 (not 4): the pentagon supports a 5-element consistent family
    c5 = undirected_cycle(5)
    rep = guessing_number(c5, 2)
    assert rep.max_fix == brute_force_max_fix(c5, 2) == 5
    assert count_fixed_points(rep.witness) == 5


def test_guessing_matches_brute_force_small():
    rng = random.Random(12)
    for _ in range(15):
        g = random_digraph(rng, 3, p=0.4, loops=True)
        assert guessing_number(g, 2).max_fix == brute_force_max_fix(g, 2)


def test_guessing_state_cap():
    with pytest.raises(ResourceBoundError) as exc:
        guessing_number(Digraph.of(13, []), 2)
    assert exc.value.needed == 2**13 > exc.value.cap == 4096 and exc.value.knob


def test_witness_reverifies():
    rng = random.Random(42)
    for _ in range(40):
        g = random_digraph(rng, rng.randint(1, 5), p=0.35, loops=True)
        q = rng.choice([2, 3])
        if q**g.n > 4096:
            continue
        rep = guessing_number(g, q)
        assert count_fixed_points(rep.witness) == rep.max_fix
        assert interaction_graph(rep.witness).arcs <= g.arcs


def test_strict_cap_charges_mask_width():
    # 2**18 states: few mask combinations, but each one is a 2**18-bit AND
    with pytest.raises(ResourceBoundError) as exc:
        strict_guessing_number(named("C", 18).graph, 2)
    assert exc.value.needed > exc.value.cap and exc.value.knob


def test_strict_loopfull_formula_examples():
    k3 = complete_graph(3)
    t3 = Digraph.of(3, [(0, 1), (0, 2), (1, 2)])
    assert h_loops(k3, 2).max_fix == 7
    assert h_loops(t3, 2).max_fix == 6
    assert h_loops(Digraph.of(4, []), 3).max_fix == 81
    with pytest.raises(PreconditionError):
        h_loops(Digraph.of(1, [(0, 0)]), 2)


def test_strict_single_loop():
    rep = strict_guessing_number(Digraph.of(1, [(0, 0)]), 2)
    assert rep.max_fix == 2


def test_strict_loopfull_2cycle():
    rep = strict_guessing_number(add_loops(Digraph.of(2, [(0, 1), (1, 0)])), 2)
    assert rep.max_fix == 3
    assert rep.kind == "h-loops-formula"
    assert count_fixed_points(rep.witness) == 3


def test_strict_star_reduction():
    # loopless star: g = 1, and reducing the centre gives the loop-full
    # clique with strict count q^{n-1} - 1
    for n, q in ((4, 2), (4, 3)):
        star = symmetrized(Digraph.of(n, [(i, n - 1) for i in range(n - 1)]))
        assert guessing_number(star, q).max_fix == q
        reduced, _ = reduce_vertex(star, n - 1)
        rep = strict_guessing_number(reduced, q)
        assert rep.max_fix == q ** (n - 1) - 1


def test_loopfull_witness_random():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(1, 7)
        q = rng.choice([2, 3, 4])
        g = random_digraph(rng, n, p=0.3)
        rep = h_loops(g, q)
        w = loopfull_witness(g, q)
        assert count_fixed_points(w) == rep.max_fix
        assert interaction_graph(w) == add_loops(g)


def test_strict_exhaustive_agrees_with_formula_n3_q2():
    # loop-full graphs take the formula route, so run the enumeration itself
    pairs = [(u, v) for u in range(3) for v in range(3) if u != v]
    for r in range(len(pairs) + 1):
        for arcs in itertools.combinations(pairs, r):
            g = Digraph.of(3, arcs)
            brute, _ = _strict_exhaustive(add_loops(g), 2)
            assert brute == h_loops(g, 2).max_fix


def test_loopfull_lower_bound_corollary():
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(1, 8)
        g = random_digraph(rng, n, p=0.3)
        for q in (2, 3, 5):
            got = h_loops(g, q).max_fix
            bound = n * math.log(q - 1, q) + math.log(1 + n / (q - 1), q)
            assert math.log(got, q) >= bound - 1e-12


def test_guessing_monotone_under_reduction():
    rng = random.Random(88)
    done = 0
    while done < 200:
        g = random_digraph(rng, rng.randint(2, 5), p=0.35, loops=True)
        v = rng.randrange(g.n)
        reduced, _ = reduce_vertex(g, v)
        a = guessing_number(g, 2).max_fix
        b = guessing_number(reduced, 2).max_fix
        assert a <= b
        done += 1


def test_unit_witness_gives_strict_lower_bound():
    rng = random.Random(3)
    done = 0
    while done < 60:
        g = random_digraph(rng, rng.randint(2, 6), p=0.35)
        if g.is_acyclic():
            continue
        q = rng.choice([2, 3])
        w = unit_witness(g, q)
        assert interaction_graph(w) == g
        assert count_fixed_points(w) >= q
        done += 1


def test_cycle_implies_strict_value_at_least_q():
    # h never exceeds g, and once g reaches q so does h
    rng = random.Random(31)
    done = 0
    while done < 25:
        g = random_digraph(rng, rng.randint(1, 3), p=0.5, loops=True)
        rep_g = guessing_number(g, 2)
        rep_h = strict_guessing_number(g, 2)
        assert rep_h.max_fix <= rep_g.max_fix
        if rep_g.max_fix >= 2:
            assert rep_h.max_fix >= 2
        done += 1


def test_solvability_predicates():
    k3 = complete_graph(3)
    assert is_solvable(k3, 2)
    assert not is_routing_solvable(k3)
    c4 = undirected_cycle(4)
    assert is_routing_solvable(c4)
    assert count_fixed_points(routing_witness(c4, 3)) == 9
    assert not is_routing_solvable(undirected_cycle(5))


def test_aracena_and_robert_bounds():
    rng = random.Random(19)
    for _ in range(200):
        n = rng.randint(1, 5)
        q = rng.choice([2, 3])
        g = random_digraph(rng, n, p=0.35, loops=True)
        f = min_net(g, q)
        assert count_fixed_points(f) <= q ** feedback_number(g)
        if g.is_acyclic():
            assert count_fixed_points(f) == 1


@pytest.mark.parametrize(
    "q, d, count", [(2, 0, 2), (2, 1, 2), (2, 2, 10), (2, 3, 218), (3, 1, 24), (3, 2, 19632)]
)
def test_essential_local_table_counts(q, d, count):
    # inclusion-exclusion over the set of inputs a table may ignore
    oracle = sum((-1) ** j * math.comb(d, j) * q ** (q ** (d - j)) for j in range(d + 1))
    tables = guessing._essential_local_tables(q, d)
    assert len(tables) == oracle == count
    assert len(set(tables)) == count


@pytest.mark.parametrize("name", ["S4", "C6u", "C5u+loops"])
@pytest.mark.parametrize("blocks", [None, (8, 16)])
def test_strict_fix_masks_against_evaluate(name, blocks, monkeypatch):
    g = {
        "S4": named("S", 4).graph,
        "C6u": undirected_cycle(6),
        "C5u+loops": add_loops(undirected_cycle(5)),
    }[name]
    if blocks is not None:
        # blocks over both states and tables
        monkeypatch.setattr(_kernels, "STATE_BLOCK", blocks[0])
        monkeypatch.setattr(guessing, "MASK_BLOCK", blocks[1])
    q = 2
    sups = tuple(g.in_neighbors(v) for v in range(g.n))
    states = list(itertools.product(range(q), repeat=g.n))  # in state-code order
    for v in range(g.n):
        tables = guessing._essential_local_tables(q, len(sups[v]))
        masks = guessing._fix_masks(g, q, v, tables)
        assert len(masks) == len(tables)
        for table, mask in zip(tables, masks):
            tabs = tuple(table if u == v else (0,) * q ** len(sups[u]) for u in range(g.n))
            f = CodingFunction(g.n, q, sups, tabs)
            direct = sum(1 << c for c, x in enumerate(states) if f.evaluate(x)[v] == x[v])
            assert mask == direct
