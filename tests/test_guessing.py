import itertools
import math
import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guesslab import _bitset, _kernels, guessing, params
from guesslab._bitset import _complement, clique_search
from guesslab.coding import CodingFunction, count_fixed_points, interaction_graph, min_net
from guesslab.digraph import Digraph, add_loops, reduce_vertex, symmetrized
from guesslab.errors import PreconditionError, ResourceBoundError, meter
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
from guesslab.constructions import clique_solution, gk_family, named, unit_witness
from guesslab.params import acyclic_number, feedback_number

from conftest import complete_graph, digraphs, random_digraph, undirected_cycle

# 729 states at q = 3, which an unbudgeted clique search ran on for over
# 200 s; c = k = 3, so gn = 27
HANG_ARCS = [(0, 3), (0, 5), (1, 2), (1, 3), (1, 4), (2, 0), (2, 3), (2, 5), (3, 0), (3, 2), (3, 5),
             (4, 1), (4, 3), (4, 4), (5, 1), (5, 2)]


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


def max_independent_set(adj, universe):
    """Bitmask of a maximum independent set within universe (a clique of
    the complement), with no bound on the search."""
    return clique_search(_complement(adj, universe), universe)[0]


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
        max_independent_set(adj, sum(1 << v for v in comp)).bit_count()
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


def test_the_empty_graph_fixes_its_one_state():
    # q**0 = 1 state, fixed by the empty function; no vertex has an in-neighbour
    assert strict_guessing_number(Digraph.of(0), 2).max_fix == 1
    assert h_loops(Digraph.of(0), 3).max_fix == 1


def test_guessing_gk4_below_the_feedback_bound():
    g = gk_family(4)
    assert (g.n, acyclic_number(g)) == (7, 3)
    rep = guessing_number(g, 2)
    assert rep.max_fix == 10 < 2 ** (g.n - acyclic_number(g))
    assert count_fixed_points(rep.witness) == 10


def test_guessing_searches_components_apart(monkeypatch):
    # vertex 2 reads only itself, so states with different x_2 never
    # conflict; but c = k = 2, so the sandwich answers 9 with no search
    arcs = [(0, 1), (0, 4), (2, 0), (2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 4), (4, 0), (4, 3)]
    g = Digraph.of(5, arcs)
    assert guessing_number(g, 3).max_fix == plain_max_fix(g, 3) == 9
    # with c < k the search runs: one switch vertex splits C5u's conflict
    # graph into 2 parts and two split it into 4, each searched on its own
    real, parts = _bitset.clique_search, []

    def search(adj, part, *rest):
        parts.append(part)
        return real(adj, part, *rest)

    monkeypatch.setattr(_bitset, "clique_search", search)
    for g, count, want in [
        (switched(undirected_cycle(5)), 2, (10, 70, 0, "exhausted")),
        (switched(switched(undirected_cycle(5))), 4, (20, 196, 0, "exhausted")),
    ]:
        parts.clear()
        rep = guessing_number(g, 2)
        assert len(parts) == count
        assert (rep.max_fix, rep.stats.nodes, rep.stats.orbit_pruned, rep.stats.closed_by) == want
        assert rep.max_fix == plain_max_fix(g, 2)


def switched(g):
    """g plus a vertex s with a loop and an arc to every vertex: states with
    different x_s never conflict, so the conflict graph splits into q parts,
    and the parts with x_s != 0 are swapped by permuting the symbols at s."""
    s = g.n
    return Digraph.of(g.n + 1, set(g.arcs) | {(s, v) for v in range(g.n + 1)})


def below_the_feedback_bound(q, count, seed):
    """Seeded loopless digraphs with c < k, so the search runs, each with and
    without a switch vertex."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        g = random_digraph(rng, rng.randint(3, {2: 6, 3: 4, 4: 3}[q]), p=0.5)
        if not is_routing_solvable(g):
            out += [g, switched(g)]
    return out


@pytest.mark.parametrize("q", [2, 3, 4])
def test_search_below_the_feedback_bound_matches_the_plain_search(q):
    # c < k throughout; at q = 2 C5u and gk3 fall short of q**k
    extra = [complete_graph(4), switched(complete_graph(3))]
    if q == 2:
        extra += [undirected_cycle(5), switched(undirected_cycle(5)), gk_family(3)]
    if q == 3:
        # gn = 9 = q**k, and the incumbent holds q**k - 2 states before the
        # search finds the last one: a stop rule one state early errs here
        extra += [Digraph.of(4, [(0, 1), (0, 3), (1, 2), (1, 3), (2, 0), (2, 3), (3, 0), (3, 1), (3, 2)]),
                  Digraph.of(4, [(0, 2), (0, 3), (1, 0), (1, 2), (2, 0), (2, 1), (2, 3), (3, 1), (3, 2)])]
    closed = set()
    for g in below_the_feedback_bound(q, 24, seed=q) + extra:
        rep = guessing_number(g, q)
        want = plain_max_fix(g, q)
        assert rep.max_fix == want, sorted(g.arcs)
        assert rep.stats.c < rep.stats.k and rep.method == rep.stats.method
        # the stop rule closes the search exactly when gn meets the feedback bound
        assert (rep.stats.closed_by == "stop-rule") == (want == q**rep.stats.k)
        assert count_fixed_points(rep.witness) == rep.max_fix
        assert interaction_graph(rep.witness).arcs <= g.arcs
        closed.add(rep.stats.closed_by)
    assert closed == ({"stop-rule", "exhausted"} if q == 2 else {"stop-rule"})


def test_sandwich_decides_the_hang_graph():
    g = Digraph.of(6, HANG_ARCS)
    rep = guessing_number(g, 3)
    assert rep.max_fix == 27 and rep.method == "routing-sandwich"
    assert (rep.stats.nodes, rep.stats.closed_by, rep.stats.c, rep.stats.k) == (0, "sandwich", 3, 3)
    assert count_fixed_points(rep.witness) == 27
    assert interaction_graph(rep.witness).arcs <= g.arcs


def test_root_orbits_cut_the_search(monkeypatch):
    rep = guessing_number(undirected_cycle(5), 3)
    assert rep.max_fix == 12 and (rep.stats.nodes, rep.stats.orbit_pruned) == (13132, 143)
    assert count_fixed_points(rep.witness) == 12
    # without the orbits the search needs more nodes than it took with them
    monkeypatch.setattr(guessing, "_root_orbits", lambda digs, q: None)
    monkeypatch.setattr(params, "WORK_CAP", rep.stats.nodes)
    with pytest.raises(ResourceBoundError) as exc:
        guessing_number(undirected_cycle(5), 3)
    assert exc.value.knob == "guesslab.params.WORK_CAP"


def seed_5_sample():
    """400 loopless digraphs on 4-7 vertices with arc probability 0.8, in
    the order random.Random(5) draws them."""
    rng = random.Random(5)
    out = []
    for _ in range(400):
        n = rng.randint(4, 7)
        out.append(Digraph.of(n, [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < 0.8]))
    return out


@pytest.mark.parametrize("index", [241, 341])
def test_hard_seed_5_graphs_fall_short_of_the_feedback_bound(index):
    # c = 3 < k = 5 and gn = 20 < 2**5, so neither bound ends the search
    rep = guessing_number(seed_5_sample()[index], 2)
    assert (rep.max_fix, rep.stats.c, rep.stats.k, rep.stats.closed_by) == (20, 3, 5, "exhausted")
    assert count_fixed_points(rep.witness) == 20


def test_reordered_search_reaches_the_stop_rule():
    # c = 2 < k = 3 and gn = 27 = 3**3.  In label order the search spent
    # 125,418 nodes before its incumbent held 26 states; now it stops after
    # the 204 states of its one component, and reordered, the greedy start
    # holds 26 of them
    g = Digraph.of(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (2, 0), (2, 1), (2, 3), (2, 4),
                       (3, 0), (3, 1), (3, 4), (4, 0), (4, 2)])
    rep = guessing_number(g, 3)
    assert (rep.max_fix, rep.stats.nodes, rep.stats.closed_by) == (27, 204, "stop-rule")
    assert count_fixed_points(rep.witness) == 27


def test_root_orbits_are_support_patterns():
    digs = _kernels._digits(np.arange(27), 3, 3)
    orbits = guessing._root_orbits(digs, 3)
    for i, orbit in enumerate(orbits):
        assert orbit == sum(1 << j for j in range(27) if ((digs[j] != 0) == (digs[i] != 0)).all())
    assert guessing._root_orbits(digs, 2) is None


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
    # K3 plus 10 isolated vertices: c = 1 < k = 2, so the search needs all
    # 2**13 states; 13 isolated vertices alone are answered by the sandwich
    with pytest.raises(ResourceBoundError) as exc:
        guessing_number(Digraph.of(13, complete_graph(3).arcs), 2)
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


def test_strict_cap_charges_mask_width(monkeypatch):
    # C9u at q = 2: every vertex's masks are built within the cap, then the
    # search's 8-word ANDs over the 2**9 states run past it
    built = []
    fix_masks = guessing._fix_masks
    monkeypatch.setattr(guessing, "_fix_masks", lambda *a: built.append(a[2]) or fix_masks(*a))
    with pytest.raises(ResourceBoundError) as exc:
        strict_guessing_number(undirected_cycle(9), 2)
    assert built == list(range(9))
    assert exc.value.needed > exc.value.cap and exc.value.knob == "guesslab.guessing.COMBO_CAP"


def plain_strict(g, q):
    """Max fixed points over the per-vertex essential tables, breadth first:
    a dict of the distinct partial masks, one level per vertex, charged up
    front with the product of the mask counts so far."""
    if g.n == 0:
        return 1, ()
    states = q**g.n
    words = -(-states // 64)
    # distinct partial masks can never outnumber the subsets of the state
    # space, so bound the stage-by-stage work, not the raw product
    state_cap_sets = 1 << states if states <= 30 else None
    prev = 1
    # candidate table rows scanned, state tests, and 64-bit words ANDed
    charge = meter("strict enumeration work", guessing.COMBO_CAP, "guesslab.guessing.COMBO_CAP")
    per_vertex = []
    for v in range(g.n):
        rows = q ** g.in_degree(v)
        # past max(64, COMBO_CAP bits) rows q**rows is surely over it: stop there
        charge(q ** min(rows, max(64, guessing.COMBO_CAP.bit_length() + 1)) * rows)
        tables = guessing._essential_local_tables(q, g.in_degree(v))
        charge(len(tables) * states)  # each table is tested on every state
        masks = {}
        for t, m in zip(tables, guessing._fix_masks(g, q, v, tables)):
            masks.setdefault(m, t)
        per_vertex.append(masks)
        charge(prev * len(masks) * words)  # one states-bit AND per combination
        prev *= len(masks)
        if state_cap_sets is not None:
            prev = min(prev, state_cap_sets)
    partial = {(1 << states) - 1: ()}
    for masks in per_vertex:
        nxt = {}
        for acc, chosen in partial.items():
            for m, t in masks.items():
                key = acc & m
                if key not in nxt:
                    nxt[key] = chosen + (t,)
        partial = nxt
    best_mask = max(partial, key=lambda m: m.bit_count())
    return best_mask.bit_count(), partial[best_mask]


def test_strict_search_matches_the_plain_enumeration():
    # wherever the breadth-first oracle answers, the depth-first search
    # answers with the same count, and its witness has interaction graph g;
    # in-degrees stay small enough that listing the candidate tables is quick
    rng = random.Random(41)
    answered = 0
    for _ in range(150):
        g = random_digraph(rng, rng.randint(1, 5), p=0.4, loops=True)
        q = rng.choice([2, 3])
        if q ** q ** max(map(g.in_degree, range(g.n))) > 3**9:
            continue
        try:
            want, _ = plain_strict(g, q)
        except ResourceBoundError:
            continue
        rep = strict_guessing_number(g, q)
        assert rep.max_fix == want, (g, q)
        assert interaction_graph(rep.witness) == g
        assert count_fixed_points(rep.witness) == want
        answered += rep.kind == "h"
    assert answered == 92  # of the 115 the oracle answers; the rest are loop-full


@pytest.mark.parametrize(
    "g, want",
    [(complete_graph(4), 8), (undirected_cycle(7), 7), (gk_family(3), 5)],
    ids=["K4", "C7u", "gk3"],
)
def test_strict_answers_what_the_plain_enumeration_refused(monkeypatch, g, want):
    # the oracle's up-front product of mask counts is over the default cap,
    # but the enumeration itself is small
    assert strict_guessing_number(g, 2).max_fix == want
    with pytest.raises(ResourceBoundError):
        plain_strict(g, 2)
    monkeypatch.setattr(guessing, "COMBO_CAP", 1 << 30)
    assert plain_strict(g, 2)[0] == want


def test_strict_k4_meets_the_clique_solution():
    # h(K4, 2) <= g(K4, 2) = 2**3, and the clique solution, whose
    # interaction graph is K4, fixes 8 states
    k4 = complete_graph(4)
    assert strict_guessing_number(k4, 2).max_fix == guessing_number(k4, 2).max_fix == 2**3
    f = clique_solution(4, 2).to_coding_function()
    assert interaction_graph(f) == k4 and count_fixed_points(f) == 8


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


def test_strict_exhaustive_agrees_with_formula_q3():
    # loop-full graphs take the formula route, so run the enumeration itself
    # on the four loop-full 2-vertex graphs at q = 3
    for r in range(3):
        for arcs in itertools.combinations([(0, 1), (1, 0)], r):
            g = Digraph.of(2, arcs)
            brute, _ = _strict_exhaustive(add_loops(g), 3)
            assert brute == h_loops(g, 3).max_fix


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
