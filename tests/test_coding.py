import itertools
import random

import pytest
from hypothesis import given, settings

from guesslab import coding
from guesslab.coding import (
    CodingFunction,
    count_fixed_points,
    cumulative,
    fixed_points,
    interaction_graph,
    is_nondecreasing,
    min_net,
    mindim,
    reduce_sequence,
    reduce_set,
    reduce_vertex,
)
from guesslab.constructions import fig1_graph
from guesslab.digraph import Digraph, topological_order
from guesslab.digraph import reduce_set as graph_reduce_set
from guesslab.digraph import reduce_vertex as graph_reduce_vertex
from guesslab.errors import NotAcyclicError, ResourceBoundError, VertexRangeError
from guesslab.params import feedback_number

from conftest import (
    acyclic_subsets,
    coding_functions,
    directed_cycle,
    random_acyclic_subset,
    random_coding_function,
    random_digraph,
    undirected_cycle,
)


def test_table_validation():
    with pytest.raises(ValueError):
        CodingFunction(1, 2, ((0,),), ((0,),))  # wrong table length
    with pytest.raises(ValueError):
        CodingFunction(2, 2, ((1, 0),), ((0, 0, 0, 0),))  # unsorted support
    with pytest.raises(ValueError):
        CodingFunction(1, 1, ((),), ((0,),))  # q too small


def test_interaction_graph_fig1(fig1_function):
    assert interaction_graph(fig1_function) == fig1_graph()


def test_interaction_graph_constant():
    const = CodingFunction(3, 2, ((), (), ()), ((0,), (1,), (0,)))
    assert interaction_graph(const) == Digraph.of(3, [])


def test_reduce_vertex_fig1(fig1_function):
    f4, relabel = reduce_vertex(fig1_function, 3)
    assert relabel == {0: 0, 1: 1, 2: 2}
    assert f4.supports == ((2,), (0, 2), (1,))
    assert f4.tables == ((0, 1), (0, 1, 1, 1), (0, 1))
    # strict containment: G(f^{-4}) lacks the arc 2 -> 1 present in G(f)^{-4}
    g_f4 = interaction_graph(f4)
    g4, _ = graph_reduce_vertex(fig1_graph(), 3)
    assert g_f4.arcs < g4.arcs
    assert (1, 0) in g4.arcs and (1, 0) not in g_f4.arcs


def test_reduce_vertex_loop_is_identity(fig1_function):
    ident = CodingFunction(1, 2, ((0,),), ((0, 1),))
    out, relabel = reduce_vertex(ident, 0)
    assert out == ident and relabel == {0: 0}


def test_reduce_set_fig1(fig1_function):
    f34, _ = reduce_set(fig1_function, {2, 3})
    assert f34.supports == ((1,), (0, 1))
    assert f34.tables == ((0, 1), (0, 1, 1, 1))
    g34, _ = graph_reduce_set(fig1_graph(), {2, 3})
    assert interaction_graph(f34) == g34  # equality holds at {3, 4}

    f134, _ = reduce_set(fig1_function, {0, 2, 3})
    assert f134.supports == ((0,),)
    assert f134.tables == ((0, 1),)


def test_reduce_set_requires_acyclic(fig1_function):
    with pytest.raises(NotAcyclicError):
        reduce_set(fig1_function, {0, 1})


def test_cumulative_fig1(fig1_function):
    cum = cumulative(fig1_function, {2, 3})
    assert cum[2].inputs == (1,) and cum[2].table == (0, 1)
    assert cum[3].inputs == (1,) and cum[3].table == (0, 1)


def test_cumulative_single_vertex(fig1_function):
    cum = cumulative(fig1_function, {2})
    assert cum[2].inputs == (1,) and cum[2].table == (0, 1)


def test_fixed_points_fig1(fig1_function):
    seq = [fig1_function]
    seq.append(reduce_vertex(fig1_function, 3)[0])
    seq.append(reduce_set(fig1_function, {2, 3})[0])
    seq.append(reduce_set(fig1_function, {0, 2, 3})[0])
    expected = [
        ((0, 0, 0, 0), (1, 1, 1, 1)),
        ((0, 0, 0), (1, 1, 1)),
        ((0, 0), (1, 1)),
        ((0,), (1,)),
    ]
    for f, want in zip(seq, expected):
        assert fixed_points(f) == want


def test_fixed_points_zero_dimensional():
    empty = CodingFunction(0, 2, (), ())
    assert fixed_points(empty) == ((),)
    assert count_fixed_points(empty) == 1


@pytest.mark.parametrize("n, q, count", [(10, 4, 4), (12, 3, 3)])
def test_min_net_cycle_fixes_only_constant_states(n, q, count):
    # min over both neighbours is fixed exactly on the q constant states
    assert count_fixed_points(min_net(undirected_cycle(n), q)) == count


def test_identity_fixes_every_state_in_order():
    f = CodingFunction(4, 3, tuple((v,) for v in range(4)), ((0, 1, 2),) * 4)
    assert fixed_points(f) == tuple(itertools.product(range(3), repeat=4))
    assert count_fixed_points(f) == 81


def test_fixed_points_cap(monkeypatch):
    f = min_net(Digraph.of(6, []), 2)
    for limit in (8, 16):
        monkeypatch.setattr(coding, "STATE_LIMIT", limit)
        with pytest.raises(ResourceBoundError) as exc:
            fixed_points(f)
        assert exc.value.needed == 64 > exc.value.cap == limit
        assert exc.value.knob == "guesslab.coding.STATE_LIMIT"
    monkeypatch.setattr(coding, "STATE_LIMIT", 64)
    assert len(fixed_points(f)) == 1


def test_reduction_preserves_fixed_points():
    rng = random.Random(101)
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


def test_reduction_order_independence():
    rng = random.Random(55)
    for _ in range(300):
        n = rng.randint(2, 5)
        q = rng.choice([2, 3])
        f = random_coding_function(rng, n, q).canonicalize()
        g = interaction_graph(f)
        sub = random_acyclic_subset(rng, g)
        if sub is None:
            continue
        target, _ = reduce_set(f, sub)
        for perm in itertools.permutations(sub):
            got, _ = reduce_sequence(f, perm)
            assert got == target


def test_interaction_graph_containment():
    rng = random.Random(2024)
    for _ in range(300):
        n = rng.randint(2, 5)
        q = rng.choice([2, 3])
        f = random_coding_function(rng, n, q).canonicalize()
        g = interaction_graph(f)
        sub = random_acyclic_subset(rng, g)
        if sub is None:
            continue
        reduced_f, _ = reduce_set(f, sub)
        reduced_g, _ = graph_reduce_set(g, sub)
        assert interaction_graph(reduced_f).arcs <= reduced_g.arcs


def test_canonicalize_idempotent_and_preserving():
    rng = random.Random(4)
    for _ in range(100):
        f = random_coding_function(rng, rng.randint(1, 4), rng.choice([2, 3]))
        c = f.canonicalize()
        assert c.canonicalize() == c
        for x in itertools.product(range(f.q), repeat=f.n):
            assert f.evaluate(x) == c.evaluate(x)


def test_min_net_properties():
    rng = random.Random(8)
    c3 = directed_cycle(3)
    assert fixed_points(min_net(c3, 2)) == ((0, 0, 0), (1, 1, 1))
    src = min_net(Digraph.of(2, [(0, 1)]), 3)
    assert src.tables[0] == (2,)  # empty min is q - 1
    for _ in range(300):
        g = random_digraph(rng, rng.randint(1, 6), p=0.3, loops=True)
        f = min_net(g, rng.choice([2, 3]))
        assert interaction_graph(f) == g
        v = rng.randrange(g.n)
        if g.has_loop(v):
            continue
        left, _ = reduce_vertex(f, v)
        right = min_net(graph_reduce_vertex(g, v)[0], f.q)
        assert left == right.canonicalize()


def test_min_net_nondecreasing():
    rng = random.Random(6)
    for _ in range(50):
        g = random_digraph(rng, rng.randint(1, 5), p=0.4, loops=True)
        assert is_nondecreasing(min_net(g, rng.choice([2, 3])))


def test_is_nondecreasing_negative():
    neg = CodingFunction(1, 2, ((0,),), ((1, 0),))
    assert not is_nondecreasing(neg)


def test_mindim_fig1(fig1_function):
    assert mindim(fig1_function) == 1


def test_mindim_min_net_equals_feedback_number():
    rng = random.Random(99)
    for _ in range(60):
        n = rng.randint(1, 8)
        g = random_digraph(rng, n, p=0.3, loops=True)
        assert mindim(min_net(g, 2)) == feedback_number(g)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(coding_functions())
def test_canonicalize_keeps_values_and_only_essential_inputs(f):
    canon = f.canonicalize()
    states = list(itertools.product(range(f.q), repeat=f.n))
    for x in states:
        assert canon.evaluate(x) == f.evaluate(x)
    for v in range(f.n):
        for u in canon.supports[v]:
            assert any(
                f.local_value(v, x) != f.local_value(v, x[:u] + (a,) + x[u + 1 :])
                for x in states
                for a in range(f.q)
            ), (v, u)


def test_canonicalize_returns_canonical_input_itself(fig1_function):
    assert fig1_function.canonicalize() is fig1_function
    padded = CodingFunction(2, 2, ((0, 1), ()), ((0, 0, 1, 1), (1,)))
    assert padded.canonicalize() is not padded
    assert padded.canonicalize().supports == ((0,), ())


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(coding_functions())
def test_reduce_set_agrees_with_f_on_extended_states(f):
    # independent of the substitution: x_I is filled in by f itself, in topological order
    base = count_fixed_points(f)
    graph = interaction_graph(f)
    for sub in acyclic_subsets(graph):
        reduced, relabel = reduce_set(f, sub)
        order = topological_order(graph, sub)
        for y in itertools.product(range(f.q), repeat=reduced.n):
            x = [0] * f.n
            for v, k in relabel.items():
                x[v] = y[k]
            for i in order:
                x[i] = f.local_value(i, x)
            assert reduced.evaluate(y) == tuple(f.local_value(v, x) for v in relabel), (sub, y)
        assert count_fixed_points(reduced) == base, sub


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(coding_functions())
def test_reduce_set_equals_every_fold(f):
    for sub in acyclic_subsets(interaction_graph(f)):
        target = reduce_set(f, sub)
        for perm in itertools.permutations(sub):
            assert reduce_sequence(f, perm) == target, perm


def test_reduce_sequence_label_errors():
    f = CodingFunction(2, 2, ((), (0,)), ((1,), (0, 1)))
    for v in (5, 2, -1):
        with pytest.raises(VertexRangeError, match="outside"):
            reduce_sequence(f, [v])
    with pytest.raises(VertexRangeError, match="no longer present"):
        reduce_sequence(f, [0, 0])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(coding_functions())
def test_is_nondecreasing_matches_definition(f):
    # f_v(x) <= f_v(x + e_u) for every v, every input u and every x with x_u < q - 1
    states = itertools.product(range(f.q), repeat=f.n)
    want = all(
        f.local_value(v, x) <= f.local_value(v, x[:u] + (x[u] + 1,) + x[u + 1 :])
        for x in states
        for u in range(f.n)
        if x[u] < f.q - 1
        for v in range(f.n)
    )
    assert is_nondecreasing(f) == want
