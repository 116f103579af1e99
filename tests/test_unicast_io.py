import random

import pytest
from hypothesis import given, settings

from guesslab.coding import CodingFunction, count_fixed_points
from guesslab.constructions import fig5_graph
from guesslab.digraph import Digraph
from guesslab.errors import ParseError, PreconditionError
from guesslab.serialize import SerializeWarning, emit_dot, emit_json, parse, parse_dot
from guesslab.unicast import (
    UnicastInstance,
    butterfly_instance,
    crossed_instance,
    to_guessing_digraph,
)

from conftest import coding_functions, complete_graph, random_digraph, unicast_instances


def test_butterfly_converts_to_k3():
    assert to_guessing_digraph(butterfly_instance()) == complete_graph(3)


def test_crossed_instance_converts_to_fig5():
    assert to_guessing_digraph(crossed_instance()) == fig5_graph()


def test_single_pair_direct_arc_gives_loop():
    inst = UnicastInstance(pairs=((0, 1),), intermediates=(), arcs=frozenset({(0, 1)}))
    assert to_guessing_digraph(inst) == Digraph.of(1, [(0, 0)])


def test_butterfly_solution_transcribed():
    # the clique solution on K_3 realises the butterfly routing/coding labels
    g = to_guessing_digraph(butterfly_instance())
    f = CodingFunction.from_state_functions(
        3, 2, [lambda x: (-x[1] - x[2]) % 2, lambda x: (-x[0] - x[2]) % 2, lambda x: (-x[0] - x[1]) % 2]
    )
    assert count_fixed_points(f) == 4
    from guesslab.coding import interaction_graph

    assert interaction_graph(f) == g


def test_instance_validation():
    with pytest.raises(PreconditionError):
        UnicastInstance(pairs=((0, 0),), intermediates=(), arcs=frozenset())
    with pytest.raises(PreconditionError):
        UnicastInstance(pairs=((0, 1),), intermediates=(3,), arcs=frozenset())
    with pytest.raises(PreconditionError):  # cyclic network
        UnicastInstance(
            pairs=((0, 1),), intermediates=(2,), arcs=frozenset({(0, 2), (2, 0)})
        )
    with pytest.raises(PreconditionError):  # destination feeds its source
        UnicastInstance(pairs=((0, 1),), intermediates=(), arcs=frozenset({(1, 0)}))


def test_dot_round_trip_examples():
    g = parse("digraph { 0 -> 1; 1 -> 0; }")
    assert g == Digraph.of(2, [(0, 1), (1, 0)])
    assert parse(emit_dot(g)) == g


def test_json_round_trip_examples():
    g = parse('{"n":3,"arcs":[[0,1],[1,2],[2,0]]}')
    assert g == Digraph.of(3, [(0, 1), (1, 2), (2, 0)])
    f = CodingFunction(1, 2, ((0,),), ((0, 1),))
    assert parse(emit_json(f)) == f
    inst = butterfly_instance()
    assert parse(emit_json(inst)) == inst


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(coding_functions())
def test_json_round_trip_coding_functions(f):
    f = f.canonicalize()
    assert parse(emit_json(f)) == f


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(unicast_instances())
def test_json_round_trip_unicast_instances(inst):
    assert parse(emit_json(inst)) == inst


def test_round_trip_fuzz_canonical():
    rng = random.Random(1234)
    for _ in range(1000):
        g = random_digraph(rng, rng.randint(0, 9), p=rng.random() * 0.6, loops=True)
        dot = emit_dot(g)
        assert parse(dot) == g
        assert emit_dot(parse(dot)) == dot  # byte-identical second emission
        js = emit_json(g)
        assert parse(js) == g
        assert emit_json(parse(js)) == js


def test_isolated_vertices_survive_round_trip():
    g = Digraph.of(4, [(0, 1)])
    assert parse(emit_dot(g)).n == 4
    assert parse(emit_json(g)).n == 4


def test_parse_errors_have_positions():
    with pytest.raises(ParseError) as err:
        parse_dot("digraph { 0 -> ; }")
    assert err.value.line == 1
    with pytest.raises(ParseError):
        parse_dot("graph { 0 -> 1; }")
    with pytest.raises(ParseError):
        parse("not a graph at all")
    with pytest.raises(ParseError):
        parse('{"n": 2, "arcs": [[0, 5]]}')
    with pytest.raises(ParseError):
        parse('{"mystery": 1}')


def test_parse_warnings():
    with pytest.warns(SerializeWarning):
        g = parse_dot("digraph { 0 -> 1; 0 -> 1; }")
    assert g == Digraph.of(2, [(0, 1)])
    with pytest.warns(SerializeWarning):
        g = parse_dot('digraph { 0 -> 1 [color=red]; }')
    assert g == Digraph.of(2, [(0, 1)])


def test_dot_allows_graph_name():
    assert parse_dot("digraph butterfly { 0 -> 1; }") == Digraph.of(2, [(0, 1)])
