import random
import re
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guesslab import serialize

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

from conftest import coding_functions, complete_graph, digraphs, random_digraph, unicast_instances


def test_butterfly_converts_to_k3():
    assert to_guessing_digraph(butterfly_instance()) == complete_graph(3)


def test_crossed_instance_converts_to_fig5():
    assert to_guessing_digraph(crossed_instance()) == fig5_graph()


def test_single_pair_direct_arc_gives_loop():
    inst = UnicastInstance(pairs=((0, 1),), intermediates=(), arcs=frozenset({(0, 1)}))
    assert to_guessing_digraph(inst) == Digraph.of(1, [(0, 0)])


def test_merge_drops_arcs_out_of_a_destination_and_into_a_source():
    # (2, 4) leaves destination 2 and (4, 0) enters source 0: both go, so
    # intermediate 4, merged vertex 2, is left isolated
    inst = UnicastInstance(pairs=((0, 2), (1, 3)), intermediates=(4,),
                           arcs=frozenset({(0, 3), (1, 2), (2, 4), (4, 0)}))
    assert to_guessing_digraph(inst) == Digraph.of(3, [(0, 1), (1, 0)])


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
    with pytest.raises(PreconditionError, match="unknown node"):
        UnicastInstance(pairs=((0, 1),), intermediates=(), arcs=frozenset({(0, 5)}))
    with pytest.raises(PreconditionError, match="alphabet"):
        UnicastInstance(pairs=((0, 1),), intermediates=(), arcs=frozenset(), q=1)


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
    assert (err.value.line, err.value.column) == (1, 16)
    with pytest.raises(ParseError) as err:
        parse_dot("digraph {\n  0 -> 1;\n  2 -> 3\n}\n")
    assert (err.value.line, err.value.column) == (4, 1)
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
    # a node statement takes attributes as an arc statement does
    with pytest.warns(SerializeWarning) as caught:
        g = parse_dot("digraph { 0 [color=red]; 0 -> 1; }")
    assert g == Digraph.of(2, [(0, 1)])
    assert [str(w.message) for w in caught] == ["attribute list ignored"]


def test_dot_bare_attribute_lists():
    # an attribute list with no statement before it is skipped with a warning
    with pytest.warns(SerializeWarning) as caught:
        g = parse_dot("digraph { [color=red] 0; }")
    assert g == Digraph.of(1)
    assert [str(w.message) for w in caught] == ["attribute list ignored"]
    # DOT's node/edge/graph defaults are not in the subset: `node` is no vertex id
    with pytest.raises(ParseError, match="expected a vertex id, got 'node'") as err:
        parse_dot("digraph { node [shape=box]; 0; }")
    assert (err.value.line, err.value.column) == (1, 11)


def test_dot_allows_graph_name():
    assert parse_dot("digraph butterfly { 0 -> 1; }") == Digraph.of(2, [(0, 1)])


@pytest.mark.parametrize("text", ["digraph { \u0663 -> \u0661; }", "digraph { \uff13 -> 1; }"])
def test_dot_vertex_ids_are_ascii_digits(text):
    # int() reads Arabic-Indic and fullwidth digits; DOT ids are [0-9]+ only
    with pytest.raises(ParseError, match="unexpected character") as err:
        parse_dot(text)
    assert (err.value.line, err.value.column) == (1, 11)


# ---------------------------------------------------------------------------
# The single-scan DOT tokenizer against the per-token-position one it replaced
# ---------------------------------------------------------------------------

_ORACLE_TOKEN = re.compile(r"->|[{};]|\[[^\]]*\]|[A-Za-z_][A-Za-z_0-9]*|[0-9]+")


def _oracle_position(text, pos):
    line = text.count("\n", 0, pos) + 1
    col = pos - text.rfind("\n", 0, pos)
    return line, col


def _oracle_tokenize(text):
    """[(token, line, column)], each position counted from the start of the text."""
    pos = 0
    tokens = []
    while pos < len(text):
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos >= len(text):
            break
        m = _ORACLE_TOKEN.match(text, pos)
        if m is None:
            line, col = _oracle_position(text, pos)
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        line, col = _oracle_position(text, pos)
        tokens.append((m.group(0), line, col))
        pos = m.end()
    return tokens


def _oracle_is_id(tok):
    return tok.isascii() and tok.isdigit()


def _oracle_parse_dot(text):
    tokens = _oracle_tokenize(text)
    if not tokens or tokens[0][0] != "digraph":
        t = tokens[0] if tokens else (None, 1, 1)
        raise ParseError("expected 'digraph'", t[1], t[2])
    i = 1
    if i < len(tokens) and tokens[i][0] not in "{":
        if re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", tokens[i][0]):
            i += 1
    if i >= len(tokens) or tokens[i][0] != "{":
        t = tokens[min(i, len(tokens) - 1)]
        raise ParseError("expected '{'", t[1], t[2])
    i += 1
    arcs = []
    seen = set()
    max_vertex = -1
    while i < len(tokens) and tokens[i][0] != "}":
        tok, ln, cl = tokens[i]
        if tok.startswith("["):
            warnings.warn("attribute list ignored", SerializeWarning)
            i += 1
            continue
        if not _oracle_is_id(tok):
            raise ParseError(f"expected a vertex id, got {tok!r}", ln, cl)
        u = int(tok)
        max_vertex = max(max_vertex, u)
        i += 1
        if i < len(tokens) and tokens[i][0] == "->":
            i += 1
            if i >= len(tokens) or not _oracle_is_id(tokens[i][0]):
                t = tokens[min(i, len(tokens) - 1)]
                raise ParseError("expected a vertex id after '->'", t[1], t[2])
            v = int(tokens[i][0])
            max_vertex = max(max_vertex, v)
            i += 1
            if (u, v) in seen:
                warnings.warn(f"duplicate arc ({u}, {v}) dropped", SerializeWarning)
            else:
                seen.add((u, v))
                arcs.append((u, v))
        while i < len(tokens) and tokens[i][0].startswith("["):
            warnings.warn("attribute list ignored", SerializeWarning)
            i += 1
        if i < len(tokens) and tokens[i][0] == ";":
            i += 1
        else:
            t = tokens[min(i, len(tokens) - 1)]
            raise ParseError("expected ';'", t[1], t[2])
    if i >= len(tokens) or tokens[i][0] != "}":
        t = tokens[-1]
        raise ParseError("expected '}'", t[1], t[2])
    return Digraph.of(max_vertex + 1, arcs)


_GAPS = ["", " ", "  ", "\n", "\t", "\r\n", " \n\t ", "\x0b", "\u00a0"]
_ATTRS = ["[color=red]", "[ label = \"a b\" ]", "[\n  weight=2\n]", "[]"]
# one stray character: token starts, whitespace, non-ASCII digits and letters, junk
_STRAYS = list(";{}[]->_aZ09 \n\t=\"#.\x00\u0663\uff13\u00e9\u2028")


@st.composite
def dot_texts(draw):
    """Emitted DOT re-spaced, optionally named and with attribute lists, then
    left intact or hit by one stray character or one dropped ';' or '}'."""
    g = draw(digraphs(max_n=6))
    words = ["digraph"]
    name = draw(st.sampled_from(["", "g", "butterfly_2", "_x", "digraph"]))
    if name:
        words.append(name)
    words.append("{")
    for line in emit_dot(g).splitlines()[1:-1]:
        words += line.strip().rstrip(";").split()
        if draw(st.integers(0, 3)) == 0:
            words.append(draw(st.sampled_from(_ATTRS)))
        words.append(";")
    words.append("}")
    text = draw(st.sampled_from(_GAPS))
    for w in words:
        text += w + draw(st.sampled_from(_GAPS))
    edit = draw(st.sampled_from(["none", "stray", "drop"]))
    if edit == "stray":
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(_STRAYS)) + text[at:]
    elif edit == "drop":
        at = draw(st.sampled_from([k for k, c in enumerate(text) if c in ";}"]))
        text = text[:at] + text[at + 1 :]
    return text


def _outcome(parse_fn, text):
    """parse_fn's graph or (message, line, column), and its warning messages."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = parse_fn(text)
        except ParseError as exc:
            result = (str(exc), exc.line, exc.column)
    return result, [str(w.message) for w in caught]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(dot_texts())
def test_dot_scan_matches_per_token_oracle(text):
    try:
        expected = _oracle_tokenize(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as err:
            serialize._tokenize_dot(text)
        assert (str(err.value), err.value.line, err.value.column) == (str(exc), exc.line, exc.column)
    else:
        got = serialize._tokenize_dot(text)
        assert [(tok, *_oracle_position(text, pos)) for tok, pos in got] == expected
    assert _outcome(parse_dot, text) == _outcome(_oracle_parse_dot, text)


def test_dot_positions_are_computed_only_for_an_error(monkeypatch):
    calls = []
    real = serialize._position

    def counted(text, pos):
        calls.append(pos)
        return real(text, pos)

    monkeypatch.setattr(serialize, "_position", counted)
    rng = random.Random(15)
    arcs = {(rng.randrange(1000), rng.randrange(1000)) for _ in range(20500)}
    g = Digraph.of(1000, sorted(arcs)[:20000])
    text = emit_dot(g)
    assert parse_dot(text) == g and len(g.arcs) == 20000
    assert calls == []
    cut = text.rindex(";")  # drop the last ';': the error is at the final '}'
    with pytest.raises(ParseError, match="expected ';'") as err:
        parse_dot(text[:cut] + text[cut + 1 :])
    assert len(calls) == 1
    assert err.value.line == text.count("\n")
