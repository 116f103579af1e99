"""The bound policy: every exact search refuses through one check, with an
error naming the quantity, the size, the cap and the knob.

There are five knobs, one per resource.  Sizes known from the input are
counted before any work: tabulated states and rows (coding.STATE_LIMIT:
fixed points, substitutions, the loop-full and routing witnesses), the
conflict graph's states (guessing.STATE_CAP, checked only once the
sandwich q**c <= answer <= q**k leaves a gap), coefficient matrices
(linear.SEARCH_CAP), and every listing or sweep under params.WORK_CAP:
the prover's and the certificate's vertex sets, all maximum acyclic
sets, and the in-dominating subsets.  The work only a search can know is
charged as it runs to a meter (errors.meter) made when the search is
called: against params.WORK_CAP, the max-clique search's nodes (one
meter over all the parts `_bitset.clique_by_parts` searches), each
search in params with the listings inside it (maximal cliques, cycles
through a vertex), charged before they grow, the sets the prover's
sweep tests and scans, and mindim's reduced forms with their table
rows; against
guessing.COMBO_CAP, the strict enumeration's candidate table rows,
counted before they are listed, its state tests, and the mask ANDs its
depth-first search makes, charged as each node makes them.  No search
is refused by vertex count, and none calls itself."""

import ast
import functools
import inspect
import math
import pathlib
import random
import re
import sys

import pytest

import guesslab
from guesslab import _kernels, coding, guessing, linear, params
from guesslab._bitset import subset_masks
from guesslab.cli import main
from guesslab.coding import CodingFunction, min_net, mindim, reduce_vertex
from guesslab.constructions import clebsch_graph, clique_solution, gk_family, grotzsch_graph, named
from guesslab.digraph import Digraph, bidirectional_union
from guesslab.errors import ResourceBoundError, check_bound
from guesslab.guessing import (
    guessing_number,
    is_routing_solvable,
    routing_witness,
    strict_guessing_number,
)
from guesslab.linear import (
    count_fixed_linear,
    linear_guessing,
    prove_not_linearly_solvable,
    weak_compat_certificate,
)
from guesslab.params import (
    GraphParams,
    acyclic_number,
    all_max_acyclic_sets,
    graph_params,
    in_dominating_counts,
    intersection_number,
    is_edge_full,
    is_vertex_full,
    max_disjoint_cycles,
    max_matching,
    min_clique_partition,
    min_intersection_model,
)
from guesslab.serialize import emit_dot

from conftest import complete_graph, directed_cycle, random_digraph, undirected_cycle


def test_check_bound_names_quantity_size_cap_and_knob():
    check_bound("widgets", 5, 5, "f(limit=)")
    check_bound("widgets", 10**9, None, "f(limit=)")
    with pytest.raises(ResourceBoundError) as exc:
        check_bound("widgets", 6, 5, "f(limit=)")
    assert (exc.value.needed, exc.value.cap, exc.value.knob) == (6, 5, "f(limit=)")
    assert str(exc.value) == "widgets: needs 6, over the cap 5 set by f(limit=)"
    # too many digits to print: the message gives a power of two instead
    with pytest.raises(ResourceBoundError, match=r"needs at least 2\*\*20000,") as exc:
        check_bound("widgets", 1 << 20000, 5, "f(limit=)")
    assert exc.value.needed == 1 << 20000


def test_one_refusal_site():
    src = pathlib.Path(guesslab.__file__).parent
    sites = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                exc = getattr(node, "exc", None) if isinstance(node, ast.Raise) else None
                target = exc.func if isinstance(exc, ast.Call) else exc
                if isinstance(target, ast.Name) and target.id == "ResourceBoundError":
                    sites.append((path.name, fn.name))
    assert sites == [("errors.py", "check_bound")]
    text = "".join(p.read_text(encoding="utf-8") for p in src.glob("*.py"))
    assert text.count("raise ResourceBoundError") == 1


def test_recursion_inventory():
    # no function calls itself: a search whose depth grows with its input
    # keeps its own stack instead of ending in RecursionError
    src = pathlib.Path(guesslab.__file__).parent
    recursive = set()
    for path in sorted(src.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, ast.FunctionDef) and any(
                isinstance(node, ast.Call) and getattr(node.func, "id", None) == fn.name
                for node in ast.walk(fn)
            ):
                recursive.add(f"{path.stem}.{fn.name}")
    assert recursive == set()


def test_directed_acyclic_set_search_is_not_bounded_by_the_call_stack(monkeypatch):
    # 100 disjoint 2-cycles, made directed by the arc (0, 2): the search
    # branches once per 2-cycle, 100 levels deep, with 60 frames to spare
    g = Digraph.of(200, [(v, v ^ 1) for v in range(200)] + [(0, 2)])
    monkeypatch.setattr(params, "WORK_CAP", 1 << 30)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 60)
    try:
        assert acyclic_number(g) == 100
    finally:
        sys.setrecursionlimit(limit)


@pytest.mark.parametrize("search", [is_routing_solvable, lambda g: routing_witness(g, 2)])
def test_routing_searches_refuse_past_the_cycle_cap(monkeypatch, search):
    # both pack the disjoint cycles first, which takes 835 units of work here
    g = random_digraph(random.Random(26), 13, p=0.3)
    monkeypatch.setattr(params, "WORK_CAP", 834)
    with pytest.raises(ResourceBoundError) as exc:
        search(g)
    assert exc.value.needed == 835 > exc.value.cap == 834 and exc.value.knob


def test_strict_refuses_before_building_masks(monkeypatch):
    # C24 at q = 2: the 2**2 candidate tables of vertex 0 on 2 rows each,
    # then its two essential tables, each tested on 2**24 states
    def built(*_):
        raise AssertionError("masks built")

    monkeypatch.setattr(guessing, "_fix_masks", built)
    with pytest.raises(ResourceBoundError) as exc:
        guessing.strict_guessing_number(named("C", 24).graph, 2)
    assert exc.value.needed == 2**2 * 2 + 2 * 2**24 > exc.value.cap and exc.value.knob


def test_max_matching_refuses_past_its_cap(monkeypatch):
    # K13: its 78 edges are one charge, made before any is listed, so a cap
    # of 0 is passed by all of them at once; the greedy family already
    # holds 6 = 13 // 2 of them, so no row is built
    for cap in (0, 77):
        monkeypatch.setattr(params, "WORK_CAP", cap)
        with pytest.raises(ResourceBoundError) as exc:
            max_matching(complete_graph(13))
        assert exc.value.needed == 78 > exc.value.cap == cap and exc.value.knob == "guesslab.params.WORK_CAP"
    monkeypatch.setattr(params, "WORK_CAP", 78)
    assert max_matching(complete_graph(13)) == 13 // 2


def _undirected(n, edges):
    return Digraph.of(n, edges + [(v, u) for u, v in edges])


def _disjoint_c5us(m):
    return _undirected(5 * m, [(5 * i + j, 5 * i + (j + 1) % 5) for i in range(m) for j in range(5)])


def test_disjoint_pieces_answer_at_the_default_cap():
    # 110 2-cycles (2i, 2i + 1) chained by the arcs (2i, 2i + 2); the
    # matching of K30; an undirected G(40, 0.5); and a directed one
    chain = Digraph.of(220, [(v, v ^ 1) for v in range(220)] + [(2 * i, 2 * i + 2) for i in range(109)])
    assert max_disjoint_cycles(chain)[0] == 110
    assert max_matching(complete_graph(30)) == 15
    rng = random.Random(0)
    edges = [(u, v) for u in range(40) for v in range(u + 1, 40) if rng.random() < 0.5]
    assert max_disjoint_cycles(_undirected(40, edges))[0] == 20
    # a loopless digraph G(40, 0.5): 20 2-cycles, once the listed cycles
    # with a chord are dropped
    assert max_disjoint_cycles(random_digraph(random.Random(0), 40, 0.5))[0] == 20


@pytest.mark.parametrize("g, want", [
    # the greedy family reaches half the vertices: a 6,000-vertex path
    (lambda: _undirected(6000, [(i, i + 1) for i in range(5999)]), 3000),
    # pieces with a vertex of their own are taken: a star with 9,999 leaves
    (lambda: _undirected(10000, [(0, i) for i in range(1, 10000)]), 1),
    # parts are solved apart: 3,000 disjoint triangles
    (lambda: _undirected(9000, [(3 * i + j, 3 * i + (j + 1) % 3) for i in range(3000) for j in range(3)]), 3000),
], ids=["path", "star", "triangles"])
def test_long_sparse_graphs_answer_at_the_default_cap(g, want):
    g = g()
    assert max_matching(g) == want
    assert max_disjoint_cycles(g)[0] == want


def test_long_directed_cycle_lists_only_through_its_first_vertex():
    # a cycle through v keeps to the vertices that reach v among those
    # above it, which for v > 0 is v alone: only vertex 0 extends paths
    assert max_disjoint_cycles(directed_cycle(1200)) == (1, (tuple(range(1200)),))


def test_dense_rows_are_refused_before_they_are_built():
    # K_{50,1000}: 50,000 edges, a matching of 50 short of half the 1,050
    # vertices, and none taken at once; its rows, 782 words each, would
    # hold 300 MB, so they are charged whole before any is built
    g = _undirected(1050, [(u, w) for u in range(50) for w in range(50, 1050)])
    for search in (max_matching, max_disjoint_cycles):
        with pytest.raises(ResourceBoundError) as exc:
            search(g)
        assert exc.value.needed == 50_000 + 50_000 * 782 and exc.value.cap == params.WORK_CAP


@pytest.mark.parametrize(
    "arcs, q, codes",
    [
        # 100000007 is prime: 100000007**2 matrices on the 2-cycle
        ([(0, 1), (1, 0)], 100000007, (3,)),
        # arcless: one matrix, and the units of GF(q) are never listed
        ([], 100000007, (0,)),
        # (q-1)**2 + q leaves int64, with or without arcs
        ([(0, 1), (1, 0)], 10000000019, (2, 3)),
        ([], 10000000019, (2, 3)),
    ],
)
def test_linear_huge_modulus_lists_no_units(capsys, tmp_path, monkeypatch, arcs, q, codes):
    def listed(_):
        raise AssertionError("units listed")

    monkeypatch.setattr(linear, "units", listed)
    path = tmp_path / "g.dot"
    path.write_text(emit_dot(Digraph.of(2, arcs)))
    assert main(["linear", str(path), "-q", str(q)]) in codes
    err = capsys.readouterr().err
    assert err.count("\n") == (0 if codes == (0,) else 1)


def test_prover_refuses_too_many_vertex_sets():
    # 11 disjoint 2-cycles: alpha = 11, and the prover would list the
    # C(22, 11) alpha-sets, the C(22, 12) sets of 12 vertices, and per arc
    # the C(20, 10) of those that hold both its ends
    cycles = [(2 * i, 2 * i + 1) for i in range(11)] + [(2 * i + 1, 2 * i) for i in range(11)]
    with pytest.raises(ResourceBoundError) as exc:
        linear.prove_not_linearly_solvable(Digraph.of(22, cycles))
    listed = math.comb(22, 11) + math.comb(22, 12) + 22 * math.comb(20, 10)
    assert exc.value.needed == listed > exc.value.cap == params.WORK_CAP
    assert exc.value.knob == "guesslab.params.WORK_CAP"


@pytest.mark.parametrize("search", [prove_not_linearly_solvable, weak_compat_certificate])
def test_prover_and_certificate_refuse_before_listing(monkeypatch, search):
    # 12 disjoint 2-cycles: alpha = 12, and C(24, 12) = 2,704,156 sets of 12
    # vertices pass the work bound, so nothing may be listed
    def listed(*_):
        raise AssertionError("vertex sets listed")

    monkeypatch.setattr(linear, "subset_masks", listed)
    cycles = [(2 * i, 2 * i + 1) for i in range(12)] + [(2 * i + 1, 2 * i) for i in range(12)]
    with pytest.raises(ResourceBoundError) as exc:
        search(Digraph.of(24, cycles))
    assert exc.value.needed >= math.comb(24, 12) > exc.value.cap == params.WORK_CAP
    assert exc.value.knob == "guesslab.params.WORK_CAP"


def test_prover_lists_what_it_counts(monkeypatch):
    # the sets the prover lists are exactly the ones its bound counts first
    lengths = []

    def counted(n, size):
        lengths.append(math.comb(n, size))
        return subset_masks(n, size)

    monkeypatch.setattr(linear, "subset_masks", counted)
    cap = params.WORK_CAP
    # the last graph has alpha = 0, so no 1-set holds both ends of its arc (0, 1)
    graphs = [gk_family(3), gk_family(4, "minimal"), complete_graph(4), Digraph.of(3, [(0, 0), (1, 2)]),
              Digraph.of(2, [(0, 0), (1, 1), (0, 1)])]
    for g in graphs:
        lengths.clear()
        alpha = acyclic_number(g)
        holding = sum(1 for m in subset_masks(g.n, alpha + 1) for u, v in g.arcs if m >> u & m >> v & 1)
        listed = math.comb(g.n, alpha) + math.comb(g.n, alpha + 1) + holding
        # one below the listing: the acyclic number, which needs less, still runs
        monkeypatch.setattr(params, "WORK_CAP", listed - 1)
        with pytest.raises(ResourceBoundError) as exc:
            prove_not_linearly_solvable(g)
        assert exc.value.needed == listed
        assert lengths == []
        monkeypatch.setattr(params, "WORK_CAP", cap)
        prove_not_linearly_solvable(g)
        assert lengths == [math.comb(g.n, alpha), math.comb(g.n, alpha + 1)]


def test_prover_work_bound_reaches_the_cli(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(params, "WORK_CAP", 1000)
    path = tmp_path / "gk4.dot"
    path.write_text(emit_dot(gk_family(4, "maximal")))
    assert main(["solvable", str(path), "--prove-nonlinear"]) == 3
    assert "guesslab.params.WORK_CAP" in capsys.readouterr().err


def _check_bound_knobs(tree):
    """(knob, bound) of each check_bound(what, needed, bound, knob) and
    meter(what, bound, knob) call in a module's functions: the knob is a
    string literal or the function's local `knob`, and the bound is the
    source of the expression passed as the cap.  A call that passes on a
    knob its function was given (errors.meter's) names none."""
    fns = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
    fns += [m for n in tree.body if isinstance(n, ast.ClassDef) for m in n.body
            if isinstance(m, ast.FunctionDef)]
    for fn in fns:
        local = {
            t.id: n.value.value
            for n in ast.walk(fn)
            if isinstance(n, ast.Assign) and isinstance(n.value, ast.Constant)
            for t in n.targets
            if isinstance(t, ast.Name)
        }
        given = {a.arg for a in fn.args.args}
        for node in ast.walk(fn):
            name = getattr(node.func, "id", None) if isinstance(node, ast.Call) else None
            if name in ("check_bound", "meter"):
                *_, bound, arg = node.args
                if getattr(arg, "id", None) in given:
                    continue
                knob = local[arg.id] if isinstance(arg, ast.Name) else arg.value
                yield knob, ast.unparse(bound)


def test_knob_inventory():
    # every bound a caller can set: a new one shows up here as a diff, and
    # every refusal names one of them and reads it when it runs
    src = pathlib.Path(guesslab.__file__).parent
    knobs, named = set(), set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.Assign):
                knobs.update(
                    f"{path.stem}.{t.id}"
                    for t in node.targets
                    if isinstance(t, ast.Name) and t.id.endswith(("_CAP", "_LIMIT"))
                )
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                args = fn.args.args + fn.args.kwonlyargs
                knobs.update(
                    f"{path.stem}.{fn.name}({a.arg}=)"
                    for a in args
                    if "limit" in a.arg or "cap" in a.arg
                )
        for knob, bound in _check_bound_knobs(tree):
            assert knob.startswith("guesslab."), knob
            module, name = knob.removeprefix("guesslab.").split(".")
            # the module constant itself, never a parameter or a copy of it
            assert bound == (name if module == path.stem else f"{module}.{name}"), (knob, bound)
            named.add(f"{module}.{name}")
    assert knobs == KNOBS
    assert named == KNOBS
    assert sorted(row[0] for row in KNOB_CALLS) == sorted(KNOBS)  # one row per knob
    # the README names every knob, and no knob that is gone
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    assert set(re.findall(r"guesslab\.(\w+\.[A-Z_]+_(?:CAP|LIMIT))\b", readme)) == KNOBS


KNOBS = {
    "coding.STATE_LIMIT",
    "guessing.COMBO_CAP",
    "guessing.STATE_CAP",
    "linear.SEARCH_CAP",
    "params.WORK_CAP",
}


# knob, what one call needs of it, the call, and what the call returns
KNOB_CALLS = [
    ("coding.STATE_LIMIT", 256, lambda: count_fixed_linear(clique_solution(4, 4)), (64, None)),
    # K3: c = 1 < k = 2, so the conflict graph is built on its 2**3 states
    ("guessing.STATE_CAP", 8, lambda: guessing_number(complete_graph(3), 2).max_fix, 4),
    # 4 candidate tables of 2 rows for in-degree 1, listed once; at each of
    # the 3 vertices 2 essential tables tested on 8 states; then 2 one-word
    # ANDs at each of the 4 nodes that can still beat the incumbent when popped
    ("guessing.COMBO_CAP", 64, lambda: strict_guessing_number(directed_cycle(3), 2).max_fix, 2),
    ("linear.SEARCH_CAP", 8, lambda: linear_guessing(directed_cycle(3), 2).max_fix, 2),
    # c = 3 < k = 4 and gn = 10: the clique search runs to the end, in
    # label order and then in reverse degeneracy order
    ("params.WORK_CAP", 3483, lambda: guessing_number(gk_family(4), 2).max_fix, 10),
]


def _refused_below_and_answers_at(monkeypatch, knob, need, call, want):
    monkeypatch.setattr(f"guesslab.{knob}", need - 1)
    with pytest.raises(ResourceBoundError) as exc:
        call()
    assert (exc.value.needed, exc.value.cap, exc.value.knob) == (need, need - 1, f"guesslab.{knob}")
    monkeypatch.setattr(f"guesslab.{knob}", need)
    assert call() == want


@pytest.mark.parametrize("knob, need, call, want", KNOB_CALLS, ids=[row[0] for row in KNOB_CALLS])
def test_each_knob_raises_its_bound(monkeypatch, knob, need, call, want):
    _refused_below_and_answers_at(monkeypatch, knob, need, call, want)


C5U_MODEL = tuple(map(frozenset, ({0, 1}, {0, 2}, {2, 3}, {3, 4}, {1, 4})))

# a search, the units of params.WORK_CAP one call needs, the call, and what
# it returns; a call made of several searches needs the most any one needs
WORK_CALLS = [
    # directed: each cycle scan costs the vertices it may root a BFS at
    ("acyclic_number-directed", 9, lambda: acyclic_number(directed_cycle(5)), 4),
    ("acyclic_number-gk4", 73, lambda: acyclic_number(gk_family(4)), 3),
    # undirected: one unit per node of the independent-set search, which
    # passes its 16 vertices in label order and starts again reordered
    ("acyclic_number-undirected", 28, lambda: acyclic_number(clebsch_graph()), 5),
    # 20 disjoint C5s: the search takes each cycle apart, 2 nodes each
    ("acyclic_number-disjoint-C5u", 40, lambda: acyclic_number(_disjoint_c5us(20)), 40),
    # a unit per arc per path vertex for the cycles listed, and per vertex
    # whose in-arcs are read to find what reaches v; the greedy family
    # reaches half the covered vertices, so no row is built
    ("max_disjoint_cycles", 75, lambda: max_disjoint_cycles(gk_family(4)), (3, ((0, 3), (1, 4), (2, 5)))),
    # a unit per edge, counted before they are listed
    ("max_matching", 6, lambda: max_matching(complete_graph(4)), 2),
    # a unit per cover node and per call of the maximal-clique listing
    ("min_clique_partition", 57, lambda: min_clique_partition(clebsch_graph()), 8),
    ("is_vertex_full", 8, lambda: is_vertex_full(undirected_cycle(4)), True),
    # the join of 20 C5s: the omega search takes the 20 parts of the
    # complement apart, 2 nodes each, and 100 vertices outnumber what
    # alpha = 2 cliques of omega = 40 can cover
    ("is_vertex_full-joined-C5u", 40,
     lambda: is_vertex_full(functools.reduce(bidirectional_union, [undirected_cycle(5)] * 20)), False),
    ("is_edge_full", 5, lambda: is_edge_full(complete_graph(4)), True),
    ("intersection_number", 11, lambda: intersection_number(undirected_cycle(5)), 5),
    ("min_intersection_model", 11, lambda: min_intersection_model(undirected_cycle(5), 5), C5U_MODEL),
    # the C(5, 2) candidate sets, counted before they are listed
    ("all_max_acyclic_sets", 10, lambda: len(all_max_acyclic_sets(undirected_cycle(5))), 5),
    # 2**5 subsets, counted before the sweep
    ("in_dominating_counts", 32, lambda: in_dominating_counts(directed_cycle(5)), (0, 0, 0, 5, 5, 1)),
    ("prove_not_linearly_solvable", 135, lambda: prove_not_linearly_solvable(gk_family(3)).verdict,
     linear.NOT_LINEARLY_SOLVABLE),
    ("prove_not_linearly_solvable-gk4min", 26590,
     lambda: prove_not_linearly_solvable(gk_family(4, "minimal")).verdict, linear.NOT_LINEARLY_SOLVABLE),
    ("weak_compat_certificate", 31, lambda: weak_compat_certificate(gk_family(3)),
     linear.Certificate(linear.NOT_STRICTLY_LINEARLY_SOLVABLE, frozenset({0, 1}))),
    # 1 per reduced form plus its rows: 4, 3, 2 and 1 vertices of 2 rows each
    ("mindim", 24, lambda: mindim(min_net(directed_cycle(4), 2)), 1),
]


@pytest.mark.parametrize("need, call, want", [row[1:] for row in WORK_CALLS],
                         ids=[row[0] for row in WORK_CALLS])
def test_each_search_charges_the_work_cap(monkeypatch, need, call, want):
    _refused_below_and_answers_at(monkeypatch, "params.WORK_CAP", need, call, want)


def test_the_cover_search_and_its_omega_search_charge_apart(monkeypatch):
    # K3: the search for omega takes one node; the cover search then takes
    # two nodes and three calls of the maximal-clique listing
    monkeypatch.setattr(params, "WORK_CAP", 0)
    with pytest.raises(ResourceBoundError, match="max clique") as exc:
        min_clique_partition(complete_graph(3))
    assert (exc.value.needed, exc.value.cap) == (1, 0)
    monkeypatch.setattr(params, "WORK_CAP", 4)
    with pytest.raises(ResourceBoundError, match="clique-cover") as exc:
        min_clique_partition(complete_graph(3))
    assert (exc.value.needed, exc.value.cap) == (5, 4)
    monkeypatch.setattr(params, "WORK_CAP", 5)
    assert min_clique_partition(complete_graph(3)) == 1


def _cocktail_party(k):
    """K_{2 x k}: every pair of vertices but 2i, 2i + 1 is an edge, so
    2**(k - 1) maximal cliques hold vertex 0."""
    n = 2 * k
    return Digraph.of(n, [(u, v) for u in range(n) for v in range(n) if u // 2 != v // 2])


def _diamond_chain(m):
    """0 -> a_i, b_i -> c_i -> a_{i+1}, b_{i+1} ... -> 0: 2**m chordless
    cycles through vertex 0."""
    arcs, last = [], 0
    for i in range(m):
        a, b, c = 3 * i + 1, 3 * i + 2, 3 * i + 3
        arcs += [(last, a), (last, b), (a, c), (b, c)]
        last = c
    return Digraph.of(3 * m + 1, arcs + [(last, 0)])


@pytest.mark.parametrize("listing, search, g", [
    ("maximal_cliques_containing", min_clique_partition, _cocktail_party(16)),
    ("_minimal_cycles_through", max_disjoint_cycles, _diamond_chain(15)),
], ids=["cliques", "cycles"])
def test_listings_are_charged_as_they_grow(monkeypatch, listing, search, g):
    # 2**15 cliques or cycles in one listing, past the cap: it is stopped
    # part way, so no listing is ever handed back (K_{2 x 30} and 25
    # diamonds would hold gigabytes)
    real = getattr(params, listing)
    returned = []
    monkeypatch.setattr(params, listing, lambda *args: returned.append(real(*args)))
    monkeypatch.setattr(params, "WORK_CAP", 10000)
    with pytest.raises(ResourceBoundError) as exc:
        search(g)
    assert exc.value.needed > exc.value.cap == 10000 and exc.value.knob == "guesslab.params.WORK_CAP"
    assert returned == []


def test_in_dominating_sweep_runs_at_twenty_vertices():
    # 2**20 subsets are the default cap; 2**21 are refused before the sweep
    assert sum(in_dominating_counts(directed_cycle(20))) == 15127
    with pytest.raises(ResourceBoundError) as exc:
        in_dominating_counts(directed_cycle(21))
    assert (exc.value.needed, exc.value.cap) == (1 << 21, params.WORK_CAP)


def test_graph_params_of_the_aim_graphs_at_default_caps():
    assert graph_params(clebsch_graph()) == GraphParams(k=11, alpha=5, c=8, mu=8, cp=8, isolated=0)
    assert graph_params(grotzsch_graph()) == GraphParams(k=6, alpha=5, c=5, mu=5, cp=6, isolated=0)


def test_guessing_on_thirteen_isolated_vertices_takes_the_sandwich():
    # c = k = 0 whatever the size: 2**13 states, over STATE_CAP, are never built
    rep = guessing_number(Digraph.of(13, []), 2)
    assert rep.max_fix == 1 and rep.method == "routing-sandwich"
    assert (rep.stats.c, rep.stats.k) == (0, 0)
    assert guessing.is_solvable(Digraph.of(13, []), 2)


def test_substitution_refuses_before_decoding(monkeypatch):
    # vertex 26 is the parity of 0..12 and vertex 27 the parity of 13..26:
    # eliminating 26 would tabulate vertex 27 on 2**26 rows
    def decoded(*_):
        raise AssertionError("rows decoded")

    parity = [tuple(bin(r).count("1") % 2 for r in range(2**d)) for d in (13, 14)]
    f = CodingFunction(
        28, 2, ((),) * 26 + (tuple(range(13)), tuple(range(13, 27))), ((0,),) * 26 + tuple(parity)
    )
    monkeypatch.setattr(_kernels, "_digits", decoded)
    with pytest.raises(ResourceBoundError) as exc:
        reduce_vertex(f, 26)
    assert exc.value.needed == 2**26 > exc.value.cap == coding.STATE_LIMIT
    assert exc.value.knob == "guesslab.coding.STATE_LIMIT"


def test_loopfull_witness_refuses_by_table_rows():
    # 20 tables of 3**20 rows each
    k20 = complete_graph(20)
    with pytest.raises(ResourceBoundError) as exc:
        guessing.loopfull_witness(k20, 3)
    assert exc.value.needed == 20 * 3**20 > exc.value.cap == coding.STATE_LIMIT
    assert exc.value.knob == "guesslab.coding.STATE_LIMIT"


@pytest.mark.parametrize("call", [lambda g, q: guessing_number(g, q).max_fix, routing_witness],
                         ids=["sandwich", "routing_witness"])
def test_routing_refuses_by_table_rows_before_building_any(monkeypatch, call):
    # C3 at q = 10**8: c = k = 1, and routing would tabulate 3 rows of 10**8
    def built(*_):
        raise AssertionError("table built")

    monkeypatch.setattr(guessing, "CodingFunction", built)
    monkeypatch.setattr(_kernels, "_digits", built)
    with pytest.raises(ResourceBoundError) as exc:
        call(directed_cycle(3), 10**8)
    assert exc.value.needed == 3 * 10**8 > exc.value.cap == coding.STATE_LIMIT
    assert exc.value.knob == "guesslab.coding.STATE_LIMIT"


def test_mindim_of_the_thirteen_vertex_identity_at_default_caps():
    # every vertex is looped, so no reduction applies: one removed set, the empty one
    ident = CodingFunction(13, 2, tuple((v,) for v in range(13)), ((0, 1),) * 13)
    assert mindim(ident) == 13
