"""The bound policy: every exact search refuses through one check, before
the work, with an error naming the quantity, the size, the cap and the knob.
The prover's work bound is the exception: it is checked as the sweep runs."""

import ast
import math
import pathlib
import random

import pytest

import guesslab
from guesslab import _kernels, coding, guessing, linear, params
from guesslab._bitset import subset_masks
from guesslab.cli import main
from guesslab.coding import CodingFunction, min_net, mindim, reduce_vertex
from guesslab.constructions import clebsch_graph, clique_solution, gk_family, named
from guesslab.digraph import Digraph
from guesslab.errors import ResourceBoundError, check_bound
from guesslab.guessing import (
    guessing_number,
    h_loops,
    is_routing_solvable,
    loopfull_witness,
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
    ALPHA_LIMIT,
    MATCHING_LIMIT,
    GraphParams,
    acyclic_number,
    graph_params,
    intersection_number,
    max_matching,
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


@pytest.mark.parametrize("search", [is_routing_solvable, lambda g: routing_witness(g, 2)])
def test_routing_searches_refuse_past_the_cycle_cap(search):
    g = random_digraph(random.Random(26), 13, p=0.3)
    with pytest.raises(ResourceBoundError) as exc:
        search(g)
    assert exc.value.needed == 13 > exc.value.cap == 12 and exc.value.knob


def test_strict_refuses_before_building_masks(monkeypatch):
    # C24 at q = 2: two tables per vertex, each tested on 2**24 states
    def built(*_):
        raise AssertionError("masks built")

    monkeypatch.setattr(guessing, "_fix_masks", built)
    with pytest.raises(ResourceBoundError) as exc:
        guessing.strict_guessing_number(named("C", 24).graph, 2)
    assert exc.value.needed == 2 * 2**24 > exc.value.cap and exc.value.knob


def test_max_matching_refuses_past_its_cap():
    assert max_matching(complete_graph(MATCHING_LIMIT)) == MATCHING_LIMIT // 2
    with pytest.raises(ResourceBoundError) as exc:
        max_matching(complete_graph(32))
    assert exc.value.needed == 32 > exc.value.cap == MATCHING_LIMIT and exc.value.knob


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
    # 11 disjoint 2-cycles: alpha = 11, and C(22, 12) = 646,646 sets of 12
    # vertices; the acyclic number's vertex bound refuses first
    cycles = [(2 * i, 2 * i + 1) for i in range(11)] + [(2 * i + 1, 2 * i) for i in range(11)]
    with pytest.raises(ResourceBoundError) as exc:
        linear.prove_not_linearly_solvable(Digraph.of(22, cycles))
    assert exc.value.needed == 22 > exc.value.cap == ALPHA_LIMIT
    assert exc.value.knob == "guesslab.params.ALPHA_LIMIT"


@pytest.mark.parametrize("search", [prove_not_linearly_solvable, weak_compat_certificate])
def test_prover_and_certificate_refuse_before_listing(monkeypatch, search):
    # 12 disjoint 2-cycles: alpha = 12, and C(24, 12) = 2,704,156 sets of 12
    # vertices pass the work bound, so nothing may be listed
    def listed(*_):
        raise AssertionError("vertex sets listed")

    monkeypatch.setattr(params, "ALPHA_LIMIT", 24)
    monkeypatch.setattr(linear, "subset_masks", listed)
    cycles = [(2 * i, 2 * i + 1) for i in range(12)] + [(2 * i + 1, 2 * i) for i in range(12)]
    with pytest.raises(ResourceBoundError) as exc:
        search(Digraph.of(24, cycles))
    assert exc.value.needed >= math.comb(24, 12) > exc.value.cap == linear.PROVER_WORK_CAP
    assert exc.value.knob == "guesslab.linear.PROVER_WORK_CAP"


def test_prover_lists_what_it_counts(monkeypatch):
    # the sets the prover lists are exactly the ones its bound counts first
    lengths = []

    def counted(n, size):
        lengths.append(math.comb(n, size))
        return subset_masks(n, size)

    monkeypatch.setattr(linear, "subset_masks", counted)
    cap = linear.PROVER_WORK_CAP
    # the last graph has alpha = 0, so no 1-set holds both ends of its arc (0, 1)
    graphs = [gk_family(3), gk_family(4, "minimal"), complete_graph(4), Digraph.of(3, [(0, 0), (1, 2)]),
              Digraph.of(2, [(0, 0), (1, 1), (0, 1)])]
    for g in graphs:
        lengths.clear()
        alpha = acyclic_number(g)
        monkeypatch.setattr(linear, "PROVER_WORK_CAP", 0)
        with pytest.raises(ResourceBoundError) as exc:
            prove_not_linearly_solvable(g)
        holding = sum(1 for m in subset_masks(g.n, alpha + 1) for u, v in g.arcs if m >> u & m >> v & 1)
        assert exc.value.needed == math.comb(g.n, alpha) + math.comb(g.n, alpha + 1) + holding
        assert lengths == []
        monkeypatch.setattr(linear, "PROVER_WORK_CAP", cap)
        prove_not_linearly_solvable(g)
        assert lengths == [math.comb(g.n, alpha), math.comb(g.n, alpha + 1)]


def test_prover_work_bound_reaches_the_cli(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(linear, "PROVER_WORK_CAP", 1000)
    path = tmp_path / "gk4.dot"
    path.write_text(emit_dot(gk_family(4, "maximal")))
    assert main(["solvable", str(path), "--prove-nonlinear"]) == 3
    assert "guesslab.linear.PROVER_WORK_CAP" in capsys.readouterr().err


def _check_bound_knobs(tree):
    """(knob, bound) of each check_bound call in a module's functions: the
    knob is a string literal or the function's local `knob`, and the bound
    is the source of the expression passed as the cap."""
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
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "check_bound":
                arg = node.args[3]
                knob = local[arg.id] if isinstance(arg, ast.Name) else arg.value
                yield knob, ast.unparse(node.args[2])


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


KNOBS = {
    "coding.STATE_LIMIT",
    "coding.MINDIM_LIMIT",
    "guessing.COMBO_CAP",
    "guessing.NODE_CAP",
    "guessing.STATE_CAP",
    "guessing.TABLE_CAP",
    "guessing.WITNESS_ROW_CAP",
    "linear.PROVER_WORK_CAP",
    "linear.SEARCH_CAP",
    "params.ALPHA_LIMIT",
    "params.CYCLE_LIMIT",
    "params.PARTITION_LIMIT",
    "params.IDS_LIMIT",
    "params.MODEL_LIMIT",
    "params.MATCHING_LIMIT",
}

CLEBSCH_PARAMS = GraphParams(k=11, alpha=5, c=8, mu=8, cp=8, isolated=0)


# knob, what one call needs of it, the call, other knobs it needs raised,
# and what the call returns
KNOB_CALLS = [
    ("coding.STATE_LIMIT", 256, lambda: count_fixed_linear(clique_solution(4, 4)), {}, (64, None)),
    ("coding.MINDIM_LIMIT", 4, lambda: mindim(min_net(directed_cycle(4), 2)), {}, 1),
    ("guessing.STATE_CAP", 32, lambda: guessing_number(directed_cycle(5), 2).max_fix, {}, 2),
    # c = 3 < k = 4 and gn = 10: the search runs to the end
    ("guessing.NODE_CAP", 23273, lambda: guessing_number(gk_family(4), 2).max_fix, {}, 10),
    ("guessing.TABLE_CAP", 4, lambda: strict_guessing_number(directed_cycle(3), 2).max_fix, {}, 2),
    ("guessing.COMBO_CAP", 62, lambda: strict_guessing_number(directed_cycle(3), 2).max_fix, {}, 2),
    ("guessing.WITNESS_ROW_CAP", 12, lambda: loopfull_witness(directed_cycle(3), 2).n, {}, 3),
    ("linear.SEARCH_CAP", 8, lambda: linear_guessing(directed_cycle(3), 2).max_fix, {}, 2),
    ("linear.PROVER_WORK_CAP", 127, lambda: prove_not_linearly_solvable(gk_family(3)).verdict,
     {}, linear.NOT_LINEARLY_SOLVABLE),
    ("params.ALPHA_LIMIT", 5, lambda: acyclic_number(directed_cycle(5)), {}, 4),
    ("params.CYCLE_LIMIT", 16, lambda: graph_params(clebsch_graph()),
     {"params.PARTITION_LIMIT": 16}, CLEBSCH_PARAMS),
    ("params.PARTITION_LIMIT", 16, lambda: graph_params(clebsch_graph()),
     {"params.CYCLE_LIMIT": 16}, CLEBSCH_PARAMS),
    ("params.IDS_LIMIT", 5, lambda: h_loops(directed_cycle(5), 2).max_fix, {}, 11),
    ("params.MODEL_LIMIT", 5, lambda: intersection_number(undirected_cycle(5)), {}, 5),
    ("params.MATCHING_LIMIT", 4, lambda: max_matching(complete_graph(4)), {}, 2),
]


@pytest.mark.parametrize(
    "knob, need, call, others, want", KNOB_CALLS, ids=[row[0] for row in KNOB_CALLS]
)
def test_each_knob_raises_its_bound(monkeypatch, knob, need, call, others, want):
    for other, value in others.items():
        monkeypatch.setattr(f"guesslab.{other}", value)
    monkeypatch.setattr(f"guesslab.{knob}", need - 1)
    with pytest.raises(ResourceBoundError) as exc:
        call()
    assert (exc.value.needed, exc.value.cap, exc.value.knob) == (need, need - 1, f"guesslab.{knob}")
    monkeypatch.setattr(f"guesslab.{knob}", need)
    assert call() == want


def test_guessing_past_the_cycle_cap_skips_the_bounds(monkeypatch):
    # 13 vertices: the sandwich's c and k would be refused, so they are not
    # computed, and raising the state cap alone is enough
    monkeypatch.setattr(guessing, "STATE_CAP", 2**13)
    rep = guessing_number(Digraph.of(13, []), 2)
    assert rep.max_fix == 1 and (rep.stats.c, rep.stats.k) == (None, None)
    assert guessing.is_solvable(Digraph.of(13, []), 2)  # k = 0 from the acyclic number


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
    # K20 passes the 20-vertex limit, but 20 tables of 3**20 rows do not
    k20 = complete_graph(20)
    with pytest.raises(ResourceBoundError) as exc:
        guessing.loopfull_witness(k20, 3)
    assert exc.value.needed == 20 * 3**20 > exc.value.cap == guessing.WITNESS_ROW_CAP
    assert exc.value.knob == "guesslab.guessing.WITNESS_ROW_CAP"
