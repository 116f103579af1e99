"""The bound policy: every exact search refuses through one check, before
the work, with an error naming the quantity, the size, the cap and the knob.
The prover's work bound is the exception: it is checked as the sweep runs."""

import ast
import pathlib
import random

import pytest

import guesslab
from guesslab import guessing, linear
from guesslab.constructions import gk_family, named
from guesslab.cli import main
from guesslab.digraph import Digraph
from guesslab.errors import ResourceBoundError, check_bound
from guesslab.guessing import is_routing_solvable, routing_witness
from guesslab.params import ALPHA_LIMIT, MATCHING_LIMIT, max_matching
from guesslab.serialize import emit_dot

from conftest import complete_graph, random_digraph


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
    assert exc.value.knob == "max_acyclic_set(limit=)"


def test_prover_work_bound_reaches_the_cli(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(linear, "PROVER_WORK_CAP", 1000)
    path = tmp_path / "gk4.dot"
    path.write_text(emit_dot(gk_family(4, "maximal")))
    assert main(["solvable", str(path), "--prove-nonlinear"]) == 3
    assert "guesslab.linear.PROVER_WORK_CAP" in capsys.readouterr().err


def test_knob_inventory():
    # every bound a caller can set: a new one shows up here as a diff
    src = pathlib.Path(guesslab.__file__).parent
    knobs = set()
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
    assert knobs == KNOBS


KNOBS = {
    "coding.STATE_LIMIT",
    "coding.MINDIM_LIMIT",
    "coding.from_state_functions(limit=)",
    "coding.fixed_points(limit=)",
    "coding.count_fixed_points(limit=)",
    "coding.mindim(limit=)",
    "guessing.COMBO_CAP",
    "guessing.STATE_CAP",
    "guessing.TABLE_CAP",
    "guessing.WITNESS_ROW_CAP",
    "guessing.guessing_number(state_cap=)",
    "guessing.strict_guessing_number(combo_cap=)",
    "guessing.strict_guessing_number(table_cap=)",
    "guessing.loopfull_witness(limit=)",
    "linear.PROVER_WORK_CAP",
    "linear.SEARCH_CAP",
    "linear.CERTIFICATE_LIMIT",
    "linear.linear_guessing(search_cap=)",
    "linear.weak_compat_certificate(limit=)",
    "params.ALPHA_LIMIT",
    "params.CYCLE_LIMIT",
    "params.PARTITION_LIMIT",
    "params.IDS_LIMIT",
    "params.MODEL_LIMIT",
    "params.MATCHING_LIMIT",
    "params.max_acyclic_set(limit=)",
    "params.acyclic_number(limit=)",
    "params.feedback_number(limit=)",
    "params.all_max_acyclic_sets(limit=)",
    "params.max_disjoint_cycles(limit=)",
    "params.max_matching(limit=)",
    "params.min_clique_partition(limit=)",
    "params.is_edge_full(limit=)",
    "params.in_dominating_counts(limit=)",
    "params.min_intersection_model(limit=)",
}


def test_loopfull_witness_refuses_by_table_rows():
    # K20 passes the 20-vertex limit, but 20 tables of 3**20 rows do not
    k20 = complete_graph(20)
    with pytest.raises(ResourceBoundError) as exc:
        guessing.loopfull_witness(k20, 3)
    assert exc.value.needed == 20 * 3**20 > exc.value.cap == guessing.WITNESS_ROW_CAP
    assert exc.value.knob == "guesslab.guessing.WITNESS_ROW_CAP"
