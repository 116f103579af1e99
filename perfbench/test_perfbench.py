"""Tests of the benchmark itself, on tiny versions of each workload.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import calibrate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

run.import_guesslab()

import guesslab  # noqa: E402
from guesslab import cli, digraph, guessing  # noqa: E402

COUNTS = (".calls", ".matrices", ".states", ".subsets", ".vertices")

# the per-layer rows the benchmark promises, with _kernels/_bitset spelled
# kernels/bitset because metric names start with a letter
NAMED = [
    "kernels.modular_ranks.calls", "kernels.modular_ranks.matrices",
    "kernels.modular_ranks.self_s", "kernels.modular_ranks.matrices_per_s",
    "linear.linear_guessing.calls", "linear.linear_guessing.self_s",
    "linear.prove_not_linearly_solvable.calls", "linear.prove_not_linearly_solvable.self_s",
    "linear.weak_compat_certificate.calls", "linear.weak_compat_certificate.self_s",
    "bitset.max_clique.calls", "bitset.max_clique.vertices", "bitset.max_clique.self_s",
    "bitset.max_independent_set.self_s",
    "bitset.maximal_cliques_containing.calls", "bitset.maximal_cliques_containing.self_s",
    "guessing.guessing_number.calls", "guessing.guessing_number.states",
    "guessing.guessing_number.self_s", "guessing.strict_guessing_number.calls",
    "guessing.strict_guessing_number.self_s", "guessing.h_loops.self_s",
    "kernels.fixed_point_mask.calls", "kernels.fixed_point_mask.states",
    "kernels.fixed_point_mask.self_s", "kernels.ids_size_counts.calls",
    "kernels.ids_size_counts.subsets", "kernels.ids_size_counts.self_s",
    "coding.count_fixed_points.self_s", "coding.min_net.self_s",
    "digraph.Digraph.in_neighbors.calls", "digraph.Digraph.out_neighbors.calls",
    "digraph.Digraph.in_degree.calls", "digraph.Digraph.of.calls", "digraph.adjacency.self_s",
    "digraph.topological_order.calls", "digraph.topological_order.self_s",
    "digraph.is_compatible.calls", "digraph.is_compatible.self_s",
    *[f"params.{f}.{m}" for f in ("max_acyclic_set", "max_disjoint_cycles",
                                  "min_clique_partition", "all_max_acyclic_sets",
                                  "max_matching", "is_edge_full", "in_dominating_counts")
      for m in ("calls", "self_s")],
    "serialize.parse.self_s", "serialize.emit_dot.self_s", "serialize.emit_json.self_s",
    "cli.main.calls", "cli.main.self_s",
    *[f"{layer}.errors" for layer in spans.LAYERS],
    "trace.overhead_s",
]


@pytest.fixture(scope="module")
def traced_runs():
    return {name: run.traced(name, seed=7, tiny=True) for name in workloads.WORKLOADS}


def test_wrappers_cover_every_namespace_and_are_restored(traced_runs):
    tracer = spans.Tracer()
    original = guessing.guessing_number
    with tracer:
        # bound by `from .guessing import ...` in cli and in the package root
        for holder in (guessing, cli, guesslab):
            assert getattr(holder.guessing_number, "__wrapped__", None) is original
        assert hasattr(digraph.Digraph.in_neighbors, "_perfbench_span")
        assert hasattr(digraph.Digraph.of.__func__, "_perfbench_span")
    assert spans.wrappers_left() == []
    assert guessing.guessing_number is original is cli.guessing_number is guesslab.guessing_number
    # and after full traced runs of every workload
    assert all(name in traced_runs for name in workloads.WORKLOADS)
    assert spans.wrappers_left() == []


def test_tiny_workloads_pass_their_checks(traced_runs):
    for name, (result, _, detail, _, _) in traced_runs.items():
        assert result.failed_total == 0, (name, result.errors)
        assert result.attempted == 2 * len(result.answers)
        assert detail["spans"] > 0


@pytest.mark.parametrize("name,victim", [
    ("linear-sweep", "linear_guessing.K3.q2.g"),
    ("state-space", "guessing_number.C5u.q2"),
    ("census", "g000.routing2"),
])
def test_injected_wrong_answer_raises_fail_frac(name, victim):
    w = run.build(name, 3, tiny=True)
    assert bench.measure(w, 3, 0).failed_total == 0
    ops = tuple(replace(op, call=lambda: -1) if op.key == victim else op for op in w.ops)
    result = bench.measure(replace(w, ops=ops), 3, 0)
    assert result.failed[victim] == result.attempts[victim] > 0
    assert 0 < result.failed_total / result.attempted < 1


def test_error_counts_as_failed_op():
    w = run.build("linear-sweep", 3, tiny=True)

    def boom():
        raise guesslab.ResourceBoundError("injected")

    ops = tuple(replace(op, call=boom) if i == 0 else op for i, op in enumerate(w.ops))
    result = bench.measure(replace(w, ops=ops), 3, 0)
    assert result.failed_total == 1 and "injected" in result.errors[ops[0].key]


def test_every_per_layer_metric_appears(traced_runs):
    names = [name for name, _, _ in spans.PER_LAYER]
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
    assert [m["name"] for m in declared] == names
    assert [(m["unit"], m["better"]) for m in declared] == [(u, b) for _, u, b in spans.PER_LAYER]
    assert set(NAMED) <= set(names)
    for _, metrics, _, _, _ in traced_runs.values():
        assert list(metrics) == names


def test_counts_repeat_exactly_with_the_same_seed(traced_runs):
    for name, (_, first, _, _, _) in traced_runs.items():
        _, again, _, _, _ = run.traced(name, seed=7, tiny=True)
        counts = {k: v["value"] for k, v in first.items() if k.endswith(COUNTS)}
        assert counts == {k: again[k]["value"] for k in counts}, name
        assert any(counts.values())


def test_layer_split(traced_runs):
    lin = traced_runs["linear-sweep"][1]
    state = traced_runs["state-space"][1]
    assert lin["kernels.modular_ranks.calls"]["value"] > 0
    assert state["kernels.modular_ranks.calls"]["value"] == 0
    assert state["kernels.modular_ranks.self_s"]["value"] == 0
    assert state["bitset.max_clique.calls"]["value"] > 0
    shares = [traced_runs["census"][1][f"{layer}.share"]["value"] for layer in spans.LAYERS]
    assert sum(shares) == pytest.approx(100.0)


def test_same_seed_same_census_and_digest():
    a = bench.measure(run.build("census", 5, tiny=True), 5, 0)
    b = bench.measure(run.build("census", 5, tiny=True), 5, 0)
    c = bench.measure(run.build("census", 6, tiny=True), 6, 0)
    assert a.digest() == b.digest() != c.digest()


def test_gauge_factor_is_first_quartile_over_nominal():
    gauge = calibrate.Gauge()
    gauge.py_s = [calibrate.PY_NOMINAL_S * x for x in (3, 1, 1.5, 1)]
    gauge.np_s = [calibrate.NP_NOMINAL_S * x for x in (2, 2, 4, 2)]
    # a slow spell where the interpreter probe is 1x and the array probe 2x
    assert gauge.factor() == pytest.approx(1.5)
    assert bench.first_quartile([5.0]) == 5.0
    gauge.burst(2)
    assert len(gauge.py_s) == len(gauge.np_s) == 6 and gauge.factor() > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
