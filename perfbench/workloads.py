"""The three benchmark workloads: ops, their inputs, and their answer checks.

An op is one closed-loop call into the public API whose answer is reduced to
plain JSON data, so answers can be compared between repetitions and digested
between commits.  Building a workload (graphs, coding inputs, DOT files) is
set-up; only `Op.call` is timed.

Every library call inside an op goes through a module attribute looked up at
call time (`linear.linear_guessing(...)`), so the tracer's replacements in
those namespaces see it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

WORKLOADS = ("linear-sweep", "state-space", "census")


@dataclass(frozen=True)
class Op:
    key: str
    call: Callable[[], object]


@dataclass(frozen=True)
class Workload:
    """`check(answers)` takes one answer per op key and returns the keys of
    the ops whose answers are wrong."""

    name: str
    ops: tuple
    check: Callable[[dict], set]


def _pinned(name, table):
    """A workload whose ops have known exact answers."""
    ops = tuple(Op(key, call) for key, call, _ in table)
    expected = {key: want for key, _, want in table}

    def check(answers):
        return {k for k, want in expected.items() if answers.get(k) != want}

    return Workload(name, ops, check)


def _undirected_cycle(n):
    from guesslab import constructions, digraph

    return digraph.symmetrized(constructions.named("C", n).graph)


def linear_sweep(tiny=False):
    """Rank-kernel sweeps in a few large batches over GF(2), GF(3), GF(5).

    Each search is two to three batches of 32768 matrices, a few tenths of
    a second, so a run repeats every op a dozen times or more.
    """
    from guesslab import constructions, digraph, linear

    if tiny:
        k3 = constructions.named("K", 3).graph
        c4 = _undirected_cycle(4)
        gk3min = constructions.gk_family(3, "minimal")
        table = [
            ("linear_guessing.K3.q2.g", lambda: linear.linear_guessing(k3, 2, "g").max_fix, 4),
            ("linear_guessing.C4u.q3.h", lambda: linear.linear_guessing(c4, 3, "h").max_fix, 9),
            ("prove.gk3min", lambda: linear.prove_not_linearly_solvable(gk3min).verdict,
             linear.NOT_LINEARLY_SOLVABLE),
        ]
        return _pinned("linear-sweep", table)
    k5 = constructions.named("K", 5).graph
    k5_minus = digraph.Digraph.of(5, k5.arcs - {(0, 1), (1, 0), (2, 3), (3, 2)})
    k24 = constructions.named("K", 2, 4).graph
    k4 = constructions.named("K", 4).graph
    k4_minus = digraph.Digraph.of(4, k4.arcs - {(0, 1), (1, 0)})
    c5 = _undirected_cycle(5)
    c4 = _undirected_cycle(4)
    s5 = constructions.named("S", 5).graph
    gk4min = constructions.gk_family(4, "minimal")

    def lg(g, q, mode):
        return lambda: linear.linear_guessing(g, q, mode).max_fix

    table = [
        # GF(2): 2^16 matrices each, on 5 and on 6 vertices
        ("linear_guessing.K5-2e.q2.g", lg(k5_minus, 2, "g"), 8),
        ("linear_guessing.K2,4.q2.g", lg(k24, 2, "g"), 4),
        # GF(3): 3^10 matrices each; C5 stays below its feedback bound 27
        ("linear_guessing.K4-e.q3.g", lg(k4_minus, 3, "g"), 9),
        ("linear_guessing.C5u.q3.g", lg(c5, 3, "g"), 9),
        # GF(5), units only: 4^8 matrices each
        ("linear_guessing.C4u.q5.h", lg(c4, 5, "h"), 25),
        ("linear_guessing.S5.q5.h", lg(s5, 5, "h"), 5),
        ("prove.gk4min", lambda: linear.prove_not_linearly_solvable(gk4min).verdict,
         linear.NOT_LINEARLY_SOLVABLE),
    ]
    return _pinned("linear-sweep", table)


def state_space(tiny=False):
    """State and subset enumeration: conflict graphs, max clique, strict
    guessing masks, fixed-point masks and in-dominating-set sweeps."""
    from guesslab import coding, constructions, digraph, guessing

    def gn(g, q):
        return lambda: guessing.guessing_number(g, q).max_fix

    def sg(g, q):
        return lambda: guessing.strict_guessing_number(g, q).max_fix

    def cfp_min_net(g, q):
        return lambda: coding.count_fixed_points(coding.min_net(g, q))

    def hl(g, q):
        return lambda: guessing.h_loops(g, q).max_fix

    if tiny:
        table = [
            ("guessing_number.C5u.q2", gn(_undirected_cycle(5), 2), 5),
            ("strict.S3.q2", sg(constructions.named("S", 3).graph, 2), 2),
            ("strict.C4u+loops.q2", sg(digraph.add_loops(_undirected_cycle(4)), 2), 11),
            ("fixed_points.min_net.C6u.q3", cfp_min_net(_undirected_cycle(6), 3), 3),
            ("h_loops.C5u.q3", hl(_undirected_cycle(5), 3), 212),
        ]
        return _pinned("state-space", table)
    gk4 = constructions.gk_family(4)

    def gk4_minus(arc):
        return digraph.Digraph.of(gk4.n, gk4.arcs - {arc})

    table = [
        # max-clique searches under a second; dropping one arc of gk4
        # keeps its guessing number 10 (it cannot rise on a subgraph)
        ("guessing_number.gk4-(0,4).q2", gn(gk4_minus((0, 4)), 2), 10),
        ("guessing_number.gk4-(4,0).q2", gn(gk4_minus((4, 0)), 2), 10),
        ("guessing_number.gk4-(5,0).q2", gn(gk4_minus((5, 0)), 2), 10),
        ("guessing_number.C9u.q2", gn(_undirected_cycle(9), 2), 16),
        # 4096 states: the conflict-graph build and the RSS peak
        ("guessing_number.C12u.q2", gn(_undirected_cycle(12), 2), 64),
        ("strict.S4.q2", sg(constructions.named("S", 4).graph, 2), 2),
        ("strict.C6u.q2", sg(_undirected_cycle(6), 2), 5),
        # loop-full: closed form plus its brute-force cross-check
        ("strict.C5u+loops.q2", sg(digraph.add_loops(_undirected_cycle(5)), 2), 21),
        ("fixed_points.min_net.C12u.q3", cfp_min_net(_undirected_cycle(12), 3), 3),
        ("fixed_points.min_net.C10u.q4", cfp_min_net(_undirected_cycle(10), 4), 4),
        ("h_loops.clebsch.q3", hl(constructions.clebsch_graph(), 3), 42172160),
    ]
    return _pinned("state-space", table)


# ---------------------------------------------------------------------------
# census: many small queries over seeded random graphs
# ---------------------------------------------------------------------------

def _binomial_quantiles(trials, p, k):
    """k counts spread evenly over the quantiles of Binomial(trials, p)."""
    cdf, acc = [], 0.0
    for m in range(trials + 1):
        acc += math.comb(trials, m) * p**m * (1 - p) ** (trials - m)
        cdf.append(acc)
    return [next((m for m, c in enumerate(cdf) if c >= (j + 0.5) / k), trials) for j in range(k)]


def random_graphs(seed, count):
    """Half undirected on 4-7 vertices with edge probability 0.45, half
    loopless directed on 4-6 vertices with arc probability 0.35.

    Vertex and edge counts are stratified: every seed gets the same multiset
    of (n, edges), spread over the binomial's quantiles, and the seed draws
    which edges.  The linear searches cost 2^arcs, so an unstratified draw
    would change the amount of work, not just the graphs, from seed to seed.
    """
    from guesslab import digraph

    rng = random.Random(seed)
    graphs = []
    for directed, sizes, p, share in ((False, range(4, 8), 0.45, count - count // 2),
                                      (True, range(4, 7), 0.35, count // 2)):
        for i, n in enumerate(sizes):
            k = share // len(sizes) + (i < share % len(sizes))
            pairs = [(u, v) for u in range(n) for v in range(n) if u != v and (directed or u < v)]
            for m in _binomial_quantiles(len(pairs), p, k):
                chosen = rng.sample(pairs, m)
                arcs = chosen if directed else chosen + [(v, u) for u, v in chosen]
                graphs.append(digraph.Digraph.of(n, arcs))
    return graphs


def _cli_json(argv):
    from guesslab import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return {"exit": code, "payload": json.loads(out.getvalue())}


def _census_ops(tag, g, dot_path):
    """The queries sent about one graph, gated by size as the sweeps are."""
    from guesslab import coding, digraph, guessing, linear, params, serialize

    n, m = g.n, len(g.arcs)
    undirected = g.is_undirected()
    max_in = max(g.in_degree(v) for v in range(n))
    ops = {
        "dot": lambda: serialize.parse(serialize.emit_dot(g)) == g,
        "json": lambda: serialize.parse(serialize.emit_json(g)) == g,
        "alpha": lambda: params.acyclic_number(g),
        "cycles": lambda: [list(c) for c in params.max_disjoint_cycles(g)[1]],
        "vfull": lambda: params.is_vertex_full(g),
        "mu": lambda: params.max_matching(g),
        "weak": lambda: _certificate(linear.weak_compat_certificate(g)),
        "hloops3": lambda: guessing.h_loops(digraph.strip_loops(g), 3).max_fix,
        "minnet3": lambda: coding.count_fixed_points(coding.min_net(g, 3)),
        "routing2": lambda: coding.count_fixed_points(guessing.routing_witness(g, 2)),
    }
    if undirected:
        ops["efull"] = lambda: params.is_edge_full(g)
    if m <= 22:
        ops["prove"] = lambda: linear.prove_not_linearly_solvable(g).verdict
    if m <= 12:
        ops["lin3h"] = lambda: linear.linear_guessing(g, 3, "h").max_fix
        ops["lin2g"] = lambda: linear.linear_guessing(g, 2, "g").max_fix
    if n <= 6:
        ops["gn2"] = lambda: guessing.guessing_number(g, 2).max_fix
    if n <= 5 and max_in <= 2:
        ops["sg2"] = lambda: guessing.strict_guessing_number(g, 2).max_fix
    argv = ["solvable", str(dot_path), "-q", "2", "--json"] if n <= 6 else [
        "hloops", str(dot_path), "-q", "3", "--json"]
    ops["cli"] = lambda: _cli_json(argv)
    return {f"{tag}.{name}": call for name, call in ops.items()}


def _certificate(cert):
    return [cert.verdict, sorted(cert.witness) if cert.witness is not None else None]


def _census_violations(g, a, lin):
    """Names of this graph's ops whose answers break an invariant.

    `a` maps op name to answer for one graph.  Ops gated out by size, or
    that raised (already counted as failed), are absent, and a rule that
    needs an absent answer is skipped.
    """
    n = g.n
    bad = set()

    def rule(names, holds):
        if all(x in a for x in names) and not holds():
            bad.update(names)

    def k():
        return n - a["alpha"]

    def c():
        return len(a["cycles"])

    def cycles_valid():
        used = [v for cyc in a["cycles"] for v in cyc]
        return len(used) == len(set(used)) and all(
            (cyc[i - 1], cyc[i]) in g.arcs for cyc in a["cycles"] for i in range(len(cyc)))

    def weak_valid():
        verdict, witness = a["weak"]
        if verdict == lin.INCONCLUSIVE:
            return witness is None
        return verdict == lin.NOT_STRICTLY_LINEARLY_SOLVABLE and len(witness) == a["alpha"]

    def weak_negative():
        return a["weak"][0] == lin.NOT_STRICTLY_LINEARLY_SOLVABLE

    def cli_valid():
        out = a["cli"]
        p = out["payload"]
        if n > 6:
            return out["exit"] == 0 and p.get("max_fix") == a["hloops3"]
        solvable = a["gn2"] == 2 ** k()
        return (p.get("k"), p.get("q"), p.get("solvable"), out["exit"]) == (
            k(), 2, solvable, 0 if solvable else 1)

    rule(["dot"], lambda: a["dot"] is True)
    rule(["json"], lambda: a["json"] is True)
    rule(["cycles"], cycles_valid)
    rule(["cycles", "alpha"], lambda: c() <= k())
    rule(["mu", "cycles"], lambda: a["mu"] <= c())
    rule(["routing2", "cycles"], lambda: a["routing2"] == 2 ** c())
    rule(["minnet3", "alpha"], lambda: 1 <= a["minnet3"] <= 3 ** k())
    rule(["hloops3"], lambda: 2**n <= a["hloops3"] <= 3**n)
    rule(["weak", "alpha"], weak_valid)
    rule(["lin3h", "alpha"], lambda: 1 <= a["lin3h"] <= 3 ** k())
    rule(["lin3h", "weak", "alpha"], lambda: not weak_negative() or a["lin3h"] < 3 ** k())
    rule(["lin2g", "alpha"], lambda: 1 <= a["lin2g"] <= 2 ** k())
    rule(["lin2g", "prove", "alpha"],
         lambda: a["prove"] != lin.NOT_LINEARLY_SOLVABLE or a["lin2g"] < 2 ** k())
    rule(["gn2", "cycles", "alpha"], lambda: 2 ** c() <= a["gn2"] <= 2 ** k())
    rule(["lin2g", "gn2"], lambda: a["lin2g"] <= a["gn2"])
    rule(["sg2", "gn2"], lambda: a["sg2"] <= a["gn2"])
    rule(["cli", "alpha", "gn2" if n <= 6 else "hloops3"], cli_valid)
    return bad


def census(seed, work_dir, count=200):
    """Per-call overhead across digraph, params, serialize and cli, with the
    rank kernel in tiny batches.  DOT files for the CLI are written here."""
    from guesslab import linear, serialize

    graphs = random_graphs(seed, count)
    work_dir = Path(work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    calls = {}
    tags = []
    for i, g in enumerate(graphs):
        tag = f"g{i:03d}"
        path = work_dir / f"{tag}.dot"
        path.write_text(serialize.emit_dot(g), encoding="utf-8")
        calls.update(_census_ops(tag, g, path))
        tags.append(tag)
    ops = tuple(Op(key, call) for key, call in calls.items())

    def check(answers):
        bad = set()
        for tag, g in zip(tags, graphs):
            prefix = tag + "."
            a = {k[len(prefix):]: v for k, v in answers.items() if k.startswith(prefix)}
            bad.update(prefix + x for x in _census_violations(g, a, linear))
        return bad

    return Workload("census", ops, check)


def build(name, seed, work_dir, tiny=False):
    if name == "linear-sweep":
        return linear_sweep(tiny)
    if name == "state-space":
        return state_space(tiny)
    if name == "census":
        return census(seed, work_dir, count=8 if tiny else 200)
    raise ValueError(f"unknown workload {name!r}")
