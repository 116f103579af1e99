"""Spans around every public call into guesslab's layers, installed from outside.

The library binds names with `from .x import y`, so one function can live in
several namespaces.  `Tracer.install` replaces each public function of a layer
module in *every* `guesslab.*` namespace that holds it (matched by identity),
plus the public methods of `Digraph`, and `Tracer.restore` puts the originals
back; the two can alternate, so a run can pair each untraced call with a
traced one.  Generator functions (`_bitset.bits`) are left alone: they
return before their work is done, so a span around one would time nothing.

Spans (function, start, end, parent span, op index) are appended to flat
arrays in memory and written out once, after the run.  A span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# metric prefix -> module; metric names must start with a letter
LAYERS = {
    "kernels": "guesslab._kernels",
    "bitset": "guesslab._bitset",
    "digraph": "guesslab.digraph",
    "params": "guesslab.params",
    "coding": "guesslab.coding",
    "guessing": "guesslab.guessing",
    "linear": "guesslab.linear",
    "serialize": "guesslab.serialize",
    "cli": "guesslab.cli",
}

# work counted from a call's arguments: span -> (counter, units per call)
WORK = {
    "kernels.modular_ranks": ("matrices", lambda mats, q: mats.shape[0]),
    "kernels.fixed_point_mask": ("states", lambda n, q, supports, tables: q**n),
    "kernels.ids_size_counts": ("subsets", lambda in_masks, need, n: 1 << n),
    "bitset.max_clique": (
        "vertices",
        lambda adj, n, universe=None: n if universe is None else universe.bit_count(),
    ),
    "guessing.guessing_number": ("states", lambda g, q, state_cap=None: q**g.n),
}

# Digraph queries that scan or probe the arc set; an adjacency cache moves them
ADJACENCY = (
    "in_neighbors", "out_neighbors", "in_degree", "out_degree",
    "in_masks", "out_masks", "has_arc", "has_loop",
)

_MARK = "_perfbench_span"


def _wrapped_in(obj):
    return hasattr(getattr(obj, "__func__", obj), _MARK)


def _namespaces():
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "guesslab" or name.startswith("guesslab.")):
            yield mod


def wrappers_left():
    """Names of tracing wrappers still installed anywhere in guesslab."""
    from guesslab.digraph import Digraph

    left = [f"{mod.__name__}.{attr}" for mod in _namespaces()
            for attr, obj in vars(mod).items() if _wrapped_in(obj)]
    left += [f"Digraph.{attr}" for attr, obj in vars(Digraph).items() if _wrapped_in(obj)]
    return left


class Tracer:
    def __init__(self):
        self.names = []
        self.layer_of = []
        self.fn = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = defaultdict(int)
        self.errors = defaultdict(int)
        self.op_index = -1
        self._stack = []
        self._patches = None

    # -- installing ---------------------------------------------------------

    def install(self):
        """Put the wrappers in place; the first call prepares them."""
        if self._patches is None:
            self._patches = self._plan()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def restore(self):
        for owner, attr, original, _ in reversed(self._patches or ()):
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def _plan(self):
        """(owner, attribute, original, wrapper) for every replacement."""
        originals = {}
        for layer, modname in LAYERS.items():
            mod = importlib.import_module(modname)
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != modname or inspect.isgeneratorfunction(obj)):
                    continue
                originals[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", layer, obj))
        plan = []
        for mod in _namespaces():
            for attr, obj in vars(mod).items():
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    plan.append((mod, attr, obj, hit[1]))
        digraph = sys.modules["guesslab.digraph"].Digraph
        for attr, obj in vars(digraph).items():
            name = f"digraph.Digraph.{attr}"
            if attr.startswith("_"):
                continue
            if isinstance(obj, classmethod):
                plan.append((digraph, attr, obj,
                             classmethod(self._wrap(name, "digraph", obj.__func__))))
            elif inspect.isfunction(obj):
                plan.append((digraph, attr, obj, self._wrap(name, "digraph", obj)))
        return plan

    def _wrap(self, name, layer, fn):
        fid = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        counter = WORK.get(name)
        fns, parents, ops, starts, ends = self.fn, self.parent, self.op, self.start, self.end
        stack, layer_of, work, errors = self._stack, self.layer_of, self.work, self.errors
        clock = time.perf_counter

        def span(*args, **kwargs):
            idx = len(fns)
            fns.append(fid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_index)
            if counter is not None:
                work[name] += counter[1](*args, **kwargs)
            stack.append(idx)
            ends.append(0.0)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                # count an exception once per layer it leaves
                up = parents[idx]
                if up < 0 or layer_of[fns[up]] != layer:
                    errors[layer] += 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()

        span.__name__ = fn.__name__
        span.__qualname__ = fn.__qualname__
        span.__doc__ = fn.__doc__
        span.__wrapped__ = fn
        setattr(span, _MARK, name)
        return span

    # -- results ------------------------------------------------------------

    def arrays(self):
        return (np.array(self.fn, dtype=np.int32), np.array(self.parent, dtype=np.int32),
                np.array(self.op, dtype=np.int32), np.array(self.start, dtype=np.float64),
                np.array(self.end, dtype=np.float64))

    def summary(self):
        """Per span name: calls, self seconds, and its work counter if any."""
        fn, parent, _, start, end = self.arrays()
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(fn))
        self_s = dur - child
        calls = np.bincount(fn, minlength=len(self.names))
        self_by_fn = np.bincount(fn, weights=self_s, minlength=len(self.names))
        out = {}
        for fid, name in enumerate(self.names):
            row = out.setdefault(name, {"layer": self.layer_of[fid], "calls": 0, "self_s": 0.0})
            row["calls"] += int(calls[fid])
            row["self_s"] += float(self_by_fn[fid])
        for name, total in self.work.items():
            out[name][WORK[name][0]] = total
        return out

    def save(self, path, op_keys):
        fn, parent, op, start, end = self.arrays()
        np.savez(path, fn=fn, parent=parent, op=op, start=start, end=end,
                 names=np.array(self.names), op_keys=np.array(op_keys))


# ---------------------------------------------------------------------------
# the per-layer metrics, in BENCHMARK.json order
# ---------------------------------------------------------------------------

def _catalogue():
    rows = []

    def fn(name, *fields):
        units = {"calls": ("count", "lower"), "self_s": ("s", "lower"),
                 "matrices": ("count", "lower"), "states": ("count", "lower"),
                 "subsets": ("count", "lower"), "vertices": ("count", "lower"),
                 "matrices_per_s": ("1/s", "higher")}
        rows.extend((f"{name}.{f}",) + units[f] for f in fields)

    fn("kernels.modular_ranks", "calls", "matrices", "self_s", "matrices_per_s")
    fn("kernels.fixed_point_mask", "calls", "states", "self_s")
    fn("kernels.ids_size_counts", "calls", "subsets", "self_s")
    fn("bitset.max_clique", "calls", "vertices", "self_s")
    fn("bitset.max_independent_set", "self_s")
    fn("bitset.maximal_cliques_containing", "calls", "self_s")
    for m in ("in_neighbors", "out_neighbors", "in_degree", "of"):
        fn(f"digraph.Digraph.{m}", "calls")
    fn("digraph.adjacency", "self_s")
    for f in ("topological_order", "is_compatible"):
        fn(f"digraph.{f}", "calls", "self_s")
    for f in ("max_acyclic_set", "max_disjoint_cycles", "min_clique_partition",
              "all_max_acyclic_sets", "max_matching", "is_edge_full", "in_dominating_counts"):
        fn(f"params.{f}", "calls", "self_s")
    fn("coding.count_fixed_points", "self_s")
    fn("coding.min_net", "self_s")
    fn("guessing.guessing_number", "calls", "states", "self_s")
    fn("guessing.strict_guessing_number", "calls", "self_s")
    fn("guessing.h_loops", "self_s")
    for f in ("linear_guessing", "prove_not_linearly_solvable", "weak_compat_certificate"):
        fn(f"linear.{f}", "calls", "self_s")
    for f in ("parse", "emit_dot", "emit_json"):
        fn(f"serialize.{f}", "self_s")
    fn("cli.main", "calls", "self_s")
    for layer in LAYERS:
        rows += [(f"{layer}.self_s", "s", "lower"), (f"{layer}.share", "%", "lower"),
                 (f"{layer}.errors", "count", "lower")]
    rows.append(("trace.overhead_s", "s", "lower"))
    return tuple(rows)


PER_LAYER = _catalogue()


def layer_metrics(summary, errors, overhead_s):
    """Every PER_LAYER metric as {name: {"value", "unit"}}; a span that never
    ran reads 0."""
    values = {}
    for name, row in summary.items():
        for field, v in row.items():
            if field != "layer":
                values[f"{name}.{field}"] = v
    adjacency = [f"digraph.Digraph.{m}" for m in ADJACENCY]
    values["digraph.adjacency.self_s"] = sum(summary.get(n, {}).get("self_s", 0.0) for n in adjacency)
    ranks = summary.get("kernels.modular_ranks", {})
    if ranks.get("self_s", 0.0) > 0:
        values["kernels.modular_ranks.matrices_per_s"] = ranks["matrices"] / ranks["self_s"]
    total = sum(row["self_s"] for row in summary.values())
    for layer in LAYERS:
        layer_s = sum(row["self_s"] for row in summary.values() if row["layer"] == layer)
        values[f"{layer}.self_s"] = layer_s
        values[f"{layer}.share"] = 100.0 * layer_s / total if total > 0 else 0.0
        values[f"{layer}.errors"] = errors.get(layer, 0)
    values["trace.overhead_s"] = overhead_s
    return {name: {"value": values.get(name, 0), "unit": unit} for name, unit, _ in PER_LAYER}
