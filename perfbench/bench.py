"""The closed loop: one client, one thread, the next op sent only after the
previous answer is back.  Answers are checked after the run; timings are
reduced to each op's first-quartile repetition so a slow spell does not move
a metric."""

from __future__ import annotations

import hashlib
import json
import random
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Result:
    """What one run of a workload did: per-op latencies, first answers and
    failures."""

    times: dict = field(default_factory=lambda: defaultdict(list))
    answers: dict = field(default_factory=dict)
    attempts: dict = field(default_factory=lambda: defaultdict(int))
    failed: dict = field(default_factory=lambda: defaultdict(int))
    errors: dict = field(default_factory=dict)
    first_pass_s: float = 0.0

    @property
    def attempted(self):
        return sum(self.attempts.values())

    @property
    def failed_total(self):
        return sum(self.failed.values())

    def digest(self):
        """Hash of every op's first answer (or error), stable across commits
        that give the same answers."""
        blob = {k: self.answers.get(k, {"error": self.errors.get(k)}) for k in sorted(self.attempts)}
        return hashlib.sha256(json.dumps(blob, sort_keys=True).encode()).hexdigest()[:16]


def attempt(op, result, clock=time.perf_counter):
    """Run one op, record its latency and answer; returns the latency."""
    t0 = clock()
    try:
        answer = op.call()
    except Exception as exc:  # a failed op is counted, not fatal
        elapsed = clock() - t0
        result.errors.setdefault(op.key, f"{type(exc).__name__}: {exc}")
        result.failed[op.key] += 1
    else:
        elapsed = clock() - t0
        first = result.answers.setdefault(op.key, answer)
        if answer != first:
            result.failed[op.key] += 1
    result.attempts[op.key] += 1
    result.times[op.key].append(elapsed)
    return elapsed


def seeded_order(workload, rng):
    order = list(workload.ops)
    rng.shuffle(order)
    return order


def measure(workload, seed, seconds, gauge=None):
    """One full pass, then further seeded passes while time remains; an op
    is skipped once its last latency would carry it past the deadline.
    A `calibrate.Gauge`, if given, times its probes between ops."""
    clock = time.perf_counter
    rng = random.Random(seed)
    result = Result()
    sample = gauge.maybe_sample if gauge is not None else lambda: None
    deadline = clock() + seconds
    for op in seeded_order(workload, rng):
        sample()
        result.first_pass_s += attempt(op, result, clock)
    while clock() < deadline:
        ran = False
        for op in seeded_order(workload, rng):
            if clock() + result.times[op.key][-1] <= deadline:
                sample()
                attempt(op, result, clock)
                ran = True
        if not ran:
            break
    judge(workload, result)
    return result


def judge(workload, result):
    """Every attempt of an op whose first answer fails the workload's check
    counts as failed (an attempt that differed from the first already did)."""
    for key in workload.check(result.answers):
        if key in result.answers:
            result.failed[key] = result.attempts[key]


def _percentile(sorted_values, p):
    """Linear interpolation between closest ranks, as numpy's default."""
    pos = (len(sorted_values) - 1) * min(max(p, 0.0), 100.0) / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def smoothed_percentile(sorted_values, p, half_width=0.5, points=21):
    """Mean of the percentiles from p - half_width to p + half_width.

    Op latencies come in clusters (a linear search costs 2^arcs), and a plain
    percentile that lands on the edge of a cluster jumps between the two
    when a few ops move.  Averaging over a narrow band of ranks smooths the
    jump; with few ops the band stays between two neighbours and the result
    is close to the plain percentile.
    """
    step = 2 * half_width / (points - 1)
    return sum(_percentile(sorted_values, p - half_width + i * step)
               for i in range(points)) / points


def first_quartile(values):
    """The value a quarter of the way up the sorted values (the only one, for
    a single value)."""
    return sorted(values)[len(values) // 4]


def end_to_end(result):
    """wall_s is one pass estimated as the sum of each op's first-quartile
    latency in the run; op_p50_ms and op_p99_ms are smoothed percentiles over
    the ops of those latencies.  Contention on a shared host only ever adds
    time, so a low quantile of the repetitions estimates an unloaded call; the
    first quartile, not the best, because the best of a dozen repetitions is
    one lucky sample and moved more from run to run."""
    typical = sorted(first_quartile(ts) for ts in result.times.values())
    return {
        "wall_s": sum(typical),
        "op_p50_ms": 1000.0 * smoothed_percentile(typical, 50),
        "op_p99_ms": 1000.0 * smoothed_percentile(typical, 99),
    }
