"""A gauge of the host's speed, so that a run made in a slow spell can be
scaled back to a steady machine.

On a shared host the same code runs up to 1.6 times slower for minutes at a
time, and Python bytecode slows more than NumPy array work.  The best of a
run's repetitions of an op does not undo that when the whole run falls in a
slow spell.  So the loop also times two fixed probes that belong to the
benchmark, not to guesslab: one of plain interpreter work (integer and bit
operations, a dict), one of int64 array arithmetic on a batch of small
matrices.  A program change cannot speed them up or slow them down, while a
slow spell slows them much as it slows the program.

`Gauge.factor()` is the first quartile of each probe's times in the run over
its nominal value, averaged over the two probes; a time divided by it is in
reference seconds, the time it would have taken while the probes ran at
their nominal speed.  The quartile, not the best time: the best of a run's
hundred-odd probes finds a quiet moment even in a slow spell, while an op
repeated a dozen times does not, so the best probe time misses the spells
that the ops' best times still show.
"""

from __future__ import annotations

import math
import time

import numpy as np

from bench import first_quartile

# first-quartile times of the two probes on a 2-vCPU Xeon VM (Python 3.11,
# numpy kernels); they fix the scale of reference seconds and nothing else
PY_NOMINAL_S = 0.0050
NP_NOMINAL_S = 0.0038
# probing more often than this costs the run more than a few per cent
EVERY_S = 0.2


def _py_probe(n=25000):
    seen = {}
    acc = 0
    for i in range(n):
        x = (i * 2654435761) & 0xFFFF
        acc ^= x >> 3
        seen[x & 255] = acc
    return acc + len(seen)


class Gauge:
    """Times the probes at most once every EVERY_S seconds of a run and
    keeps every time."""

    def __init__(self):
        self.mats = np.random.default_rng(0).integers(0, 5, size=(1024, 8, 8))
        self.py_s = []
        self.np_s = []
        self._next = -math.inf

    def _np_probe(self):
        x = self.mats
        for _ in range(7):
            x = (x[:, [1, 2, 3, 4, 5, 6, 7, 0], :] * 3 + x) % 5
        return int(x[:, 0, 0].sum())

    def sample(self):
        clock = time.perf_counter
        t0 = clock()
        _py_probe()
        t1 = clock()
        self._np_probe()
        t2 = clock()
        self.py_s.append(t1 - t0)
        self.np_s.append(t2 - t1)
        self._next = t2 + EVERY_S

    def maybe_sample(self):
        if time.perf_counter() >= self._next:
            self.sample()

    def burst(self, n):
        for _ in range(n):
            self.sample()

    def factor(self):
        """Run speed relative to nominal: above 1 in a slow spell."""
        return 0.5 * (first_quartile(self.py_s) / PY_NOMINAL_S
                      + first_quartile(self.np_s) / NP_NOMINAL_S)

    def record(self):
        return {"py_q1_s": first_quartile(self.py_s), "np_q1_s": first_quartile(self.np_s),
                "samples": len(self.py_s), "factor": self.factor()}
