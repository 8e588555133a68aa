"""A fixed computation that gauges how fast the host runs right now.

The host this benchmark was tuned on changes speed by tens of percent
over tens of seconds to minutes, while an analysis's own work does not
change (report digests and traced call counts repeat exactly).  Timing
this computation between passes measures the host's current speed for
the kind of work nlpcheck does, so analysis times can be scaled to a
nominal speed.  It is part of the benchmark and must not change with the
program under test; changing it rescales every normalised metric.
"""

from __future__ import annotations

import time

import numpy as np

# Reference units per second at the host's nominal speed.  It fixes only
# the scale of the normalised times: the median rate of 40 gauge runs of
# 0.25 s on a 2-vCPU "Intel(R) Xeon(R) Processor" virtual machine with
# Python 3.11.7, numpy 2.4.6 and single-threaded OpenBLAS.
NOMINAL_RATE = 1350.0

_N = 5
_RNG = np.random.default_rng(20220426)
_RECT = [_RNG.standard_normal((4, _N)) for _ in range(8)]
_SPD = [m.T @ m + np.eye(_N) for m in _RECT]


def _tree(depth: int):
    if depth == 0:
        return ("x", depth % _N)
    return ("+" if depth % 2 else "*", _tree(depth - 1), ("x", depth % _N))


_EXPR = _tree(12)


def _taylor(node, x: np.ndarray):
    """Value, gradient and Hessian of a +/* expression tree, forward mode."""
    if node[0] == "x":
        g = np.zeros(_N)
        g[node[1]] = 1.0
        return x[node[1]], g, np.zeros((_N, _N))
    a, ga, ha = _taylor(node[1], x)
    b, gb, hb = _taylor(node[2], x)
    if node[0] == "+":
        return a + b, ga + gb, ha + hb
    cross = np.outer(ga, gb)
    return a * b, a * gb + b * ga, a * hb + b * ha + cross + cross.T


def unit() -> float:
    """One reference unit: interpreted derivative propagation, small SVD
    rank counts and small solves, the operations nlpcheck's analyses are
    made of.  Returns a checksum so the work cannot be skipped."""
    acc = 0.0
    x = np.linspace(0.1, 0.5, _N)
    for k in range(4):
        value, grad, _ = _taylor(_EXPR, x + 0.01 * k)
        acc += value + grad[0]
    for rect, spd in zip(_RECT, _SPD):
        s = np.linalg.svd(rect, compute_uv=False)
        acc += int(np.count_nonzero(s > 1e-8 * s[0]))
        acc += float(np.linalg.solve(spd, rect[0])[0])
    return acc


class Gauge:
    """Accumulates reference units and the time they took."""

    def __init__(self):
        self.units = 0
        self.seconds = 0.0

    def run_for(self, seconds: float) -> None:
        """Run whole units until at least ``seconds`` have passed (one at least)."""
        start = time.perf_counter()
        while True:
            unit()
            self.units += 1
            elapsed = time.perf_counter() - start
            if elapsed >= seconds:
                break
        self.seconds += elapsed

    @property
    def rate(self) -> float:
        """Units per second over every ``run_for`` so far."""
        return self.units / self.seconds if self.seconds else 0.0
