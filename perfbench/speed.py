"""Machine-speed probe: rescales measured times to one fixed machine speed.

On a shared host the speed this process gets changes by up to 2.5x, in
phases lasting from seconds to minutes, and all operations slow together.
A statistic taken inside one run (minimum, median) cannot remove a phase
that covers the whole run.  So the benchmark runs a fixed piece of work of
its own, a probe, between segments of work, and divides each segment's
time by the probe times measured around it:

    scaled time = measured time * reference probe time / local probe time

A scaled time is the time the segment would take on a machine where the
probe takes its reference time, which is about its time on a quiet 2-core
Intel Xeon VM with Python 3.11.  The probe uses no library code, so a change
to the library moves the scaled times and leaves the probe alone.

A slow phase does not slow every kind of work by the same factor, so
there are three probes.  ``INTERPRETER`` is interpreter work: closures and
complex arithmetic (the flow steppers), small objects and tuple-keyed
dicts (ball enumeration), and small integer matrix products.  ``ARRAYS``
adds complex arithmetic on arrays the size of the demo field's ball.
``MATRICES`` is products of small integer matrices in nested loops, the
Heegaard bookkeeping's own kind of work.  Each workload uses the probe
whose times tracked its own best on a shared machine (run.TIMING).
"""

from __future__ import annotations

import math
import statistics
import time
from typing import Callable, NamedTuple

import numpy as np

# Two complex arrays of the demo ball's size (3,201 elements).
_U = np.exp(1j * np.linspace(0.0, 9.0, 3201))
_V = _U[::-1].copy()


class _Point:
    __slots__ = ("z", "t")

    def __init__(self, z: complex, t: float):
        self.z = z
        self.t = t


def _work() -> int:
    k = 1.3

    def field(z):
        return complex(z.imag, -k * math.sin(z.real))

    z, h = 0.5 + 0.2j, 0.01
    points = []
    cells: dict[tuple[int, int], int] = {}
    for i in range(120):
        k1 = field(z)
        k2 = field(z + 0.5 * h * k1)
        k3 = field(z + 0.5 * h * k2)
        k4 = field(z + h * k3)
        z = z + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        points.append(_Point(z, i * h))
        cell = (math.floor(z.real * 50.0), i % 7)
        cells[cell] = cells.get(cell, 0) + 1
    m = [[(i * j) % 5 for j in range(8)] for i in range(8)]
    for _ in range(3):
        m = [[sum(m[i][l] * m[l][j] for l in range(8)) % 7 for j in range(8)] for i in range(8)]
    points.sort(key=lambda p: abs(p.z))
    return len(cells) + m[3][5]


def _array_work() -> float:
    total = 0.0
    for _ in range(10):
        w = _U * (0.3 + 0.1j) + _V
        total += abs(np.sum(w / (_V + 2.0))) + float(np.abs(w).max())
    return total


def _matmul(a, b):
    out = [[0] * len(b[0]) for _ in a]
    for i in range(len(a)):
        ai, oi = a[i], out[i]
        for t in range(len(b)):
            v = ai[t]
            if v:
                bt = b[t]
                for j in range(len(bt)):
                    oi[j] += v * bt[j]
    return out


def _matrix_work() -> int:
    n = 8
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    form = [[(j == i + 4) - (i == j + 4) for j in range(n)] for i in range(n)]
    m = eye
    for k in range(6):
        shear = [row[:] for row in eye]
        shear[k % n][(3 * k + 1) % n] += 1 + k % 2
        m = _matmul(m, shear)
        _matmul(_matmul([list(col) for col in zip(*m)], form), m)
    return m[0][1]


def _interpreter_probe() -> float:
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def _matrices_probe() -> float:
    start = time.perf_counter()
    _matrix_work()
    return time.perf_counter() - start


def _arrays_probe() -> float:
    start = time.perf_counter()
    _work()
    _array_work()
    return time.perf_counter() - start


class Probe(NamedTuple):
    run: Callable[[], float]  # runs the probe work once, returns its seconds
    ref_s: float  # its time at the reference speed


INTERPRETER = Probe(_interpreter_probe, 5e-4)
ARRAYS = Probe(_arrays_probe, 9e-4)
MATRICES = Probe(_matrices_probe, 2.5e-4)


class SegmentedField:
    """Field callable that runs ``cut`` before every ``every``-th call.

    It cuts a long operation that evaluates a field many times into
    segments of a fixed number of evaluations, so that each segment can be
    timed and rescaled on its own.
    """

    __slots__ = ("field", "cut", "every", "calls")

    def __init__(self, field, cut, every: int):
        self.field = field
        self.cut = cut
        self.every = every
        self.calls = 0

    def __call__(self, z):
        self.calls += 1
        if self.calls % self.every == 0:
            self.cut()
        return self.field(z)


def scaled(seconds: float, probes, ref_s: float) -> float:
    """``seconds`` rescaled by the median of the probe times around it."""
    return seconds * ref_s / statistics.median(probes)


def scale_segments(seconds, probes, ref_s: float) -> list[float]:
    """Scaled times of segments run one after another.

    ``probes[i]`` is the probe time taken just before segment i, and
    ``probes[-1]`` the one taken after the last segment.  Segment i is
    rescaled by the two probes on either side of it, probes i - 1 to i + 2.
    """
    if len(probes) != len(seconds) + 1:
        raise ValueError("need one probe more than segments")
    return [scaled(t, probes[max(0, i - 1):i + 3], ref_s) for i, t in enumerate(seconds)]
