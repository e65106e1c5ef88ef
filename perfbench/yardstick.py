"""A fixed reference kernel that measures the host's current speed, so work can be timed in its units.

The benchmark host is a shared virtual machine whose speed drifts: the same
work can take twice as long a minute later. Wall time alone then measures the
host. The yardstick is a short kernel of the kinds of work uisbench spends its
time in, Python loops over small numpy arrays: a quasi-Newton fit of a
4-parameter model on a 5x5 grid, like the model fits, and a few proportional
fitting sweeps over eight atoms with boolean masks, like the oracle. While a
block of work runs, an interval timer interrupts it every ``PERIOD`` seconds
and runs the kernel once in the signal handler. The block is thereby cut into
segments, and each segment is converted into yardstick units with the mean of
the two kernel samples around it. A change to the program moves its cost in
yardstick units; a slow phase of the host moves both and cancels. The
samples' own time is not part of the work.

Nothing under ``src/`` is used or wrapped here, so the yardstick stays the
same while the program changes, whatever the program's structure.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

PERIOD = 0.05  # seconds of work between two samples
NOMINAL_SAMPLE_S = 1.5e-3  # what one kernel run takes at the reference speed, about this host's own
_E1 = np.repeat(np.linspace(0.02, 0.98, 5), 5)
_E2 = np.tile(np.linspace(0.02, 0.98, 5), 5)
_TARGET = 1.0 / (1.0 + np.exp(-(0.5 * _E1 - 0.8 * _E2 + 0.3 * _E1 * _E2)))
_DIM = 4
_STEPS = 4
_H = 1e-6
# atom i of a joint over (E1, E2, C) has E1 = bit 2 and E2 = bit 1
_ATOMS = np.linspace(1.0, 2.0, 8) / 12.0
_IN_E1 = np.array([(i >> 2) & 1 for i in range(8)], dtype=bool)
_IN_E2 = np.array([(i >> 1) & 1 for i in range(8)], dtype=bool)
_SWEEPS = 15
# the two parts together take 1 to 2 ms on a 2-vCPU Xeon virtual machine


def _rms_rows(points: np.ndarray) -> np.ndarray:
    """RMS error of a logistic bilinear model over the 5x5 grid, one row of parameters each."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a, b, c, k = (points[:, i : i + 1] for i in range(_DIM))
        pred = 1.0 / (1.0 + np.exp(-(a * _E1 + b * _E2 + c * _E1 * _E2 + k)))
        return np.sqrt(np.mean((_TARGET - pred) ** 2, axis=-1))


def _gradient(x: np.ndarray) -> np.ndarray:
    points = np.repeat(x[None, :], 2 * _DIM, axis=0)
    idx = np.arange(_DIM)
    points[idx, idx] += _H
    points[_DIM + idx, idx] -= _H
    values = _rms_rows(points)
    return (values[:_DIM] - values[_DIM:]) / (2.0 * _H)


def _fit_part() -> float:
    """A few quasi-Newton steps with finite-difference gradients and a halving line search."""
    x = np.zeros(_DIM)
    fx = float(_rms_rows(x[None, :])[0])
    g = _gradient(x)
    curv = np.eye(_DIM)
    for _ in range(_STEPS):
        direction = -(curv @ g)
        step = 1.0
        for _ in range(8):
            x_new = x + step * direction
            f_new = float(_rms_rows(x_new[None, :])[0])
            if f_new < fx:
                break
            step *= 0.5
        g_new = _gradient(x_new)
        s, y = x_new - x, g_new - g
        ys = float(y @ s)
        if ys > 1e-12:
            left = np.eye(_DIM) - np.outer(s, y) / ys
            curv = left @ curv @ left.T + np.outer(s, s) / ys
        x, fx, g = x_new, f_new, g_new
    return fx


def _sweep_part() -> float:
    """Alternate rescaling of two overlapping blocks of atoms towards target masses."""
    total = 0.0
    for e1, e2 in ((0.3, 0.8), (0.9, 0.2)):
        atoms = _ATOMS.copy()
        for _ in range(_SWEEPS):
            for mask, target in ((_IN_E1, e1), (_IN_E2, e2)):
                inside, outside = float(atoms[mask].sum()), float(atoms[~mask].sum())
                atoms[mask] *= target / inside
                atoms[~mask] *= (1.0 - target) / outside
        total += float(atoms[_IN_E1 & _IN_E2].sum())
    return total


def reference_kernel() -> float:
    """The yardstick's unit of work; deterministic.

    The same mix of small numpy calls and Python control flow as uisbench's
    model fits and oracle, written independently of both.
    """
    return _fit_part() + _sweep_part()


@dataclass
class Measured:
    """What :meth:`Yardstick.measure` found for one block of work."""

    seconds: float = 0.0  # wall time of the work, samples excluded
    units: float = 0.0  # the same work in yardstick units


class Yardstick:
    """Times blocks of work in yardstick units; ``samples`` keeps every kernel time."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._block: Measured | None = None
        self._opened = 0.0  # when the open segment began
        self._before = 0.0  # the sample that opened it

    def sample(self) -> float:
        """Run the kernel once; returns its seconds."""
        t0 = time.perf_counter()
        reference_kernel()
        seconds = time.perf_counter() - t0
        self.samples.append(seconds)
        return seconds

    def _cut(self) -> None:
        """Close the open segment, sample, and open the next one."""
        work = time.perf_counter() - self._opened
        after = self.sample()
        self._block.seconds += work
        self._block.units += 2.0 * work / (self._before + after)
        self._before = after
        self._opened = time.perf_counter()

    def _on_alarm(self, signum, frame) -> None:
        if self._block is not None:
            self._cut()

    @contextmanager
    def measure(self):
        """Time the block; the yielded :class:`Measured` is filled in when it ends."""
        block = Measured()
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        try:
            self._before = self.sample()
            self._block = block
            self._opened = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
            try:
                yield block
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                self._cut()
                self._block = None
        finally:
            signal.signal(signal.SIGALRM, previous)
