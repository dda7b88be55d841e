"""Host-speed calibration: fixed units of work that do not use spisep.

A shared host runs the same code up to 2x slower for minutes at a time,
and the thread's CPU time slows with it, so neither the wall clock nor
``time.thread_time`` gives a reading steady enough to compare two runs.
``Pacer`` runs a unit between the items of a timed phase, keeping its time
near ``SHARE`` of the items' time, and reports the host's speed during the
phase: the unit's nominal time over its measured time.  The timed metrics
are scaled by it.

The host slows different kinds of work by different amounts, so each
workload is paced with the unit most like its own work (measured on a
2-vCPU Xeon host, the per-sweep spread of its scaled time was lowest with
that unit).  Each unit runs on fixed inputs, so a change to spisep cannot
change its time.
"""

from __future__ import annotations

import time

import numpy as np

SHARE = 0.05

_rng = np.random.default_rng(1)
_A6 = _rng.standard_normal((6, 6))
_A6 = _A6 @ _A6.T + 6 * np.eye(6)
_A300 = _rng.standard_normal((300, 300))


def python_unit() -> int:
    """Interpreted Python: arithmetic, dict and set updates."""
    acc = 0
    for i in range(1500):
        acc += i * i
    counts: dict = {}
    for i in range(400):
        key = (i % 23, i % 7)
        counts[key] = counts.get(key, 0) + 1
    sets = {frozenset((i, i % 5)) for i in range(300)}
    return acc + len(counts) + len(sets)


def small_numpy_unit() -> None:
    """Many numpy calls on 6x6 matrices: call overhead more than arithmetic."""
    for _ in range(12):
        np.linalg.eigvals(_A6)
        np.linalg.svd(_A6)
        np.linalg.solve(_A6, _A6[0])


def lapack_unit() -> None:
    """One dense SVD of a 300x300 matrix."""
    np.linalg.svd(_A300)


# unit name -> (function, nominal time in seconds).  The nominal times are
# the units' usual times on a 2-vCPU Xeon host; they set the scale of the
# scaled metrics, and the ratio of two runs does not depend on them.
UNITS = {
    "python": (python_unit, 0.35e-3),
    "small_numpy": (small_numpy_unit, 0.9e-3),
    "lapack": (lapack_unit, 18e-3),
}


class Pacer:
    """Runs calibration units after each item until their time is ``SHARE`` of the work's."""

    def __init__(self, unit: str):
        self.unit, self.nominal_s = UNITS[unit]
        self.work_s = 0.0
        self.cal_s = 0.0
        self.times: list[float] = []  # each unit's time

    def __call__(self, work_s: float) -> None:
        self.work_s += work_s
        while self.cal_s < SHARE * self.work_s:
            t0 = time.perf_counter()
            self.unit()
            self.times.append(time.perf_counter() - t0)
            self.cal_s += self.times[-1]

    @property
    def speed(self) -> float:
        """The unit's nominal time over its mean time: below 1 while the host runs slow.

        This scales totals, such as items per second.
        """
        return self.nominal_s * len(self.times) / self.cal_s if self.times else 1.0

    def speed_at(self, item_s: float) -> float:
        """The speed that scales a median or percentile of latencies near ``item_s``.

        The host slows short calls otherwise than long ones, so a latency is
        matched with consecutive units that last about as long: the units
        are cut into blocks of that length, and the speed is the nominal time
        over the median block's mean.  Blocks are single units for items as
        short as one unit (on atlas6, scaling the median item this way spread
        5% across sweeps, against 9% with the mean), and the whole phase for
        items longer than all its units together, which gives ``speed``.
        """
        if not self.times:
            return 1.0
        units = len(self.times)
        per_block = max(1, int(item_s * units / self.cal_s))
        blocks = np.array_split(np.asarray(self.times), max(1, units // per_block))
        return self.nominal_s / float(np.median([b.mean() for b in blocks]))
