"""Timing scaled to a fixed machine speed.

On a shared host the same pure-Python work runs up to ~1.6x slower for
seconds or minutes at a time, when other tenants load the core.  A
``Clock`` therefore runs a small fixed calibration loop right after every
segment of work it times (one sub-token step, one branch, one set-up) and
scales the segment by how much slower than ``REF_S`` that loop ran.  A
segment and its calibration run a fraction of a millisecond apart, so
both see the same machine state, and the ratio cancels it.

Scaled seconds are seconds on a machine where one calibration unit takes
``REF_S``: about a 2-vCPU Intel Xeon VM running CPython 3.11 when its core
is not shared.  The calibration loop is not toolkit code, so a change to
``lvr`` moves scaled times as it moves wall times.  The calibration's own
time is never counted.  ``calibrated = False`` turns scaling off (traced
runs use raw wall time, so that spans and laps agree).
"""

from __future__ import annotations

import time

import numpy as np

REF_S = 60e-6
calibrated = True
_ARRAY = np.arange(64, dtype=float)

# wall and scaled seconds over every lap, for the report line
totals = {"wall_s": 0.0, "scaled_s": 0.0}


def _unit() -> float:
    """Dict traffic on tuple keys, small-array numpy calls and float
    arithmetic, in the proportions of the toolkit's inner loops."""
    counts: dict[tuple[int, int], int] = {}
    acc = 0.0
    for i in range(120):
        key = (i % 37, i % 11)
        counts[key] = counts.get(key, 0) + 1
        if i % 8 == 0:
            acc += float(np.cumsum(_ARRAY)[i % 64])
    return acc


def calibration(repeats: int) -> float:
    """The fastest of ``repeats`` calibration units, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        _unit()
        best = min(best, time.perf_counter() - t0)
    return best


class Clock:
    """Laps over consecutive segments of work, each scaled by the
    calibration run right after it (the fastest of ``repeats`` units)."""

    def __init__(self, repeats: int = 3):
        self.repeats = repeats
        self.mark = time.perf_counter()

    def lap(self) -> float:
        """Seconds since the last lap (or since the clock was made),
        scaled; the calibration that follows is not in the next lap."""
        wall = time.perf_counter() - self.mark
        scaled = wall
        if calibrated:
            scaled = wall * REF_S / calibration(self.repeats)
        totals["wall_s"] += wall
        totals["scaled_s"] += scaled
        self.mark = time.perf_counter()
        return scaled
