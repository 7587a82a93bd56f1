"""The benchmark's decode loop: sample, step, stop on the terminator.

Written once here and used by every generating workload.  It only talks to
a ``next_dist()``/``step(choice)`` pair, which both ``ReductionSession`` and
``EnsembleSpec`` provide.  The tracer wraps ``decode`` and ``sample`` by
name, so they are looked up through this module at call time.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np
from clock import Clock
from lvr import LvrError


def sample(probs: np.ndarray, rng: np.random.Generator) -> int:
    """Inverse-CDF draw, the same rule the toolkit's own generators use."""
    cum = np.cumsum(probs)
    return int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))


class Outcome(NamedTuple):
    """One decoded output: the chosen sub-tokens, the gap before each of
    them in scaled seconds (see ``clock``), the top-K mass dropped over all steps, and the error that
    stopped the output early, if any (``None`` when it ended normally)."""

    tokens: list[int]
    gaps: list[float]
    dropped: float
    error: str | None


def decode(
    next_dist: Callable,
    step: Callable[[int], None],
    rng: np.random.Generator,
    eos: int | None,
    done: Callable[[list[int]], bool],
) -> Outcome:
    """Decode until ``done(tokens)`` or the terminator.  An ``LvrError``
    ends the output; it is returned, never retried."""
    tokens: list[int] = []
    gaps: list[float] = []
    dropped = 0.0
    clock = Clock()
    try:
        while not done(tokens):
            dist = next_dist()
            choice = sample(dist.probs, rng)
            step(choice)
            dropped += dist.dropped_mass
            tokens.append(choice)
            gaps.append(clock.lap())
            if choice == eos:
                break
    except LvrError as exc:
        return Outcome(tokens, gaps, dropped, f"{type(exc).__name__}: {exc}")
    return Outcome(tokens, gaps, dropped, None)
