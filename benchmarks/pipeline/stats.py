"""Order statistics and the open-loop schedule.

Kept free of any ``repro`` import so ``test_harness.py`` exercises
these without building a pipeline.
"""

from __future__ import annotations

import math
import random
from typing import Callable, List, Sequence


def quantile(values: Sequence[float], q: float) -> float:
    """The ``q`` quantile of *values*, linearly interpolated.

    Raises on an empty sample: a metric computed from nothing must fail
    the run, not read as zero.
    """
    if not values:
        raise ValueError("quantile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile {q!r} outside [0, 1]")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = math.ceil(position)
    if low == high:
        return float(ordered[low])
    weight = position - low
    return float(ordered[low] * (1.0 - weight) + ordered[high] * weight)


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


def due_times(start: float, rate: float, count: int) -> List[float]:
    """Open-loop schedule: message ``i`` is due at ``start + i / rate``."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    return [start + i / rate for i in range(count)]


def run_open_loop(
    due: Sequence[float],
    send: Callable[[int], None],
    *,
    clock: Callable[[], float],
    sleep: Callable[[float], None],
) -> List[float]:
    """Send message ``i`` at ``due[i]`` regardless of how the system keeps up.

    Returns, per message, how late the *generator* was: the time from
    when the send could have started — its due time, or the return of
    the previous send if that came later — to when it did start.  A
    send the system stalls delays the ones behind it; that wait is the
    system's, so it shows in their latency (timed from the due time),
    not here.
    """
    late: List[float] = []
    free_at = -math.inf
    for i, when in enumerate(due):
        wait = when - clock()
        if wait > 0:
            sleep(wait)
        late.append(max(0.0, clock() - max(when, free_at)))
        send(i)
        free_at = clock()
    return late


def event_order(seed: int, pool_size: int, length: int) -> List[int]:
    """Which pooled event message ``i`` carries: the seed's only output."""
    rng = random.Random(seed)
    return [rng.randrange(pool_size) for _ in range(length)]
