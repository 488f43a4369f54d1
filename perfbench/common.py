"""Pieces the three workloads share."""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from measure import percentile_with_count


@dataclass
class Outcome:
    """What one measurement of a workload produced."""

    end_to_end: Dict[str, float]
    layers: Dict[str, float]
    attempted: int
    failed: int
    checks: Dict[str, bool]
    # The figure trace.overhead_pct compares between untraced and traced.
    primary: float
    notes: List[str] = field(default_factory=list)


def timed_build(build: Callable[[], object],
                extra_s: float = 0.0) -> Tuple[object, float]:
    """Build once; return the result and the seconds it took plus ``extra_s``
    (the import time the process paid before its first build)."""
    start = time.perf_counter()
    built = build()
    return built, time.perf_counter() - start + extra_s


def setup_median(first_s: float, count: int, build: Callable[[], object],
                 teardown: Callable[[object], None]) -> float:
    """Median set-up time over the first build and ``count - 1`` more.

    The extra builds run after the measured phase and after the peak RSS
    was read, so they change neither.
    """
    times = [first_s]
    for _ in range(count - 1):
        gc.collect()
        built, took = timed_build(build)
        times.append(took)
        teardown(built)
    return statistics.median(times)


def windowed_rate(work: Sequence[float], seconds: Sequence[float],
                  per: int) -> float:
    """Median over consecutive windows of ``per`` ops of work per second.

    A stall inflates one window, not the figure.  A trailing partial window
    is ignored unless it is the only one.
    """
    if not work:
        return float("nan")
    rates = []
    for lo in range(0, len(work), per):
        hi = lo + per
        if hi > len(work) and rates:
            break
        took = sum(seconds[lo:hi])
        rates.append(sum(work[lo:hi]) / took)
    return statistics.median(rates)


def latency_percentiles(samples_s: List[float], notes: List[str], label: str,
                        window: int = 0) -> Tuple[float, float]:
    """p50 and p90 in ms of per-op seconds, their support noted ("n=…, k
    above").  With ``window``, each is the median over consecutive windows
    of that many samples of the window's percentile, so one burst of stalls
    moves one window, not the figure."""
    ms = [s * 1000.0 for s in samples_s]
    windows = [ms]
    if window and len(ms) >= 2 * window:
        windows = [ms[lo:lo + window]
                   for lo in range(0, len(ms) - window + 1, window)]
    out = []
    for q in (50, 90):
        picks = [percentile_with_count(w, q) for w in windows]
        value = statistics.median(p[0] for p in picks)
        out.append(value)
        notes.append(f"{label} p{q} = {value:.2f} ms (median of "
                     f"{len(windows)} window(s) of n={picks[0][1]}, "
                     f"{picks[0][2]} above in the first)")
    return out[0], out[1]


def heldout_loss(model, batches) -> float:
    """Mean next-token loss over fixed batches, without building a graph."""
    from repro.tensor import no_grad

    with no_grad():
        losses = [float(model.loss(batch)[0].data) for batch in batches]
    return float(np.mean(losses))
