"""Arithmetic, trace output and process facts of the benchmark.

Nothing here imports ``repro``, so ``test_perfbench.py`` exercises the
arithmetic without building a model.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import signal
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

# -- percentiles -----------------------------------------------------------------


def quantile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation between ranks.

    Matches ``numpy.percentile``'s default ("linear") method.
    """
    if not values:
        raise ValueError("quantile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    return ordered[lower] + (ordered[upper] - ordered[lower]) * (position - lower)


def percentile_with_count(values: Sequence[float],
                          q: float) -> Tuple[float, int, int]:
    """``(value, samples, samples strictly above the value)``.

    The count beyond tells how well the sample supports the percentile: a
    p90 with two samples above it is one slow step, not a tail.
    """
    value = quantile(values, q)
    return value, len(values), sum(1 for v in values if v > value)


# -- spans -----------------------------------------------------------------------


def self_times(spans: Sequence[Tuple[float, float, Optional[int]]]) -> List[float]:
    """Self time of each ``(start, end, parent_index)`` span.

    A span's self time is its duration minus the part of its interval that
    its direct children cover (overlapping children are counted once).
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo = max(child_start, reach)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append((end - start) - covered)
    return result


def resolve_ops(parents: Sequence[Optional[int]],
                ops: Sequence[Optional[int]]) -> List[Optional[int]]:
    """Give each span without an op id the id of its nearest ancestor.

    Parents always precede their children, so one forward pass suffices.
    """
    resolved: List[Optional[int]] = []
    for parent, op in zip(parents, ops):
        if op is None and parent is not None:
            op = resolved[parent]
        resolved.append(op)
    return resolved


def layer_table(names: Sequence[str], starts: Sequence[float],
                ends: Sequence[float], parents: Sequence[Optional[int]],
                ops_done: int) -> List[Dict[str, float]]:
    """Per-span-name totals: calls, inclusive and self seconds, per op."""
    selfs = self_times(list(zip(starts, ends, parents)))
    rows: Dict[str, Dict[str, float]] = {}
    for name, start, end, own in zip(names, starts, ends, selfs):
        row = rows.setdefault(name, {"name": name, "calls": 0,
                                     "incl_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["incl_s"] += end - start
        row["self_s"] += own
    per_op = max(ops_done, 1)
    for row in rows.values():
        row["self_ms_per_call"] = 1000.0 * row["self_s"] / row["calls"]
        row["self_ms_per_op"] = 1000.0 * row["self_s"] / per_op
        row["calls_per_op"] = row["calls"] / per_op
    return sorted(rows.values(), key=lambda r: -r["self_s"])


def chrome_trace(names: Sequence[str], starts: Sequence[float],
                 ends: Sequence[float], parents: Sequence[Optional[int]],
                 ops: Sequence[Optional[int]], metadata: Dict) -> Dict:
    """Chrome trace-event JSON: a ``traceEvents`` list of ``ph: "X"`` events.

    Times are microseconds from the first span; chrome://tracing and
    Perfetto open the file as is.
    """
    origin = min(starts) if starts else 0.0
    resolved = resolve_ops(parents, ops)
    pid = os.getpid()
    events = []
    for index, name in enumerate(names):
        args = {"op": resolved[index]}
        if parents[index] is not None:
            args["parent"] = names[parents[index]]
        events.append({"name": name, "cat": name.split(".", 1)[0], "ph": "X",
                       "ts": (starts[index] - origin) * 1e6,
                       "dur": (ends[index] - starts[index]) * 1e6,
                       "pid": pid, "tid": 0, "args": args})
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": metadata}


# -- process facts ---------------------------------------------------------------


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0          # Linux reports KiB


def stop_children(timeout_s: float = 10.0) -> None:
    """Stop every process this one started and wait until each has ended.

    Worker processes still alive are killed and joined.  Creating a shared
    memory segment also starts ``multiprocessing``'s resource tracker, which
    by design outlives its parent: it exits only once its pipe closes, that
    is after the parent is gone, and is left for init to reap.  Here its
    pipe is closed and it is waited for, or killed after ``timeout_s``.
    """
    mp = sys.modules.get("multiprocessing")
    if mp is None:
        return
    for child in mp.active_children():
        child.kill()
        child.join(timeout_s)
    tracker = getattr(sys.modules.get("multiprocessing.resource_tracker"),
                      "_resource_tracker", None)
    pid = getattr(tracker, "_pid", None)
    if pid is None:
        return
    os.close(tracker._fd)
    tracker._fd = tracker._pid = None
    deadline = time.monotonic() + timeout_s
    try:
        while os.waitpid(pid, os.WNOHANG) == (0, 0):
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)    # it blocks SIGTERM
                os.waitpid(pid, 0)
                return
            time.sleep(0.01)
    except ChildProcessError:                   # already reaped
        pass


def _git_commit(root: Path) -> str:
    """HEAD's commit read from ``.git`` files (no subprocess); "unknown"."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def metadata(root: Path, workload: str, seed: int, seconds: float,
             trace: bool) -> Dict:
    """Where and how a result was measured.  Thread variables are recorded
    as found and never set: the benchmark runs in the default environment."""
    import numpy

    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: deps.get(key) for key in
                ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_commit": _git_commit(root),
        "platform": platform.platform(),
        "argv": sys.argv[1:],
    }


def load_spec(root: Path) -> Dict:
    with open(root / "BENCHMARK.json") as handle:
        return json.load(handle)


def format_metrics(metrics: Dict[str, Dict[str, float]]) -> str:
    width = max((len(name) for name in metrics), default=10)
    lines = []
    for name, entry in metrics.items():
        lines.append(f"  {name:<{width}}  {entry['value']:>14.6g}  {entry['unit']}")
    return "\n".join(lines)


def format_layer_table(rows: Iterable[Dict[str, float]], op_label: str) -> str:
    header = (f"  {'span':<24} {'calls':>7} {'calls/' + op_label:>12} "
              f"{'incl ms':>10} {'self ms':>10} {'self ms/call':>13} "
              f"{'self ms/' + op_label:>13}")
    lines = [header]
    for row in rows:
        lines.append(
            f"  {row['name']:<24} {row['calls']:>7d} {row['calls_per_op']:>12.2f} "
            f"{row['incl_s'] * 1000:>10.1f} {row['self_s'] * 1000:>10.1f} "
            f"{row['self_ms_per_call']:>13.3f} {row['self_ms_per_op']:>13.3f}")
    return "\n".join(lines)
