"""Outside-in tracing: spans recorded around calls into ``repro``'s layers.

The traced run patches each function where its caller looks it up (a class
attribute for methods, the calling module's global for free functions such
as ``repro.sparsity.engine.block_sparse_attention``), so the program itself
is unchanged.  Install the patches before the model is built and the plan
captured; :func:`install` returns an undo callable.

Spans live in parallel lists in memory and are written out once, at the end,
as Chrome trace events.  Only spans opened while ``Tracer.recording`` is set
are kept, so set-up and warm-up calls cost one flag test.

Limits, by design: a compiled replay step never calls the sparse backends,
so their kernels show up only inside ``capture.replay_forward``; and
data-parallel worker processes keep their spans (their phase times reach
the parent through ``DistributedReport``).
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Callable, Dict, List, Optional

# (module, attribute path, span name).  Every target is patched on the
# object its caller resolves the name through at call time.
PATCHES = (
    ("repro.runtime.trainer", "FineTuner.step", "trainer.step"),
    ("repro.runtime.arena", "StepCapture.replay_full_forward",
     "capture.replay_forward"),
    ("repro.runtime.arena", "StepCapture.replay_full_backward",
     "capture.replay_backward"),
    ("repro.runtime.arena", "StepCapture.retire", "capture.retire"),
    ("repro.sparsity.engine", "SparseAttentionBackend.__call__",
     "sparsity.attn_backend"),
    ("repro.sparsity.engine", "SparseMLPBackend.__call__",
     "sparsity.mlp_backend"),
    ("repro.sparsity.engine", "block_sparse_attention", "sparsity.attn_kernel"),
    ("repro.sparsity.engine", "neuron_sparse_linear_pair",
     "sparsity.mlp_kernel"),
    ("repro.sparsity.predictor.attention", "AttentionPredictor.predict_patterns",
     "sparsity.attn_predict"),
    ("repro.sparsity.predictor.mlp", "MLPPredictor.predict_active_blocks",
     "sparsity.mlp_predict"),
    ("repro.sparsity.ops.layout", "LayoutPool.combine", "sparsity.combine"),
    ("repro.runtime.distributed", "DataParallelTrainer.step", "dp.step"),
    ("repro.serve.service", "FineTuningService.submit", "serve.submit"),
    ("repro.serve.service", "FineTuningService.step", "serve.step"),
    ("repro.serve.registry", "AdapterRegistry.attach", "serve.attach"),
    ("repro.serve.queue", "SignatureBucketQueue.select", "serve.select"),
)


class Tracer:
    """In-memory span store for one process (single-threaded callers)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[Optional[int]] = []
        self.ops: List[Optional[int]] = []
        self.recording = False
        # Id of the op (step or request) the driving loop is on; spans that
        # learn their own id from a return value overwrite it.
        self.op: Optional[int] = None
        # One record per FineTuner.step made while recording.
        self.steps: List[Dict[str, float]] = []
        self._stack: List[int] = []

    def open(self, name: str) -> Optional[int]:
        if not self.recording:
            return None
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else None)
        self.ops.append(self.op)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(self.clock())
        return index

    def close(self, index: Optional[int]) -> None:
        if index is None:
            return
        self.ends[index] = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.names[index]!r} closed out of order")


def _span_wrapper(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(span)
    return traced


def _step_wrapper(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """``FineTuner.step``: a span plus the step's phase timings and capture
    counter deltas, which classify it as captured, replayed or interpreted."""
    @functools.wraps(fn)
    def traced(tuner, *args, **kwargs):
        span = tracer.open(name)
        if span is None:
            return fn(tuner, *args, **kwargs)
        capture = tuner.capture
        before = ((capture.full_captures, capture.full_replays,
                   capture.full_fallbacks) if capture is not None else None)
        try:
            result = fn(tuner, *args, **kwargs)
        finally:
            tracer.close(span)
        timing = result[1]
        record = {"wall_s": tracer.ends[span] - tracer.starts[span],
                  "forward_s": timing.forward, "backward_s": timing.backward,
                  "optimizer_s": timing.optimizer,
                  "prediction_s": timing.prediction,
                  "captured": 0.0, "replayed": 0.0, "fallback": 0.0,
                  "allocs": 0.0, "arena_bytes": 0.0}
        if capture is not None:
            record["captured"] = float(capture.full_captures - before[0])
            record["replayed"] = float(capture.full_replays - before[1])
            record["fallback"] = float(capture.full_fallbacks - before[2])
            record["allocs"] = float(capture.last_step_allocations)
            record["arena_bytes"] = float(capture.arena.bytes_held)
        tracer.steps.append(record)
        return result
    return traced


def _op_from_result(tracer: Tracer, name: str, fn: Callable,
                    op_of: Callable) -> Callable:
    """Span whose op id is read from the call's return value (serve)."""
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.open(name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            tracer.close(span)
            if span is not None and result is not None:
                tracer.ops[span] = op_of(result)
    return traced


def install(tracer: Tracer) -> Callable[[], None]:
    """Patch every target in :data:`PATCHES`; returns the undo function."""
    undo = []
    for module_name, path, span_name in PATCHES:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = vars(owner)[attr]     # the raw function, not a bound one
        if span_name == "trainer.step":
            patched = _step_wrapper(tracer, span_name, original)
        elif span_name == "serve.submit":
            patched = _op_from_result(tracer, span_name, original, int)
        elif span_name == "serve.step":
            patched = _op_from_result(tracer, span_name, original,
                                      lambda r: r.request_id)
        else:
            patched = _span_wrapper(tracer, span_name, original)
        setattr(owner, attr, patched)
        undo.append((owner, attr, original))

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
    return uninstall
