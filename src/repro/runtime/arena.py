"""Steady-state step capture: buffer arena + compiled full-step replay.

PEFT fine-tuning is a steady-state workload — thousands of steps with
bit-identical shapes — yet every step of the seed runtime rebuilt the Python
autograd graph node by node, re-sorted it topologically, and allocated fresh
output/temporary ndarrays for every op.  :class:`StepCapture` captures that
steady state, CUDA-graph-style, for the NumPy tape:

1. **warm-up** — the first step(s) run exactly as before (one-time caches:
   geometry, causal masks, packed probe weights).
2. **capture** — the next step runs with the :class:`BufferArena` installed:
   every allocation seam takes recycled buffers (on this step they are all
   fresh).  With the full-step compiler armed, the same step also records
   the forward's kernel calls into a :class:`~repro.tensor.plan.ForwardPlan`
   and runs its backward with the graph retained, keeping the DFS schedule.
3. **replay** — every later step keeps the arena installed, so every take
   hits the pool and the steady-state allocation count is zero.  A compiled
   step becomes **stage inputs → run the flat ForwardPlan → execute the
   retained backward schedule → optimizer step**, with the Python autograd
   graph built exactly once, at capture, and never touched during replay.
   Every other step — mask-refresh steps, configurations the compiler
   vetoes, ``compile_full_step=False`` — runs the ordinary interpreted
   forward and DFS backward over the arena.  The retained schedule *is* the
   DFS order, so all of these paths are bitwise identical to an uncaptured
   step (locked by the parity suite).
4. **invalidation** — a signature change (input shape/dtype, label shape,
   kernel toggles, loss scale, the model's trainable set) drops the compiled
   plan and triggers exactly one re-capture, mirroring how a
   sequence-length change forces a predictor refresh in the scheduler.

Compilation is coverage-checked: every graph node built during the captured
forward must be recorded or noted as a view, or the compiler is vetoed for
the current signature and its steps run interpreted.  Full-plan buffers are
plain allocations — never arena takes — so generation recycling cannot
reclaim live plan state, and the backward's arena discipline (zero
steady-state allocations) is unchanged.

Contract: capture mode assumes the standard training-step shape — gradients
are consumed and zeroed within the step, and no Tensor from step ``N`` is
read at step ``N + 1`` (the arena recycles step ``N``'s buffers wholesale).
User-level ``retain_graph=True`` double-backwards are not supported while
capturing (the full-step compiler's internal graph retention is not a
double backward: the retained schedule is executed once per step).

The shape/dtype-keyed :class:`BufferArena` itself lives in
:mod:`repro.tensor.arena` (the lowest layer, importable by the tensor core
without cycles) and is re-exported here, which is the public entry point.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional

import numpy as np

from repro.tensor import arena as _tensor_arena
from repro.tensor import plan as _tensor_plan
from repro.tensor.arena import BufferArena
from repro.tensor.plan import ForwardPlan, ForwardRecorder
from repro.tensor.tensor import Tensor

__all__ = [
    "BufferArena",
    "ForwardPlan",
    "ForwardRecorder",
    "StepCapture",
]


class StepCapture:
    """Per-trainer capture state machine (warm-up → capture → replay).

    Parameters
    ----------
    warmup_steps:
        Uncaptured steps before the capture step (one is enough to populate
        the one-time caches; the capture step itself must see steady-state
        control flow).
    max_failures:
        After this many failures — a compiled replay that raised, or a
        sterile re-capture (the signature moved again before the previous
        capture was ever replayed) — *without an intervening healthy replay
        streak* the capture is switched off entirely (``state == "off"``):
        the workload is not steady-state and paying the bookkeeping is
        pointless.  A streak of ``FAILURE_RESET_REPLAYS`` consecutive
        healthy replayed steps clears the counter, so isolated,
        individually-recovered failures thousands of steps apart do not
        eventually disable capture.  Switching off also swaps in a fresh
        empty arena so the retired pool is reclaimed.
    """

    WARMUP = "warmup"
    CAPTURE = "capture"
    REPLAY = "replay"
    OFF = "off"
    # Consecutive healthy replayed steps that prove the workload
    # steady-state again and forgive earlier failures.
    FAILURE_RESET_REPLAYS = 8

    def __init__(self, warmup_steps: int = 1, max_failures: int = 3):
        self.arena = BufferArena()
        self.state = self.WARMUP if warmup_steps > 0 else self.CAPTURE
        self.signature: Optional[Hashable] = None
        self.warmup_steps = int(warmup_steps)
        self.max_failures = int(max_failures)
        # Counters (surfaced as profiler gauges by the trainer).
        self.steps = 0
        self.recaptures = 0
        self.last_step_allocations = 0
        self._warmup_left = self.warmup_steps
        self._captured = False
        self._failures = 0
        self._replay_streak = 0
        self._replays_since_capture = 0
        self._replaying = False
        self._alloc_before = 0
        self._prev_arena: Optional[BufferArena] = None
        self._step_open = False
        # Full-step compiler state (see module docstring).  ``forward_plan``
        # replays the forward's kernel calls; ``full_schedule`` is the
        # retained backward schedule over the capture step's graph;
        # ``full_root`` / ``full_loss`` are the retained scaled/unscaled loss
        # tensors (their ``.data`` are plan buffers refreshed by every
        # forward replay); ``full_seed`` is the persistent backward seed.
        self.forward_plan: Optional[ForwardPlan] = None
        self.full_schedule = None
        self.full_root: Optional[Tensor] = None
        self.full_loss: Optional[Tensor] = None
        self.full_seed = None
        self.full_layout_state = None
        self.full_captures = 0
        self.full_replays = 0
        self.full_fallbacks = 0
        self.full_fail_reason = ""
        # Set when the current signature's forward is not recordable; only a
        # signature change lifts it.
        self._vetoed = False
        self._recorder: Optional[ForwardRecorder] = None
        self._staged: Dict[str, np.ndarray] = {}

    # -- step lifecycle ------------------------------------------------------
    def begin_step(self, signature: Hashable) -> None:
        """Enter a step; ``signature`` pins everything that shapes the graph.

        The trainer passes input/label shapes, the kernel toggles, the loss
        scale and the trainable set; a change drops the compiled plan and
        schedules exactly one re-capture.
        """
        self.steps += 1
        if self.state == self.OFF:
            return
        trim_stale = False
        if signature != self.signature:
            # Shapes/dtypes moved: every full-plan buffer binding is stale.
            self.drop_full_plan()
            self._vetoed = False
            if self.signature is not None and self.state != self.WARMUP:
                # Signature change mid-run: (below, once the previous step's
                # outstanding buffers have been recycled by next_generation)
                # drop the stale-shape buffer pools — a bucketed-length
                # loader would otherwise accumulate one full working set per
                # length seen.  Then re-capture once.  Only a change after a
                # completed capture is a *re*-capture (the gauge advertises
                # exactly-one-per-shape-change).
                if self._captured:
                    if self._replays_since_capture == 0:
                        # The previous capture was never replayed: the
                        # signature is flipping at least as fast as we can
                        # capture (shape-alternating batches).  Without this
                        # failure such a workload would pay a full
                        # working-set reallocation on every step, forever.
                        self._fail()
                    self.recaptures += 1
                if self.state != self.OFF:
                    self.state = self.CAPTURE
                trim_stale = True
            self.signature = signature
            if self.state == self.OFF:
                # Retired at the transition: the previous generation's
                # buffers are dead, so drop the whole pool right away.
                self.arena = BufferArena()
                return
        self._step_open = True
        if self.state == self.WARMUP:
            return
        self.arena.next_generation()
        if trim_stale:
            self.arena.trim()
        self._alloc_before = self.arena.misses
        self._prev_arena = _tensor_arena.set_active(self.arena)
        self._replaying = self.state == self.REPLAY

    def end_step(self) -> None:
        """Leave the step: detach the arena, roll the state machine."""
        if not self._step_open:
            return
        self._step_open = False
        if self.state == self.WARMUP:
            self._warmup_left -= 1
            if self._warmup_left <= 0:
                self.state = self.CAPTURE
            return
        _tensor_arena.set_active(self._prev_arena)
        self._prev_arena = None
        self.last_step_allocations = self.arena.misses - self._alloc_before
        if self.state == self.OFF:
            # Retired for good: swap in an empty arena so the whole pool
            # (free lists *and* this step's outstanding buffers) becomes
            # unreferenced once the step's tensors die, instead of being
            # held for the trainer's lifetime.
            self.arena = BufferArena()
            self.drop_full_plan()
        elif self.state == self.CAPTURE:
            self.state = self.REPLAY
            self._captured = True
            self._replays_since_capture = 0
        elif self._replaying:
            self._replays_since_capture += 1
            self._replay_streak += 1
            if self._replay_streak >= self.FAILURE_RESET_REPLAYS:
                self._failures = 0

    def _fail(self) -> None:
        """Count one failure toward the kill-switch (see ``max_failures``)."""
        self._failures += 1
        self._replay_streak = 0
        self._replaying = False
        if self._failures >= self.max_failures:
            self.state = self.OFF

    # -- full-step compiler --------------------------------------------------
    def stage(self, name: str, value) -> np.ndarray:
        """Copy ``value`` into the persistent staging buffer for ``name``.

        The full plan's thunks are bound to these buffers at capture; each
        replay refreshes them in place so the compiled step sees the new
        batch through the very same arrays.  A shape/dtype change replaces
        the buffer (and the step signature invalidates the plan anyway).
        """
        value = np.asarray(value)
        buf = self._staged.get(name)
        if buf is None or buf.shape != value.shape or buf.dtype != value.dtype:
            buf = np.array(value)
            self._staged[name] = buf
        else:
            np.copyto(buf, value)
        return buf

    def full_ready(self) -> bool:
        """Whether a compiled full-step plan is installed and replayable."""
        return self.forward_plan is not None and self.state == self.REPLAY

    def wants_full_capture(self) -> bool:
        """Whether this step should record a full plan (trainer consults)."""
        return (self.forward_plan is None
                and self._step_open
                and self.state in (self.CAPTURE, self.REPLAY)
                and not self._vetoed)

    def begin_full_capture(self) -> ForwardRecorder:
        """Install a :class:`ForwardRecorder` around this step's forward."""
        rec = ForwardRecorder()
        self._recorder = rec
        _tensor_plan.set_recorder(rec)
        return rec

    def abort_full_capture(self) -> None:
        """Uninstall the recorder after a failed forward (exception path)."""
        if self._recorder is not None:
            self._recorder = None
            _tensor_plan.set_recorder(None)

    def finish_full_capture(self, root: Tensor, loss: Tensor,
                            layout_state=None) -> bool:
        """Run this step's backward and compile the full plan if covered.

        ``root`` is the backward root (the scaled loss); ``loss`` is the
        unscaled loss tensor whose plan buffer replays read the step's loss
        value from.  Returns True when the full plan is installed; on a
        coverage gap the compiler is vetoed for this signature, the step
        runs the ordinary backward and False is returned.
        """
        rec = self._recorder
        self._recorder = None
        _tensor_plan.set_recorder(None)
        if not rec.ok():
            self._vetoed = True
            self.full_fail_reason = rec.fail_reason
            root.backward()
            return False
        schedule = root._schedule()
        root._execute_backward(schedule, np.ones_like(root.data), True, True)
        self.forward_plan = ForwardPlan(rec.entries)
        self.full_schedule = schedule
        self.full_root = root
        self.full_loss = loss
        self.full_seed = np.ones_like(root.data)
        self.full_layout_state = layout_state
        self.full_captures += 1
        return True

    def replay_full_forward(self) -> None:
        """Run the compiled forward plan (caller staged the inputs first)."""
        self.forward_plan.run()

    def replay_full_backward(self) -> None:
        """Execute the retained backward schedule over the refreshed buffers."""
        self.full_root._execute_backward(self.full_schedule, self.full_seed,
                                         False, True)
        self.full_replays += 1

    def full_replay_failed(self) -> None:
        """A compiled replay raised: drop the plan and count a failure."""
        self.drop_full_plan(fallback=True)
        self._fail()

    def full_loss_value(self) -> float:
        """The (unscaled) loss of the last full replay."""
        return float(self.full_loss.data)

    def drop_full_plan(self, fallback: bool = False) -> None:
        """Invalidate the compiled full-step plan (idempotent)."""
        if getattr(self, "forward_plan", None) is None:
            return
        self.forward_plan = None
        self.full_schedule = None
        self.full_root = None
        self.full_loss = None
        self.full_seed = None
        self.full_layout_state = None
        if fallback:
            self.full_fallbacks = getattr(self, "full_fallbacks", 0) + 1

    def retire(self) -> None:
        """Drop the plan and release the arena pool (terminal, idempotent).

        The serving layer keeps one capture per signature bucket in a bounded
        plan cache; evicting a bucket must reclaim its whole working set —
        the compiled plan's buffers, the retained backward schedule, and the
        arena pool they came from — not just forget the plan object.

        Recovery paths call this unconditionally from any failure point, so
        it must be safe to call twice and safe on an instance whose
        construction never completed (every attribute access is defensive).
        """
        self.drop_full_plan()
        self.signature = None
        self.state = self.OFF
        self.arena = BufferArena()

    # -- reporting -----------------------------------------------------------
    def gauges(self) -> Dict[str, float]:
        """Point-in-time metrics for :meth:`PhaseProfiler.set_gauge`."""
        return {
            "arena_allocations_step": float(self.last_step_allocations),
            "arena_bytes": float(self.arena.bytes_held),
            "arena_hit_rate": self.arena.hit_rate(),
            "arena_evictions": float(self.arena.evictions),
            "capture_recaptures": float(self.recaptures),
            "capture_full_captures": float(self.full_captures),
            "capture_full_replays": float(self.full_replays),
            "capture_full_fallbacks": float(self.full_fallbacks),
        }

    def summary(self) -> str:
        return (f"StepCapture(state={self.state}, steps={self.steps}, "
                f"recaptures={self.recaptures}, "
                f"full_captures={self.full_captures}, "
                f"full_replays={self.full_replays}, "
                f"full_fallbacks={self.full_fallbacks}, "
                f"arena={self.arena.bytes_held / 1024 ** 2:.1f} MiB, "
                f"allocs/step={self.last_step_allocations})")
