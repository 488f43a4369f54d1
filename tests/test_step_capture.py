"""Step-capture runtime tests: arena, compiled replay, allocation regression.

Three concerns, three marker tiers:

* ``-m parity`` — captured-vs-uncaptured *bitwise* parity over full training
  steps for every backend × fused-toggle combination (losses, per-step
  gradients, optimizer state, parameters), via the shared harness in
  :mod:`parity`;
* ``-m alloc`` (also ``perf_smoke``) — the allocation-regression gate: once
  a step is captured, subsequent steps must perform **zero** new arena
  allocations for the dense, oracle-sparse and predicted configurations, and
  a sequence-length change must trigger exactly one re-capture;
* unmarked unit tests for :class:`BufferArena` and the capture state
  machine (kill-switch, replay streak, trainable-set invalidation).
"""

from __future__ import annotations

import numpy as np
import pytest

import parity
from repro.models import build_model
from repro.optim import Adam
from repro.peft import apply_lora
from repro.runtime import (AttentionConfig, BufferArena, CaptureConfig,
                           FineTuner, StepCapture, TrainingConfig)
from repro.sparsity import LongExposure, LongExposureConfig
from repro.tensor import arena as tensor_arena
from repro.tensor.tensor import Tensor


# ---------------------------------------------------------------------------
# BufferArena unit tests
# ---------------------------------------------------------------------------

def test_arena_take_miss_then_generation_hit():
    arena = BufferArena()
    a = arena.take((4, 3))
    b = arena.take((4, 3))
    assert a is not b                      # same generation -> distinct buffers
    assert arena.misses == 2 and arena.hits == 0
    arena.next_generation()
    c = arena.take((4, 3))
    d = arena.take((4, 3))
    assert {id(c), id(d)} == {id(a), id(b)}   # recycled wholesale
    assert arena.misses == 2 and arena.hits == 2
    assert arena.last_generation_misses == 2


def test_arena_keys_on_shape_and_dtype():
    arena = BufferArena()
    a = arena.take((8,), np.float32)
    arena.next_generation()
    assert arena.take((8,), np.float64) is not a   # dtype mismatch
    assert arena.take((4,), np.float32) is not a   # shape mismatch
    assert arena.take((8,), np.float32) is a


def test_arena_release_recycles_mid_generation():
    arena = BufferArena()
    a = arena.take((16,))
    assert arena.owns(a)
    assert arena.release(a)
    assert not arena.owns(a)
    assert arena.take((16,)) is a          # same generation reuse
    # Foreign arrays are ignored; a double release must not duplicate the
    # pool entry (two takers sharing one buffer would corrupt data).
    assert not arena.release(np.zeros(16, np.float32))
    assert arena.release(a)
    assert not arena.release(a)            # double release is a no-op
    b = arena.take((16,))
    c = arena.take((16,))
    assert b is a and c is not a           # the pool held exactly one copy
    view = arena.take((16,))[:4]
    assert not arena.release(view)         # views are never pooled


def test_arena_zeroed_take():
    arena = BufferArena()
    a = arena.take((5,), zero=True)
    assert np.all(a == 0)
    a[:] = 7.0
    arena.next_generation()
    b = arena.take((5,), zero=True)
    assert b is a and np.all(b == 0)       # re-zeroed on reuse


def test_arena_trim_drops_free_pools_only():
    arena = BufferArena()
    held = arena.take((8, 8))
    arena.take((4, 4))
    arena.next_generation()          # both free
    live = arena.take((4, 4))        # one back in flight
    freed = arena.trim()
    assert freed == 8 * 8 * 4        # only the free (8, 8) buffer dropped
    assert arena.owns(live)          # outstanding buffer untouched
    assert arena.take((8, 8)) is not held
    assert held is not None


def test_integer_division_matches_uncaptured_under_arena():
    # np.divide promotes int operands to float64; the arena out-buffer must
    # follow suit instead of handing the ufunc an integer buffer.
    a = Tensor(np.array([4, 9], dtype=np.int64))
    b = Tensor(np.array([2, 3], dtype=np.int64))
    plain = (a / b).data
    with tensor_arena.scope(BufferArena()):
        arena_backed = (a / b).data
    assert plain.dtype == arena_backed.dtype
    assert np.array_equal(plain, arena_backed)


def test_zero_warmup_captures_on_the_first_step():
    capture = StepCapture(warmup_steps=0)
    w = Tensor(np.ones(3, np.float32), requires_grad=True)
    capture.begin_step(("sig",))
    assert tensor_arena.active() is capture.arena   # step 1 IS the capture step
    _loss_chain(w).backward()
    capture.end_step()
    w.grad = None
    assert capture.state == capture.REPLAY
    assert capture.last_step_allocations > 0
    capture.begin_step(("sig",))
    _loss_chain(w).backward()
    capture.end_step()
    assert capture.last_step_allocations == 0   # step 2 already replays
    assert capture.recaptures == 0        # no signature change ever happened
    assert tensor_arena.active() is None


def _loss_chain(w):
    x = w * 2.0
    return (x * x).sum()


def _build_faulty_full_tuner(max_failures: int):
    """Compiled dense tuner whose replays raise while ``faults[0]`` is set."""
    tuner, ids, capture = _build_full_tuner(
        "dense", capture=StepCapture(max_failures=max_failures))
    faults = [False]
    replay = capture.replay_full_forward

    def faulty_replay():
        if faults[0]:
            raise RuntimeError("injected replay fault")
        replay()

    capture.replay_full_forward = faulty_replay
    return tuner, ids, capture, faults


def test_repeated_replay_fallbacks_switch_capture_off():
    tuner, ids, capture, faults = _build_faulty_full_tuner(max_failures=2)
    twin, _, _ = _build_full_tuner("dense")
    twin.capture = None
    losses, twin_losses = [], []
    for step in range(5):
        # Every compiled replay raises: each step falls back to the
        # interpreted path (and re-compiles) until the kill-switch engages.
        faults[0] = step >= 2
        losses.append(tuner.step(ids)[0])
        twin_losses.append(twin.step(ids)[0])
    assert capture.full_fallbacks == 2
    assert capture.state == capture.OFF   # kill-switch engaged
    assert capture.arena.takes == 0       # retired pool swapped for an empty one
    assert capture.forward_plan is None
    assert losses == twin_losses          # fallbacks recompute from scratch


def test_replay_streak_forgives_isolated_fallbacks():
    tuner, ids, capture, faults = _build_faulty_full_tuner(max_failures=2)
    for _ in range(2):                    # warm-up, capture + compile
        tuner.step(ids)
    # One fallback, a healthy streak, one more fallback: isolated recovered
    # failures must NOT disable capture.
    for _ in range(2):
        faults[0] = True
        tuner.step(ids)                   # fallback; re-compiles this step
        faults[0] = False
        for _ in range(capture.FAILURE_RESET_REPLAYS):
            tuner.step(ids)               # healthy replays reset _failures
    assert capture.full_fallbacks == 2    # one per injected fault
    assert capture.state == capture.REPLAY   # kill-switch never engaged
    assert capture.full_replays == 2 * capture.FAILURE_RESET_REPLAYS


def test_arena_helpers_degrade_without_active_arena():
    assert tensor_arena.active() is None
    buf = tensor_arena.empty((3,))
    assert isinstance(buf, np.ndarray)
    tensor_arena.release(buf)              # no-op
    assert np.all(tensor_arena.zeros((3,)) == 0)


def test_recapture_trims_previous_steps_working_set():
    tuner, ids, capture = _build_tuner("dense")
    for _ in range(4):
        tuner.step(ids)
    held_before = capture.arena.bytes_held
    tuner.step(ids[:, :16])                # shape change -> trim + re-capture
    # The old-shape working set (outstanding at trim time) must have been
    # recycled *before* the trim, so it was actually dropped.
    assert capture.arena.bytes_held < held_before
    tuner.step(ids[:, :16])
    assert capture.last_step_allocations == 0


@pytest.mark.parity
@pytest.mark.parametrize("full", [False, True], ids=["arena-only", "compiled"])
def test_unfreezing_after_capture_forces_one_recapture(full):
    # A parameter frozen at capture time and unfrozen mid-training must get
    # its gradient on the very next step, in every capture mode: the
    # trainable set is part of the step signature, so the flip forces
    # exactly one re-capture instead of replaying the old graph (which
    # would leave ``.grad`` as None).  The gradient is read between backward
    # and optimizer through the grad-reducer hook.
    runs = []
    for captured in (False, True):
        model = build_model("gpt2-tiny", seed=0)
        apply_lora(model)
        bias = dict(model.named_parameters())["final_norm.bias"]
        assert not bias.requires_grad
        seen = []

        def snapshot(params, bias=bias, seen=seen):
            seen.append(None if bias.grad is None else bias.grad.copy())
            return 0.0

        capture = StepCapture() if captured else None
        tuner = FineTuner(model, TrainingConfig(capture=CaptureConfig(
                              compile_full_step=full)),
                          capture=capture, grad_reducer=snapshot)
        rng = np.random.default_rng(3)
        for step in range(6):
            if step == 4:
                bias.requires_grad = True  # staged unfreezing
            tuner.step(rng.integers(0, model.config.vocab_size, size=(2, 32)))
        runs.append((seen, capture))
    (base, _), (seen, capture) = runs
    assert all(g is None for g in base[:4] + seen[:4])
    for step in (4, 5):
        assert seen[step] is not None, f"step {step}: unfrozen grad dropped"
        assert np.array_equal(seen[step], base[step])
    assert capture.recaptures == 1
    if full:
        assert capture.full_captures == 2, capture.full_fail_reason
        assert capture.full_replays >= 3   # before and after the flip


# ---------------------------------------------------------------------------
# captured-vs-uncaptured bitwise parity (full training steps)
# ---------------------------------------------------------------------------

@pytest.mark.parity
@pytest.mark.parametrize("fused_enabled", [True, False],
                         ids=["fused", "reference"])
@pytest.mark.parametrize("backend", parity.CAPTURE_BACKENDS)
def test_captured_steps_bitwise_identical(backend, fused_enabled):
    parity.assert_capture_parity(backend, fused_enabled, steps=3)


# ---------------------------------------------------------------------------
# full-step compiler: compiled-vs-interpreted bitwise parity
# ---------------------------------------------------------------------------
#
# The full-plan axis: with ``compile_full_step=True`` the steady-state step
# replays forward + backward + optimizer tail from the compiled plan.  The
# trajectory (losses, per-step gradients, Adam moments, final parameters)
# must stay bitwise identical to the plain interpreted run.  Where the
# compiler cannot engage — reference kernels (no recorded seams) or oracle
# mode (trainable base weights in the sparse MLP) — it must stay cold and
# degrade to interpreted steps over the arena, still bitwise identical.

@pytest.mark.parity
@pytest.mark.parametrize("fused_enabled", [True, False],
                         ids=["fused", "reference"])
@pytest.mark.parametrize("backend", parity.CAPTURE_BACKENDS)
def test_full_step_bitwise_identical(backend, fused_enabled):
    parity.assert_full_step_parity(backend, fused_enabled)


@pytest.mark.parity
def test_compiled_step_skips_gradless_optimizer_params():
    # An optimizer parameter that receives no gradient (here a frozen bias
    # handed to Adam next to the LoRA factors) is skipped by Adam.step();
    # the compiled step must do exactly the same, bit for bit.
    runs = []
    for captured in (False, True):
        model = build_model("gpt2-tiny", seed=0)
        apply_lora(model)
        frozen = dict(model.named_parameters())["final_norm.bias"]
        optimizer = Adam(model.trainable_parameters() + [frozen], lr=1e-3)
        capture = StepCapture() if captured else None
        tuner = FineTuner(model, TrainingConfig(capture=CaptureConfig(
                              compile_full_step=True)),
                          optimizer=optimizer, capture=capture)
        rng = np.random.default_rng(3)
        losses = [tuner.step(rng.integers(0, model.config.vocab_size,
                                          size=(2, 32)))[0]
                  for _ in range(4)]
        state = ([p.data.copy() for p in optimizer.params]
                 + [m.copy() for m in optimizer._m]
                 + [v.copy() for v in optimizer._v])
        runs.append((losses, state, capture))
    (base_losses, base_state, _), (losses, state, capture) = runs
    assert capture.full_replays >= 1, capture.full_fail_reason
    assert losses == base_losses
    for a, b in zip(base_state, state):
        assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# allocation regression (-m alloc / perf_smoke)
# ---------------------------------------------------------------------------

def _build_tuner(backend: str, seq: int = 32):
    model_name = "gpt2-tiny" if backend == "dense" else "opt-tiny"
    model = build_model(model_name, seed=0)
    rng = np.random.default_rng(3)
    engine = None
    if backend != "dense":
        calib = rng.integers(0, model.config.vocab_size, size=(2, seq))
        engine = LongExposure(LongExposureConfig(
            block_size=16, seed=0, oracle_mode=(backend == "oracle"),
            predictor_epochs=2, calibration_lengths=(seq,)))
        engine.prepare(model, [calib])
    if backend == "predicted":
        apply_lora(model)
    if engine is not None:
        engine.install(model)
    optimizer = Adam(model.trainable_parameters(), lr=1e-3)
    capture = StepCapture()
    tuner = FineTuner(model, TrainingConfig(), optimizer=optimizer,
                      engine=engine, capture=capture)
    ids = rng.integers(0, model.config.vocab_size, size=(2, seq))
    return tuner, ids, capture


@pytest.mark.perf_smoke
@pytest.mark.alloc
@pytest.mark.parametrize("backend", ["dense", "oracle", "predicted"])
def test_zero_allocations_after_capture(backend):
    tuner, ids, capture = _build_tuner(backend)
    try:
        tuner.step(ids)                            # warm-up (uncaptured)
        tuner.step(ids)                            # capture step (allocates)
        assert capture.state == capture.REPLAY
        capture_allocs = capture.last_step_allocations
        assert capture_allocs > 0                  # the capture step populates
        for _ in range(2):                         # steps N+1, N+2: replay
            tuner.step(ids)
            assert capture.last_step_allocations == 0, \
                f"{backend}: captured steady state still allocates"
        assert capture.state == capture.REPLAY
        assert capture.recaptures == 0
    finally:
        if tuner.engine is not None:
            tuner.engine.uninstall(tuner.model)


def _build_full_tuner(backend: str, seq: int = 32,
                      predict_interval: int = 4, capture=None):
    """Like :func:`_build_tuner` but with the full-step compiler armed.

    ``predict_interval=4`` leaves reuse steps 2-4 between refreshes: capture
    plus full compile on step 2, compiled replays on steps 3-4.
    """
    model_name = "gpt2-tiny" if backend == "dense" else "opt-tiny"
    model = build_model(model_name, seed=0)
    rng = np.random.default_rng(3)
    engine = None
    if backend != "dense":
        calib = rng.integers(0, model.config.vocab_size, size=(2, seq))
        engine = LongExposure(LongExposureConfig(
            block_size=16, seed=0, oracle_mode=(backend == "oracle"),
            predictor_epochs=2, predict_interval=predict_interval,
            calibration_lengths=(seq,)))
        engine.prepare(model, [calib])
    if backend == "predicted":
        apply_lora(model)
    if engine is not None:
        engine.install(model)
    optimizer = Adam(model.trainable_parameters(), lr=1e-3)
    capture = capture or StepCapture()
    tuner = FineTuner(model,
                      TrainingConfig(capture=CaptureConfig(
                          compile_full_step=True)),
                      optimizer=optimizer, engine=engine, capture=capture)
    ids = rng.integers(0, model.config.vocab_size, size=(2, seq))
    return tuner, ids, capture


@pytest.mark.perf_smoke
@pytest.mark.alloc
@pytest.mark.parametrize("backend", ["dense", "predicted"])
def test_full_step_zero_graph_builds_and_allocations(backend):
    # The tentpole gate: once the full plan is compiled, a steady-state step
    # builds ZERO Python graph nodes (the graph was built exactly once, at
    # capture) and performs ZERO arena allocations.
    from repro.tensor.tensor import node_build_count

    tuner, ids, capture = _build_full_tuner(backend)
    try:
        tuner.step(ids)                            # warm-up (uncaptured)
        tuner.step(ids)                            # capture + full compile
        assert capture.full_captures == 1, capture.full_fail_reason
        for _ in range(2):                         # steps 3-4: compiled replay
            before = node_build_count()
            tuner.step(ids)
            assert node_build_count() == before, \
                f"{backend}: compiled step still builds graph nodes"
            assert capture.last_step_allocations == 0, \
                f"{backend}: compiled step still allocates"
        assert capture.full_replays == 2
        assert capture.full_fallbacks == 0
    finally:
        if tuner.engine is not None:
            tuner.engine.uninstall(tuner.model)


@pytest.mark.perf_smoke
@pytest.mark.alloc
def test_full_step_refresh_steps_run_interpreted():
    # Mask-refresh steps cannot replay the compiled forward (probe logic is
    # Python control flow); they must run interpreted over the arena, then
    # resume compiled replays while the layouts hold still (the batch is
    # fixed, so they do).
    from repro.tensor.tensor import node_build_count

    tuner, ids, capture = _build_full_tuner("predicted", predict_interval=4)
    try:
        for _ in range(4):                         # warm-up, capture, 2 replays
            tuner.step(ids)
        assert capture.full_replays == 2
        before = node_build_count()
        tuner.step(ids)                            # step 5: scheduled refresh
        assert capture.full_replays == 2           # compiled path skipped
        assert node_build_count() > before         # ran interpreted
        assert capture.state == capture.REPLAY     # ... with the arena kept
        tuner.step(ids)                            # step 6: layouts unchanged
        assert capture.full_replays == 3           # compiled replay resumed
        assert capture.full_fallbacks == 0
    finally:
        tuner.engine.uninstall(tuner.model)


@pytest.mark.perf_smoke
@pytest.mark.alloc
def test_shape_change_triggers_exactly_one_recapture():
    tuner, ids, capture = _build_tuner("dense")
    for _ in range(4):
        tuner.step(ids)
    assert capture.state == capture.REPLAY and capture.recaptures == 0
    short = ids[:, :16]
    tuner.step(short)                              # re-capture at new shape
    assert capture.recaptures == 1
    tuner.step(short)                              # replay at new shape
    tuner.step(short)
    assert capture.recaptures == 1                 # exactly one
    assert capture.state == capture.REPLAY
    assert capture.last_step_allocations == 0


@pytest.mark.perf_smoke
@pytest.mark.alloc
def test_alternating_shapes_trip_the_kill_switch():
    # Batches whose shape flips every step re-capture without ever replaying
    # (sterile captures); capture must switch itself off instead of paying
    # capture bookkeeping + full arena reallocation forever.
    tuner, ids, capture = _build_tuner("dense")
    short = ids[:, :16]
    for step in range(12):
        tuner.step(ids if step % 2 == 0 else short)
        if capture.state == capture.OFF:
            break
    assert capture.state == capture.OFF
    assert capture.recaptures == capture.max_failures   # all sterile
    assert capture.arena.takes == 0           # retired pool dropped
    # Training keeps working uncaptured.
    loss, _ = tuner.step(ids)
    assert np.isfinite(loss)


@pytest.mark.perf_smoke
@pytest.mark.alloc
def test_fused_toggle_change_invalidates_plan():
    from repro.tensor import fused

    tuner, ids, capture = _build_tuner("dense")
    for _ in range(3):
        tuner.step(ids)
    assert capture.state == capture.REPLAY
    fused.set_fused_kernels(False)
    try:
        tuner.step(ids)                            # signature change -> recapture
        assert capture.recaptures == 1
        tuner.step(ids)
        assert capture.last_step_allocations == 0
    finally:
        fused.set_fused_kernels(True)


@pytest.mark.perf_smoke
@pytest.mark.alloc
def test_capture_gauges_reach_profiler():
    tuner, ids, capture = _build_tuner("dense")
    for _ in range(3):
        tuner.step(ids)
    gauges = tuner.profiler.summary_dict()["gauges"]
    for key in ("arena_allocations_step", "arena_bytes", "arena_hit_rate",
                "arena_evictions", "capture_recaptures",
                "capture_full_captures", "capture_full_replays",
                "capture_full_fallbacks"):
        assert key in gauges
    assert gauges["arena_allocations_step"] == 0.0
    assert gauges["arena_bytes"] > 0
    assert capture.summary().startswith("StepCapture(")


@pytest.mark.perf_smoke
@pytest.mark.alloc
def test_capture_mode_leaves_globals_clean():
    from repro.tensor import plan as tensor_plan

    tuner, ids, _ = _build_full_tuner("dense")
    for _ in range(3):
        tuner.step(ids)
    assert tensor_arena.active() is None
    assert tensor_plan.recorder() is None


# ---------------------------------------------------------------------------
# streaming tiled attention: capture parity, heap steadiness, the memory wall
# ---------------------------------------------------------------------------

def _build_streaming_tuner(streaming: bool, seq: int = 48, tile: int = 16,
                           full: bool = False, batch: int = 2):
    """Dense gpt2-tiny tuner with the streaming toggle wired via the config."""
    model = build_model("gpt2-tiny", seed=0)
    rng = np.random.default_rng(3)
    optimizer = Adam(model.trainable_parameters(), lr=1e-3)
    capture = StepCapture()
    tuner = FineTuner(model,
                      TrainingConfig(
                          attention=AttentionConfig(streaming=streaming,
                                                    streaming_tile=tile),
                          capture=CaptureConfig(compile_full_step=full)),
                      optimizer=optimizer, capture=capture)
    ids = rng.integers(0, model.config.vocab_size, size=(batch, seq))
    return tuner, ids, capture


@pytest.mark.parity
@pytest.mark.parametrize("full", [False, True], ids=["captured", "compiled"])
def test_streaming_capture_replay_bitwise_identical(full):
    # The streaming kernels' recorded replay thunks must reproduce the
    # interpreted streaming step bit for bit;
    # seq=48 with tile=16 exercises multiple tiles per row block.
    from repro.tensor import fused

    try:
        results = []
        for use_capture in (False, True):
            tuner, ids, capture = _build_streaming_tuner(
                True, full=(full and use_capture))
            if not use_capture:
                tuner.capture = None
            losses = [tuner.step(ids)[0] for _ in range(4)]
            params = [p.data.copy() for p in tuner.optimizer.params]
            results.append((losses, params, capture))
        (base_losses, base_params, _), (cap_losses, cap_params, cap) = results
        assert base_losses == cap_losses
        for a, b in zip(base_params, cap_params):
            assert np.array_equal(a, b)
        assert cap.state == cap.REPLAY
        if full:
            assert cap.full_captures >= 1 and cap.full_replays >= 1, \
                cap.full_fail_reason
    finally:
        fused.set_streaming_attention(False)


@pytest.mark.perf_smoke
@pytest.mark.alloc
@pytest.mark.parametrize("full", [False, True], ids=["captured", "compiled"])
def test_streaming_zero_allocations_after_capture(full):
    from repro.tensor import fused

    tuner, ids, capture = _build_streaming_tuner(True, full=full)
    try:
        tuner.step(ids)                            # warm-up
        tuner.step(ids)                            # capture (+ full compile)
        assert capture.state == capture.REPLAY
        if full:
            assert capture.full_captures == 1, capture.full_fail_reason
        for _ in range(2):
            tuner.step(ids)
            assert capture.last_step_allocations == 0, \
                "streaming captured steady state still allocates"
        if full:
            assert capture.full_replays == 2
    finally:
        fused.set_streaming_attention(False)


@pytest.mark.perf_smoke
@pytest.mark.alloc
@pytest.mark.parametrize("streaming", [False, True],
                         ids=["materializing", "streaming"])
def test_replayed_steps_heap_steady(streaming):
    # Deeper gate than the arena counters: tracemalloc sees *every* heap
    # allocation, so per-step ufunc temporaries the arena never notices
    # (``denom = x.sum(...)``, an ``~attn_mask`` inside a masked fill) show
    # up here as peak-traced-memory deltas at array scale — a
    # (1, 4, 256, 256) float32 temp is 1 MiB against a 128 KiB budget.
    # The irreducible floor under the budget is NumPy's constant-size
    # broadcast-iterator buffers (~32 KiB per buffered in-place broadcast
    # op, sequence-independent), ~65 KiB peak at this config.  Steady-state
    # heap *growth* is gated separately after a gc.collect() — graph-node
    # reference cycles are reclaimed by the cycle collector, not refcounts,
    # so without the collect the reading would race GC scheduling; the
    # remaining ~2 KiB/step drift is tracemalloc's own trace table plus
    # arena bookkeeping reaching steady state, far below the 64 KiB/step
    # signature of leaking even a single (256, 64) float32 tile.
    import gc
    import tracemalloc

    from repro.tensor import fused

    tuner, ids, capture = _build_streaming_tuner(streaming, seq=256, tile=64,
                                                 batch=1)
    try:
        for _ in range(8):                         # warm-up, capture, replays
            tuner.step(ids)
        assert capture.state == capture.REPLAY
        gc.collect()
        tracemalloc.start()
        for _ in range(2):                         # stabilise tracer overhead
            tuner.step(ids)
        gc.collect()
        current0, _ = tracemalloc.get_traced_memory()
        for _ in range(3):
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            tuner.step(ids)
            _, peak = tracemalloc.get_traced_memory()
            assert capture.last_step_allocations == 0
            assert peak - before < 128 * 1024, \
                f"replayed step allocated {peak - before} transient heap bytes"
        gc.collect()
        current, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert current - current0 < 24 * 1024, \
            f"3 replayed steps grew the heap by {current - current0} bytes"
    finally:
        if tracemalloc.is_tracing():
            tracemalloc.stop()
        fused.set_streaming_attention(False)


@pytest.mark.perf_smoke
@pytest.mark.alloc
def test_seq4096_streaming_breaks_memory_wall():
    # The tentpole gate: a seq-4096 batch-1 LoRA step through the streaming
    # kernel must peak at < 1/4 of the materializing path's traced memory
    # (the materializing path holds (1, heads, 4096, 4096) score/probability
    # buffers; streaming keeps O(seq * tile) scratch plus the logsumexp).
    import tracemalloc

    from repro.models import ModelConfig
    from repro.tensor import fused

    cfg = ModelConfig(name="longctx-nano", family="gpt2", vocab_size=128,
                      max_seq_len=4096, dim=32, num_layers=1, num_heads=2,
                      activation="gelu", sparsify_init=False)
    ids = np.random.default_rng(5).integers(0, cfg.vocab_size, size=(1, 4096))
    peaks = {}
    try:
        for streaming in (False, True):
            model = build_model(cfg, seed=0)
            apply_lora(model)
            tuner = FineTuner(model,
                              TrainingConfig(attention=AttentionConfig(
                                  streaming=streaming, streaming_tile=128)))
            tracemalloc.start()
            loss, _ = tuner.step(ids)
            _, peaks[streaming] = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            assert np.isfinite(loss)
            fused.set_streaming_attention(False)
        assert peaks[True] * 4 < peaks[False], \
            f"streaming peak {peaks[True]} not <1/4 of " \
            f"materializing {peaks[False]}"
    finally:
        if tracemalloc.is_tracing():
            tracemalloc.stop()
        fused.set_streaming_attention(False)


# ---------------------------------------------------------------------------
# row-panel block-sparse attention under capture
# ---------------------------------------------------------------------------
#
# The materializing block-sparse kernel's buffers are shaped by the layout's
# panel groups (segments grouped by active-block count).  The predictors are
# pinned to a refresh schedule so the layouts, and with them the set of
# groups, provably change at a refresh.

_PANEL_SEQ = 128              # 8 blocks of 16: segments of 1..8 blocks
_PANEL_INTERVAL = 3
_PANEL_SCHEDULE = (["local2"] * 4,
                   ["dense", "local4+global1", "strided2+local2", "diag"])


def _panel_tuner(full: bool, schedule=_PANEL_SCHEDULE):
    """Predicted-mode opt-tiny tuner whose refresh ``i`` uses ``schedule[i % n]``."""
    from repro.sparsity.ops.geometry_cache import compute_block_geometry

    model = build_model("opt-tiny", seed=0)
    rng = np.random.default_rng(5)
    engine = LongExposure(LongExposureConfig(
        block_size=16, seed=0, predictor_epochs=2,
        predict_interval=_PANEL_INTERVAL, calibration_lengths=(_PANEL_SEQ,)))
    engine.prepare(model, [rng.integers(0, model.config.vocab_size,
                                        size=(2, _PANEL_SEQ))])
    for predictor in engine.attention_predictors:
        predictor.predict_patterns = lambda x: list(schedule[
            engine.step_index // _PANEL_INTERVAL % len(schedule)])
    apply_lora(model)
    engine.install(model)
    tuner = FineTuner(model,
                      TrainingConfig(capture=CaptureConfig(
                          compile_full_step=full)),
                      optimizer=Adam(model.trainable_parameters(), lr=1e-3),
                      engine=engine, capture=StepCapture())

    def group_lengths():
        return tuple(
            tuple(g.length for g in compute_block_geometry(
                backend.last_layout, _PANEL_SEQ).groups)
            for backend in engine._sparse_backends
            if hasattr(backend, "last_layout"))

    return tuner, rng, group_lengths


@pytest.mark.parity
def test_compiled_replay_bitwise_across_panel_group_refresh():
    runs = []
    for full in (False, True):
        tuner, rng, group_lengths = _panel_tuner(full)
        if not full:
            tuner.capture = None
        losses, groups = [], []
        try:
            for _ in range(3 * _PANEL_INTERVAL):
                ids = rng.integers(0, tuner.model.config.vocab_size,
                                   size=(2, _PANEL_SEQ))
                losses.append(tuner.step(ids)[0])
                groups.append(group_lengths())
        finally:
            tuner.engine.uninstall(tuner.model)
        params = [p.data.copy() for p in tuner.optimizer.params]
        runs.append((losses, params, groups, tuner.capture))
    (base_losses, base_params, _), (losses, params, groups, capture) = (
        runs[0][:3], runs[1])
    # The refreshes moved the layouts between different sets of groups ...
    assert groups[0] != groups[_PANEL_INTERVAL]
    assert groups[0] == groups[2 * _PANEL_INTERVAL]
    # ... and the compiled run re-compiled and replayed on both sides of
    # them (the first step after a layout change falls back to the
    # interpreted step and re-captures).
    assert capture.full_captures >= 2, capture.full_fail_reason
    assert capture.full_replays >= 3, capture.full_fail_reason
    assert losses == base_losses
    for a, b in zip(base_params, params):
        assert np.array_equal(a, b)


@pytest.mark.perf_smoke
@pytest.mark.alloc
def test_panel_layout_steady_replay_allocates_nothing():
    tuner, rng, group_lengths = _panel_tuner(full=True,
                                             schedule=_PANEL_SCHEDULE[1:])
    ids = rng.integers(0, tuner.model.config.vocab_size, size=(2, _PANEL_SEQ))
    capture = tuner.capture
    try:
        tuner.step(ids)                            # warm-up (refresh)
        tuner.step(ids)                            # capture + full compile
        assert capture.full_captures == 1, capture.full_fail_reason
        assert max(len(lengths) for lengths in group_lengths()) >= 4
        tuner.step(ids)                            # compiled replay
        assert capture.full_replays == 1
        assert capture.last_step_allocations == 0
    finally:
        tuner.engine.uninstall(tuner.model)
