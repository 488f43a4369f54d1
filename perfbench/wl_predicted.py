"""Workload ``predicted-s512``: LongExposure in its production regime.

opt-small with LoRA; the engine runs in predicted mode with trained and
calibrated predictors (``block_size=32``, ``predict_interval=4``) and the
step is compiled (``compile_full_step=True``, one executor thread).  Each
timed step takes a fresh 4 x 512 batch from ``E2EDatasetGenerator``,
generated before timing starts.  A refresh window of four steps is one
interpreted refresh, one re-capture and two compiled replays, so the loop
always stops on a window boundary.

The held-out loss is that of the adapter as it stood after step
``QUALITY_STEP``, evaluated with the engine uninstalled on fixed held-out
batches: it is deterministic for a seed, so a change that buys speed with
accuracy shows as a worse loss.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro import (CaptureConfig, FineTuner, LongExposure, LongExposureConfig,
                   TrainingConfig, apply_lora, build_model, get_config)
from repro.data.e2e import E2EDatasetGenerator
from repro.peft.base import adapter_state_dict, load_adapter_state
from repro.runtime.arena import StepCapture

from common import (Outcome, heldout_loss, latency_percentiles,
                    setup_median, timed_build, windowed_rate)
from measure import peak_rss_mb

MODEL = "opt-small"
BATCH = 4
SEQ = 512
BLOCK = 32
INTERVAL = 4
WARM_STEPS = INTERVAL      # warm-up, capture, compile and replays: one window
QUALITY_STEP = 2 * INTERVAL
# The step-capture arena grows with every refresh window on fresh batches,
# so peak RSS is read after a fixed number of steps, not at the end of a
# run whose length depends on the machine's speed.
RSS_STEP = 8 * INTERVAL
HELDOUT_BATCHES = 2
# Builds per untraced run; setup_s is their median.
SETUPS = 3


@dataclass
class Inputs:
    calibration: List[np.ndarray]
    warm: List[np.ndarray]
    heldout: List[np.ndarray]
    train: List[np.ndarray]


def make_inputs(seed: int, seconds: float) -> Inputs:
    vocab = get_config(MODEL).vocab_size
    gen = E2EDatasetGenerator(vocab_size=vocab, seed=seed)
    # A step takes well over 100 ms here; size the pool so no batch repeats.
    steps = int(math.ceil(seconds * 10)) + 2 * INTERVAL
    return Inputs(
        calibration=gen.token_batches(1, 2, SEQ, vocab_size=vocab),
        warm=gen.token_batches(WARM_STEPS, BATCH, SEQ, vocab_size=vocab),
        heldout=gen.token_batches(HELDOUT_BATCHES, BATCH, SEQ, vocab_size=vocab),
        train=gen.token_batches(steps, BATCH, SEQ, vocab_size=vocab))


def _build(inputs: Inputs) -> FineTuner:
    model = build_model(MODEL, seed=0)
    engine = LongExposure(LongExposureConfig(
        block_size=BLOCK, predict_interval=INTERVAL, seed=0))
    engine.prepare(model, inputs.calibration)
    apply_lora(model)
    engine.install(model)
    tuner = FineTuner(model, TrainingConfig(capture=CaptureConfig(
        compile_full_step=True, executor_threads=1)),
        engine=engine, capture=StepCapture())
    for batch in inputs.warm:
        tuner.step(batch)
    return tuner


def _teardown(tuner: FineTuner) -> None:
    tuner.engine.uninstall(tuner.model)


def run(seed: int, seconds: float, tracer=None, import_s: float = 0.0,
        setups: int = SETUPS) -> Outcome:
    inputs = make_inputs(seed, seconds)
    tuner, first_setup_s = timed_build(lambda: _build(inputs), import_s)
    engine = tuner.engine
    engine.stats.reset()
    geometry = engine.geometry_cache
    hits0, misses0 = geometry.hits, geometry.misses

    notes: List[str] = []
    losses: List[float] = []
    step_s: List[float] = []
    failed = 0
    snapshot: Optional[dict] = None
    rss = float("nan")
    elapsed = 0.0
    if tracer is not None:
        tracer.recording = True
    try:
        while True:
            index = len(step_s)
            batch = inputs.train[index % len(inputs.train)]
            if tracer is not None:
                tracer.op = index
            start = time.perf_counter()
            try:
                loss, _ = tuner.step(batch)
            except Exception as exc:          # counted, reported, run fails
                loss = float("nan")
                notes.append(f"step {index} raised {exc!r}")
            took = time.perf_counter() - start
            elapsed += took
            step_s.append(took)
            losses.append(loss)
            if not math.isfinite(loss):
                failed += 1
                break
            if len(step_s) == QUALITY_STEP:
                snapshot = adapter_state_dict(tuner.model)
            if len(step_s) == RSS_STEP:
                rss = peak_rss_mb()
            if (elapsed >= seconds and len(step_s) % INTERVAL == 0
                    and len(step_s) >= RSS_STEP):
                break
    finally:
        if tracer is not None:
            tracer.recording = False

    stats = engine.stats
    counts = stats.layout_reuse_counts()
    refreshes = counts["attention_refreshes"] + counts["mlp_refreshes"]
    reuses = counts["attention_reuses"] + counts["mlp_reuses"]
    attn_density = (1.0 - stats.mean_attention_sparsity()
                    if stats.attention_sparsity_samples else 1.0)
    mlp_density = (1.0 - stats.mean_mlp_sparsity()
                   if stats.mlp_sparsity_samples else 1.0)
    lookups = (geometry.hits - hits0) + (geometry.misses - misses0)
    steps = len(step_s)

    quality = float("nan")
    _teardown(tuner)
    if snapshot is not None:
        load_adapter_state(tuner.model, snapshot)
        quality = heldout_loss(tuner.model, inputs.heldout)
    del tuner, engine
    end_to_end = {
        "setup_s": setup_median(first_setup_s, setups,
                                lambda: _build(inputs), _teardown),
        "peak_rss_mb": rss,
        # Median over refresh windows: each holds one of every kind of step.
        "tokens_per_s": windowed_rate([BATCH * SEQ] * steps, step_s, INTERVAL),
        "heldout_loss": quality,
    }
    end_to_end["op_ms_p50"], p90 = latency_percentiles(
        step_s, notes, "step", window=4 * INTERVAL)
    layers = {
        "run.op_ms_p90": p90,
        "sparsity.refreshes": refreshes / steps,
        "sparsity.reuse_rate": reuses / max(reuses + refreshes, 1),
        "sparsity.attn_density": attn_density,
        "sparsity.mlp_density": mlp_density,
        "sparsity.mask_drift": stats.mean_attention_drift(),
        "sparsity.geometry_hit_rate": (geometry.hits - hits0) / max(lookups, 1),
    }
    checks = {
        "every loss finite": failed == 0
                             and all(math.isfinite(x) for x in losses),
        "refresh steps ran sparse (attn density < 1)":
            stats.attention_sparsity_samples > 0 and attn_density < 1.0,
        "held-out loss finite": math.isfinite(quality),
    }
    return Outcome(end_to_end=end_to_end, layers=layers, attempted=steps,
                   failed=failed, checks=checks,
                   primary=end_to_end["tokens_per_s"], notes=notes)
