"""Workload ``dense-dp``: dense LoRA training, one worker against two.

gpt2-small-repro (GeLU, so no neuron sparsity) with LoRA and no engine: it
bypasses ``repro.sparsity`` entirely, and every kernel is a dense fused one.
The compiled step runs a global batch of 8 x 128 through
``DataParallelTrainer`` at ``workers=1``, then the same batches at
``workers=2``, each for half the run.  It is the only workload that uses
``runtime.comms`` and ``runtime.distributed``; world 1 is the single-worker
baseline.

BLAS threads are left as the environment sets them (recorded in the
result's metadata).  Two ranks with default OpenBLAS threads oversubscribe
the two CPUs, and their throughput swings by a factor of two within a run
(1700 to 3600 tokens/s measured on a 2-CPU host), against about 5300 at
world 1.  The end-to-end figures are therefore world 1's; world 2 and the
scaling efficiency are per-layer ``dp.*`` metrics.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro import (CaptureConfig, FineTuner, TrainingConfig, apply_lora,
                   build_model, get_config)
from repro.data.e2e import E2EDatasetGenerator
from repro.runtime import DataParallelTrainer

from common import (Outcome, heldout_loss, latency_percentiles,
                    setup_median, timed_build, windowed_rate)
from measure import peak_rss_mb

MODEL = "gpt2-small-repro"
BATCH = 8
SEQ = 128
WORLDS = (1, 2)
WARM_STEPS = 2             # warm-up, then capture + compile
CHUNK = 4                  # steps per timed chunk (the median's unit)
QUALITY_STEP = 2 * CHUNK
HELDOUT_BATCHES = 2
# Builds per untraced run; setup_s is their median (spawning varies more).
SETUPS = 5
STEP_TIMEOUT_S = 60.0


def tuner_factory() -> FineTuner:
    """Built inside every worker (module level, so it pickles)."""
    model = build_model(MODEL, seed=0)
    apply_lora(model)
    return FineTuner(model, TrainingConfig(capture=CaptureConfig(
        enabled=True, compile_full_step=True, executor_threads=1)))


@dataclass
class Inputs:
    warm: List[np.ndarray]
    heldout: List[np.ndarray]
    train: List[np.ndarray]


def make_inputs(seed: int, seconds: float) -> Inputs:
    vocab = get_config(MODEL).vocab_size
    gen = E2EDatasetGenerator(vocab_size=vocab, seed=seed)
    chunks = int(math.ceil(seconds * 20 / CHUNK)) + 2
    return Inputs(
        warm=gen.token_batches(WARM_STEPS, BATCH, SEQ, vocab_size=vocab),
        heldout=gen.token_batches(HELDOUT_BATCHES, BATCH, SEQ, vocab_size=vocab),
        train=gen.token_batches(chunks * CHUNK, BATCH, SEQ, vocab_size=vocab))


def _close(built) -> None:
    for trainer in built[0].values():
        trainer.close()


def _build(inputs: Inputs):
    """Both trainers, spawned and warmed, with each rank 0's count of
    compiled replays after warm-up."""
    trainers: Dict[int, DataParallelTrainer] = {}
    replays: Dict[int, float] = {}
    try:
        for world in WORLDS:
            trainers[world] = DataParallelTrainer(
                tuner_factory, workers=world, step_timeout_s=STEP_TIMEOUT_S)
            report = trainers[world].train(inputs.warm, fetch_params=False)
            replays[world] = report.worker_stats[0]["full_replays"]
    except BaseException:
        _close((trainers, replays))
        raise
    return trainers, replays


@dataclass
class _World:
    steps: int = 0
    chunk_s: List[float] = field(default_factory=list)
    walls: List[float] = field(default_factory=list)
    forward: List[float] = field(default_factory=list)
    backward: List[float] = field(default_factory=list)
    optimizer: List[float] = field(default_factory=list)
    comm: List[float] = field(default_factory=list)
    dispatch: List[float] = field(default_factory=list)
    losses: List[float] = field(default_factory=list)
    replays: float = 0.0
    checksum_failures: float = 0.0
    restarts: int = 0


def _eval_loss(params: List[np.ndarray], heldout) -> float:
    model = build_model(MODEL, seed=0)
    apply_lora(model)
    trainable = model.trainable_parameters()
    if len(trainable) != len(params):
        raise ValueError("fetched parameter list does not match the model")
    for param, value in zip(trainable, params):
        np.copyto(param.data, value)
    return heldout_loss(model, heldout)


def run(seed: int, seconds: float, tracer=None, import_s: float = 0.0,
        setups: int = SETUPS) -> Outcome:
    inputs = make_inputs(seed, seconds)
    built, first_setup_s = timed_build(lambda: _build(inputs), import_s)
    trainers, replays0 = built
    worlds = {w: _World() for w in WORLDS}
    notes: List[str] = []
    failed = 0
    snapshot = None
    digests: Dict[int, str] = {}
    try:
        if tracer is not None:
            tracer.recording = True
        for world, trainer in trainers.items():
            state = worlds[world]
            chunk = 0
            while True:
                batches = [inputs.train[(chunk * CHUNK + i) % len(inputs.train)]
                           for i in range(CHUNK)]
                if tracer is not None:
                    tracer.op = chunk
                start = time.perf_counter()
                try:
                    report = trainer.train(batches, fetch_params=False)
                except Exception as exc:      # counted, reported, run fails
                    failed += CHUNK
                    notes.append(f"world {world} chunk {chunk} raised {exc!r}")
                    raise
                state.chunk_s.append(time.perf_counter() - start)
                state.steps += report.steps
                state.walls += report.step_wall_s
                state.losses += report.losses
                for timing in report.step_timings:
                    state.forward.append(timing.forward)
                    state.backward.append(timing.backward)
                    state.optimizer.append(timing.optimizer)
                    state.comm.append(timing.comm)
                # The parent's wall minus the busiest rank's accounted phases,
                # from the per-rank stats of the chunk's last step.  (The
                # max-over-ranks phases overlap: comm includes the barrier
                # wait for the slower rank's compute.)
                state.dispatch.append(report.step_wall_s[-1] - max(
                    r["forward_s"] + r["backward_s"] + r["optimizer_s"]
                    + r["comm_s"] for r in report.worker_stats))
                state.replays = (report.worker_stats[0]["full_replays"]
                                 - replays0[world])
                state.checksum_failures = report.comm_checksum_failures
                state.restarts = report.worker_restarts
                chunk += 1
                if world == 2 and snapshot is None and state.steps >= QUALITY_STEP:
                    snapshot, _ = trainer.fetch_params()
                if (sum(state.chunk_s) >= seconds / len(WORLDS)
                        and state.steps >= QUALITY_STEP):
                    break
        if tracer is not None:
            tracer.recording = False
        for world, trainer in trainers.items():
            # Raises DistributedError if the ranks' parameter digests differ.
            _, digests[world] = trainer.fetch_params()
    except Exception as exc:
        notes.append(f"run aborted: {exc!r}")
    finally:
        if tracer is not None:
            tracer.recording = False
        _close(built)

    quality = (_eval_loss(snapshot, inputs.heldout) if snapshot is not None
               else float("nan"))
    rss = peak_rss_mb()             # the workers have been joined by now
    # Median over chunks: a stall slows one chunk, not the figure.
    tokens = {w: windowed_rate([CHUNK * BATCH * SEQ] * len(s.chunk_s),
                               s.chunk_s, 1) if s.chunk_s else 0.0
              for w, s in worlds.items()}
    one, two = worlds[1], worlds[2]
    end_to_end = {
        "setup_s": setup_median(first_setup_s, setups,
                                lambda: _build(inputs), _close),
        "peak_rss_mb": rss,
        "tokens_per_s": tokens[1],
        "heldout_loss": quality,
    }
    end_to_end["op_ms_p50"], p90 = latency_percentiles(
        one.walls or [float("nan")], notes, "world-1 step", window=4 * CHUNK)
    layers: Dict[str, float] = {"run.op_ms_p90": p90}
    for world, state in worlds.items():
        steps = max(state.steps, 1)
        wall = sum(state.walls)
        compute = sum(state.forward) + sum(state.backward)
        prefix = f"dp.w{world}."
        layers[prefix + "tokens_per_s"] = tokens[world]
        layers[prefix + "step_wall_ms"] = 1000.0 * wall / steps
        layers[prefix + "compute_ms"] = 1000.0 * compute / steps
        layers[prefix + "comm_ms"] = 1000.0 * sum(state.comm) / steps
        layers[prefix + "dispatch_ms"] = (
            1000.0 * statistics.median(state.dispatch) if state.dispatch
            else 0.0)
        layers[prefix + "comm_share"] = sum(state.comm) / wall if wall else 0.0
    layers["dp.scaling_efficiency"] = (tokens[2] / (len(WORLDS) * tokens[1])
                                       if tokens[1] else 0.0)
    layers["dp.restarts"] = float(sum(s.restarts for s in worlds.values()))
    layers["dp.checksum_failures"] = float(
        sum(s.checksum_failures for s in worlds.values()))
    # The single worker is the trainer baseline: its phase times and capture
    # counters come back through DistributedReport.
    steps1 = max(one.steps, 1)
    layers["trainer.forward_ms"] = 1000.0 * sum(one.forward) / steps1
    layers["trainer.backward_ms"] = 1000.0 * sum(one.backward) / steps1
    layers["trainer.optimizer_ms"] = 1000.0 * sum(one.optimizer) / steps1
    layers["capture.replay_share"] = one.replays / steps1

    attempted = sum(s.steps for s in worlds.values()) + failed
    all_losses = one.losses + two.losses
    checks = {
        "every step completed at both world sizes": failed == 0
            and min(one.steps, two.steps) >= QUALITY_STEP,
        "every loss finite": all(math.isfinite(x) for x in all_losses),
        "zero restarts": all(s.restarts == 0 for s in worlds.values()),
        "ranks agree on the parameter digest": all(
            digests.get(w) for w in WORLDS),
        "held-out loss finite": math.isfinite(quality),
    }
    return Outcome(end_to_end=end_to_end, layers=layers, attempted=attempted,
                   failed=failed, checks=checks, primary=tokens[1],
                   notes=notes)
