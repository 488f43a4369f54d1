"""Workload ``serve-zipf``: many tenants' fine-tuning steps through one service.

``FineTuningService`` on opt-tiny with a LoRA lane, ``seq_buckets=(16, 32,
64)``, ``max_resident_tenants=4`` and ``max_plan_cache=4``.  Requests come
from 16 tenants with Zipf(1.2) popularity; each is a batch of 2 with a ragged
length drawn from 8..64, so the service pads.  One process drives two
phases:

* for a third of the run, a closed loop that keeps ``OUTSTANDING`` requests
  in flight (a caller that waits for replies): it gives the throughput;
* for the rest, an open loop with Poisson arrivals at ``RATE`` requests/s (independent
  users), about a quarter of the closed loop's capacity on a 2-CPU host
  (150 to 240 requests/s with default BLAS threads; at 60 and 100 req/s
  queueing made the latency swing with the host's speed): it gives the
  latency, timed from each request's due time so a stall also counts
  against the requests queued behind it.

The closed loop's order of service does not depend on timing, so the
adapter of the most popular tenant after ``QUALITY_STEP`` served steps is
the same on every run of a seed; its loss on held-out batches is the
quality figure.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro import (FineTuningService, ServiceConfig, build_model, get_config,
                   get_peft_method)
from repro.peft.base import load_adapter_state

from common import (Outcome, heldout_loss, latency_percentiles,
                    setup_median, timed_build, windowed_rate)
from measure import peak_rss_mb, quantile

MODEL = "opt-tiny"
TENANTS = 16
ZIPF_A = 1.2
BATCH = 2
MIN_LEN, MAX_LEN = 8, 64
BUCKETS = (16, 32, 64)
OUTSTANDING = 8
RATE = 40.0
QUALITY_STEP = 64
QUALITY_TENANT = "tenant-0"
HELDOUT_BATCHES = 16
# Builds per untraced run; setup_s is their median (a build is short).
SETUPS = 9
WARM_TENANT = "tenant-warm"
# Requests per window of the windowed medians (two seconds of arrivals).
RATE_WINDOW = int(2 * RATE)


def _config() -> ServiceConfig:
    return ServiceConfig(model=MODEL, adapters=("lora",), seq_buckets=BUCKETS,
                         max_resident_tenants=4, max_plan_cache=4)


@dataclass
class Inputs:
    closed: List[Tuple[str, np.ndarray]]
    arrivals_s: List[float]
    open: List[Tuple[str, np.ndarray]]
    heldout: List[np.ndarray]


def _requests(rng, count: int, vocab: int) -> List[Tuple[str, np.ndarray]]:
    ranks = np.arange(1, TENANTS + 1, dtype=np.float64)
    weights = 1.0 / ranks ** ZIPF_A
    tenants = rng.choice(TENANTS, size=count, p=weights / weights.sum())
    lengths = rng.integers(MIN_LEN, MAX_LEN + 1, size=count)
    return [(f"tenant-{t}", rng.integers(0, vocab, size=(BATCH, n)))
            for t, n in zip(tenants, lengths)]


def _phases(seconds: float) -> Tuple[float, float]:
    """Seconds of the closed and the open loop."""
    return seconds / 3.0, seconds * 2.0 / 3.0


def make_inputs(seed: int, seconds: float) -> Inputs:
    vocab = get_config(MODEL).vocab_size
    rng = np.random.default_rng(seed)
    closed_s, open_s = _phases(seconds)
    # Closed-loop capacity is a few hundred requests/s here; 2000/s of
    # stream is far more than the phase can consume.
    closed = _requests(rng, int(closed_s * 2000) + QUALITY_STEP, vocab)
    arrivals = np.cumsum(rng.exponential(1.0 / RATE,
                                         size=int(open_s * RATE * 2) + 16))
    arrivals = [float(t) for t in arrivals if t < open_s]
    return Inputs(closed=closed, arrivals_s=arrivals,
                  open=_requests(rng, len(arrivals), vocab),
                  heldout=[rng.integers(0, vocab, size=(BATCH, MAX_LEN))
                           for _ in range(HELDOUT_BATCHES)])


def _build() -> FineTuningService:
    service = FineTuningService(_config())
    # Capture every bucket's plan, then replay it once.
    for _ in range(2):
        for bucket in BUCKETS:
            service.submit(WARM_TENANT, np.zeros((BATCH, bucket), np.int64))
        service.flush()
    return service


def _eval_loss(snapshot, heldout) -> float:
    model = build_model(MODEL, seed=_config().seed)
    model, _ = get_peft_method("lora")(model)
    load_adapter_state(model, snapshot.state)
    return heldout_loss(model, heldout)


def _padded(length: int) -> int:
    return next(b for b in BUCKETS if b >= length)


def run(seed: int, seconds: float, tracer=None, import_s: float = 0.0,
        setups: int = SETUPS) -> Outcome:
    inputs = make_inputs(seed, seconds)
    service, first_setup_s = timed_build(_build, import_s)
    base_digest = service.base_digest()
    gauges0 = service.gauges()
    closed_phase_s = _phases(seconds)[0]
    notes: List[str] = []
    submitted: Dict[int, Tuple[str, int]] = {}   # id -> (tenant, length)
    served: List[int] = []
    timed = []                                   # results inside the phases
    losses: List[float] = []
    failed = 0

    def submit(tenant: str, ids: np.ndarray) -> int:
        request_id = service.submit(tenant, ids)
        submitted[request_id] = (tenant, ids.shape[1])
        return request_id

    def record(result) -> None:
        served.append(result.request_id)
        losses.append(result.loss)

    snapshot = None
    closed_s: List[float] = []       # per served step, submissions included
    closed_tokens: List[float] = []
    latencies: List[float] = []
    late: List[float] = []
    waits: List[float] = []          # open loop: submit to start of step
    if tracer is not None:
        tracer.recording = True
    try:
        # Closed loop.
        cursor = 0
        in_flight = 0
        busy = 0.0
        while True:
            start = time.perf_counter()
            while in_flight < OUTSTANDING:
                submit(*inputs.closed[cursor])
                cursor += 1
                in_flight += 1
            result = service.step()
            closed_s.append(time.perf_counter() - start)
            busy += closed_s[-1]
            in_flight -= 1
            record(result)
            timed.append(result)
            closed_tokens.append(BATCH * submitted[result.request_id][1])
            if len(closed_s) == QUALITY_STEP:
                snapshot = service.fetch_adapter(QUALITY_TENANT)
            if busy >= closed_phase_s and snapshot is not None:
                break
        for result in service.flush():
            record(result)

        # Open loop.
        due: Dict[int, float] = {}
        origin = time.perf_counter()
        next_arrival = 0
        arrivals = inputs.arrivals_s
        while next_arrival < len(arrivals) or service.queue:
            now = time.perf_counter()
            while (next_arrival < len(arrivals)
                   and origin + arrivals[next_arrival] <= now):
                due_at = origin + arrivals[next_arrival]
                late.append(time.perf_counter() - due_at)
                request_id = submit(*inputs.open[next_arrival])
                due[request_id] = due_at
                next_arrival += 1
            # Poll rather than sleep while idle: on a VM, a sleeping process
            # loses its CPU and the wake-up (several ms) would be charged to
            # the service's latency.
            if service.queue:
                result = service.step()
                latencies.append(time.perf_counter() - due[result.request_id])
                record(result)
                timed.append(result)
                waits.append(result.latency_seconds - result.step_seconds)
    except Exception as exc:                  # counted, reported, run fails
        failed += 1
        notes.append(f"serving raised {exc!r}")
        snapshot = None
    finally:
        if tracer is not None:
            tracer.recording = False

    gauges = service.gauges()
    quality = (_eval_loss(snapshot, inputs.heldout) if snapshot is not None
               else float("nan"))
    tenants = sorted({tenant for tenant, _ in submitted.values()}
                     | {WARM_TENANT})
    digests = [service.tenant_digest(t) for t in tenants]
    rss = peak_rss_mb()
    requests = max(len(timed), 1)
    real = sum(submitted[r.request_id][1] for r in timed)
    padded = sum(_padded(submitted[r.request_id][1]) for r in timed)
    switches = sum(1 for a, b in zip(timed, timed[1:]) if a.bucket != b.bucket)

    end_to_end = {
        "setup_s": setup_median(first_setup_s, setups, _build,
                                lambda _: None),
        "peak_rss_mb": rss,
        # Median over windows of closed-loop steps: a stall moves one window.
        "tokens_per_s": windowed_rate(closed_tokens, closed_s, RATE_WINDOW),
        "heldout_loss": quality,
    }
    end_to_end["op_ms_p50"], p90 = latency_percentiles(
        latencies or [float("nan")], notes,
        f"open loop ({RATE:g} req/s) latency", window=RATE_WINDOW)
    per_k = 1000.0 / requests
    layers = {
        "run.op_ms_p90": p90,
        "serve.steps_per_s": windowed_rate([1.0] * len(closed_s), closed_s,
                                           RATE_WINDOW),
        "serve.p99_ms": (1000.0 * quantile(latencies, 99) if latencies
                         else 0.0),
        "serve.queue_wait_ms": 1000.0 * statistics.median(waits) if waits
                               else 0.0,
        "serve.pageins": per_k * (gauges["tenant_pageins"]
                                  - gauges0["tenant_pageins"]),
        "serve.evictions": per_k * (gauges["tenant_evictions"]
                                    - gauges0["tenant_evictions"]),
        "serve.warm_hit_rate": sum(r.replayed for r in timed) / requests,
        "serve.bucket_switch_share": switches / max(len(timed) - 1, 1),
        "serve.pad_share": 1.0 - real / padded if padded else 0.0,
        "serve.generator_late_p99_ms": (1000.0 * quantile(late, 99) if late
                                        else 0.0),
    }
    notes.append(f"closed loop: {len(closed_s)} steps in {sum(closed_s):.2f} s; "
                 f"open loop: {len(latencies)} requests of "
                 f"{len(inputs.arrivals_s)} arrivals")
    checks = {
        "every request served exactly once":
            failed == 0 and sorted(served) == sorted(submitted)
            and len(set(served)) == len(served),
        "every loss finite": all(math.isfinite(x) for x in losses),
        "base_digest() unchanged": service.base_digest() == base_digest,
        "tenant digests pairwise distinct": len(set(digests)) == len(digests),
        "held-out loss finite": math.isfinite(quality),
    }
    return Outcome(end_to_end=end_to_end, layers=layers,
                   attempted=len(submitted), failed=failed, checks=checks,
                   primary=end_to_end["tokens_per_s"], notes=notes)
