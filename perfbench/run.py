"""Repository benchmark: one workload, one seed, one line of JSON.

Usage, from the repository root::

    python3 perfbench/run.py --workload predicted-s512 --seed 1 --seconds 20 --trace 0

Workloads (``BENCHMARK.json`` says why each exists):

* ``predicted-s512`` -- predicted-sparse LoRA training, compiled steps;
* ``dense-dp``       -- dense LoRA training at one and two data-parallel ranks;
* ``serve-zipf``     -- Zipf-popular tenants through ``FineTuningService``.

``--trace 0`` measures the end-to-end metrics with nothing patched.
``--trace 1`` measures the workload twice, each for half of ``--seconds``:
once untraced, then with span wrappers installed (``tracing.py``); it reports
the per-layer metrics, ``trace.overhead_pct`` (how much slower the traced
half ran) and writes a Chrome trace under ``perfbench/out/``.

The run prints every metric with its unit, the output checks, the per-layer
span table when traced, and as its last line a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed check
makes ``correct`` false and the exit code 1.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse
import importlib
import json
import math
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from measure import (chrome_trace, format_layer_table, format_metrics,  # noqa: E402
                     layer_table, load_spec, metadata, stop_children)

WORKLOADS = {
    "predicted-s512": "wl_predicted",
    "dense-dp": "wl_dense_dp",
    "serve-zipf": "wl_serve",
}
# Per-layer metrics read from spans: mean self milliseconds per call.
SPAN_METRICS = {
    "capture.replay_forward_ms": ("capture.replay_forward",),
    "capture.replay_backward_ms": ("capture.replay_backward",),
    "sparsity.attn_backend_ms": ("sparsity.attn_backend",),
    "sparsity.attn_kernel_ms": ("sparsity.attn_kernel",),
    "sparsity.mlp_backend_ms": ("sparsity.mlp_backend",),
    "sparsity.mlp_kernel_ms": ("sparsity.mlp_kernel",),
    "sparsity.predict_ms": ("sparsity.attn_predict", "sparsity.mlp_predict"),
    "sparsity.combine_ms": ("sparsity.combine",),
    "serve.submit_ms": ("serve.submit",),
    "serve.select_ms": ("serve.select",),
    "serve.attach_ms": ("serve.attach",),
    "serve.step_ms": ("serve.step",),
}


def span_layers(rows: List[Dict], ops: int) -> Dict[str, float]:
    by_name = {row["name"]: row for row in rows}
    layers = {}
    for metric, names in SPAN_METRICS.items():
        calls = sum(by_name[n]["calls"] for n in names if n in by_name)
        self_s = sum(by_name[n]["self_s"] for n in names if n in by_name)
        layers[metric] = 1000.0 * self_s / calls if calls else 0.0
    retires = by_name.get("capture.retire", {}).get("calls", 0)
    layers["serve.plan_retires"] = 1000.0 * retires / max(ops, 1)
    return layers


def step_layers(steps: List[Dict[str, float]]) -> Dict[str, float]:
    """trainer.* and capture.* from the FineTuner.step records."""
    if not steps:
        return {}
    n = len(steps)

    def mean_ms(key, subset=steps):
        return 1000.0 * sum(s[key] for s in subset) / len(subset) if subset else 0.0

    captured = [s for s in steps if s["captured"]]
    interpreted = [s for s in steps if not s["captured"] and not s["replayed"]]
    return {
        "trainer.forward_ms": mean_ms("forward_s"),
        "trainer.backward_ms": mean_ms("backward_s"),
        "trainer.optimizer_ms": mean_ms("optimizer_s"),
        "trainer.prediction_ms": mean_ms("prediction_s"),
        "capture.replay_share": sum(s["replayed"] for s in steps) / n,
        "capture.full_captures": sum(s["captured"] for s in steps) / n,
        "capture.full_fallbacks": sum(s["fallback"] for s in steps) / n,
        "capture.allocs_per_step": sum(s["allocs"] for s in steps) / n,
        "capture.capture_step_ms": mean_ms("wall_s", captured),
        "capture.interp_step_ms": mean_ms("wall_s", interpreted),
        "capture.arena_mb": max(s["arena_bytes"] for s in steps) / 2 ** 20,
    }


def _write_json(path: Path, payload: Dict) -> None:
    OUT.mkdir(exist_ok=True)
    with open(path, "w") as handle:
        json.dump(payload, handle)


def _trace_loads(path: Path) -> bool:
    with open(path) as handle:
        events = json.load(handle)["traceEvents"]
    return isinstance(events, list) and all(e.get("ph") == "X" for e in events)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: {ROOT / 'src' / 'repro'} not found; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    spec = load_spec(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    workload = importlib.import_module(WORKLOADS[args.workload])
    import_s = time.perf_counter() - PROCESS_START
    meta = metadata(ROOT, args.workload, args.seed, args.seconds,
                    bool(args.trace))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    table = None
    if not args.trace:
        outcome = workload.run(args.seed, args.seconds, import_s=import_s)
        values = dict(outcome.end_to_end)
        wanted = spec["end_to_end"]
        attempted, failed = outcome.attempted, outcome.failed
        checks, notes = dict(outcome.checks), outcome.notes
    else:
        from tracing import Tracer, install

        half = args.seconds / 2.0
        base = workload.run(args.seed, half, import_s=import_s, setups=1)
        tracer = Tracer()
        uninstall = install(tracer)
        try:
            traced = workload.run(args.seed, half, tracer, setups=1)
        finally:
            uninstall()
        ops = traced.attempted
        rows = layer_table(tracer.names, tracer.starts, tracer.ends,
                           tracer.parents, ops)
        values = {entry["name"]: 0.0 for entry in spec["per_layer"]}
        values.update(span_layers(rows, ops))
        values.update(step_layers(tracer.steps))
        values.update(traced.layers)
        # Latency tails come from the untraced half: wrappers would pad them.
        for name in ("run.op_ms_p90", "serve.p99_ms"):
            values[name] = base.layers.get(name, 0.0)
        values["trace.overhead_pct"] = (
            100.0 * (base.primary - traced.primary) / base.primary
            if base.primary else 0.0)
        trace_path = OUT / f"trace-{tag}.json"
        _write_json(trace_path, chrome_trace(
            tracer.names, tracer.starts, tracer.ends, tracer.parents,
            tracer.ops, meta))
        table = format_layer_table(rows, "op")
        wanted = spec["per_layer"]
        attempted = base.attempted + traced.attempted
        failed = base.failed + traced.failed
        checks = {f"untraced: {k}": v for k, v in base.checks.items()}
        checks.update({f"traced: {k}": v for k, v in traced.checks.items()})
        checks["trace file loads as ph:X events"] = _trace_loads(trace_path)
        notes = base.notes + traced.notes + [f"trace written to {trace_path}"]

    unknown = set(values) - {entry["name"] for entry in wanted}
    missing = {entry["name"] for entry in wanted} - set(values)
    if unknown or missing:
        raise RuntimeError(f"metric set differs from BENCHMARK.json: "
                           f"unknown {sorted(unknown)}, missing {sorted(missing)}")
    metrics = {entry["name"]: {"value": float(values[entry["name"]]),
                               "unit": entry["unit"]} for entry in wanted}
    non_finite = [n for n, m in metrics.items() if not math.isfinite(m["value"])]
    checks["every metric finite"] = not non_finite
    for name in non_finite:
        metrics[name]["value"] = 0.0      # JSON has no NaN; the run fails anyway
    correct = all(checks.values()) and failed == 0

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("metadata: " + json.dumps(meta))
    print("metrics:")
    print(format_metrics(metrics))
    if table is not None:
        print("per-layer spans (traced half; self time excludes child spans):")
        print(table)
    print("checks:")
    for name, ok in checks.items():
        print(f"  [{'ok' if ok else 'FAILED'}] {name}")
    for note in notes:
        print(f"  note: {note}")
    result = {"correct": correct, "attempted": int(attempted),
              "failed": int(failed), "metrics": metrics}
    _write_json(OUT / f"result-{tag}.json",
                dict(result, metadata=meta, checks=checks, notes=notes))
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        code = main()
    finally:
        stop_children()
    sys.exit(code)
