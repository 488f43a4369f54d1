"""Tests of the benchmark's own arithmetic (no model is built)."""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from measure import (chrome_trace, layer_table, percentile_with_count,
                     quantile, resolve_ops, self_times)
from tracing import PATCHES, Tracer, _span_wrapper, install

ROOT = Path(__file__).resolve().parent.parent
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children_only():
    spans = [(0.0, 10.0, None),    # 0: step
             (1.0, 3.0, 0),        # 1: child
             (4.0, 6.0, 0),        # 2: child with a grandchild
             (4.5, 5.0, 2)]        # 3: grandchild
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.5, 0.5])


def test_self_time_counts_overlapping_children_once():
    spans = [(0.0, 10.0, None), (1.0, 5.0, 0), (3.0, 7.0, 0), (9.0, 12.0, 0)]
    # Children cover [1, 7] and [9, 10] inside the parent: 7 of 10 units.
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_layer_table_sums_self_time_per_name():
    names = ["step", "kernel", "kernel", "step", "kernel"]
    starts = [0.0, 1.0, 3.0, 10.0, 11.0]
    ends = [5.0, 2.0, 4.0, 14.0, 13.0]
    parents = [None, 0, 0, None, 3]
    rows = {r["name"]: r for r in layer_table(names, starts, ends, parents, 2)}
    assert rows["step"]["calls"] == 2
    assert rows["step"]["incl_s"] == pytest.approx(9.0)
    assert rows["step"]["self_s"] == pytest.approx(5.0)
    assert rows["kernel"]["self_s"] == pytest.approx(4.0)
    assert rows["kernel"]["calls_per_op"] == pytest.approx(1.5)
    assert rows["kernel"]["self_ms_per_op"] == pytest.approx(2000.0)
    total_self = sum(r["self_s"] for r in rows.values())
    assert total_self == pytest.approx(9.0)    # self times add up to the roots


def test_ops_inherit_from_nearest_ancestor():
    assert resolve_ops([None, 0, 1, None], [7, None, None, None]) == \
        [7, 7, 7, None]
    assert resolve_ops([None, 0], [None, 3]) == [None, 3]


@pytest.mark.parametrize("q", [0, 10, 50, 90, 99, 100])
@pytest.mark.parametrize("n", [1, 2, 7, 40])
def test_quantile_matches_numpy_linear(q, n):
    values = list(np.random.default_rng(n).exponential(size=n))
    assert quantile(values, q) == pytest.approx(np.percentile(values, q))


def test_percentile_reports_sample_counts():
    values = [float(v) for v in range(1, 11)]        # 1..10
    value, n, above = percentile_with_count(values, 90)
    assert value == pytest.approx(9.1)
    assert (n, above) == (10, 1)
    value, n, above = percentile_with_count(values, 50)
    assert (value, n, above) == (pytest.approx(5.5), 10, 5)


def test_quantile_rejects_bad_input():
    with pytest.raises(ValueError):
        quantile([], 50)
    with pytest.raises(ValueError):
        quantile([1.0], 101)


def test_chrome_trace_loads_as_complete_events(tmp_path):
    clock = FakeClock()
    tracer = Tracer(clock)
    tracer.recording = True
    tracer.op = 4
    outer = tracer.open("trainer.step")
    clock.now = 0.001
    inner = tracer.open("capture.replay_forward")
    clock.now = 0.003
    tracer.close(inner)
    clock.now = 0.004
    tracer.close(outer)
    payload = chrome_trace(tracer.names, tracer.starts, tracer.ends,
                           tracer.parents, tracer.ops, {"seed": 1})
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(payload))
    events = json.loads(path.read_text())["traceEvents"]
    assert [e["ph"] for e in events] == ["X", "X"]
    assert events[0]["dur"] == pytest.approx(4000.0)       # microseconds
    assert events[1]["ts"] == pytest.approx(1000.0)
    assert events[1]["args"] == {"op": 4, "parent": "trainer.step"}


def test_tracer_keeps_nothing_while_not_recording():
    tracer = Tracer(FakeClock())
    traced = _span_wrapper(tracer, "f", lambda x: x + 1)
    assert traced(1) == 2
    assert tracer.names == []
    tracer.recording = True
    assert traced(2) == 3
    assert tracer.names == ["f"] and tracer.parents == [None]


def test_wrapper_closes_span_when_call_raises():
    tracer = Tracer(FakeClock())
    tracer.recording = True

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        _span_wrapper(tracer, "boom", boom)()
    assert tracer._stack == []


def test_metric_names_and_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(METRIC_NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert all(len(name) <= 64 and name[0].isalnum() for name in names)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    units = [m["unit"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit) for unit in units)


def test_windowed_rate_is_the_median_window():
    from common import windowed_rate

    # Three windows of two ops (rates 2, 1 and 0.2); the last holds a stall
    # that would pull the overall rate (6 ops in 13 s) down to 0.46.
    seconds = [0.5, 0.5, 1.0, 1.0, 5.0, 5.0]
    assert windowed_rate([1.0] * 6, seconds, 2) == pytest.approx(1.0)
    # A trailing partial window is ignored unless it is the only one.
    assert windowed_rate([1.0] * 3, [1.0, 1.0, 0.01], 2) == pytest.approx(1.0)
    assert windowed_rate([2.0], [4.0], 4) == pytest.approx(0.5)


def test_windowed_latency_percentiles():
    from common import latency_percentiles

    notes = []
    # Three windows of ten samples; the middle one is a burst of stalls.
    samples = [0.001 * (i % 10 + 1) for i in range(30)]
    samples[10:20] = [1.0] * 10
    p50, p90 = latency_percentiles(samples, notes, "x", window=10)
    assert (p50, p90) == (pytest.approx(5.5), pytest.approx(9.1))
    assert any("median of 3 window(s) of n=10" in note for note in notes)
    # Without windows the burst lands in the tail.
    assert latency_percentiles(samples, [], "x")[1] == pytest.approx(1000.0)


def test_step_records_classify_captured_replayed_interpreted():
    from run import step_layers

    def record(wall, captured=0.0, replayed=0.0):
        return {"wall_s": wall, "forward_s": wall / 2, "backward_s": wall / 2,
                "optimizer_s": 0.0, "prediction_s": 0.0, "captured": captured,
                "replayed": replayed, "fallback": 0.0, "allocs": 2.0,
                "arena_bytes": 2.0 ** 20}

    layers = step_layers([record(0.4), record(0.3, captured=1.0),
                          record(0.1, replayed=1.0), record(0.1, replayed=1.0)])
    assert layers["capture.replay_share"] == pytest.approx(0.5)
    assert layers["capture.full_captures"] == pytest.approx(0.25)
    assert layers["capture.capture_step_ms"] == pytest.approx(300.0)
    assert layers["capture.interp_step_ms"] == pytest.approx(400.0)
    assert layers["trainer.forward_ms"] == pytest.approx(112.5)
    assert layers["capture.arena_mb"] == pytest.approx(1.0)
    assert step_layers([]) == {}


def test_install_wraps_every_target_and_uninstall_restores_it():
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import importlib

    def target(module_name, path):
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        return vars(owner)[attr]

    before = [target(m, p) for m, p, _ in PATCHES]
    uninstall = install(Tracer())
    try:
        for (module_name, path, _), original in zip(PATCHES, before):
            assert target(module_name, path).__wrapped__ is original
    finally:
        uninstall()
    assert [target(m, p) for m, p, _ in PATCHES] == before


def test_stop_children_leaves_no_process_behind():
    # In a fresh interpreter: its resource tracker and worker are its own.
    script = """
import multiprocessing as mp, os, sys, time
from multiprocessing import resource_tracker, shared_memory
sys.path.insert(0, sys.argv[1])
from measure import stop_children
segment = shared_memory.SharedMemory(create=True, size=64)
segment.close()
segment.unlink()
worker = mp.get_context("fork").Process(target=time.sleep, args=(60,))
worker.start()
pids = [resource_tracker._resource_tracker._pid, worker.pid]
stop_children(timeout_s=5.0)
print([p for p in pids if os.path.exists(f"/proc/{p}")])
"""
    import subprocess

    done = subprocess.run([sys.executable, "-c", script,
                           str(Path(__file__).resolve().parent)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
