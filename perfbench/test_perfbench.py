"""Tests of the benchmark's own arithmetic and tracing.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import importlib.util
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import measure, spans
from perfbench.spans import Span

ROOT = Path(__file__).resolve().parents[1]
if importlib.util.find_spec("repro") is None:
    sys.path.insert(0, str(ROOT / "src"))


# ----------------------------------------------------------------------
# The tail-percentile sample rule
# ----------------------------------------------------------------------
def test_nearest_rank_percentiles():
    values = [float(v) for v in range(10, 0, -1)]
    assert measure.percentile(values, 50) == 5.0
    assert measure.percentile(values, 90) == 9.0
    assert measure.percentile(values, 100) == 10.0
    assert measure.percentile(values, 0) == 1.0
    with pytest.raises(ValueError):
        measure.percentile([], 50)


@pytest.mark.parametrize("n, q, supported", [
    (100, 90, True), (99, 90, False), (1000, 99, True), (999, 99, False), (20, 50, True),
])
def test_tail_needs_ten_samples_beyond(n, q, supported):
    assert measure.tail_supported(n, q) is supported


def test_chunks_each_support_p90():
    assert measure.chunked_percentile([1.0] * 150, 90) == 1.0  # one chunk
    # 1000 samples -> ten chunks of 100; a stall in three of them is outvoted.
    samples = [1.0] * 1000
    samples[0:300] = [5.0] * 300
    assert measure.chunked_percentile(samples, 90) == 1.0
    assert measure.percentile(samples, 90) == 5.0
    samples[0:600] = [5.0] * 600
    assert measure.chunked_percentile(samples, 50) == 5.0


def test_summary_records_p99_only_when_supported():
    short = measure.summarize([0.001] * 999)
    assert short["p99_ms"] is None and short["p90_supported"] is True
    full = measure.summarize([0.001] * 990 + [0.002] * 10)
    assert full["p99_ms"] == pytest.approx(1.0)
    assert full["count"] == 1000
    assert measure.summarize([0.001] * 50)["p90_supported"] is False


# ----------------------------------------------------------------------
# Host correction
# ----------------------------------------------------------------------
def test_correction_arithmetic():
    # Median kernel time 2 ms against the 1 ms reference: host 2x slow.
    assert measure.host_factor([2e-3, 2e-3, 4e-3]) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        measure.host_factor([])


def test_each_time_is_corrected_by_its_nearest_samples():
    # Host at nominal speed for 10 s, then twice as slow; one sample a second.
    samples = [(float(t), 1e-3 if t < 10 else 2e-3, 0) for t in range(20)]
    samples.append((9.5, 50e-3, 10_000_000))  # taken while busy: ignored
    f = measure.local_factors([0.0, 4.2, 9.4, 15.0, 30.0], samples, k=3)
    assert f == pytest.approx([1.0, 1.0, 1.0, 0.5, 0.5])
    assert measure.local_factors([10.0], samples, k=5)[0] == pytest.approx(0.5)
    with pytest.raises(ValueError):
        measure.local_factors([0.0], [(0.0, 1e-3, 10_000_000)])


def test_busy_samples_are_rejected():
    clock = iter(range(100))
    busy = iter([0, 0, 0, 5_000_000, 0, 10])  # probe readings around 3 samples
    cal = measure.Calibrator([lambda: next(busy)], clock=lambda: float(next(clock)),
                             kernel=lambda: None)
    assert cal.sample() is True      # program idle
    assert cal.sample() is False     # program used 5 ms of CPU meanwhile
    assert cal.sample() is True      # 10 ns: clock-read jitter
    assert measure.kept_samples(cal.samples) == [(0.0, 1.0), (4.0, 1.0)]
    assert len(cal.samples) == 3


@pytest.mark.parametrize("busy", [False, True])
def test_other_process_cpu_decides_the_sample(busy):
    body = "while True: pass" if busy else "import time; time.sleep(60)"
    child = subprocess.Popen([sys.executable, "-c", body])
    try:
        time.sleep(0.2)
        cal = measure.Calibrator([lambda: measure.process_cpu_ns(child.pid)],
                                 kernel=lambda: measure.calibration_kernel(300_000))
        kept = [cal.sample() for _ in range(3)]
    finally:
        child.kill()
        child.wait(timeout=10)
    assert kept == [not busy] * 3


def test_corrected_metric_selection():
    pairs = measure.parse_corrected("p50_ms, engine-b1:setup_s")
    assert measure.is_corrected(pairs, "serve-light", "p50_ms")
    assert measure.is_corrected(pairs, "engine-b1", "setup_s")
    assert not measure.is_corrected(pairs, "engine-b8", "setup_s")
    assert measure.parse_corrected("") == []
    with pytest.raises(ValueError):
        measure.parse_corrected("rss_peak_mb")


# ----------------------------------------------------------------------
# The seeded arrival schedule
# ----------------------------------------------------------------------
def test_schedule_is_a_function_of_the_seed():
    a = measure.poisson_schedule(7, 30.0, 10.0)
    assert a == measure.poisson_schedule(7, 30.0, 10.0)
    assert a != measure.poisson_schedule(8, 30.0, 10.0)
    assert len(a) == 300
    assert a == sorted(a) and 0.0 <= a[0] and a[-1] < 10.0
    gaps = [t1 - t0 for t0, t1 in zip(a, a[1:])]
    assert 0.02 < sum(gaps) / len(gaps) < 0.05  # mean gap ~1/30 s


# ----------------------------------------------------------------------
# The result line
# ----------------------------------------------------------------------
def check_result(line: str, expected: dict) -> dict:
    """The result contract: exactly these keys, whole counts with
    ``attempted >= 1``, and exactly the ``expected`` metric names, each a
    finite value with its unit."""
    obj = json.loads(line)
    assert set(obj) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(obj["correct"], bool)
    for key in ("attempted", "failed"):
        assert isinstance(obj[key], int) and not isinstance(obj[key], bool)
    assert obj["attempted"] >= 1 and 0 <= obj["failed"] <= obj["attempted"]
    assert {name: m["unit"] for name, m in obj["metrics"].items()} == expected
    for m in obj["metrics"].values():
        assert set(m) == {"value", "unit"} and math.isfinite(m["value"])
    return obj


def test_result_line_schema():
    line = measure.result_line(True, 12, 1, {"p50_ms": (1.5, "ms"), "setup_s": (0.2, "s")})
    obj = check_result(line, {"p50_ms": "ms", "setup_s": "s"})
    assert obj["metrics"]["p50_ms"] == {"value": 1.5, "unit": "ms"}
    assert line == line.strip() and "\n" not in line
    with pytest.raises(AssertionError):
        check_result(line, {"p50_ms": "ms"})
    with pytest.raises(AssertionError):
        check_result(measure.result_line(True, 0, 0, {}), {})


def test_result_line_of_a_run_matches_benchmark_json():
    from perfbench import run

    line = measure.result_line(True, 5, 0, {name: (1.0, unit) for name, unit in run.END_TO_END})
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_result(line, {m["name"]: m["unit"] for m in bench["end_to_end"]})


def test_metric_lists_match_benchmark_json():
    from perfbench import run

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == [
        name for name in run.WORKLOADS if name not in run.UNGATED]
    assert bench["command"][:2] == ["python3", "perfbench/run.py"]
    flag = bench["command"].index("--host-corrected")
    measure.parse_corrected(bench["command"][flag + 1])


# ----------------------------------------------------------------------
# The traced-run sum check
# ----------------------------------------------------------------------
def test_layer_means_add_up_to_the_run():
    trace = [
        Span(0, "session.run", 0.000, 0.010, None, 0, 1),
        Span(1, "session.validate", 0.000, 0.001, 0, 0, 1),
        Span(2, "plan.conv0", 0.001, 0.005, 0, 0, 1),
        Span(3, "kernel.im2col", 0.001, 0.002, 2, 0, 2 ** 20),
        Span(4, "plan.block0_dw", 0.005, 0.009, 0, 0, 1),
        Span(5, "kernel.stencil", 0.005, 0.008, 4, 0, 1),
        Span(6, "arena_for", 0.0095, 0.0096, 0, 0, 1),
    ]
    m = spans.engine_metrics(trace, [("conv0", "conv"), ("block0_dw", "dw")])
    assert m["session.self_ms"] == pytest.approx(1.0)
    parts = m["session.validate_ms"] + m["plan.conv0_ms"] + m["plan.block0_dw_ms"]
    assert parts + m["session.self_ms"] == pytest.approx(10.0)
    assert m["plan.dw_ms"] == pytest.approx(4.0)
    assert m["plan.dw_stencil_layers"] == 1.0
    assert m["plan.im2col_mb_per_image"] == pytest.approx(1.0)
    assert spans.coverage(trace) == pytest.approx(0.9)


def test_traced_session_is_covered_by_its_layers():
    import numpy as np

    from repro.models.model_zoo import mobilenet_v1_spec
    from repro.runtime import Session, pipeline

    original_run = Session.run
    tracer = spans.Tracer()
    spans.install_engine(tracer)
    try:
        session = pipeline(mobilenet_v1_spec(32, 0.25, num_classes=10), seed=0)
        x = np.random.default_rng(0).uniform(0.0, 1.0, size=(1, 3, 32, 32))
        first = session.run(x)
        t0 = time.perf_counter()
        for _ in range(5):
            assert np.array_equal(session.run(x), first)
        window = spans.within(tracer.spans, t0, time.perf_counter())
    finally:
        tracer.uninstall()
    assert Session.run is original_run and not tracer.missing
    layers = [(layer.name, layer.kind) for layer in session.plan.layers]
    m = spans.engine_metrics(window, layers)
    runs = [s.ms for s in window if s.name == "session.run"]
    assert len(runs) == 5
    parts = sum(v for k, v in m.items() if k.endswith("_ms")
                and k not in ("plan.dw_ms", "plan.pw_ms"))
    assert parts == pytest.approx(sum(runs) / 5)
    assert all(m[f"plan.{name}_ms"] > 0 for name, _ in layers)
    assert spans.coverage(window) > 0.8
