"""The repository's benchmark: the integer engine and its serving tier,
end to end and layer by layer, corrected for host speed.

Run from the root of a checkout::

    python3 perfbench/run.py --workload engine-b1 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--workload all`` runs the four workloads in turn; ``BENCHMARK.json``
gates three of them (see ``serve-light``).  ``--trace 1`` runs
the workload twice for half the time each, untraced then traced, and
reports the per-layer metrics and the tracing overhead instead of the
end-to-end ones.  ``--host-corrected`` names the metrics reported
host-corrected (``metric`` for every workload, ``workload:metric`` for
one); ``BENCHMARK.json`` fixes the list.  Every metric is printed with
its unit, raw and corrected, with operations sent, succeeded and failed
by status; the last line of standard output is the JSON result.  The
exit code is 0 only when every output was correct.

Workloads (artifacts built by the code under test with
``pipeline(spec, seed=0)`` before anything is timed; ``--seed`` picks the
images and the arrival schedule; each warms up before its window):

``serve-light``
    MobileNetV1 32_0.25 behind ``repro-mcu serve``; open loop, seeded
    Poisson arrivals at 30 requests/s, one connection per request.  The
    engine is ~1.8 ms of a ~15 ms request; the rest is the request path
    (connect, parse, JSON decode, admission, the 5 ms ``max_wait_ms``
    flush, the executor hop, the response), so serving-tier changes
    show here and engine changes barely do.  Run it by name; it is not
    in ``BENCHMARK.json``: timed from the due time, its latency follows
    host stalls that no correction removes (over ten runs in a period of
    heavy interference its p90 spread 52% and its p50 19%, with up to a
    quarter of the sends more than 1 ms late).
``serve-heavy``
    128_0.5 behind the server; closed loop with 2 connections (= nproc)
    and ~1 MB JSON bodies.  The server is CPU-saturated: decoding a body
    holds the event loop for ~12.5 ms while the engine runs ~10 ms on
    the executor thread, so decode and engine changes both move its
    capacity.
``engine-b1``
    128_0.5, ``Session.run`` on one image in a closed loop on one
    thread: the compiled plan with no serving tier, ROADMAP's headline
    batch-1 number.  Serving-tier changes must not move it.
``engine-b8``
    224_1.0, ``Session.run_batched`` over a seeded sweep in tiles of 8:
    the only workload where ``fused_depthwise="auto"`` picks the stencil
    kernel (block0-4 depthwise), with ~170 MiB of arena slabs.

End-to-end metrics (every workload reports every one):

==================  ====  ====================================================
name                unit  what
==================  ====  ====================================================
``setup_s``         s     ``Session.load`` to first inference returned (the
                          server: to its startup healthcheck); median of 15
``p50_ms``          ms    median latency of an operation: a request from its
                          due time (serve-light) or its send (serve-heavy),
                          one call (engine-b1), one tile (engine-b8)
``p90_ms``          ms    90th percentile of the same; p99 is recorded when
                          ten samples lie beyond it, never gated
``images_per_s``    1/s   images answered correctly per second of the window
``cpu_ms_per_image`` ms   CPU (user + sys) per image of the process running
                          the engine: the server, or the engine child
``rss_peak_mb``     MB    VmHWM of that process
==================  ====  ====================================================

Host correction (see :mod:`perfbench.measure`): each operation and each
set-up is multiplied by ``1 ms / median(calibration kernel time)`` over
the five kernel samples taken nearest to it, in the same run, while the
program was idle; rates are divided and CPU per image multiplied by the
operations' mean factor.  The raw value is printed and recorded beside
the corrected one.
Which metrics are reported corrected was decided from ten-run evidence
on a 2-vCPU KVM host and is fixed in ``BENCHMARK.json``: ``setup_s``,
``p50_ms``, ``p90_ms`` and ``cpu_ms_per_image`` everywhere, and
``images_per_s`` everywhere but ``serve-light``, whose throughput its
arrival schedule sets.  There the raw spread is under 1%, and elsewhere
the correction cut the spread of a slow-host period from 8-40% to 3-11%.
RSS is memory and never corrected.  ``serve-light``'s latency includes
the server's 5 ms flush timer, which does not scale with host speed, so
its corrected latency still moves, by about half as much as its raw
latency, between a quiet and a slow host.  Per-layer times are raw; the
traced window's mean host factor is in its run record.

Every run appends a record — host fingerprint, git sha and source
digest, raw calibration samples, raw and corrected metrics — to
``perfbench/results/trajectory.jsonl``; records are never rewritten.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import loadgen, spans  # noqa: E402
from perfbench.host import BLAS_ENV, blas_info, fingerprint  # noqa: E402
from perfbench.measure import (  # noqa: E402
    Calibrator,
    is_corrected,
    kept_samples,
    local_factors,
    own_other_threads_cpu_ns,
    parse_corrected,
    poisson_schedule,
    process_cpu_ns,
    result_line,
    summarize,
)

TRAJECTORY = Path(__file__).resolve().parent / "results" / "trajectory.jsonl"
ARTIFACT_SEED = 0
WARMUP_S = 1.0
CHILD_TIMEOUT_S = 150
#: Kept calibration samples a window needs; short ones are topped up
#: right after the window, with the program still idle.
MIN_KEPT = 5


@dataclass(frozen=True)
class Workload:
    name: str
    resolution: int
    width: float
    kind: str  # "open", "closed" or "engine"
    batch: int = 1
    connections: int = 1
    rate: float = 0.0
    pool: int = 16


#: Runnable by name but not gated in ``BENCHMARK.json`` (see above).
UNGATED = ("serve-light",)
WORKLOADS = {
    "serve-light": Workload("serve-light", 32, 0.25, "open", rate=30.0, pool=32),
    "serve-heavy": Workload("serve-heavy", 128, 0.5, "closed", connections=2),
    "engine-b1": Workload("engine-b1", 128, 0.5, "engine", batch=1),
    "engine-b8": Workload("engine-b8", 224, 1.0, "engine", batch=8),
}

END_TO_END = [
    ("setup_s", "s"), ("p50_ms", "ms"), ("p90_ms", "ms"),
    ("images_per_s", "1/s"), ("cpu_ms_per_image", "ms"), ("rss_peak_mb", "MB"),
]
PLAN_LAYERS = ["conv0"] + [f"block{b}_{k}" for b in range(13) for k in ("dw", "pw")]
PER_LAYER = [
    ("client.request_ms", "ms"), ("server.queue_wait_ms", "ms"),
    ("server.front_ms", "ms"), ("server.validate_ms", "ms"),
    ("server.engine_ms", "ms"), ("server.session_run_ms", "ms"),
    ("server.hop_ms", "ms"), ("server.batch_size", "count"),
    ("server.tiles", "count"), ("server.retries", "count"),
    ("server.non200", "count"),
    ("plan.quantize_ms", "ms"),
    *[(f"plan.{name}_ms", "ms") for name in PLAN_LAYERS],
    ("plan.pool_ms", "ms"), ("plan.fc_ms", "ms"),
    ("plan.dw_ms", "ms"), ("plan.pw_ms", "ms"),
    ("session.validate_ms", "ms"), ("session.self_ms", "ms"),
    ("plan.dw_stencil_layers", "count"), ("plan.im2col_mb_per_image", "MB"),
    ("arena.planned_mb", "MB"),
    ("setup.load_ms", "ms"), ("setup.compile_ms", "ms"),
    ("setup.arena_ms", "ms"), ("setup.warm_ms", "ms"),
    ("trace.overhead_pct", "%"),
]


class BenchError(RuntimeError):
    """The benchmark could not measure (as opposed to a wrong answer)."""


@dataclass
class Measurement:
    """What one timed window produced, before any metric is derived."""

    latencies_s: List[float]
    #: When each timed operation started (for its host factor).
    op_times: List[float]
    attempted: int
    statuses: Dict[str, int]
    images_ok: int
    active_s: float
    cpu_ns: int
    rss_kb: int
    setup_intervals: List[tuple]
    setup_calibration: List[tuple]
    calibration: List[tuple]
    window: tuple
    #: Correctness conditions; the run is correct only if all hold.
    checks: Dict[str, bool]
    extra: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    layers: List[tuple] = field(default_factory=list)
    arena_bytes: int = 0

    @property
    def failed(self) -> int:
        return self.attempted - self.statuses.get("ok", 0)

    def end_to_end(self) -> tuple:
        """``(raw, corrected, mean host factor)``: every operation and
        every set-up is corrected by the calibration samples nearest it;
        rates and CPU per image by the operations' mean factor."""
        factors = local_factors(self.op_times, self.calibration)
        mean = statistics.fmean(factors)
        setup = [t1 - t0 for t0, t1 in self.setup_intervals]
        setup_factors = local_factors([t0 for t0, _ in self.setup_intervals],
                                      self.setup_calibration)
        lat = summarize(self.latencies_s)
        lat_fixed = summarize([t * f for t, f in zip(self.latencies_s, factors)])
        raw = {
            "setup_s": statistics.median(setup),
            "p50_ms": lat["p50_ms"],
            "p90_ms": lat["p90_ms"],
            "images_per_s": self.images_ok / self.active_s,
            "cpu_ms_per_image": self.cpu_ns / 1e6 / max(self.images_ok, 1),
            "rss_peak_mb": self.rss_kb / 1024.0,
        }
        fixed = {
            "setup_s": statistics.median(t * f for t, f in zip(setup, setup_factors)),
            "p50_ms": lat_fixed["p50_ms"],
            "p90_ms": lat_fixed["p90_ms"],
            "images_per_s": raw["images_per_s"] / mean,
            "cpu_ms_per_image": raw["cpu_ms_per_image"] * mean,
            "rss_peak_mb": raw["rss_peak_mb"],
        }
        return raw, fixed, mean


def child_env() -> dict:
    env = dict(os.environ, **BLAS_ENV, PYTHONUNBUFFERED="1")
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    return env


def build_artifact(w: Workload, path: Path) -> Path:
    from repro.models.model_zoo import mobilenet_v1_spec
    from repro.runtime import pipeline

    session = pipeline(mobilenet_v1_spec(w.resolution, w.width), seed=ARTIFACT_SEED)
    return session.save(path)


# ----------------------------------------------------------------------
# engine-*
# ----------------------------------------------------------------------
def measure_engine(w: Workload, artifact: Path, seed: int, seconds: float,
                   traced: bool, run_dir: Path) -> Measurement:
    out = run_dir / f"engine-{int(traced)}.json"
    span_file = run_dir / "engine-spans.json"
    cmd = [sys.executable, "-m", "perfbench.engine_child", str(artifact),
           "--resolution", str(w.resolution), "--batch", str(w.batch),
           "--seed", str(seed), "--seconds", str(seconds), "--out", str(out)]
    if traced:
        cmd += ["--spans", str(span_file)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"engine child exceeded {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"engine child failed (rc {proc.returncode}):\n{proc.stderr[-2000:]}")
    r = json.loads(out.read_text())
    ok = r["ops"] - r["failed"]
    latencies = r["latencies_s"]
    calibration = [tuple(s) for s in r["calibration"]]
    cal_s = sum(dt for _, dt, _ in calibration)
    t0, t1 = r["window"]
    m = Measurement(
        latencies_s=latencies,
        op_times=r["starts"],
        attempted=r["ops"],
        statuses={"ok": ok, "mismatch": r["failed"]},
        images_ok=ok * w.batch,
        active_s=(t1 - t0) - cal_s,
        cpu_ns=r["cpu_ns"],
        rss_kb=r["rss_kb"],
        setup_intervals=[tuple(i) for i in r["setup_intervals"]],
        setup_calibration=[tuple(c) for c in r["setup_calibration"]],
        calibration=calibration,
        window=(t0, t1),
        checks={
            "outputs equal the warm-up outputs": r["failed"] == 0,
            "outputs bit-equal to IntegerNetwork.forward":
                r["reference_mismatches"] == 0 and r["reference_checked"] > 0,
        },
        extra={"blas": r["blas"], "reference_checked": r["reference_checked"],
               "trace_missing": r["trace_missing"]},
        layers=[tuple(layer) for layer in r["layers"]],
        arena_bytes=r["arena_planned_bytes"],
    )
    if traced:
        m.spans = spans.load_spans(span_file)
    return m


# ----------------------------------------------------------------------
# serve-*
# ----------------------------------------------------------------------
def _wait_announce(proc: subprocess.Popen, timeout: float):
    deadline = time.monotonic() + timeout
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("server did not announce its address in time")
        ready, _, _ = select.select([proc.stdout], [], [], remaining)
        if not ready:
            continue
        line = proc.stdout.readline()
        if not line:
            raise BenchError(f"server exited before serving (rc {proc.wait()})")
        match = re.search(r"serving on http://([^:\s]+):(\d+)", line)
        if match:
            return match.group(1), int(match.group(2))


def _stop_server(proc: subprocess.Popen, timeout: float = 60.0):
    """SIGINT, then wait; ``(clean, stdout)``.  Clean means exit code 0
    and the CLI's clean-shutdown line."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        return False, out
    return proc.returncode == 0 and "shut down cleanly" in out, out


def measure_serve(w: Workload, artifact: Path, seed: int, seconds: float,
                  traced: bool, run_dir: Path) -> Measurement:
    import numpy as np

    from repro.runtime import Session

    rng = np.random.default_rng(seed)
    pool = rng.uniform(0.0, 1.0, size=(w.pool, 3, w.resolution, w.resolution))
    with Session.load(artifact) as session:
        expected = [int(np.argmax(session.run(pool[i:i + 1]), axis=1)[0])
                    for i in range(w.pool)]
        layers = [(layer.name, layer.kind) for layer in session.plan.layers]
        arena = session.plan.arena_for((w.resolution, w.resolution))
    bodies = [loadgen.predict_request(image) for image in pool]
    schedule = poisson_schedule(seed, w.rate, seconds) if w.kind == "open" else None
    picks = rng.integers(0, w.pool, size=len(schedule) if schedule else 4096)
    payloads = [bodies[k] for k in picks]

    state = run_dir / f"server-{int(traced)}.json"
    span_file = run_dir / "server-spans.json"
    cmd = [sys.executable, "-m", "perfbench.serve_child", str(artifact), "--out", str(state)]
    if traced:
        cmd += ["--spans", str(span_file)]
    stderr_path = run_dir / "server.stderr"
    with open(stderr_path, "w") as stderr:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                                stderr=stderr, text=True)
    cal = Calibrator([lambda: process_cpu_ns(proc.pid), own_other_threads_cpu_ns])
    try:
        host, port = _wait_announce(proc, timeout=60.0)
        drive = asyncio.run(_drive(w, host, port, proc.pid, payloads, bodies,
                                   schedule, seconds, cal))
    finally:
        clean, out = _stop_server(proc)
    if proc.returncode is None or not state.exists():
        raise BenchError(f"server state missing:\n{stderr_path.read_text()[-2000:]}")
    s = json.loads(state.read_text())

    outcomes, t0, t1, idle_s = drive["outcomes"], drive["t0"], drive["t1"], drive["idle_s"]
    statuses: Dict[str, int] = {}
    latencies, sent, client_s = [], [], []
    mismatches = 0
    for o in outcomes:
        key = str(o.status)
        if o.status == 200:
            latencies.append(o.done - (o.due if w.kind == "open" else o.sent))
            sent.append(o.sent)
            client_s.append(o.done - o.sent)
            key = "ok" if o.prediction == expected[picks[o.index]] else "mismatch"
            mismatches += key == "mismatch"
        statuses[key] = statuses.get(key, 0) + 1
    if not latencies:
        raise BenchError(f"no request was answered: {statuses}")
    sent, latencies = zip(*sorted(zip(sent, latencies)))
    late = [o.sent - o.due for o in outcomes] if w.kind == "open" else []
    extra = {
        "blas": s["blas"],
        "server_stats": drive["stats"],
        "retries": drive["stats"]["batches"]["retries"] - drive["stats0"]["batches"]["retries"],
        "trace_missing": s["trace_missing"],
        "client_s": client_s,
    }
    if late:
        extra["late_over_1ms_share"] = sum(d > 1e-3 for d in late) / len(late)
        extra["worst_late_ms"] = 1e3 * max(late)
    m = Measurement(
        latencies_s=list(latencies),
        op_times=list(sent),
        attempted=len(outcomes),
        statuses=statuses,
        images_ok=statuses.get("ok", 0),
        active_s=(t1 - t0) - idle_s,
        cpu_ns=drive["cpu_ns"],
        rss_kb=s["rss_kb"],
        setup_intervals=[tuple(i) for i in s["setup_intervals"]],
        setup_calibration=[tuple(c) for c in s["setup_calibration"]],
        calibration=cal.samples,
        window=(t0, t1),
        checks={
            "answers equal in-process Session.run argmax": mismatches == 0,
            "nothing queued or in flight after the window":
                drive["stats"]["queued"] == 0 and drive["stats"]["inflight"] == 0,
            "clean server shutdown": clean and s["rc"] == 0,
            "set-up probes healthy": all(s["probe_health"]),
        },
        extra=extra,
        layers=layers,
    )
    if traced:
        m.spans = spans.load_spans(span_file)
        tiles = [sp.n for sp in m.spans if sp.name == "server.engine"
                 and t0 <= sp.start and sp.end <= t1]
        m.arena_bytes = arena.planned_bytes(max(tiles, default=1))
    return m


async def _drive(w: Workload, host: str, port: int, pid: int, payloads, bodies,
                 schedule, seconds: float, cal: Calibrator) -> dict:
    await loadgen.closed_loop(host, port, bodies, w.connections, WARMUP_S)
    stats0 = await loadgen.get_json(host, port, "/stats")
    cpu0 = process_cpu_ns(pid)
    if schedule is not None:
        outcomes, t0, t1 = await loadgen.open_loop(host, port, payloads, schedule, cal)
        idle_s = 0.0
    else:
        outcomes, t0, t1, idle_s = await loadgen.closed_loop(
            host, port, payloads, w.connections, seconds, cal)
    cpu_ns = process_cpu_ns(pid) - cpu0
    attempts = 0
    while len(kept_samples(cal.samples)) < MIN_KEPT and attempts < 50:
        cal.sample()
        attempts += 1
    stats = await loadgen.get_json(host, port, "/stats")
    return {"outcomes": outcomes, "t0": t0, "t1": t1, "idle_s": idle_s,
            "cpu_ns": cpu_ns, "stats0": stats0, "stats": stats}


# ----------------------------------------------------------------------
# Metrics, output, trajectory
# ----------------------------------------------------------------------
def per_layer(w: Workload, plain: Measurement, traced: Measurement) -> Dict[str, float]:
    t0, t1 = traced.window
    window = spans.within(traced.spans, t0, t1)
    metrics = dict.fromkeys((name for name, _ in PER_LAYER), 0.0)
    metrics.update(spans.engine_metrics(window, traced.layers))
    metrics.update(spans.setup_metrics(traced.spans, traced.setup_intervals))
    if w.kind != "engine":
        metrics.update(spans.server_metrics(window, [1e3 * s for s in traced.extra["client_s"]]))
        metrics["server.retries"] = float(traced.extra["retries"])
        metrics["server.non200"] = float(sum(
            n for status, n in traced.statuses.items() if status not in ("ok", "mismatch")))
    metrics["arena.planned_mb"] = traced.arena_bytes / 2 ** 20
    p50 = [m.end_to_end()[1]["p50_ms"] for m in (plain, traced)]
    metrics["trace.overhead_pct"] = 100.0 * (p50[1] / p50[0] - 1.0)
    return {name: metrics[name] for name, _ in PER_LAYER}


def _record_calibration(samples: List[tuple], t0: float) -> dict:
    kept = kept_samples(samples)
    return {
        "kept": len(kept),
        "rejected": len(samples) - len(kept),
        # [start ms from window start, kernel us, busy us] per sample
        "samples": [[round(1e3 * (s - t0), 1), round(1e6 * dt, 1), round(busy / 1e3, 1)]
                    for s, dt, busy in samples],
    }


def run_workload(w: Workload, seed: int, seconds: float, trace: bool,
                 corrected: list, host: dict) -> tuple:
    """Measure one workload; ``(correct, attempted, failed, reported
    metrics as name -> (value, unit), record)``."""
    run_dir = ROOT / ".bench_build" / "perfbench" / f"{w.name}-{os.getpid()}-{seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    measure = measure_engine if w.kind == "engine" else measure_serve
    try:
        artifact = build_artifact(w, run_dir / "model.artifact")
        if trace:
            plain = measure(w, artifact, seed, seconds / 2, False, run_dir)
            traced = measure(w, artifact, seed, seconds / 2, True, run_dir)
            runs = [plain, traced]
        else:
            runs = [measure(w, artifact, seed, seconds, False, run_dir)]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    main = runs[-1]
    raw, fixed, factor = main.end_to_end()
    reported_e2e = {name: fixed[name] if is_corrected(corrected, w.name, name) else raw[name]
                    for name, _ in END_TO_END}
    checks: Dict[str, bool] = {}
    for m in runs:
        for name, passed in m.checks.items():
            checks[name] = checks.get(name, True) and passed
    ok = all(checks.values())
    attempted = sum(m.attempted for m in runs)
    failed = sum(m.failed for m in runs)
    lat = summarize(main.latencies_s)

    print(f"\n{w.name}: seed {seed}, {seconds:g} s{' (traced half)' if trace else ''}, "
          f"mean host factor {factor:.4f} from {len(kept_samples(main.calibration))} idle "
          f"calibration samples ({len(main.calibration)} taken)")
    print(f"  {'metric':<20} {'unit':<6} {'raw':>12} {'corrected':>12}  reported")
    for name, unit in END_TO_END:
        mark = "corrected" if is_corrected(corrected, w.name, name) else "raw"
        print(f"  {name:<20} {unit:<6} {raw[name]:>12.4f} {fixed[name]:>12.4f}  {mark}")
    for m in runs:
        print(f"  operations: sent {m.attempted}, ok {m.statuses.get('ok', 0)}, "
              f"failed {m.failed}; by status {m.statuses}")
    print(f"  latency samples {lat['count']}, p90 supported {lat['p90_supported']}, "
          f"p99 {lat['p99_ms'] if lat['p99_ms'] is None else round(lat['p99_ms'], 3)} ms")
    if "late_over_1ms_share" in main.extra:
        print(f"  open-loop lateness: {100 * main.extra['late_over_1ms_share']:.1f}% of sends "
              f">1 ms late, worst {main.extra['worst_late_ms']:.2f} ms")
    for name, passed in checks.items():
        print(f"  check: {name}: {'ok' if passed else 'FAILED'}")

    record = {
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workload": w.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "host": host,
        "correct": ok, "attempted": attempted, "failed": failed,
        "statuses": [m.statuses for m in runs],
        "checks": checks,
        "host_factor": factor,
        "calibration": _record_calibration(main.calibration, main.window[0]),
        "setup_calibration": _record_calibration(main.setup_calibration, main.window[0]),
        "metrics": {name: {"unit": unit, "raw": raw[name], "corrected": fixed[name],
                           "reported": reported_e2e[name]} for name, unit in END_TO_END},
        "latency": {"count": lat["count"], "p90_supported": lat["p90_supported"],
                    "p99_ms": lat["p99_ms"]},
        "extra": {k: v for k, v in main.extra.items() if k != "client_s"},
    }
    if trace:
        layer_metrics = per_layer(w, runs[0], runs[1])
        window = spans.within(main.spans, *main.window)
        record["per_layer"] = layer_metrics
        plain_raw, plain_fixed, plain_factor = runs[0].end_to_end()
        record["plain_metrics"] = {"raw": plain_raw, "corrected": plain_fixed,
                                   "host_factor": plain_factor}
        cover = spans.coverage(window) if any(s.name == "session.run" for s in window) else None
        record["span_coverage"] = cover
        print(f"  tracing overhead {layer_metrics['trace.overhead_pct']:+.1f}% on corrected p50; "
              f"plan.* + session.* spans cover "
              f"{'-' if cover is None else f'{100 * cover:.1f}%'} of Session.run "
              f"(session.self_ms {layer_metrics['session.self_ms']:.4f})")
        for name, unit in PER_LAYER:
            print(f"  {name:<28} {unit:<6} {layer_metrics[name]:>12.4f}")
        reported = {name: (layer_metrics[name], unit) for name, unit in PER_LAYER}
    else:
        reported = {name: (reported_e2e[name], unit) for name, unit in END_TO_END}
    TRAJECTORY.parent.mkdir(parents=True, exist_ok=True)
    with open(TRAJECTORY, "a") as fh:
        fh.write(json.dumps(record) + "\n")
    return ok, attempted, failed, reported, record


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--host-corrected", default="",
                        help="comma list of metric or workload:metric to report corrected")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: {ROOT / 'src' / 'repro'} is missing; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    corrected = parse_corrected(args.host_corrected)
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, str(ROOT / "src"))

    host = fingerprint(ROOT, blas_info())
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(WORKLOADS[name], args.seed, args.seconds,
                                         bool(args.trace), corrected, host)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    ok = all(r[0] for r in results.values())
    if len(names) == 1:
        _, attempted, failed, metrics, _ = results[names[0]]
    else:
        attempted = sum(r[1] for r in results.values())
        failed = sum(r[2] for r in results.values())
        metrics = {f"{name}.{metric}": value for name, r in results.items()
                   for metric, value in r[3].items()}
    print(result_line(ok, attempted, failed, metrics))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
