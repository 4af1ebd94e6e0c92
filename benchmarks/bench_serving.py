"""Serving-tier load generator: latency percentiles vs offered load,
with and without injected faults.

Two drive modes against a real in-process :class:`ServingServer` (real
sockets, real micro-batching, real executor thread):

* **closed loop** — K concurrent clients, each firing its next request
  the moment the previous one completes.  Measures the tier's saturated
  throughput and the latency cost of micro-batch tiling.
* **open loop** — requests launched on a fixed metronome at an offered
  QPS regardless of completions (the paper-standard way to expose queue
  buildup: a closed loop self-throttles and hides it).  Swept across
  several offered rates.

Each scenario runs twice — clean, and under a deterministic fault mix
(transient kernel faults + slow batches) — so the report quantifies what
the robustness layer (retry, degradation, shedding) costs in p50/p99.

A third section sweeps the **workers axis**: the same closed-loop drive
against a pooled server (``serve --workers N`` equivalent, artifact
mmap-shared across worker processes) for each requested pool width.
Throughput is *recorded*, never *gated* — CI runners are often 1-2
cores, where extra workers cannot speed anything up; the report carries
``cpu_count`` so readers can judge the numbers in context.

A fourth section drives the **fleet axis**: one server over a
three-config zoo registry (``serve --fleet`` equivalent) under a memory
budget that holds two of the three models, so the drive itself forces
LRU eviction and lazy reload.  Per-config rows record throughput, p99,
and peak RSS; registry counters (loads, evictions, resident bytes) ride
along so a residency regression shows up in the artifact diff.

Run as a script (CI smoke lane)::

    python benchmarks/bench_serving.py --quick

which publishes ``benchmarks/results/BENCH_serving.json`` and exits
non-zero if the server fails to serve, sheds everything, or shuts down
dirty.
"""

import argparse
import asyncio
import json
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.inference.testing import integer_network_from_spec
from repro.models.model_zoo import mobilenet_v1_spec
from repro.runtime import Session
from repro.serving import (
    FaultInjector,
    ServerOptions,
    ServingServer,
    predict,
)
from repro.serving.metrics import LatencyRecorder

RESULTS_DIR = Path(__file__).parent / "results"

# Small enough that a laptop-class CI runner saturates it quickly.
RESOLUTION = 32
WIDTH = 0.25

FAULT_MIX = "kernel:every=20;slow:every=15,delay=0.01"


def _make_session() -> Session:
    spec = mobilenet_v1_spec(RESOLUTION, WIDTH, num_classes=5)
    net = integer_network_from_spec(spec, np.random.default_rng(0))
    return Session(net, input_hw=(RESOLUTION, RESOLUTION))


def _image() -> np.ndarray:
    return np.random.default_rng(1).uniform(0, 1, size=(3, RESOLUTION, RESOLUTION))


async def _closed_loop(host, port, image, clients, requests_per_client,
                       deadline_ms):
    lat = LatencyRecorder()
    statuses = []

    async def worker():
        for _ in range(requests_per_client):
            t0 = time.perf_counter()
            status, _ = await predict(host, port, image, deadline_ms=deadline_ms)
            lat.observe(time.perf_counter() - t0)
            statuses.append(status)

    t0 = time.perf_counter()
    await asyncio.gather(*[worker() for _ in range(clients)])
    wall = time.perf_counter() - t0
    return lat, statuses, wall


async def _open_loop(host, port, image, qps, duration_s, deadline_ms):
    lat = LatencyRecorder()
    statuses = []

    async def one():
        t0 = time.perf_counter()
        status, _ = await predict(host, port, image, deadline_ms=deadline_ms)
        lat.observe(time.perf_counter() - t0)
        statuses.append(status)

    interval = 1.0 / qps
    n = max(1, int(duration_s * qps))
    t_start = time.perf_counter()
    tasks = []
    for i in range(n):
        target = t_start + i * interval
        delay = target - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.create_task(one()))
    await asyncio.gather(*tasks)
    wall = time.perf_counter() - t_start
    return lat, statuses, wall


def _tally(lat: LatencyRecorder, statuses, wall):
    counts = {}
    for s in statuses:
        counts[str(s)] = counts.get(str(s), 0) + 1
    summary = lat.summary()
    return {
        "requests": len(statuses),
        "status_counts": counts,
        "achieved_qps": round(len(statuses) / wall, 1) if wall > 0 else 0.0,
        "p50_ms": summary["p50_ms"],
        "p90_ms": summary["p90_ms"],
        "p99_ms": summary["p99_ms"],
    }


async def _run_profile(session, faults_spec, quick):
    faults = FaultInjector.parse(faults_spec) if faults_spec else None
    options = ServerOptions(
        port=0, max_batch=8, max_wait_ms=2.0, queue_depth=256,
        default_deadline_ms=0.0,  # measure latency, don't drop
        retries=2,
    )
    server = ServingServer(session, options, faults=faults)
    host, port = await server.start()
    image = _image()
    out = {}
    try:
        clients = 4 if quick else 16
        per_client = 8 if quick else 32
        lat, statuses, wall = await _closed_loop(
            host, port, image, clients, per_client, deadline_ms=0)
        out["closed_loop"] = dict(_tally(lat, statuses, wall),
                                  clients=clients)

        sweep = [50, 100] if quick else [25, 50, 100, 200, 400]
        duration = 0.5 if quick else 2.0
        out["open_loop"] = []
        for qps in sweep:
            lat, statuses, wall = await _open_loop(
                host, port, image, qps, duration, deadline_ms=0)
            out["open_loop"].append(dict(_tally(lat, statuses, wall),
                                         offered_qps=qps))
        out["pending_at_stop"] = len(server.batcher)
        out["server_stats"] = server.stats.to_dict()
        if faults:
            out["fault_summary"] = faults.summary()
    finally:
        await server.stop()
    return out


async def _run_workers_point(session, workers, quick):
    """Closed-loop drive against a pooled server of the given width (its
    pool mmaps the artifact the session was saved to)."""
    options = ServerOptions(
        port=0, max_batch=8, max_wait_ms=2.0, queue_depth=256,
        default_deadline_ms=0.0,
        retries=2,
        workers=workers,
    )
    server = ServingServer(session, options)
    host, port = await server.start()
    image = _image()
    try:
        clients = 4 if quick else 16
        per_client = 8 if quick else 32
        lat, statuses, wall = await _closed_loop(
            host, port, image, clients, per_client, deadline_ms=0)
        point = dict(_tally(lat, statuses, wall),
                     workers=workers, clients=clients)
        if server.engine.pool is not None:
            pool_stats = server.engine.pool.stats()
            point["pool"] = {
                key: pool_stats[key]
                for key in ("alive", "restarts", "kills", "served",
                            "inline_fallbacks")
            }
        point["pending_at_stop"] = len(server.batcher)
    finally:
        await server.stop()
    return point


FLEET_CONFIGS = [(32, 0.25), (64, 0.25), (96, 0.25)]


def _peak_rss_bytes() -> int:
    import resource

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return peak * 1024 if sys.platform != "darwin" else peak


async def _run_fleet_axis(fleet_dir, quick):
    """Mixed-model closed-loop drive through one fleet server whose
    budget holds two of the three configs: per-config latency rows plus
    the eviction/reload counters the residency policy must produce."""
    from repro.serving import ModelRegistry

    costs = {}
    with ModelRegistry.from_directory(fleet_dir) as probe:
        for name in probe.models:
            costs[name] = probe.entry(name).cost_bytes()
    ordered = sorted(costs.values())
    budget = ordered[-1] + ordered[-2] + 4096  # two of three resident

    registry = ModelRegistry.from_directory(fleet_dir,
                                            memory_budget_bytes=budget)
    options = ServerOptions(
        port=0, max_batch=8, max_wait_ms=2.0, queue_depth=256,
        default_deadline_ms=0.0,
        retries=2,
    )
    server = ServingServer(registry=registry, options=options)
    host, port = await server.start()
    rounds = 4 if quick else 16
    images = {
        name: np.random.default_rng(1).uniform(
            0, 1, size=(3, int(name.split("x")[0]), int(name.split("x")[0]))
        )
        for name in registry.models
    }
    per_config = {
        name: {"lat": LatencyRecorder(), "statuses": []}
        for name in registry.models
    }
    rss_before = _peak_rss_bytes()
    try:
        t0 = time.perf_counter()
        for _ in range(rounds):
            # Round-robin across the fleet: every round touches all
            # three models, so the two-of-three budget must evict.
            for name in registry.models:
                t1 = time.perf_counter()
                status, _ = await predict(host, port, images[name],
                                          model=name, deadline_ms=0)
                per_config[name]["lat"].observe(time.perf_counter() - t1)
                per_config[name]["statuses"].append(status)
        wall = time.perf_counter() - t0
        registry_stats = registry.stats()
        out = {
            "budget_bytes": budget,
            "model_cost_bytes": costs,
            "rounds": rounds,
            "peak_rss_bytes": _peak_rss_bytes(),
            "peak_rss_delta_bytes": _peak_rss_bytes() - rss_before,
            "resident_bytes_at_stop": registry_stats["resident_bytes"],
            "loads": registry_stats["loads"],
            "evictions": registry_stats["evictions"],
            "per_config": [
                dict(
                    _tally(rec["lat"], rec["statuses"],
                           wall * len(rec["statuses"]) / max(1, rounds * 3)),
                    model=name,
                    loads=registry_stats["models"][name]["loads"],
                    evictions=registry_stats["models"][name]["evictions"],
                    cost_bytes=costs[name],
                )
                for name, rec in sorted(per_config.items())
            ],
            "pending_at_stop": len(server.batcher),
        }
    finally:
        await server.stop()
    return out


def _run_fleet_bench(quick):
    from repro.serving import materialize_fleet

    with tempfile.TemporaryDirectory(prefix="bench-fleet-") as tmp:
        materialize_fleet(Path(tmp), FLEET_CONFIGS, num_classes=5)
        return asyncio.run(_run_fleet_axis(Path(tmp), quick))


def _run_workers_axis(session, workers_list, quick):
    """Sweep pool widths over the same artifact (mmap-shared weights)."""
    with tempfile.TemporaryDirectory(prefix="bench-serving-") as tmp:
        artifact = Path(tmp) / "bench.artifact"
        session.save(artifact)
        points = []
        for workers in workers_list:
            points.append(asyncio.run(
                _run_workers_point(session, workers, quick)))
    return points


def run_bench(quick: bool, output: Path, workers_list) -> int:
    session = _make_session()
    report = {
        "bench": "serving",
        "model": f"mobilenet_v1_{RESOLUTION}_{WIDTH}",
        "mode": "quick" if quick else "full",
        "cpu_count": os.cpu_count(),
        "fault_mix": FAULT_MIX,
        "clean": asyncio.run(_run_profile(session, None, quick)),
        "faulted": asyncio.run(_run_profile(session, FAULT_MIX, quick)),
        "workers_axis": _run_workers_axis(session, workers_list, quick),
        "fleet_axis": _run_fleet_bench(quick),
    }

    RESULTS_DIR.mkdir(exist_ok=True)
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"[saved to {output}]")

    failures = []
    for label in ("clean", "faulted"):
        closed = report[label]["closed_loop"]
        ok = int(closed["status_counts"].get("200", 0))
        if ok == 0:
            failures.append(f"{label}: closed loop served nothing")
        if closed["p99_ms"] <= 0:
            failures.append(f"{label}: no latency samples")
        if report[label]["pending_at_stop"]:
            failures.append(f"{label}: dirty shutdown (requests left pending)")
    faulted = report["faulted"]
    if not any(v["fires"] for v in faulted.get("fault_summary", {}).values()):
        failures.append("faulted: fault mix never fired")
    if faulted["server_stats"]["batches"]["retries"] < 1:
        failures.append("faulted: kernel faults never exercised retry")
    # Workers axis is correctness-gated only (every request served, clean
    # shutdown, all workers alive).  Deliberately NO speedup gate: on a
    # 1-2 core runner extra workers add IPC cost and cannot pay it back.
    for point in report["workers_axis"]:
        w = point["workers"]
        if int(point["status_counts"].get("200", 0)) != point["requests"]:
            failures.append(f"workers={w}: not every request served")
        if point["pending_at_stop"]:
            failures.append(f"workers={w}: dirty shutdown")
        pool = point.get("pool")
        if pool is not None and pool["alive"] != w:
            failures.append(f"workers={w}: only {pool['alive']} workers alive")
    # Fleet axis: every config fully served, the budget actually forced
    # eviction + reload, and residency ended inside the budget.  Like
    # the workers axis, throughput itself is recorded, not gated.
    fleet = report["fleet_axis"]
    for point in fleet["per_config"]:
        if int(point["status_counts"].get("200", 0)) != point["requests"]:
            failures.append(f"fleet {point['model']}: not every request served")
    if fleet["evictions"] < 1:
        failures.append("fleet: the two-of-three budget never forced eviction")
    if fleet["loads"] <= len(fleet["per_config"]):
        failures.append("fleet: no lazy reload after eviction")
    if fleet["resident_bytes_at_stop"] > fleet["budget_bytes"]:
        failures.append("fleet: resident bytes ended above the budget")
    if fleet["pending_at_stop"]:
        failures.append("fleet: dirty shutdown")

    for label in ("clean", "faulted"):
        c = report[label]["closed_loop"]
        print(f"{label:>8}  closed-loop  {c['achieved_qps']:>7} qps   "
              f"p50 {c['p50_ms']:>7} ms   p99 {c['p99_ms']:>7} ms")
        for point in report[label]["open_loop"]:
            print(f"{label:>8}  open@{point['offered_qps']:<4}    "
                  f"{point['achieved_qps']:>7} qps   "
                  f"p50 {point['p50_ms']:>7} ms   p99 {point['p99_ms']:>7} ms")
    for point in report["workers_axis"]:
        print(f" workers={point['workers']:<2} closed-loop  "
              f"{point['achieved_qps']:>7} qps   "
              f"p50 {point['p50_ms']:>7} ms   p99 {point['p99_ms']:>7} ms")
    for point in fleet["per_config"]:
        print(f" fleet {point['model']:<9} "
              f"{point['achieved_qps']:>7} qps   "
              f"p50 {point['p50_ms']:>7} ms   p99 {point['p99_ms']:>7} ms   "
              f"loads {point['loads']}  evictions {point['evictions']}")
    print(f" fleet residency: {fleet['evictions']} evictions, "
          f"{fleet['loads']} loads, budget {fleet['budget_bytes']} B, "
          f"peak RSS {fleet['peak_rss_bytes']} B")

    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    print("serving bench OK")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="reduced sweep for the CI smoke lane")
    parser.add_argument("--output", type=Path,
                        default=RESULTS_DIR / "BENCH_serving.json")
    parser.add_argument("--workers", type=str, default=None,
                        help="CSV of pool widths for the workers axis "
                             "(default: 1,2 quick / 1,2,4 full)")
    args = parser.parse_args(argv)
    if args.workers:
        workers_list = [int(w) for w in args.workers.split(",") if w.strip()]
    else:
        workers_list = [1, 2] if args.quick else [1, 2, 4]
    return run_bench(args.quick, args.output, workers_list)


if __name__ == "__main__":
    sys.exit(main())
