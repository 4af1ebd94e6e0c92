"""One ``engine-*`` workload in a fresh process.

``run.py`` launches this file with BLAS on one thread and ``src`` on the
import path, so the peak RSS it reports is the engine's own.  In order:

1. set-up sample 1: ``Session.load`` of the artifact to the first
   inference (one image) returned, after three calibration samples that
   correct it;
2. warm-up: one pass over the seeded input pool, whose outputs every
   timed operation must then reproduce bit for bit;
3. the timed window: ``Session.run`` on one image (``--batch 1``) or
   ``Session.run_batched`` on a tile of eight (``--batch 8``) in a closed
   loop, with a calibration sample whenever 50 ms have passed, taken
   between calls while the engine is idle;
4. peak RSS, then the remaining set-up samples, each after its own
   calibration samples;
5. outside any timing, seeded images of the pool checked bit-equal
   against ``IntegerNetwork.forward``, the int64 reference.

Usage (``run.py`` is the normal caller)::

    PYTHONPATH=src python3 -m perfbench.engine_child ARTIFACT \
        --resolution 128 --batch 1 --seed 1 --seconds 10 --out result.json \
        [--spans spans.json]
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time

import numpy as np

from perfbench.host import blas_info, vm_hwm_kb
from perfbench.measure import Calibrator, own_other_threads_cpu_ns
from perfbench.spans import Tracer, install_engine

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 15
#: Seeded images in the input pool, per batch size.
POOL_IMAGES = {1: 16, 8: 32}
#: Pool images checked against the int64 reference after the window.
REFERENCE_CHECKS = {1: 4, 8: 2}
CAL_INTERVAL_S = 0.05
#: Calibration samples per idle gap: one between batch-1 calls, three
#: after each (half-second) tile of eight.
CAL_BURST = {1: 1, 8: 3}
#: Calibration samples before each set-up.
SETUP_CAL = 3
WARMUP_S = 0.5


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("artifact")
    parser.add_argument("--resolution", type=int, required=True)
    parser.add_argument("--batch", type=int, choices=(1, 8), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", help="trace the run and write its spans here")
    args = parser.parse_args(argv)

    tracer = Tracer()
    if args.spans:
        install_engine(tracer)
    from repro.runtime import Session

    batch, r = args.batch, args.resolution
    rng = np.random.default_rng(args.seed)
    pool = rng.uniform(0.0, 1.0, size=(POOL_IMAGES[batch], 3, r, r))
    intervals = []
    setup_cal = Calibrator([own_other_threads_cpu_ns])

    def setup_once():
        gc.collect()
        for _ in range(SETUP_CAL):
            setup_cal.sample()
        t0 = time.perf_counter()
        session = Session.load(args.artifact)
        session.run(pool[:1])
        intervals.append((t0, time.perf_counter()))
        return session

    session = setup_once()
    if batch == 1:
        inputs = [pool[i:i + 1] for i in range(len(pool))]
        run = session.run
    else:
        inputs = [pool[i:i + batch] for i in range(0, len(pool), batch)]

        def run(x):
            return session.run_batched(x, batch_size=batch)

    expected = [run(x) for x in inputs]
    warm_until = time.perf_counter() + WARMUP_S
    while time.perf_counter() < warm_until:
        for x in inputs:
            run(x)

    cal = Calibrator([own_other_threads_cpu_ns])
    starts, latencies, failed, i = [], [], 0, 0
    cpu0 = time.process_time_ns()
    t_start = time.perf_counter()
    deadline, next_cal = t_start + args.seconds, t_start
    while True:
        now = time.perf_counter()
        if now >= deadline:
            break
        if now >= next_cal:
            for _ in range(CAL_BURST[batch]):
                cal.sample()
            next_cal = time.perf_counter() + CAL_INTERVAL_S
        k = i % len(inputs)
        tracer.op = i
        t0 = time.perf_counter()
        out = run(inputs[k])
        latencies.append(time.perf_counter() - t0)
        starts.append(t0)
        if not np.array_equal(out, expected[k]):
            failed += 1
        i += 1
    t_end = time.perf_counter()
    cpu_ns = time.process_time_ns() - cpu0 - cal.kernel_cpu_ns
    tracer.op = None
    rss_kb = vm_hwm_kb()

    plan = session.plan
    layers = [(layer.name, layer.kind) for layer in plan.layers]
    arena_bytes = plan.arena_for((r, r)).planned_bytes(batch)
    network = session.network
    for _ in range(SETUP_REPS - 1):
        setup_once().close()
    tracer.uninstall()

    mismatches = 0
    picks = sorted(rng.choice(len(pool), size=REFERENCE_CHECKS[batch], replace=False))
    for j in picks:
        reference = network.forward(pool[j:j + 1])
        got = expected[j] if batch == 1 else expected[j // batch][j % batch][None]
        mismatches += int(not np.array_equal(reference, got))
    session.close()

    if args.spans:
        tracer.dump(args.spans)
    with open(args.out, "w") as fh:
        json.dump({
            "starts": starts,
            "latencies_s": latencies,
            "ops": i,
            "images": i * batch,
            "failed": failed,
            "window": [t_start, t_end],
            "cpu_ns": cpu_ns,
            "calibration": cal.samples,
            "rss_kb": rss_kb,
            "setup_intervals": intervals,
            "setup_calibration": setup_cal.samples,
            "reference_checked": len(picks),
            "reference_mismatches": mismatches,
            "blas": blas_info(),
            "layers": layers,
            "arena_planned_bytes": arena_bytes,
            "trace_missing": tracer.missing,
        }, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
