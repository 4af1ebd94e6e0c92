"""Measurement arithmetic shared by every workload.

Three pieces, each small enough to test on its own:

* **Percentiles and the tail rule.**  A timing is reported as its median
  and its 90th percentile.  A percentile is *supported* only when at
  least ten samples lie beyond it; p99 is recorded in the run record
  when supported and never gated, because at a few thousand samples it
  follows host hiccups.  The window's operations are cut, in time order,
  into up to ten chunks that each support p90 on their own, and p50 and
  p90 are the medians of the chunks' percentiles: a host stall that
  covers less than half the chunks cannot move them.
* **Host correction.**  This host runs everything up to ~1.5x slower for
  seconds to minutes at a time.  A repo-independent calibration kernel
  (a pure-Python integer loop that takes ~1 ms on a quiet host) is timed
  while the program under test is idle, and a CPU-bound timing is
  corrected as ``raw * REFERENCE_S / median(kernel time)`` over the
  kernel samples nearest to it in time; a rate is divided by the mean
  factor of its operations.  A kernel sample is kept only when the
  program used no CPU while it ran, read from the process and thread
  CPU clocks, so no change to the program can move the correction.
* **The arrival schedule.**  Open-loop sends follow seeded Poisson
  arrivals, conditioned on their mean count: the same seed gives the
  same schedule.
"""

from __future__ import annotations

import bisect
import json
import math
import random
import statistics
import time
from typing import Callable, Dict, Iterable, List, Sequence

#: Nominal kernel time.  Corrected timings read as if the host ran the
#: kernel in exactly this long.
REFERENCE_S = 1.0e-3
#: Kernel loop length chosen so a quiet 2-vCPU Xeon host runs it in ~1 ms.
KERNEL_ITERATIONS = 15_000
#: CPU the program under test may use while a sample runs and the sample
#: still count as taken on an idle program (clock-read jitter only).
IDLE_CPU_TOLERANCE_NS = 20_000
#: Samples a percentile needs beyond it to be reported as supported.
TAIL_SAMPLES = 10
#: Most chunks a window's operations are cut into for p50 and p90.
MAX_CHUNKS = 10

#: Kept samples nearest in time that set the host factor at one moment.
LOCAL_SAMPLES = 5
#: End-to-end metrics that have a host-corrected value.
CORRECTABLE = ("setup_s", "p50_ms", "p90_ms", "images_per_s", "cpu_ms_per_image")


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------
def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``q`` in [0, 100])."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[min(len(ordered), max(1, rank)) - 1]


def tail_supported(n: int, q: float) -> bool:
    """Whether ``n`` samples leave at least ``TAIL_SAMPLES`` beyond the
    ``q``-th percentile."""
    return n * (100.0 - q) / 100.0 >= TAIL_SAMPLES


def chunked_percentile(samples: Sequence[float], q: float) -> float:
    """Median over time-ordered chunks of each chunk's ``q``-th
    percentile, with as many chunks (up to ``MAX_CHUNKS``) as leave every
    chunk enough samples to support p90; one chunk when the sample is
    too small for two."""
    n = len(samples)
    chunks = max(1, min(MAX_CHUNKS, n // (10 * TAIL_SAMPLES)))
    bounds = [n * i // chunks for i in range(chunks + 1)]
    return statistics.median(percentile(samples[a:b], q) for a, b in zip(bounds, bounds[1:]))


def summarize(samples_s: Sequence[float]) -> Dict[str, object]:
    """Chunked p50 and p90 and (when supported) the window's p99 of a
    latency sample in time order, in ms, with the sample count and
    which tails the count supports."""
    n = len(samples_s)
    out: Dict[str, object] = {
        "count": n,
        "p50_ms": 1e3 * chunked_percentile(samples_s, 50),
        "p90_ms": 1e3 * chunked_percentile(samples_s, 90),
        "p90_supported": tail_supported(n, 90),
        "p99_ms": None,
    }
    if tail_supported(n, 99):
        out["p99_ms"] = 1e3 * percentile(samples_s, 99)
    return out


# ----------------------------------------------------------------------
# Host correction
# ----------------------------------------------------------------------
def calibration_kernel(iterations: int = KERNEL_ITERATIONS) -> int:
    """Fixed pure-Python integer work; imports nothing from the program."""
    acc = 0
    for i in range(iterations):
        acc += i * i & 7
    return acc


def own_other_threads_cpu_ns() -> int:
    """CPU this process spent outside the calling thread.

    The difference of two readings is the CPU other threads used in
    between, up to the few hundred ns of the reads themselves.
    """
    return time.process_time_ns() - time.thread_time_ns()


def process_cpu_ns(pid: int) -> int:
    """CPU time (user + sys, all threads) of another process, ns
    resolution, through the kernel's per-process CPU clock."""
    return time.clock_gettime_ns(((~pid) << 3) | 2)


class Calibrator:
    """Takes calibration samples and keeps only the idle ones.

    ``busy_probes`` are zero-argument callables returning a monotonically
    growing CPU counter (ns) of everything that must stay idle while the
    kernel runs — the program's other threads, or the server process.
    """

    def __init__(self, busy_probes: Iterable[Callable[[], int]],
                 clock: Callable[[], float] = time.perf_counter,
                 kernel: Callable[[], object] = calibration_kernel):
        self.busy_probes = list(busy_probes)
        self.clock = clock
        self.kernel = kernel
        #: ``(start, seconds, busy_ns)`` per sample, kept or not.
        self.samples: List[tuple] = []
        #: CPU the kernel itself used (for subtracting from CPU totals).
        self.kernel_cpu_ns = 0

    def sample(self) -> bool:
        before = [probe() for probe in self.busy_probes]
        cpu0 = time.thread_time_ns()
        t0 = self.clock()
        self.kernel()
        dt = self.clock() - t0
        self.kernel_cpu_ns += time.thread_time_ns() - cpu0
        busy = sum(probe() - b for probe, b in zip(self.busy_probes, before))
        self.samples.append((t0, dt, busy))
        return busy <= IDLE_CPU_TOLERANCE_NS


def kept_samples(samples: Iterable[tuple]) -> List[tuple]:
    """``(start, seconds)`` of the samples taken on an idle program, in
    time order."""
    return sorted((t0, dt) for t0, dt, busy in samples if busy <= IDLE_CPU_TOLERANCE_NS)


def host_factor(durations: Sequence[float], reference_s: float = REFERENCE_S) -> float:
    """``reference / median(kernel time)``: below 1 on a slow host."""
    if not durations:
        raise ValueError("no idle calibration samples to correct with")
    return reference_s / statistics.median(durations)


def local_factors(times: Sequence[float], samples: Iterable[tuple],
                  k: int = LOCAL_SAMPLES) -> List[float]:
    """The host factor at each of ``times``, from the ``k`` kept samples
    nearest in time.

    The host's speed drifts within a run as well as between runs, so an
    operation is corrected by the samples taken around it rather than by
    the run's median.
    """
    kept = kept_samples(samples)
    if not kept:
        raise ValueError("no idle calibration samples to correct with")
    starts = [t for t, _ in kept]
    k = min(k, len(kept))
    factors = []
    for t in times:
        lo = hi = bisect.bisect_left(starts, t)
        while hi - lo < k:
            if hi == len(kept) or (lo > 0 and t - starts[lo - 1] <= starts[hi] - t):
                lo -= 1
            else:
                hi += 1
        factors.append(host_factor([dt for _, dt in kept[lo:hi]]))
    return factors


def parse_corrected(spec: str) -> List[tuple]:
    """``"p50_ms,engine-b1:setup_s"`` -> ``[(None, "p50_ms"),
    ("engine-b1", "setup_s")]``; a bare metric applies to every
    workload."""
    pairs = []
    for token in filter(None, (t.strip() for t in spec.split(","))):
        workload, _, metric = token.rpartition(":")
        if metric not in CORRECTABLE:
            raise ValueError(f"metric {metric!r} cannot be host-corrected")
        pairs.append((workload or None, metric))
    return pairs


def is_corrected(pairs: Sequence[tuple], workload: str, metric: str) -> bool:
    return any(m == metric and w in (None, workload) for w, m in pairs)


# ----------------------------------------------------------------------
# Open-loop arrivals
# ----------------------------------------------------------------------
def poisson_schedule(seed: int, rate: float, duration_s: float) -> List[float]:
    """Sorted send offsets (s from window start) of Poisson arrivals at
    mean ``rate`` per second over ``duration_s``; a pure function of its
    arguments.

    The process is conditioned on its mean count, ``round(rate *
    duration_s)`` arrivals, which makes the arrival times independent
    and uniform over the window.  Every seed then offers the same load,
    so the number of requests does not spread the figures between runs.
    """
    if rate <= 0 or duration_s <= 0:
        raise ValueError("rate and duration must be positive")
    rng = random.Random(seed)
    count = max(1, round(rate * duration_s))
    return sorted(rng.uniform(0.0, duration_s) for _ in range(count))


# ----------------------------------------------------------------------
# Result line
# ----------------------------------------------------------------------
def result_line(correct_: bool, attempted: int, failed: int,
                metrics: Dict[str, tuple]) -> str:
    """The one-line JSON result: ``metrics`` maps name -> (value, unit)."""
    return json.dumps({
        "correct": bool(correct_),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    })
