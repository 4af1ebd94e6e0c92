"""Serving metrics: reservoir-free latency percentiles plus counters.

Small by design — enough for the load generator and the ``/stats``
endpoint to report p50/p99 and per-policy outcome counts without any
dependency.  Latency samples are capped; once full, every k-th sample
is kept (deterministic decimation, not reservoir sampling, so repeated
runs agree exactly).
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Dict, List


class LatencyRecorder:
    """Collects latency samples (seconds) and reports percentiles."""

    def __init__(self, cap: int = 200_000):
        self.cap = int(cap)
        self.samples: List[float] = []
        self.count = 0
        self.total = 0.0
        self._stride = 1

    def observe(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        if self.count % self._stride:
            return
        self.samples.append(seconds)
        if len(self.samples) >= self.cap:
            # Decimate deterministically: keep every other sample and
            # double the stride for future observations.
            self.samples = self.samples[::2]
            self._stride *= 2

    def percentile(self, p: float) -> float:
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        k = min(len(ordered) - 1, max(0, round(p / 100.0 * (len(ordered) - 1))))
        return ordered[k]

    def summary(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean_ms": round(1e3 * self.total / self.count, 3) if self.count else 0.0,
            "p50_ms": round(1e3 * self.percentile(50), 3),
            "p90_ms": round(1e3 * self.percentile(90), 3),
            "p99_ms": round(1e3 * self.percentile(99), 3),
            "max_ms": round(1e3 * max(self.samples), 3) if self.samples else 0.0,
        }


class DrainTracker:
    """Recent request-completion rate, for backpressure hints.

    Records a timestamp per completed request in a bounded deque and
    reports completions/second over the trailing ``window_s``.  Feeds
    :func:`repro.serving.policies.retry_after_s` so a shed client's
    Retry-After reflects how fast the queue is actually draining rather
    than a constant.
    """

    def __init__(self, window_s: float = 10.0, cap: int = 4096,
                 clock: Callable[[], float] = time.monotonic):
        self.window_s = float(window_s)
        self.clock = clock
        self._marks: deque = deque(maxlen=int(cap))

    def mark(self) -> None:
        self._marks.append(self.clock())

    def rate(self) -> float:
        """Completions per second over the trailing window (0.0 when
        nothing has completed recently)."""
        now = self.clock()
        horizon = now - self.window_s
        while self._marks and self._marks[0] < horizon:
            self._marks.popleft()
        if not self._marks:
            return 0.0
        span = max(now - self._marks[0], 1e-9)
        return len(self._marks) / span


class ServerStats:
    """Outcome counters + end-to-end latency for one server instance.

    One counter per policy outcome, so the chaos suite can assert *which*
    policy handled an injected fault rather than inferring it from logs.
    """

    def __init__(self):
        self.latency = LatencyRecorder()
        self.completed = 0
        self.malformed = 0
        self.read_timeout = 0
        self.shed_queue = 0
        self.shed_circuit = 0
        self.shed_shutdown = 0
        self.deadline_dropped = 0
        self.failed = 0
        self.quarantined = 0
        self.batches = 0
        self.batched_images = 0
        self.retries = 0
        self.degraded_batches = 0
        self.hung_batches = 0
        self.breaker_opens = 0
        # Routing outcomes (always zero on a server built over a session).
        self.unknown_model = 0
        self.over_budget = 0

    def observe_batch(self, size: int) -> None:
        self.batches += 1
        self.batched_images += size

    def to_dict(self) -> dict:
        return {
            "requests": {
                "completed": self.completed,
                "malformed": self.malformed,
                "read_timeout": self.read_timeout,
                "shed_queue": self.shed_queue,
                "shed_circuit": self.shed_circuit,
                "shed_shutdown": self.shed_shutdown,
                "deadline_dropped": self.deadline_dropped,
                "failed": self.failed,
                "quarantined": self.quarantined,
                "unknown_model": self.unknown_model,
                "over_budget": self.over_budget,
            },
            "batches": {
                "count": self.batches,
                "images": self.batched_images,
                "mean_size": round(self.batched_images / self.batches, 2)
                if self.batches else 0.0,
                "retries": self.retries,
                "degraded": self.degraded_batches,
                "hung": self.hung_batches,
                "breaker_opens": self.breaker_opens,
            },
            "latency": self.latency.summary(),
        }
