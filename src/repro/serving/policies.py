"""Robustness policies: retry backoff, circuit breaking, server options.

Everything here is deterministic and clock-injected so the chaos suite
can step time by hand: retry delays are a fixed exponential series (no
jitter — reproducibility beats thundering-herd avoidance at this
scale), and the circuit breaker is a plain three-state machine.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, List


def retry_delays(retries: int) -> List[float]:
    """The sleep before each of a tile's ``retries`` retries: 20 ms,
    doubling per retry, capped at 0.5 s."""
    return [min(0.02 * 2.0 ** i, 0.5) for i in range(retries)]


def retry_after_s(queue_depth: int, drain_rate: float,
                  lo: int = 1, hi: int = 30) -> int:
    """Seconds a shed client should wait before retrying.

    Estimated time to drain the current backlog at the recently
    observed completion rate (``ceil(depth / rate)``), clamped to
    ``[lo, hi]``.  With no observed drain (cold start, or the breaker
    tripped and nothing is completing) a non-empty backlog earns the
    pessimistic ``hi`` and an empty one the optimistic ``lo`` — a
    hardcoded constant under-backs-off exactly when the server is most
    loaded.
    """
    depth = max(0, int(queue_depth))
    if drain_rate <= 0.0:
        return hi if depth > 0 else lo
    return max(lo, min(hi, math.ceil(depth / drain_rate)))


class BreakerState(str, Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


class CircuitBreaker:
    """Per-model circuit breaker over consecutive terminal batch failures.

    CLOSED → (``failure_threshold`` consecutive failures) → OPEN →
    (``reset_after_s`` elapsed) → HALF_OPEN, which admits exactly one
    probe batch: success closes the circuit, failure re-opens it and
    restarts the reset clock.  While OPEN every request is shed at
    admission with a 503 — the engine is never touched.
    """

    def __init__(self, failure_threshold: int = 5, reset_after_s: float = 2.0,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        self.failure_threshold = int(failure_threshold)
        self.reset_after_s = float(reset_after_s)
        self.clock = clock
        self._failures = 0
        self._state = BreakerState.CLOSED
        self._opened_at = 0.0
        self._probe_inflight = False

    @property
    def state(self) -> BreakerState:
        self._maybe_half_open()
        return self._state

    @property
    def consecutive_failures(self) -> int:
        return self._failures

    def _maybe_half_open(self) -> None:
        if (self._state is BreakerState.OPEN
                and self.clock() - self._opened_at >= self.reset_after_s):
            self._state = BreakerState.HALF_OPEN
            self._probe_inflight = False

    def allow(self) -> bool:
        """May a batch proceed right now?  HALF_OPEN admits exactly one
        probe at a time; OPEN admits nothing."""
        self._maybe_half_open()
        if self._state is BreakerState.CLOSED:
            return True
        if self._state is BreakerState.HALF_OPEN and not self._probe_inflight:
            self._probe_inflight = True
            return True
        return False

    def record_success(self) -> None:
        self._failures = 0
        self._state = BreakerState.CLOSED
        self._probe_inflight = False

    def record_failure(self) -> None:
        self._failures += 1
        if (self._state is BreakerState.HALF_OPEN
                or self._failures >= self.failure_threshold):
            self._state = BreakerState.OPEN
            self._opened_at = self.clock()
            self._probe_inflight = False


@dataclass(frozen=True)
class ServerOptions:
    """Configuration of the serving front end (one frozen value object).

    ``max_batch`` / ``max_wait_ms``
        Micro-batcher tile size and partial-tile flush timeout.
    ``queue_depth``
        Bound on admitted-but-unanswered requests (pending + in batch);
        beyond it requests are shed with a 503.
    ``default_deadline_ms``
        Per-request deadline when the client does not send one
        (``deadline_ms`` in the request body overrides; 0 disables).
    ``batch_timeout_s``
        Hung-batch watchdog: a batch exceeding this wall time is
        abandoned and the executor thread replaced.
    ``retries``
        How many times the engine re-runs a tile after a transient
        fault (a kernel fault, a hung batch, a crashed pool worker,
        which the pool respawns first), waiting :func:`retry_delays`
        between tries; 0 fails the tile on its first fault.  It is the
        only retry of a tile.
    ``circuit_threshold`` / ``circuit_reset_s``
        :class:`CircuitBreaker` parameters.
    ``workers``
        Inference backend width: ``1`` executes in-process on the
        engine's single inference thread (the degenerate case); ``N >
        1`` gives every resident model a
        :class:`repro.runtime.pool.WorkerPool` of N artifact-backed
        processes sharing one mmap'd copy of its weights (tiles of up to
        ``max(32, max_batch)`` images), and the batch loop runs up to N
        tiles concurrently.
    """

    host: str = "127.0.0.1"
    port: int = 8707
    max_batch: int = 8
    max_wait_ms: float = 5.0
    queue_depth: int = 64
    default_deadline_ms: float = 1000.0
    batch_timeout_s: float = 30.0
    retries: int = 2
    circuit_threshold: int = 5
    circuit_reset_s: float = 2.0
    workers: int = 1

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {self.queue_depth}")
        if self.max_wait_ms < 0 or self.default_deadline_ms < 0:
            raise ValueError("timeouts must be >= 0")
        if self.batch_timeout_s <= 0:
            raise ValueError("batch_timeout_s must be > 0")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")

    def replace(self, **changes: Any) -> "ServerOptions":
        return dataclasses.replace(self, **changes)
