"""Batch engine: the bridge from the asyncio front end to the
synchronous, GIL-releasing inference stack.

One ``BatchEngine`` runs tiles through one
:class:`~repro.serving.registry.ModelRegistry` — a fleet, or a single
session adopted as a fleet of one — on an executor, with the
robustness machinery around it:

* **retry with deterministic backoff** for transient faults — the only
  retry of a tile: ``ServerOptions.retries`` re-runs, with
  :func:`~repro.serving.policies.retry_delays` between them,
* a **hung-batch watchdog**: a batch exceeding ``batch_timeout_s`` is
  abandoned and the executor thread *replaced*, so one wedged kernel
  cannot take the tier down,
* **fault injection hooks** that run inside the executor thread,
  exactly where a real kernel would fail,
* one **circuit breaker per model**, created on first use.

Executor width follows ``ServerOptions.workers``.  At ``workers=1`` the
executor has a single inference thread.  At ``workers=N`` the registry
gives every resident model a :class:`repro.runtime.pool.WorkerPool` of
N artifact-backed processes and the executor widens to N threads, each
of which borrows an idle worker and runs its tile's round trip to that
process itself, so N tiles really execute concurrently.

The engine reports terminal failures as
:class:`~repro.serving.errors.BatchExecutionError`; the server layered
above decides what a terminal failure *means* (degrade, quarantine,
circuit state) — the engine only executes and retries.  A crashed pool
worker is respawned by the pool, which then raises
:class:`~repro.runtime.errors.WorkerCrashedError`; the engine retries
it like any other transient batch fault.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import threading
from typing import Optional

import numpy as np

from repro.serving.errors import (
    BatchExecutionError,
    HungBatchError,
    InjectedFaultError,
    ModelNotFoundError,
    OverBudgetError,
)
from repro.serving.faults import FaultInjector
from repro.serving.metrics import ServerStats
from repro.serving.policies import CircuitBreaker, ServerOptions, retry_delays


class BatchEngine:
    """Executes engine-shaped tiles with retry, watchdog, and injection.

    In process, a compiled plan's activation slabs are safe because the
    plan runs one call at a time (:class:`~repro.inference.plan.ExecutionPlan`
    holds its lock for the whole call), not because of the executor's
    width: an abandoned batch's thread goes on into the plan after the
    watchdog has replaced it, and it waits for the plan's lock like any
    other caller instead of writing the slabs under a live batch.  The
    trade-off: a kernel that truly wedges in process holds the lock, so
    the batches after it block until their own watchdog fires and the
    circuit breaker opens; without the lock they would run beside it
    and return corrupt answers.

    Each attempt carries a flag that the watchdog sets when it abandons
    the attempt.  A thread that wakes from its injected faults after
    that returns without calling :meth:`ModelRegistry.run`, so an
    abandoned batch costs no inference on top of its retry.  A tile
    already inside ``registry.run`` when the watchdog fires still runs
    to the end; its result is discarded.
    """

    def __init__(self, registry, options: Optional[ServerOptions] = None,
                 faults: Optional[FaultInjector] = None,
                 stats: Optional[ServerStats] = None,
                 default_model: Optional[str] = None):
        self.registry = registry
        self.default_model = default_model
        self.options = options or ServerOptions()
        self.faults = faults
        self.stats = stats or ServerStats()
        self.workers = max(1, int(self.options.workers))
        # One breaker per model, created on first use, so a poisoned
        # model opens its own circuit without shedding its neighbours.
        self._breakers: dict = {}
        self._executor = self._new_executor()
        self._closed = False

    def breaker_for(self, model: str) -> CircuitBreaker:
        breaker = self._breakers.get(model)
        if breaker is None:
            breaker = self._breakers[model] = CircuitBreaker(
                failure_threshold=self.options.circuit_threshold,
                reset_after_s=self.options.circuit_reset_s,
            )
        return breaker

    @property
    def breaker(self) -> Optional[CircuitBreaker]:
        """The default model's breaker (``None`` without a default)."""
        if self.default_model is None:
            return None
        return self.breaker_for(self.default_model)

    @property
    def pool(self):
        """The default model's worker pool, while it has one."""
        if self.default_model not in self.registry:
            return None
        return self.registry.entry(self.default_model).pool

    def _new_executor(self) -> concurrent.futures.ThreadPoolExecutor:
        return concurrent.futures.ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-batch"
        )

    @property
    def concurrency(self) -> int:
        """How many batches may execute at once: the pool width, or one
        for the in-process single-thread backend."""
        return self.workers

    def _run_sync(self, xs: np.ndarray, poisoned: bool, model: str,
                  abandoned: threading.Event) -> Optional[np.ndarray]:
        """Executor-thread body: faults first (that is where a real
        kernel would blow up), then the inference, routed through the
        registry (which loads/evicts under its budget right here, off
        the event loop, and runs the tile in-process or on the model's
        worker pool).  An attempt the watchdog gave up on while its
        faults held the thread returns without running the tile."""
        if self.faults:
            self.faults.apply_batch_faults()
        if abandoned.is_set():
            return None
        if poisoned:
            raise InjectedFaultError("poisoned request in batch")
        return np.argmax(self.registry.run(model, xs), axis=1)

    async def _attempt(self, xs: np.ndarray, poisoned: bool,
                       model: str) -> np.ndarray:
        loop = asyncio.get_running_loop()
        abandoned = threading.Event()
        future = loop.run_in_executor(self._executor, self._run_sync, xs,
                                      poisoned, model, abandoned)
        try:
            return await asyncio.wait_for(future, self.options.batch_timeout_s)
        except asyncio.TimeoutError:
            # The batch is wedged. Flag the attempt, so a thread that
            # wakes from its faults skips the inference, abandon the
            # executor (its thread will die when the stuck call
            # eventually returns or the process exits) and replace it so
            # the next batch runs on a healthy thread. wait_for already
            # cancelled `future` for us.
            abandoned.set()
            self.stats.hung_batches += 1
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = self._new_executor()
            raise HungBatchError(
                f"batch of {len(xs)} exceeded the "
                f"{self.options.batch_timeout_s:.1f}s watchdog"
            ) from None

    async def run_batch(self, xs: np.ndarray, poisoned: bool = False,
                        model: Optional[str] = None) -> np.ndarray:
        """Run one tile of ``model`` (default: the default model) to
        per-image class predictions, retrying up to
        ``ServerOptions.retries`` times; raises
        :class:`BatchExecutionError` when retries are exhausted.  Does
        *not* touch the circuit breaker — the server records outcomes
        after degradation has had its say.

        Fleet conditions — unknown model, over budget — are permanent
        for this request and re-raise untouched (no retry, no 500
        wrapping): they carry their own HTTP status.
        """
        if self._closed:
            raise BatchExecutionError("engine is closed")
        if model is None:
            model = self.default_model
        self.stats.observe_batch(len(xs))
        delays = retry_delays(self.options.retries)
        last: Optional[BaseException] = None
        for attempt in range(len(delays) + 1):
            if attempt:
                self.stats.retries += 1
                await asyncio.sleep(delays[attempt - 1])
            try:
                return await self._attempt(xs, poisoned, model)
            except asyncio.CancelledError:
                raise
            except (ModelNotFoundError, OverBudgetError):
                raise
            except Exception as exc:
                last = exc
        if isinstance(last, BatchExecutionError):
            raise last
        raise BatchExecutionError(
            f"batch of {len(xs)} failed after {len(delays) + 1} attempt(s): "
            f"{type(last).__name__}: {last}"
        ) from last

    async def close(self) -> None:
        self._closed = True
        self._executor.shutdown(wait=False, cancel_futures=True)
        # Joins every per-model pool and unmaps every model the registry
        # loaded (adopted sessions stay open) — off the event loop.
        await asyncio.get_running_loop().run_in_executor(
            None, self.registry.close
        )
