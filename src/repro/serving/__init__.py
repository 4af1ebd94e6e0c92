"""repro.serving — fault-tolerant asyncio micro-batching over a Session.

The serving tier turns the synchronous, single-process
:class:`repro.runtime.Session` into a network service built for
failure: concurrent single requests are gathered into engine-shaped
tiles (flush on max-batch or max-wait, remainders carried over), every
request carries a deadline enforced *before* batching, admission is
bounded with explicit 503 shedding, a tile that hits a transient fault
(a worker crash included) is retried ``ServerOptions.retries`` times
with deterministic backoff, consecutive batch failures open a per-model
circuit breaker, and a poisoned tile degrades to batch-of-1 so one bad
request cannot take its neighbours down.

Every one of those failure modes is injectable at a deterministic rate
through :mod:`repro.serving.faults` — the chaos suite and the CI smoke
lane assert the policies, they do not hope for them.

Quickstart::

    from repro.runtime import Session
    from repro.serving import ServerOptions, serve

    serve(Session.load("model.artifact"),
          ServerOptions(port=8707, max_batch=8, max_wait_ms=5))

or from the shell: ``repro-mcu serve model.artifact``.
"""

from repro.serving.batcher import MicroBatcher, Request
from repro.serving.client import predict, raw_request, request_json
from repro.serving.engine import BatchEngine
from repro.serving.errors import (
    BatchExecutionError,
    CircuitOpenError,
    DeadlineExceededError,
    HungBatchError,
    InjectedFaultError,
    MalformedRequestError,
    ModelNotFoundError,
    OverBudgetError,
    QueueFullError,
    RequestTimeoutError,
    ServerClosingError,
    ServingError,
)
from repro.serving.faults import FaultInjector, FaultSpec, corrupt_artifact
from repro.serving.metrics import DrainTracker, LatencyRecorder, ServerStats
from repro.serving.policies import (
    BreakerState,
    CircuitBreaker,
    ServerOptions,
    retry_after_s,
)
from repro.serving.registry import FleetEntry, ModelRegistry, materialize_fleet
from repro.serving.server import ServingServer, serve

__all__ = [
    "MicroBatcher",
    "Request",
    "BatchEngine",
    "ModelRegistry",
    "FleetEntry",
    "materialize_fleet",
    "ServingServer",
    "serve",
    "ServerOptions",
    "CircuitBreaker",
    "BreakerState",
    "FaultInjector",
    "FaultSpec",
    "corrupt_artifact",
    "ServerStats",
    "LatencyRecorder",
    "DrainTracker",
    "retry_after_s",
    "ServingError",
    "MalformedRequestError",
    "ModelNotFoundError",
    "OverBudgetError",
    "DeadlineExceededError",
    "RequestTimeoutError",
    "QueueFullError",
    "CircuitOpenError",
    "ServerClosingError",
    "BatchExecutionError",
    "HungBatchError",
    "InjectedFaultError",
    "predict",
    "request_json",
    "raw_request",
]
