"""Fault-tolerant asyncio serving front end over a model fleet.

A server is built over a :class:`~repro.serving.registry.ModelRegistry`
of artifacts, or over one :class:`~repro.runtime.Session`, which it
adopts into a one-entry, budget-less registry as the default model — a
fleet of one.  Both take the same path; a session-built server just
ignores the request's ``"model"`` field and leaves replies unlabelled.

One process, three moving parts:

* **connection handlers** (one asyncio task per connection) parse a
  minimal HTTP/1.1 request and its JSON body (``orjson``), validate the
  payload at the model's boundary, run admission control (circuit
  state, bounded queue), and park a
  :class:`~repro.serving.batcher.Request` future;
* the **batch loop** (one task) drives the
  :class:`~repro.serving.batcher.MicroBatcher` — one FIFO lane per
  (model, input shape); expire deadlines *before* batching, flush on
  full-or-timeout, carry remainders — and hands tiles to the
  :class:`~repro.serving.engine.BatchEngine`, keeping up to
  ``engine.concurrency`` tiles in flight at once (one in-process, N
  with ``--workers N``).  An admitted request is either queued in the
  batcher or in the tile of one batch task, so shutdown finds and
  answers every one;
* the **engine** executes through the registry with retry and a
  hung-batch watchdog — on its single inference thread, or across each
  model's process :class:`~repro.runtime.pool.WorkerPool` sharing one
  mmap'd copy of the weights.

Failure policy (the README table restates this mapping):

====================  =========================================  ======
failure                policy                                    status
====================  =========================================  ======
malformed payload      reject at parse/validate, stay live        400
request read too slow  answer at the read deadline, close         408
unknown fleet model    reject at admission (permanent)            404
model over budget      cannot be made resident even after LRU     413
deadline passed        drop before batching, never infer          504
queue at depth         shed with ``Retry-After`` (backpressure)   503
circuit open           shed until half-open probe succeeds        503
transient batch fault  retry with deterministic backoff           —
worker crash           respawn, then retry as a transient fault   —
hung batch             watchdog abandons it, executor replaced    (retry)
poisoned batch         re-run batch-of-1, quarantine poisoner     500*
server shutdown        fail queued and in-flight requests fast    503
====================  =========================================  ======

(* only the poisoning request; innocents in the tile still get 200.)
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Dict, List, Optional, Tuple

import numpy as np
import orjson

from repro.runtime.errors import InvalidInputError
from repro.runtime.pool import PoolOptions
from repro.serving.batcher import MicroBatcher, Request
from repro.serving.engine import BatchEngine
from repro.serving.errors import (
    BatchExecutionError,
    CircuitOpenError,
    DeadlineExceededError,
    MalformedRequestError,
    ModelNotFoundError,
    OverBudgetError,
    QueueFullError,
    RequestTimeoutError,
    ServerClosingError,
    ServingError,
)
from repro.serving.faults import FaultInjector
from repro.serving.metrics import DrainTracker, ServerStats
from repro.serving.policies import BreakerState, ServerOptions, retry_after_s
from repro.serving.registry import ModelRegistry

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable", 504: "Gateway Timeout",
}
_MAX_HEADER_BYTES = 16 * 1024
# Request-body cap: a larger Content-Length is a 400 before any body
# byte is read, not an OOM.
_MAX_BODY_BYTES = 64 * 1024 * 1024
# Seconds a client has to send its whole request: request line, headers
# and body.  A client that stalls mid-request gets a 408 instead of
# holding its handler task forever.
_READ_TIMEOUT_S = 10.0
# orjson.loads recurses once per nesting level and has no depth limit of
# its own: 3.8.3 overflows a 1 MiB thread stack at 6-8k nested objects
# (an 8 MiB one at 48-56k) and takes the process down.  A body holding
# at most this many arrays and objects cannot nest deeper; a CHW image
# holds C*H + C + 1 arrays (677 at 3x224x224).
_MAX_JSON_CONTAINERS = 4096


def _count_containers(body: bytes) -> int:
    """``[`` plus ``{`` bytes in ``body``, string contents included — an
    upper bound on its JSON nesting depth."""
    raw = np.frombuffer(body, np.uint8)
    return int(np.count_nonzero(raw == 0x5B) + np.count_nonzero(raw == 0x7B))


class ServingServer:
    """The micro-batching HTTP front end: stdlib asyncio, orjson bodies.

    Endpoints: ``POST /v1/predict`` (body ``{"input": CHW-nested-list,
    "deadline_ms": float?, "model": str?}``), ``GET /healthz``,
    ``GET /stats``.  ``model`` routes between fleet artifacts when the
    server was built over a
    :class:`~repro.serving.registry.ModelRegistry`; a server built over
    a session ignores it.  A ``--workers N`` pool over a session mmaps
    the artifact the session was loaded from or saved to
    (``Session.source_artifact``) instead of staging a copy.
    """

    def __init__(self, session=None, options: Optional[ServerOptions] = None,
                 faults: Optional[FaultInjector] = None,
                 registry=None, default_model: Optional[str] = None):
        if (session is None) == (registry is None):
            raise ValueError(
                "ServingServer needs exactly one of a session or a registry"
            )
        self.options = options or ServerOptions()
        # A fleet routes by the request's "model" and labels replies; a
        # session server is a fleet of one whose clients never name it.
        self._routed = registry is not None
        if session is not None:
            registry = ModelRegistry()
            default_model = registry.adopt("default", session).name
        if self.options.workers > 1:
            registry.use_pools(PoolOptions(
                workers=self.options.workers,
                max_tile=max(32, self.options.max_batch),
            ), faults)
        self.registry = registry
        self.default_model = default_model
        self.faults = faults
        self.stats = ServerStats()
        self.drain = DrainTracker()
        self.engine = BatchEngine(registry, self.options, faults=faults,
                                  stats=self.stats,
                                  default_model=default_model)
        self.batcher = MicroBatcher(self.options.max_batch,
                                    self.options.max_wait_ms / 1e3)
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop_task: Optional[asyncio.Task] = None
        self._wakeup = asyncio.Event()
        self._closing = False
        # Each running batch task and its tile: with a worker pool
        # several tiles execute at once.
        self._inflight: Dict[asyncio.Task, List[Request]] = {}
        self._startup_health: Optional[dict] = None
        self.host: Optional[str] = None
        self.port: Optional[int] = None

    def _inflight_count(self) -> int:
        return sum(len(batch) for batch in self._inflight.values())

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Warm the default model (load it, stand up its worker pool
        when ``workers > 1``, one healthcheck inference plans the
        arena), bind the socket, and start the batch loop.  Returns the
        bound ``(host, port)`` — pass ``port=0`` for an ephemeral
        port."""
        loop = asyncio.get_running_loop()
        self._startup_health = await loop.run_in_executor(
            None, self._startup_check
        )
        self._server = await asyncio.start_server(
            self._handle_connection, self.options.host, self.options.port
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        self._loop_task = asyncio.create_task(self._batch_loop(),
                                              name="repro-batch-loop")
        return self.host, self.port

    def _startup_check(self) -> dict:
        """Blocking warmup probe (runs off the event loop).

        Reports the fleet shape.  With a default model, load it and
        stand up its pool so the first request pays neither, then run
        its session healthcheck; a default that cannot fit the budget
        is a startup failure."""
        report = {"ok": True, "fleet": len(self.registry.models)}
        if self.default_model is None:
            return report
        try:
            entry = self.registry.checkout(self.default_model)
        except ServingError as exc:
            return {"ok": False, "error": str(exc)}
        try:
            report.update(entry.session.healthcheck())
        finally:
            self.registry.release(entry)
        report["warmed"] = self.default_model
        return report

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, answer every queued and
        in-flight request with a 503, then stop the loop and the batch
        tasks and release the inference backend."""
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # No await from here to the cancels: nothing can be taken or
        # admitted between the answers and the cancellation.
        pending = self.batcher.drain() + [
            r for batch in self._inflight.values() for r in batch
        ]
        for r in pending:
            if self._fail(r, ServerClosingError("server is shutting down")):
                self.stats.shed_shutdown += 1
        for task in [self._loop_task, *self._inflight]:
            if task is None:
                continue
            task.cancel()
            try:
                await task
            # Every request was answered above; here only the
            # cancellation counts (CancelledError is a BaseException and
            # must be named).
            except (asyncio.CancelledError, Exception):  # analysis: ignore[except-swallow]
                pass
        await self.engine.close()

    async def serve_forever(self, ttl_s: Optional[float] = None) -> None:
        """Serve until cancelled (or for ``ttl_s`` seconds), then stop
        cleanly."""
        try:
            if ttl_s is None:
                await asyncio.Event().wait()  # park until cancelled
            else:
                await asyncio.sleep(ttl_s)
        finally:
            await self.stop()

    # -- request futures ----------------------------------------------
    @staticmethod
    def _fail(request: Request, exc: ServingError) -> bool:
        if request.future is not None and not request.future.done():
            request.future.set_exception(exc)
            return True
        return False

    def _resolve(self, request: Request, prediction: int) -> None:
        if request.future is not None and not request.future.done():
            latency = time.monotonic() - request.enqueued_at
            self.stats.completed += 1
            self.stats.latency.observe(latency)
            self.drain.mark()
            result = {
                "prediction": int(prediction),
                "latency_ms": round(latency * 1e3, 3),
            }
            if self._routed:
                result["model"] = request.model
            request.future.set_result(result)

    def _retry_after(self) -> str:
        """Backpressure hint for 503s: estimated seconds to drain the
        current backlog at the recently observed completion rate,
        clamped to [1, 30]."""
        depth = len(self.batcher) + self._inflight_count()
        return str(retry_after_s(depth, self.drain.rate()))

    def _fail_expired(self, expired: List[Request]) -> None:
        for r in expired:
            if self._fail(r, DeadlineExceededError(
                    "deadline passed while waiting for a batch slot")):
                self.stats.deadline_dropped += 1

    # -- batch loop ----------------------------------------------------
    async def _batch_loop(self) -> None:
        while True:
            # Up to engine.concurrency tiles execute at once (N pool
            # workers -> N concurrent tiles).  At the limit, wait for a
            # slot *before* taking a tile, so every request waits in the
            # batcher, where it can expire and where shutdown finds it.
            while len(self._inflight) >= self.engine.concurrency:
                await asyncio.wait(list(self._inflight),
                                   return_when=asyncio.FIRST_COMPLETED)
            # Clear *before* inspecting the batcher: an add() racing with
            # this iteration either lands before take() (and is seen) or
            # after the clear (and re-sets the event, waking us at once).
            self._wakeup.clear()
            now = time.monotonic()
            batch, expired = self.batcher.take(now)
            self._fail_expired(expired)
            if not batch:
                delay = self.batcher.next_flush_in(now)
                try:
                    await asyncio.wait_for(self._wakeup.wait(), timeout=delay)
                except asyncio.TimeoutError:
                    pass
                continue
            task = asyncio.create_task(self._run_batch_task(batch),
                                       name="repro-batch")
            self._inflight[task] = batch
            task.add_done_callback(lambda t: self._inflight.pop(t, None))

    async def _run_batch_task(self, batch: List[Request]) -> None:
        try:
            await self._process_batch(batch)
        except Exception as exc:  # defence: batch tasks must not leak
            for r in batch:
                self._fail(r, BatchExecutionError(
                    f"unexpected serving failure: {type(exc).__name__}: {exc}"
                ))
                self.stats.failed += 1

    def _record_breaker(self, success: bool, model: str) -> None:
        breaker = self.engine.breaker_for(model)
        before = breaker.state
        breaker.record_success() if success else breaker.record_failure()
        if breaker.state is BreakerState.OPEN and before is not BreakerState.OPEN:
            self.stats.breaker_opens += 1

    async def _process_batch(self, batch: List[Request]) -> None:
        model = batch[0].model  # tiles are homogeneous by construction
        if not self.engine.breaker_for(model).allow():
            for r in batch:
                if self._fail(r, CircuitOpenError("circuit opened while queued")):
                    self.stats.shed_circuit += 1
            return
        xs = np.stack([r.x for r in batch])
        try:
            preds = await self.engine.run_batch(
                xs, poisoned=any(r.poisoned for r in batch), model=model
            )
        except (ModelNotFoundError, OverBudgetError) as exc:
            # Permanent for this model right now — not a health signal,
            # so the breaker is left alone.
            counter = ("unknown_model" if isinstance(exc, ModelNotFoundError)
                       else "over_budget")
            for r in batch:
                if self._fail(r, exc):
                    setattr(self.stats, counter,
                            getattr(self.stats, counter) + 1)
            return
        except BatchExecutionError as exc:
            await self._degrade(batch, exc)
            return
        self._record_breaker(success=True, model=model)
        for r, p in zip(batch, preds):
            self._resolve(r, p)

    async def _degrade(self, batch: List[Request],
                       exc: BatchExecutionError) -> None:
        """A tile failed terminally.  A tile of one fails with ``exc``
        and counts against the breaker.  A larger tile falls back to
        batch-of-1 to isolate the poisoning request(s): innocents still
        get answers, poisoners are quarantined with a 500, and the
        breaker only counts the tile as a failure if *nothing* in it
        could be served."""
        model = batch[0].model
        if len(batch) == 1:
            if self._fail(batch[0], exc):
                self.stats.failed += 1
            self._record_breaker(success=False, model=model)
            return
        self.stats.degraded_batches += 1
        successes = 0
        for r in batch:
            if r.expired(time.monotonic()):
                self._fail_expired([r])
                continue
            try:
                preds = await self.engine.run_batch(r.x[None],
                                                    poisoned=r.poisoned,
                                                    model=r.model)
            except BatchExecutionError as single_exc:
                if self._fail(r, BatchExecutionError(
                        f"request quarantined as batch poisoner: {single_exc}")):
                    self.stats.quarantined += 1
                continue
            self._resolve(r, preds[0])
            successes += 1
        self._record_breaker(success=successes > 0, model=model)

    # -- HTTP ----------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            status, payload, headers = await self._handle_request(reader)
            await self._write_response(writer, status, payload, headers)
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except OSError:
                pass  # peer reset during close

    async def _handle_request(self, reader: asyncio.StreamReader):
        try:
            async with asyncio.timeout(_READ_TIMEOUT_S):
                method, path, body = await self._read_request(reader)
        except TimeoutError:
            self.stats.read_timeout += 1
            exc = RequestTimeoutError(
                f"request not received within {_READ_TIMEOUT_S} s")
            return exc.status, exc.payload(), {}
        except MalformedRequestError as exc:
            self.stats.malformed += 1
            return exc.status, exc.payload(), {}
        return await self._route(method, path, body)

    @staticmethod
    async def _readline(reader: asyncio.StreamReader) -> bytes:
        try:
            return await reader.readline()
        except ValueError:
            # A line past the stream's limit (64 KiB): readline raises a
            # bare ValueError, which would escape as an empty reply.
            raise MalformedRequestError("request or header line too long") from None

    async def _read_request(self, reader: asyncio.StreamReader):
        """``(method, path, body)`` of one request; raises
        MalformedRequestError."""
        request_line = await self._readline(reader)
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            raise MalformedRequestError("malformed request line")
        method, path, _ = parts
        content_length = 0
        header_bytes = 0
        while True:
            line = await self._readline(reader)
            header_bytes += len(line)
            if header_bytes > _MAX_HEADER_BYTES:
                raise MalformedRequestError("headers too large")
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    raise MalformedRequestError("bad Content-Length") from None
                if content_length < 0:
                    # readexactly() raises ValueError on a negative
                    # count, which would escape as an empty reply.
                    raise MalformedRequestError("negative Content-Length")
        if content_length > _MAX_BODY_BYTES:
            raise MalformedRequestError(
                f"body of {content_length} bytes exceeds the "
                f"{_MAX_BODY_BYTES}-byte cap"
            )
        body = await reader.readexactly(content_length) if content_length else b""
        return method, path, body

    async def _route(self, method: str, path: str, body: bytes):
        if path == "/v1/predict":
            if method != "POST":
                return 405, {"error": "MethodNotAllowed",
                             "detail": "use POST /v1/predict"}, {}
            return await self._predict(body)
        if path == "/healthz":
            if method != "GET":
                return 405, {"error": "MethodNotAllowed"}, {}
            return self._healthz()
        if path == "/stats":
            if method != "GET":
                return 405, {"error": "MethodNotAllowed"}, {}
            return 200, self._stats_payload(), {}
        return 404, {"error": "NotFound", "detail": f"no route {path}"}, {}

    def _circuit(self) -> BreakerState:
        """The default model's circuit (closed without a default)."""
        breaker = self.engine.breaker
        return BreakerState.CLOSED if breaker is None else breaker.state

    def _healthz(self):
        circuit = self._circuit()
        startup = self._startup_health or {}
        ok = (not self._closing and circuit is not BreakerState.OPEN
              and bool(startup.get("ok")))
        payload = {
            "status": "ok" if ok else "degraded",
            "circuit": circuit.value,
            "queued": len(self.batcher),
            "startup": startup,
        }
        pool = self.engine.pool
        if pool is not None:
            payload["workers"] = {
                "configured": pool.options.workers,
                "alive": pool.alive_workers(),
                "restarts": pool.restarts,
            }
        reg = self.registry.stats()
        payload["fleet"] = {
            "models_known": reg["models_known"],
            "models_resident": reg["models_resident"],
            "resident_bytes": reg["resident_bytes"],
            "budget_bytes": reg["budget_bytes"],
        }
        return (200 if ok else 503), payload, {}

    def _stats_payload(self) -> dict:
        payload = self.stats.to_dict()
        payload["circuit"] = self._circuit().value
        payload["queued"] = len(self.batcher)
        payload["inflight"] = self._inflight_count()
        pool = self.engine.pool
        if pool is not None:
            payload["pool"] = pool.stats()
        payload["registry"] = self.registry.stats()
        payload["circuits"] = {
            name: self.engine.breaker_for(name).state.value
            for name in self.engine._breakers
        }
        if self.faults:
            payload["faults"] = self.faults.summary()
        return payload

    async def _predict(self, body: bytes):
        try:
            request = self._admit(body)
        except ServingError as exc:
            headers = {}
            if isinstance(exc, (QueueFullError, CircuitOpenError,
                                ServerClosingError)):
                headers["Retry-After"] = self._retry_after()
            return exc.status, exc.payload(), headers
        self._wakeup.set()
        try:
            result = await request.future
        except ServingError as exc:
            headers = ({"Retry-After": self._retry_after()}
                       if exc.status == 503 else {})
            return exc.status, exc.payload(), headers
        return 200, result, {}

    def _admit(self, body: bytes) -> Request:
        """Parse + validate + admission-control one predict request.
        Raises a typed ServingError; on success the request is queued."""
        if self._closing:
            raise ServerClosingError("server is shutting down")
        if _count_containers(body) > _MAX_JSON_CONTAINERS:
            self.stats.malformed += 1
            raise MalformedRequestError(
                f"body holds more than {_MAX_JSON_CONTAINERS} JSON arrays/objects"
            )
        try:
            payload = orjson.loads(body)
        except orjson.JSONDecodeError as exc:
            self.stats.malformed += 1
            raise MalformedRequestError(f"body is not JSON: {exc}") from exc
        if not isinstance(payload, dict) or "input" not in payload:
            self.stats.malformed += 1
            raise MalformedRequestError('body must be {"input": CHW-array}')
        try:
            x = np.asarray(payload["input"], dtype=np.float64)
        except (TypeError, ValueError) as exc:
            self.stats.malformed += 1
            raise MalformedRequestError(f"input is not numeric: {exc}") from exc
        if x.ndim != 3:
            self.stats.malformed += 1
            raise MalformedRequestError(
                f"input must be one CHW image (3 dims), got shape {x.shape}"
            )
        model = (payload.get("model", self.default_model) if self._routed
                 else self.default_model)
        if model is None:
            self.stats.malformed += 1
            raise MalformedRequestError(
                'fleet server requires "model" (no default configured)'
            )
        if not isinstance(model, str):
            self.stats.malformed += 1
            raise MalformedRequestError(
                f'"model" must be a string, got {type(model).__name__}'
            )
        if model not in self.registry:
            self.stats.unknown_model += 1
            raise ModelNotFoundError(
                f"unknown model {model!r}; fleet has {self.registry.models}"
            )
        try:
            # Checked without a load: loading happens off the event
            # loop, at batch time.
            self.registry.validate_input(model, x[None])
        except InvalidInputError as exc:
            self.stats.malformed += 1
            raise MalformedRequestError(str(exc)) from exc

        if self.engine.breaker_for(model).state is BreakerState.OPEN:
            self.stats.shed_circuit += 1
            raise CircuitOpenError("circuit is open; retry later")
        depth = len(self.batcher) + self._inflight_count()
        overflow = self.faults.fire("queue-overflow") if self.faults else None
        if depth >= self.options.queue_depth or overflow is not None:
            self.stats.shed_queue += 1
            raise QueueFullError(
                f"admission queue at depth {depth}/{self.options.queue_depth}"
            )

        now = time.monotonic()
        deadline_ms = payload.get("deadline_ms", self.options.default_deadline_ms)
        try:
            deadline_ms = float(deadline_ms)
        except (TypeError, ValueError):
            self.stats.malformed += 1
            raise MalformedRequestError(
                f"deadline_ms must be a number, got {deadline_ms!r}"
            ) from None
        deadline = now + deadline_ms / 1e3 if deadline_ms > 0 else None
        request = Request(
            x=x, enqueued_at=now, deadline=deadline, model=model,
            future=asyncio.get_running_loop().create_future(),
        )
        if self.faults and self.faults.fire("poison") is not None:
            request.poisoned = True
        self.batcher.add(request)
        return request

    @staticmethod
    async def _write_response(writer: asyncio.StreamWriter, status: int,
                              payload: dict, headers: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        lines = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        lines += [f"{k}: {v}" for k, v in headers.items()]
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body)
        await writer.drain()


def serve(session=None, options: Optional[ServerOptions] = None,
          faults: Optional[FaultInjector] = None,
          ttl_s: Optional[float] = None,
          announce=print, registry=None,
          default_model: Optional[str] = None) -> None:
    """Blocking convenience entry point (the ``repro-mcu serve`` body):
    start, announce the bound address, serve until Ctrl-C or ``ttl_s``,
    shut down cleanly.  Takes exactly one of ``session`` (served as a
    fleet of one) or ``registry`` (``repro-mcu serve --fleet``: requests
    route by their ``"model"`` field)."""

    async def _main():
        server = ServingServer(session, options=options, faults=faults,
                               registry=registry,
                               default_model=default_model)
        host, port = await server.start()
        if announce is not None:
            announce(f"serving on http://{host}:{port} "
                     f"(models={len(server.registry.models)}, "
                     f"workers={server.engine.workers}, "
                     f"max_batch={server.options.max_batch}, "
                     f"queue_depth={server.options.queue_depth}) — Ctrl-C to stop")
        await server.serve_forever(ttl_s=ttl_s)

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        if announce is not None:
            announce("interrupted — shut down cleanly")
