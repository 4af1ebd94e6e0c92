"""Chaos suite: the server under every injected fault class.

Each scenario boots a real server on an ephemeral port, injects one
fault class at a deterministic rate, talks to it over real sockets, and
asserts three things: the server stays live, every request is answered
*per policy* (the status table in ``repro/serving/server.py``), and
shutdown is clean.  No mocking below the HTTP surface — the batcher,
engine, executor thread, watchdog and breaker all run for real.
"""

import asyncio
import json
import threading
import time

import numpy as np
import pytest

from repro.inference.testing import integer_network_from_spec
from repro.models.model_zoo import mobilenet_v1_spec
from repro.runtime import Session
from repro.serving import (
    FaultInjector,
    FaultSpec,
    ServerOptions,
    ServingServer,
    predict,
    raw_request,
    request_json,
)
from repro.serving.client import _encode
from repro.serving.policies import BreakerState

BASE = ServerOptions(
    port=0,
    max_batch=4,
    max_wait_ms=5.0,
    retries=2,
    circuit_reset_s=0.3,
)


def run_scenario(tiny_session, options, faults, scenario):
    """Boot server -> run the async scenario -> clean stop, in one loop."""

    async def _main():
        server = ServingServer(tiny_session, options, faults=faults)
        host, port = await server.start()
        try:
            await scenario(server, host, port)
        finally:
            await server.stop()
        # Clean shutdown: nothing pending, engine refuses further work.
        assert len(server.batcher) == 0
        with pytest.raises(Exception):
            await server.engine.run_batch(np.zeros((1, 3, 32, 32)))

    asyncio.run(_main())


async def alive(host, port, image):
    """The liveness probe every scenario ends with: a normal request
    still gets a normal answer."""
    status, body = await predict(host, port, image)
    assert status == 200 and "prediction" in body


class TestHappyPath:
    def test_concurrent_requests_are_microbatched(self, tiny_session, image):
        async def scenario(server, host, port):
            results = await asyncio.gather(
                *[predict(host, port, image) for _ in range(10)]
            )
            assert [s for s, _ in results] == [200] * 10
            # Tiling happened: fewer batches than requests.
            assert 1 <= server.stats.batches < 10
            assert server.stats.batched_images == 10
            st, stats = await request_json(host, port, "GET", "/stats")
            assert st == 200 and stats["requests"]["completed"] == 10

        run_scenario(tiny_session, BASE, None, scenario)

    def test_healthz_reports_ok(self, tiny_session, image):
        async def scenario(server, host, port):
            st, body = await request_json(host, port, "GET", "/healthz")
            assert st == 200 and body["status"] == "ok"
            assert body["startup"]["ok"] is True

        run_scenario(tiny_session, BASE, None, scenario)


class TestKernelFaults:
    def test_transient_kernel_fault_is_retried_away(self, tiny_session, image):
        async def scenario(server, host, port):
            status, body = await predict(host, port, image)
            assert status == 200
            assert server.stats.retries >= 1
            await alive(host, port, image)

        run_scenario(
            tiny_session, BASE,
            FaultInjector([FaultSpec("kernel", every=1, limit=1)]), scenario,
        )

    def test_persistent_failures_open_the_circuit_then_recover(
            self, tiny_session, image, wait_until):
        # Tiles of one: a failed tile has nothing to degrade to and
        # counts against the breaker at once.
        options = BASE.replace(max_batch=1, circuit_threshold=2, retries=0)
        # Fails the first 2 batches (opening the circuit), then heals.
        faults = FaultInjector([FaultSpec("kernel", every=1, limit=2)])

        async def scenario(server, host, port):
            results = await asyncio.gather(
                *[predict(host, port, image, deadline_ms=0) for _ in range(8)]
            )
            statuses = [s for s, _ in results]
            assert statuses.count(500) >= 2          # failed batches
            assert server.stats.breaker_opens == 1
            # While open: shed at admission with Retry-After, healthz degraded.
            if server.engine.breaker.state is BreakerState.OPEN:
                status, body = await predict(host, port, image)
                assert status == 503 and body["error"] == "CircuitOpenError"
                st, health = await request_json(host, port, "GET", "/healthz")
                assert st == 503 and health["status"] == "degraded"
            # After the reset window the half-open probe succeeds and
            # the tier recovers on its own.  Deadline-based wait: the
            # breaker leaves OPEN by its own clock, whenever the loaded
            # runner gets around to it.
            await wait_until(
                lambda: server.engine.breaker.state is not BreakerState.OPEN,
                desc="circuit breaker never left OPEN",
            )
            status, _ = await predict(host, port, image)
            assert status == 200
            assert server.engine.breaker.state is BreakerState.CLOSED

        run_scenario(tiny_session, options, faults, scenario)


class TestPoisonedBatch:
    def test_degradation_quarantines_only_the_poisoner(self, tiny_session, image):
        options = BASE.replace(max_wait_ms=30.0, retries=1)
        faults = FaultInjector([FaultSpec("poison", every=4)])  # 4th admit

        async def scenario(server, host, port):
            results = await asyncio.gather(
                *[predict(host, port, image, deadline_ms=0) for _ in range(4)]
            )
            statuses = sorted(s for s, _ in results)
            assert statuses == [200, 200, 200, 500]
            assert server.stats.degraded_batches == 1
            assert server.stats.quarantined == 1
            # The tile failure did not open the circuit: innocents served.
            assert server.engine.breaker.state is BreakerState.CLOSED
            await alive(host, port, image)

        run_scenario(tiny_session, options, faults, scenario)


class TestHungBatch:
    def test_watchdog_abandons_the_batch_and_replaces_the_executor(
            self, tiny_session, image):
        options = BASE.replace(batch_timeout_s=0.25, retries=1)
        faults = FaultInjector([FaultSpec("hang", every=1, limit=1, delay=10.0)])

        async def scenario(server, host, port):
            status, _ = await predict(host, port, image, deadline_ms=0)
            assert status == 200                      # retry on fresh thread
            assert server.stats.hung_batches == 1
            await alive(host, port, image)

        run_scenario(tiny_session, options, faults, scenario)

    def test_an_abandoned_batch_skips_its_inference(self, image, wait_until):
        """The watchdog gives up on a batch hung for 0.3 s after 0.1 s,
        and the retry answers.  The hung thread wakes after that and
        returns without running its tile: one predict, one
        ``Session.run``."""
        session = Session(integer_network_from_spec(
            mobilenet_v1_spec(32, 0.25, num_classes=5),
            np.random.default_rng(3)), input_hw=(32, 32))
        options = BASE.replace(batch_timeout_s=0.1, retries=1)
        faults = FaultInjector([FaultSpec("hang", every=1, delay=0.3, limit=1)])
        hung = []
        apply_batch_faults = faults.apply_batch_faults

        def recording():
            hung.append(threading.current_thread())
            apply_batch_faults()

        faults.apply_batch_faults = recording

        async def scenario(server, host, port):
            runs = []
            run = session.run
            session.run = lambda xs: runs.append(len(xs)) or run(xs)
            status, _ = await predict(host, port, image, deadline_ms=0)
            assert status == 200
            assert server.stats.hung_batches == 1
            # The abandoned executor's thread exits once its task ends.
            await wait_until(lambda: not hung[0].is_alive(),
                             desc="the hung thread woke and finished")
            assert runs == [1]

        run_scenario(session, options, faults, scenario)

    def test_woken_hung_batches_leave_live_answers_exact(self):
        """Each hung batch wakes after the watchdog has replaced its
        thread and goes on into the same plan while later tiles run.
        The plan runs one call at a time, so every reply is a 200 with
        the answer of ``Session.run``.  This network's close margins
        split the images between two classes, so a tile that another
        call wrote over would show."""
        session = Session(integer_network_from_spec(
            mobilenet_v1_spec(32, 0.25, num_classes=5),
            np.random.default_rng(1)))
        options = BASE.replace(batch_timeout_s=0.05, retries=3)
        faults = FaultInjector([FaultSpec("hang", every=5, delay=0.1)])
        rng = np.random.default_rng(12)
        images = [rng.uniform(0.0, 1.0, size=(3, 32, 32)) for _ in range(8)]
        expected = [int(np.argmax(session.run(x[None]), axis=1)[0])
                    for x in images]
        assert len(set(expected)) == 2

        async def client(host, port, x):
            return [await predict(host, port, x, deadline_ms=0, timeout=60.0)
                    for _ in range(40)]

        async def scenario(server, host, port):
            replies = await asyncio.gather(
                *[client(host, port, x) for x in images]
            )
            for want, got in zip(expected, replies):
                assert [(s, b.get("prediction")) for s, b in got] == [(200, want)] * 40
            assert server.stats.hung_batches >= 1

        run_scenario(session, options, faults, scenario)


class TestMixedGeometry:
    def test_two_geometries_in_one_flush_window_both_answer(self, tiny_session):
        """A session server accepts every geometry the session does.  A
        32x32 and a 40x40 request inside one flush window must not share
        a tile (they cannot be stacked): each gets its own lane and an
        exact answer."""
        options = BASE.replace(max_batch=2, max_wait_ms=200.0)
        rng = np.random.default_rng(8)
        images = [rng.uniform(0.0, 1.0, size=(3, hw, hw)) for hw in (32, 40)]

        async def scenario(server, host, port):
            results = await asyncio.gather(
                *[predict(host, port, x, deadline_ms=0) for x in images]
            )
            assert [s for s, _ in results] == [200, 200], results
            for (_, body), x in zip(results, images):
                expected = int(np.argmax(tiny_session.run(x[None]), axis=1)[0])
                assert body["prediction"] == expected

        run_scenario(tiny_session, options, None, scenario)


class TestMalformedPayloads:
    @pytest.mark.parametrize("payload", [
        {"input": [[1.0, 2.0], [3.0, 4.0]]},              # wrong rank
        {"input": [[["x"] * 32] * 32] * 3},               # non-numeric
        {"wrong_key": 1},                                 # missing input
        {"input": [[[float("nan")] * 32] * 32] * 3},      # non-finite
    ])
    def test_bad_json_payloads_get_400(self, tiny_session, image, payload):
        async def scenario(server, host, port):
            status, body = await request_json(
                host, port, "POST", "/v1/predict", payload
            )
            assert status == 400
            assert body["error"] in ("MalformedRequestError",)
            assert server.stats.malformed >= 1
            await alive(host, port, image)

        run_scenario(tiny_session, BASE, None, scenario)

    # Bodies built as bytes: json.dumps itself recurses on the deep ones.
    @pytest.mark.parametrize("body", [
        # Past the interpreter's recursion limit in a recursive parser.
        b'{"input": ' + b"[" * 1000 + b"]" * 1000 + b"}",
        # An integer beyond float64, which np.asarray cannot convert.
        b'{"input": [[[1' + b"0" * 400 + b"]]]}",
        b'{"input": [[[NaN]]]}',
        b'{"input": [[[0.5]]], "model": "\xff\xfe"}',
        # Deep enough to overflow orjson's native recursion, which would
        # take the process down.
        b'{"input": ' + b"[" * 200_000 + b"]" * 200_000 + b"}",
        b'{"input": ' + b'{"a": ' * 100_000 + b"1" + b"}" * 100_000 + b"}",
    ], ids=["nested-1000", "int-401-digits", "nan-literal", "invalid-utf8",
            "nested-200k-arrays", "nested-100k-objects"])
    def test_bad_raw_bodies_get_400(self, tiny_session, image, body):
        async def scenario(server, host, port):
            status, _, reply = await raw_request(
                host, port, _encode("POST", "/v1/predict", body))
            assert status == 400
            assert json.loads(reply)["error"] == "MalformedRequestError"
            assert server.stats.malformed == 1
            await alive(host, port, image)

        run_scenario(tiny_session, BASE, None, scenario)

    def test_container_cap_is_checked_before_parsing(self, tiny_session, image):
        from repro.serving.server import _MAX_JSON_CONTAINERS as cap

        def body_with(containers):
            # The object, three input arrays and the "pad" array, which
            # holds the rest as empty arrays one level down.
            pad = b",".join([b"[]"] * (containers - 5))
            return b'{"input": [[[0.5]]], "pad": [' + pad + b"]}"

        async def scenario(server, host, port):
            details = []
            for containers in (cap, cap + 1):
                _, _, reply = await raw_request(
                    host, port, _encode("POST", "/v1/predict", body_with(containers)))
                details.append(json.loads(reply)["detail"])
            # At the cap the body is parsed (and fails on its shape).
            assert "channel" in details[0]
            assert f"more than {cap} JSON arrays/objects" in details[1]
            assert server.stats.malformed == 2
            await alive(host, port, image)

        run_scenario(tiny_session, BASE, None, scenario)

    # Past asyncio's 64 KiB stream limit, whose readline raises a bare
    # ValueError instead of returning the line.
    @pytest.mark.parametrize("raw", [
        b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n",
        b"GET /healthz HTTP/1.1\r\nX-Long: " + b"a" * 70_000 + b"\r\n\r\n",
    ], ids=["long-path", "long-header"])
    def test_over_long_line_gets_400(self, tiny_session, image, raw):
        async def scenario(server, host, port):
            status, _, reply = await raw_request(host, port, raw, timeout=5.0)
            assert status == 400
            assert json.loads(reply)["error"] == "MalformedRequestError"
            assert server.stats.malformed == 1
            await alive(host, port, image)

        run_scenario(tiny_session, BASE, None, scenario)

    @pytest.mark.parametrize("raw", [
        b"POST /v1/predict HTTP/1.1\r\nContent-Len",
        b"POST /v1/predict HTTP/1.1\r\nContent-Length: 100\r\n\r\n{\"input\"",
    ], ids=["mid-header", "mid-body"])
    def test_stalled_request_gets_408(self, tiny_session, image, monkeypatch, raw):
        import repro.serving.server as server_mod

        monkeypatch.setattr(server_mod, "_READ_TIMEOUT_S", 0.2)

        async def scenario(server, host, port):
            # The client keeps its socket open: only the deadline answers.
            status, _, reply = await raw_request(host, port, raw, timeout=3.0)
            assert status == 408
            assert json.loads(reply)["error"] == "RequestTimeoutError"
            st, stats = await request_json(host, port, "GET", "/stats")
            assert st == 200 and stats["requests"]["read_timeout"] == 1
            st, health = await request_json(host, port, "GET", "/healthz")
            assert st == 200 and health["status"] == "ok"

        run_scenario(tiny_session, BASE, None, scenario)

    def test_non_json_body_and_garbage_http(self, tiny_session, image):
        async def scenario(server, host, port):
            status, _, _ = await raw_request(
                host, port,
                b"POST /v1/predict HTTP/1.1\r\nContent-Length: 7\r\n\r\nnotjson",
            )
            assert status == 400
            status, _, _ = await raw_request(host, port, b"complete garbage\r\n")
            assert status == 400
            status, body = await predict(host, port, image,
                                         deadline_ms="not-a-number")
            assert status == 400
            await alive(host, port, image)

        run_scenario(tiny_session, BASE, None, scenario)

    def test_negative_content_length_gets_400(self, tiny_session, image):
        async def scenario(server, host, port):
            status, _, body = await raw_request(
                host, port,
                b"POST /v1/predict HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
            )
            assert status == 400
            assert b"MalformedRequestError" in body
            assert server.stats.malformed == 1
            await alive(host, port, image)

        run_scenario(tiny_session, BASE, None, scenario)

    def test_body_over_the_cap_gets_400_before_it_is_read(self, tiny_session, image):
        """A Content-Length one byte past the cap is refused from the
        headers alone: the client sends no body and still gets its 400."""
        from repro.serving.server import _MAX_BODY_BYTES as cap

        async def scenario(server, host, port):
            st, stats = await request_json(host, port, "GET", "/stats")
            before = stats["requests"]["malformed"]
            status, _, reply = await raw_request(
                host, port,
                b"POST /v1/predict HTTP/1.1\r\nContent-Length: "
                + str(cap + 1).encode() + b"\r\n\r\n",
                timeout=5.0,
            )
            assert status == 400
            detail = json.loads(reply)
            assert detail["error"] == "MalformedRequestError"
            assert f"body of {cap + 1} bytes exceeds the {cap}-byte cap" in detail["detail"]
            st, stats = await request_json(host, port, "GET", "/stats")
            assert st == 200 and stats["requests"]["malformed"] == before + 1
            st, health = await request_json(host, port, "GET", "/healthz")
            assert st == 200 and health["status"] == "ok"
            await alive(host, port, image)

        run_scenario(tiny_session, BASE, None, scenario)

    def test_unknown_route_and_method(self, tiny_session):
        async def scenario(server, host, port):
            status, _ = await request_json(host, port, "GET", "/nope")
            assert status == 404
            status, _ = await request_json(host, port, "GET", "/v1/predict")
            assert status == 405

        run_scenario(tiny_session, BASE, None, scenario)


class TestBackpressure:
    def test_queue_overflow_sheds_with_503(self, tiny_session, image):
        options = BASE.replace(max_batch=2, queue_depth=3)
        faults = FaultInjector([FaultSpec("slow", every=1, limit=2, delay=0.1)])

        async def scenario(server, host, port):
            results = await asyncio.gather(
                *[predict(host, port, image) for _ in range(12)]
            )
            statuses = [s for s, _ in results]
            assert statuses.count(503) >= 1
            assert statuses.count(200) >= 1
            assert server.stats.shed_queue >= 1
            shed = next(b for s, b in results if s == 503)
            assert shed["error"] == "QueueFullError"
            await alive(host, port, image)

        run_scenario(tiny_session, options, faults, scenario)

    def test_injected_queue_overflow_sheds_deterministically(
            self, tiny_session, image):
        faults = FaultInjector([FaultSpec("queue-overflow", every=3)])

        async def scenario(server, host, port):
            statuses = []
            for _ in range(6):
                status, _ = await predict(host, port, image)
                statuses.append(status)
            assert statuses == [200, 200, 503, 200, 200, 503]

        run_scenario(tiny_session, BASE, faults, scenario)


class TestDeadlines:
    def test_expired_requests_dropped_before_the_engine(self, tiny_session, image):
        # Batch 1 is slow; everything queued behind it expires and must
        # be answered 504 without ever being batched.
        options = BASE.replace(max_batch=1, max_wait_ms=0.0)
        faults = FaultInjector([FaultSpec("slow", every=1, limit=1, delay=0.2)])

        async def scenario(server, host, port):
            results = await asyncio.gather(
                *[predict(host, port, image, deadline_ms=80) for _ in range(6)]
            )
            statuses = [s for s, _ in results]
            assert statuses.count(504) >= 1
            assert server.stats.deadline_dropped == statuses.count(504)
            # Engine only saw what was served, never the dropped ones.
            assert server.stats.batched_images == statuses.count(200)
            await alive(host, port, image)

        run_scenario(tiny_session, options, faults, scenario)


def count_admissions(server):
    """The requests ``server`` admits from now on (its batcher's adds)."""
    admitted = []
    add = server.batcher.add
    server.batcher.add = lambda request: admitted.append(request) or add(request)
    return admitted


class TestShutdown:
    def test_pending_requests_fail_fast_on_stop(self, tiny_session, image,
                                                wait_until):
        options = BASE.replace(max_batch=1, max_wait_ms=0.0)
        faults = FaultInjector([FaultSpec("slow", every=1, limit=1, delay=0.3)])

        async def scenario():
            server = ServingServer(tiny_session, options, faults=faults)
            host, port = await server.start()
            admitted = count_admissions(server)
            tasks = [asyncio.create_task(predict(host, port, image, deadline_ms=0))
                     for _ in range(5)]
            # Event-based wait: stop once every request is admitted and
            # the first (slowed) batch is actually inside the engine, not
            # after a guessed sleep.
            await wait_until(lambda: len(admitted) == 5 and server.stats.batches >= 1,
                             desc="first batch never reached the engine")
            await server.stop()
            results = await asyncio.gather(*tasks, return_exceptions=True)
            # Every client gets a reply: an exception here is a request
            # the server admitted and never answered.
            assert all(isinstance(r, tuple) for r in results), results
            statuses = [s for s, _ in results]
            assert all(s in (200, 503) for s in statuses), statuses
            assert server.stats.shed_shutdown == statuses.count(503) >= 1
            # Stopped server refuses connections.
            with pytest.raises(OSError):
                await predict(host, port, image, timeout=1.0)

        asyncio.run(scenario())

    def test_stop_answers_the_batch_in_flight_and_the_queue(
            self, tiny_session, image, wait_until):
        """One request is inside a batch slowed for 3 s and three are
        queued when ``stop()`` runs.  All four clients get a reply
        within 1 s of it, long before the slow batch could end: the
        in-flight one too, whose batch task ``stop()`` cancels."""
        options = BASE.replace(max_batch=1, max_wait_ms=0.0)
        faults = FaultInjector([FaultSpec("slow", every=1, limit=1, delay=3.0)])

        async def client(host, port):
            reply = await predict(host, port, image, deadline_ms=0, timeout=8.0)
            return reply, time.monotonic()

        async def scenario():
            server = ServingServer(tiny_session, options, faults=faults)
            host, port = await server.start()
            admitted = count_admissions(server)
            tasks = [asyncio.create_task(client(host, port)) for _ in range(4)]
            await wait_until(lambda: len(admitted) == 4 and server.stats.batches == 1,
                             desc="one batch in the engine and three queued")
            stopped = time.monotonic()
            await server.stop()
            results = await asyncio.gather(*tasks, return_exceptions=True)
            assert all(isinstance(r, tuple) for r in results), results
            # No batch can answer within the second: every reply is the
            # shutdown's.
            replies = [(status, body["error"]) for (status, body), _ in results]
            assert replies == [(503, "ServerClosingError")] * 4
            assert max(t for _, t in results) - stopped < 1.0
            assert server.stats.shed_shutdown == 4

        asyncio.run(scenario())


class TestWorkerCrash:
    """The ``--workers N`` pool backend under injected SIGKILLs.

    These scenarios boot a real 2-worker process pool over the saved
    tiny artifact; the ``worker-kill`` fault SIGKILLs a worker right
    after a batch is handed to it, mid-flight.  What must hold: the
    executor thread that borrowed the worker respawns it, then the
    engine retries the batch under ``retries`` (or fails it, at zero)
    like any transient fault, and the restart is visible through
    ``/healthz`` and ``/stats``.
    """

    def run_pooled(self, tiny_session, tiny_artifact, options, faults,
                   scenario):
        async def _main():
            server = ServingServer(tiny_session, options, faults=faults)
            host, port = await server.start()
            assert server.engine.pool is not None
            # The pool mmaps the artifact the session was saved to.
            assert server.engine.pool.artifact_path == tiny_session.source_artifact
            assert server.engine.concurrency == options.workers
            try:
                await scenario(server, host, port)
            finally:
                await server.stop()
            assert server.engine.pool is None  # pool released on stop

        asyncio.run(_main())

    def test_killed_worker_respawns_and_requests_retry(
            self, tiny_session, tiny_artifact, image):
        options = BASE.replace(workers=2)
        # SIGKILL a worker on the 2nd dispatched task (how many tasks
        # are dispatched in total depends on microbatch tiling, so the
        # schedule pins only the first kill and the counters are
        # asserted as >= — the *policy* outcome, all-200, is exact).
        faults = FaultInjector([FaultSpec("worker-kill", every=2, limit=2)])

        async def scenario(server, host, port):
            results = await asyncio.gather(
                *[predict(host, port, image, deadline_ms=0,
                          timeout=60.0) for _ in range(10)]
            )
            assert [s for s, _ in results] == [200] * 10
            pool = server.engine.pool
            assert pool.kills >= 1
            assert pool.restarts >= 1
            assert pool.alive_workers() == 2
            st, health = await request_json(host, port, "GET", "/healthz")
            assert st == 200
            assert health["workers"]["configured"] == 2
            assert health["workers"]["alive"] == 2
            assert health["workers"]["restarts"] >= 1
            st, stats = await request_json(host, port, "GET", "/stats")
            assert st == 200
            assert stats["pool"]["restarts"] == pool.restarts >= 1
            assert stats["pool"]["kills"] == pool.kills
            assert stats["faults"]["worker-kill"]["fires"] == pool.kills
            # Every kill was absorbed by an engine retry.
            assert stats["batches"]["retries"] >= pool.kills

        self.run_pooled(tiny_session, tiny_artifact, options, faults, scenario)

    def test_exhausted_retry_budget_fails_the_batch_then_recovers(
            self, tiny_session, tiny_artifact, image):
        # Zero retries: the one killed batch must fail with a 500 — and
        # the tier must still heal for the next request.
        options = BASE.replace(workers=2, retries=0)
        faults = FaultInjector([FaultSpec("worker-kill", every=1, limit=1)])

        async def scenario(server, host, port):
            status, body = await predict(host, port, image, deadline_ms=0,
                                         timeout=60.0)
            assert status == 500
            assert body["error"] == "BatchExecutionError"
            assert "WorkerCrashedError" in body["detail"]
            # The slot respawned: the very next request is served.
            status, _ = await predict(host, port, image, deadline_ms=0,
                                      timeout=60.0)
            assert status == 200
            assert server.engine.pool.restarts >= 1
            assert server.engine.pool.alive_workers() == 2

        self.run_pooled(tiny_session, tiny_artifact, options, faults, scenario)

    def test_a_crash_storm_costs_one_respawn_per_try(
            self, tiny_session, tiny_artifact, image):
        """Every pool task crashes.  The pool respawns each worker once
        and retries nothing, so one request costs ``retries + 1`` kills
        and respawns, one per engine try, and ends in a 500."""
        options = BASE.replace(workers=2)
        faults = FaultInjector([FaultSpec("worker-kill", every=1)])

        async def scenario(server, host, port):
            status, body = await predict(host, port, image, deadline_ms=0,
                                         timeout=60.0)
            assert status == 500
            assert "WorkerCrashedError" in body["detail"]
            pool = server.engine.pool
            assert pool.kills == pool.restarts == options.retries + 1
            assert server.stats.retries == options.retries

        self.run_pooled(tiny_session, tiny_artifact, options, faults, scenario)

    def test_pooled_happy_path_is_concurrent_and_correct(
            self, tiny_session, tiny_artifact, image):
        """No faults: the pooled backend answers exactly like the
        in-process one (bit-identical logits ⇒ identical predictions)."""
        options = BASE.replace(workers=2)

        async def scenario(server, host, port):
            results = await asyncio.gather(
                *[predict(host, port, image, deadline_ms=0,
                          timeout=60.0) for _ in range(12)]
            )
            assert [s for s, _ in results] == [200] * 12
            expected = int(np.argmax(tiny_session.run(image[None]), axis=1)[0])
            assert {b["prediction"] for _, b in results} == {expected}
            st, stats = await request_json(host, port, "GET", "/stats")
            assert stats["pool"]["served"] >= 1
            assert stats["pool"]["alive"] == 2

        self.run_pooled(tiny_session, tiny_artifact, options, None, scenario)

    def test_pooled_server_over_a_loaded_session_maps_its_artifact(
            self, tiny_artifact, image):
        """The pool mmaps the artifact the session was loaded from; it
        stages no copy of its own."""
        session = Session.load(tiny_artifact)

        async def scenario(server, host, port):
            assert server.engine.pool.artifact_path == session.source_artifact
            assert server.engine.pool._owned_tmp is None
            status, body = await predict(host, port, image, deadline_ms=0,
                                         timeout=60.0)
            expected = int(np.argmax(session.run(image[None]), axis=1)[0])
            assert (status, body["prediction"]) == (200, expected)

        self.run_pooled(session, tiny_artifact, BASE.replace(workers=2), None,
                        scenario)
