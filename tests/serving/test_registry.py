"""Fleet serving: the artifact registry, LRU eviction under a budget,
and model routing on the HTTP front end.

The fleet fixture is three zoo configs (32/64/96 at width 0.25) served
by one process under a budget that holds two of them — so mixed-model
traffic *must* exercise lazy load, LRU eviction, and reload, and the
tests assert those transitions in ``/stats`` rather than hoping for
them.  Responses are checked bit-identical to a dedicated single-model
session: residency churn may never change an answer.
"""

import asyncio
import threading
import time

import numpy as np
import pytest

from repro.serving import (
    FaultInjector,
    FaultSpec,
    ModelNotFoundError,
    ModelRegistry,
    OverBudgetError,
    ServerOptions,
    ServingServer,
    materialize_fleet,
)
from repro.serving.client import predict, request_json

CONFIGS = [(32, 0.25), (64, 0.25), (96, 0.25)]


@pytest.fixture(scope="module")
def fleet_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fleet")
    materialize_fleet(root, CONFIGS, num_classes=5)
    return root


@pytest.fixture(scope="module")
def costs(fleet_dir):
    with ModelRegistry.from_directory(fleet_dir) as registry:
        return {m: registry.entry(m).cost_bytes() for m in registry.models}


def _two_of_three_budget(costs):
    """Admits any two fleet members at once but never all three."""
    ordered = sorted(costs.values())
    budget = ordered[-1] + ordered[-2] + 1024
    assert budget < sum(ordered)
    return budget


def _slow_loads(monkeypatch, seconds=0.5) -> threading.Event:
    """Make every ``Session.load`` in this process sleep first, as a large
    artifact's load would run; the event is set when one starts."""
    from repro.runtime import Session

    real, started = Session.load, threading.Event()

    def slow(cls, path, *, mmap=False):
        started.set()
        time.sleep(seconds)
        return real(path, mmap=mmap)

    monkeypatch.setattr(Session, "load", classmethod(slow))
    return started


def _wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


def _image(model, seed=21):
    resolution = int(model.split("x")[0])
    return np.random.default_rng(seed).uniform(
        0.0, 1.0, size=(3, resolution, resolution)
    )


class TestRegistry:
    def test_scan_and_lazy_load(self, fleet_dir):
        with ModelRegistry.from_directory(fleet_dir) as registry:
            assert registry.models == ["32x0.25", "64x0.25", "96x0.25"]
            assert registry.stats()["models_resident"] == 0  # all cold
            registry.run("32x0.25", _image("32x0.25")[None])
            stats = registry.stats()
            assert stats["models_resident"] == 1
            assert stats["models"]["32x0.25"]["resident"]

    def test_lru_eviction_and_reload(self, fleet_dir, costs):
        budget = _two_of_three_budget(costs)
        with ModelRegistry.from_directory(
                fleet_dir, memory_budget_bytes=budget) as registry:
            for model in registry.models:  # third load must evict the LRU
                registry.run(model, _image(model)[None])
            stats = registry.stats()
            assert stats["evictions"] >= 1
            assert not stats["models"]["32x0.25"]["resident"]  # the LRU
            assert stats["resident_bytes"] <= budget
            # Reload after eviction: lazy, transparent, counted.
            registry.run("32x0.25", _image("32x0.25")[None])
            assert registry.stats()["models"]["32x0.25"]["loads"] == 2

    def test_eviction_never_changes_answers(self, fleet_dir, costs):
        """Bit-parity across residency churn: every model answers
        identically to a dedicated session, before and after being
        evicted and reloaded."""
        from repro.runtime import Session

        budget = _two_of_three_budget(costs)
        with ModelRegistry.from_directory(
                fleet_dir, memory_budget_bytes=budget) as registry:
            dedicated = {
                m: Session.load(fleet_dir / m).run(_image(m)[None])
                for m in registry.models
            }
            for sweep in range(2):  # second sweep hits reloaded models
                for m in registry.models:
                    np.testing.assert_array_equal(
                        registry.run(m, _image(m)[None]), dedicated[m]
                    )
            assert registry.stats()["evictions"] >= 2

    def test_over_budget_is_typed(self, fleet_dir, costs):
        budget = min(costs.values()) // 2
        with ModelRegistry.from_directory(
                fleet_dir, memory_budget_bytes=budget) as registry:
            with pytest.raises(OverBudgetError, match="budget"):
                registry.run("32x0.25", _image("32x0.25")[None])
            assert registry.stats()["models_resident"] == 0  # no leak

    def test_unknown_model_is_typed(self, fleet_dir):
        with ModelRegistry.from_directory(fleet_dir) as registry:
            with pytest.raises(ModelNotFoundError, match="ghost"):
                registry.run("ghost", _image("32x0.25")[None])

    def test_run_rejects_what_the_manifest_rules_out_without_a_load(
            self, fleet_dir):
        from repro.runtime.errors import InvalidInputError

        with ModelRegistry.from_directory(fleet_dir) as registry:
            gray = np.zeros((1, 1, 32, 32))
            with pytest.raises(InvalidInputError, match="channel"):
                registry.run("32x0.25", gray)
            with pytest.raises(InvalidInputError, match="max geometry"):
                registry.run("32x0.25", _image("64x0.25")[None])
            assert not registry.entry("32x0.25").resident
            assert registry.entry("32x0.25").in_channels == 3

    def test_a_legacy_compile_geometry_bounds_the_entry(self, tmp_path):
        """An artifact whose only geometry is a legacy
        ``compile_options.input_hw`` (the one ``Session.load`` reads) is
        sized at it, and a larger request is refused without a load."""
        import json

        from repro.inference.testing import integer_network_from_spec
        from repro.models.model_zoo import mobilenet_v1_spec
        from repro.runtime import Session
        from repro.runtime.errors import InvalidInputError

        net = integer_network_from_spec(
            mobilenet_v1_spec(32, 0.25, num_classes=5), np.random.default_rng(2))
        path = Session(net).save(tmp_path / "legacy.artifact")
        manifest_path = path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        assert "arena" not in manifest["network"]
        manifest["compile_options"] = {"input_hw": [32, 32]}
        manifest_path.write_text(json.dumps(manifest))
        assert Session.load(path).input_hw == (32, 32)
        with ModelRegistry() as registry:
            entry = registry.add("legacy", path)
            assert entry.max_hw == (32, 32)
            with pytest.raises(InvalidInputError, match="max geometry"):
                registry.run("legacy", np.zeros((1, 3, 96, 96)))
            assert not entry.resident

    def test_inflight_models_are_not_evictable(self, fleet_dir, costs):
        budget = _two_of_three_budget(costs)
        with ModelRegistry.from_directory(
                fleet_dir, memory_budget_bytes=budget) as registry:
            pinned = [registry.checkout("64x0.25"),
                      registry.checkout("96x0.25")]
            # Both resident models busy: the third cannot evict anyone.
            with pytest.raises(OverBudgetError):
                registry.checkout("32x0.25")
            for entry in pinned:
                registry.release(entry)
            registry.run("32x0.25", _image("32x0.25")[None])  # now fits

    def test_stats_and_other_models_answer_during_a_cold_load(
            self, fleet_dir, monkeypatch):
        """The load runs outside the registry lock: while one model
        loads, ``stats`` reports it loading and another model checks
        out, each at once."""
        with ModelRegistry.from_directory(fleet_dir) as registry:
            registry.run("32x0.25", _image("32x0.25")[None])
            started = _slow_loads(monkeypatch)
            loader = threading.Thread(
                target=registry.run, args=("64x0.25", _image("64x0.25")[None]))
            loader.start()
            try:
                assert started.wait(10.0)
                t0 = time.monotonic()
                stats = registry.stats()
                registry.release(registry.checkout("32x0.25"))
                registry.validate_input("32x0.25", _image("32x0.25")[None])
                assert time.monotonic() - t0 < 0.2
                assert registry.entry("64x0.25").loading, "load ended early"
                assert stats["models"]["64x0.25"]["loading"]
                assert not stats["models"]["64x0.25"]["resident"]
            finally:
                loader.join()
            assert registry.entry("64x0.25").resident
            assert not registry.stats()["models"]["64x0.25"]["loading"]

    def test_a_second_checkout_waits_for_the_load(self, fleet_dir, monkeypatch):
        """Two checkouts of one cold model load it once and share it."""
        with ModelRegistry.from_directory(fleet_dir) as registry:
            _slow_loads(monkeypatch, seconds=0.2)
            entries = []
            threads = [threading.Thread(
                target=lambda: entries.append(registry.checkout("32x0.25")))
                for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert len(entries) == 2 and entries[0] is entries[1]
            entry = entries[0]
            assert entry.loads == 1 and registry.loads == 1
            assert entry.inflight == 2 and entry.requests == 2
            for e in entries:
                registry.release(e)
            assert entry.inflight == 0

    def test_concurrent_checkouts_keep_the_books(self, fleet_dir, costs):
        """Six threads (more than the cores) check models out and in
        under a budget that holds two of three, with a short switch
        interval: every checkout gets a resident session, and afterwards
        nothing is in flight or loading, the load counters agree and the
        budget holds."""
        import sys

        budget = _two_of_three_budget(costs)
        errors = []
        with ModelRegistry.from_directory(
                fleet_dir, memory_budget_bytes=budget) as registry:
            models = registry.models

            def worker(seed):
                rng = np.random.default_rng(seed)
                for _ in range(15):
                    try:
                        entry = registry.checkout(models[rng.integers(3)])
                    except OverBudgetError:
                        continue  # every resident model was in flight
                    try:
                        if entry.session is None or entry.loading:
                            errors.append(entry.name)
                    finally:
                        registry.release(entry)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                threads = [threading.Thread(target=worker, args=(i,))
                           for i in range(6)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
            finally:
                sys.setswitchinterval(interval)
            assert not any(t.is_alive() for t in threads)
            assert errors == []
            entries = [registry.entry(m) for m in models]
            assert [(e.inflight, e.loading) for e in entries] == [(0, False)] * 3
            assert registry.loads == sum(e.loads for e in entries)
            assert registry.evictions == sum(e.evictions for e in entries)
            assert registry.resident_bytes() <= budget

    def test_a_loading_model_is_never_evicted(self, fleet_dir, costs,
                                              monkeypatch):
        """A resident model whose pool is starting is pinned: a second
        model that only fits by evicting it is refused instead."""
        from types import SimpleNamespace

        budget = max(costs["32x0.25"], costs["64x0.25"]) + 1024
        assert budget < costs["32x0.25"] + costs["64x0.25"]
        with ModelRegistry.from_directory(
                fleet_dir, memory_budget_bytes=budget) as registry:
            registry.run("32x0.25", _image("32x0.25")[None])
            registry.use_pools(SimpleNamespace(workers=1))

            def slow_pool(*args):
                time.sleep(0.3)
                return SimpleNamespace(options=SimpleNamespace(workers=1),
                                       close=lambda: None)

            monkeypatch.setattr(registry, "_start_pool", slow_pool)
            starter = threading.Thread(target=registry.checkout,
                                       args=("32x0.25",))
            starter.start()
            try:
                _wait_until(lambda: registry.entry("32x0.25").loading)
                with pytest.raises(OverBudgetError):
                    registry.checkout("64x0.25")
            finally:
                starter.join()
            entry = registry.entry("32x0.25")
            assert entry.resident and entry.pool is not None
            assert entry.evictions == 0 and entry.inflight == 1
            assert not registry.entry("64x0.25").resident

    def test_polymorphic_routing_inside_one_model(self, fleet_dir):
        """A smaller geometry runs in the model's one slab set, which the
        native geometry already sized, and matches a dedicated session
        exactly."""
        from repro.runtime import Session

        with ModelRegistry.from_directory(fleet_dir) as registry:
            registry.run("96x0.25", _image("96x0.25")[None])
            x = np.random.default_rng(5).uniform(0.0, 1.0, (1, 3, 64, 64))
            out = registry.run("96x0.25", x)
            np.testing.assert_array_equal(
                out, Session.load(fleet_dir / "96x0.25").run(x)
            )
            plan = registry.entry("96x0.25").session.plan
            native, small = plan.arena_for((96, 96)), plan.arena_for((64, 64))
            assert small._slabs is native._slabs
            assert plan._slabs.allocated_bytes == native.planned_bytes(1)
            # A held plan would pin the mmap'd weights at close.
            del plan, native, small

    def test_eviction_unmaps_blobs(self, fleet_dir, costs):
        import pathlib

        smaps = pathlib.Path("/proc/self/smaps")
        if not smaps.exists():
            pytest.skip("no /proc/self/smaps on this platform")
        budget = _two_of_three_budget(costs)
        with ModelRegistry.from_directory(
                fleet_dir, memory_budget_bytes=budget) as registry:
            registry.run("32x0.25", _image("32x0.25")[None])
            blob = str((fleet_dir / "32x0.25" / "blobs.bin").resolve())
            assert blob in smaps.read_text()
            for m in ("64x0.25", "96x0.25"):  # crowd the first one out
                registry.run(m, _image(m)[None])
            assert not registry.entry("32x0.25").resident
            assert blob not in smaps.read_text()


class TestFleetServer:
    def _scenario(self, fleet_dir, budget, body, server_kwargs=None):
        async def _main():
            registry = ModelRegistry.from_directory(
                fleet_dir, memory_budget_bytes=budget
            )
            server = ServingServer(
                registry=registry,
                options=ServerOptions(port=0, max_wait_ms=2.0),
                **(server_kwargs or {}),
            )
            host, port = await server.start()
            try:
                await body(server, registry, host, port)
            finally:
                await server.stop()

        asyncio.run(_main())

    def test_mixed_traffic_evicts_reloads_and_stays_exact(
            self, fleet_dir, costs):
        from repro.runtime import Session

        dedicated = {
            m: int(np.argmax(Session.load(fleet_dir / m).run(_image(m)[None])))
            for m in ("32x0.25", "64x0.25", "96x0.25")
        }

        async def body(server, registry, host, port):
            for sweep in range(2):
                for model, expected in dedicated.items():
                    status, reply = await predict(host, port, _image(model),
                                                  model=model)
                    assert status == 200, reply
                    assert reply["model"] == model
                    assert reply["prediction"] == expected
            status, stats = await request_json(host, port, "GET", "/stats")
            assert status == 200
            reg = stats["registry"]
            assert reg["evictions"] >= 1  # LRU observed via /stats
            assert reg["loads"] > reg["models_known"]  # lazy reload observed
            assert reg["resident_bytes"] <= reg["budget_bytes"]

        self._scenario(fleet_dir, _two_of_three_budget(costs), body)

    def test_unknown_model_is_404(self, fleet_dir, costs):
        async def body(server, registry, host, port):
            status, reply = await predict(host, port, _image("32x0.25"),
                                          model="ghost")
            assert status == 404
            assert reply["error"] == "ModelNotFoundError"
            assert server.stats.unknown_model == 1

        self._scenario(fleet_dir, _two_of_three_budget(costs), body)

    def test_over_budget_load_is_413(self, fleet_dir, costs):
        async def body(server, registry, host, port):
            status, reply = await predict(host, port, _image("96x0.25"),
                                          model="96x0.25")
            assert status == 413
            assert reply["error"] == "OverBudgetError"
            assert server.stats.over_budget == 1
            # The tier survives: a model that fits still answers.
            status, _ = await predict(host, port, _image("32x0.25"),
                                      model="32x0.25")
            assert status == 200

        # Budget fits the smallest model only.
        self._scenario(fleet_dir, min(costs.values()) + 1024, body)

    def test_default_model_and_warm_start(self, fleet_dir, costs):
        async def body(server, registry, host, port):
            assert registry.entry("64x0.25").resident  # warmed at startup
            status, reply = await predict(host, port, _image("64x0.25"))
            assert status == 200 and reply["model"] == "64x0.25"
            status, health = await request_json(host, port, "GET", "/healthz")
            assert status == 200
            assert health["fleet"]["models_known"] == 3
            assert health["startup"]["warmed"] == "64x0.25"

        self._scenario(fleet_dir, _two_of_three_budget(costs), body,
                       server_kwargs={"default_model": "64x0.25"})

    def test_missing_model_without_default_is_400(self, fleet_dir, costs):
        async def body(server, registry, host, port):
            status, reply = await predict(host, port, _image("32x0.25"))
            assert status == 400
            assert "model" in reply["detail"]

        self._scenario(fleet_dir, _two_of_three_budget(costs), body)

    def test_over_max_geometry_is_400_not_a_load(self, fleet_dir, costs):
        async def body(server, registry, host, port):
            status, reply = await predict(host, port, _image("96x0.25"),
                                          model="32x0.25")
            assert status == 400
            assert "max geometry" in reply["detail"]
            # Rejected at admission — the model was never loaded.
            assert not registry.entry("32x0.25").resident

        self._scenario(fleet_dir, _two_of_three_budget(costs), body)

    def test_over_max_geometry_of_a_resident_model_is_400(
            self, fleet_dir, costs):
        """The registry caps a loaded model at its native geometry too."""
        from repro.runtime.errors import InvalidInputError

        async def body(server, registry, host, port):
            status, _ = await predict(host, port, _image("32x0.25"),
                                      model="32x0.25")
            assert status == 200
            assert registry.entry("32x0.25").resident
            status, reply = await predict(host, port, _image("64x0.25"),
                                          model="32x0.25")
            assert status == 400
            assert "max geometry" in reply["detail"]
            with pytest.raises(InvalidInputError, match="max geometry"):
                registry.run("32x0.25", _image("64x0.25")[None])

        self._scenario(fleet_dir, _two_of_three_budget(costs), body)

    def test_wrong_channels_to_a_cold_model_is_400_not_a_load(
            self, fleet_dir, costs):
        """A channel count the manifest rules out is a 400 at admission:
        no load, no engine retry, no breaker failure."""
        gray = np.random.default_rng(3).uniform(0.0, 1.0, (1, 32, 32))

        async def body(server, registry, host, port):
            for _ in range(5):
                status, reply = await predict(host, port, gray,
                                              model="32x0.25")
                assert status == 400
                assert "channel" in reply["detail"]
            assert not registry.entry("32x0.25").resident
            assert server.stats.failed == 0
            status, stats = await request_json(host, port, "GET", "/stats")
            assert stats["circuits"].get("32x0.25", "closed") == "closed"
            status, _ = await predict(host, port, _image("32x0.25"),
                                      model="32x0.25")
            assert status == 200

        self._scenario(fleet_dir, _two_of_three_budget(costs), body)

    def test_a_collapsing_geometry_is_400_cold_and_resident(self, tmp_path):
        """A geometry that an unpadded layer shrinks below 1x1 is refused
        by the manifest's spec as the loaded session would refuse it: a
        400 whether the model is cold or resident, and the cold request
        loads nothing, retries nothing and fails no breaker."""
        from repro.inference.testing import random_network
        from repro.runtime import Session

        net = random_network(np.random.default_rng(0), resolution=12,
                             max_layers=4)
        Session(net, input_hw=(12, 12)).save(tmp_path / "rand")
        tiny = np.zeros((3, 1, 1))
        ok = np.random.default_rng(4).uniform(0.0, 1.0, (3, 12, 12))

        async def body(server, registry, host, port):
            status, reply = await predict(host, port, tiny, model="rand")
            assert status == 400, reply
            assert "collapses" in reply["detail"]
            status, stats = await request_json(host, port, "GET", "/stats")
            assert stats["registry"]["loads"] == 0
            assert stats["batches"]["retries"] == 0
            assert server.stats.failed == 0
            assert server.engine.breaker_for("rand").consecutive_failures == 0
            status, _ = await predict(host, port, ok, model="rand")
            assert status == 200
            assert registry.entry("rand").resident
            status, reply = await predict(host, port, tiny, model="rand")
            assert status == 400, reply
            assert "collapses" in reply["detail"]
            assert registry.loads == 1

        self._scenario(tmp_path, None, body)

    def test_pooled_fleet_gets_the_single_model_pool(self, fleet_dir, costs):
        """``--workers 2`` on a fleet: the default model's pool is built
        like a pooled single model's — the server's fault injector,
        ``--max-batch``-sized tiles, one concurrent tile per worker —
        and shows up in ``/healthz`` and ``/stats``."""
        options = ServerOptions(port=0, max_wait_ms=2.0, workers=2)
        faults = FaultInjector([FaultSpec("worker-kill", every=2, limit=1)])

        async def _main():
            registry = ModelRegistry.from_directory(
                fleet_dir, memory_budget_bytes=_two_of_three_budget(costs)
            )
            server = ServingServer(registry=registry, options=options,
                                   faults=faults, default_model="32x0.25")
            host, port = await server.start()
            try:
                # One request at a time: one pool task each, so the
                # second one is the one the schedule kills.
                for _ in range(6):
                    status, reply = await predict(
                        host, port, _image("32x0.25"), deadline_ms=0,
                        timeout=60.0,
                    )
                    assert status == 200, reply
                assert faults.summary()["worker-kill"]["fires"] >= 1
                assert server.engine.concurrency == 2
                status, health = await request_json(host, port, "GET",
                                                    "/healthz")
                assert status == 200
                assert health["workers"]["alive"] == 2
                status, stats = await request_json(host, port, "GET",
                                                   "/stats")
                assert status == 200
                assert stats["pool"]["kills"] >= 1
                # The engine retried each killed tile once.
                assert stats["batches"]["retries"] == stats["pool"]["kills"]
                pool = registry.entry("32x0.25").pool
                assert pool.options.max_tile == max(32, options.max_batch)
            finally:
                await server.stop()

        asyncio.run(_main())

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_cold_load_leaves_the_front_end_responsive(
            self, fleet_dir, monkeypatch, workers):
        """While a cold model loads (and, pooled, starts its workers),
        ``/healthz`` and ``/stats`` answer at once, and with a second
        executor thread so does a resident model's predict."""
        options = ServerOptions(port=0, max_wait_ms=2.0, workers=workers)

        async def _main():
            registry = ModelRegistry.from_directory(fleet_dir)
            server = ServingServer(registry=registry, options=options,
                                   default_model="32x0.25")
            host, port = await server.start()
            started = _slow_loads(monkeypatch)
            try:
                cold = asyncio.create_task(predict(
                    host, port, _image("64x0.25"), model="64x0.25",
                    timeout=60.0))
                while not started.is_set():
                    await asyncio.sleep(0.005)
                calls = [request_json(host, port, "GET", "/healthz"),
                         request_json(host, port, "GET", "/stats")]
                if workers > 1:
                    calls.append(predict(host, port, _image("32x0.25"),
                                         model="32x0.25"))
                for call in calls:
                    t0 = time.monotonic()
                    status, reply = await call
                    assert status == 200, reply
                    assert time.monotonic() - t0 < 0.2
                assert registry.entry("64x0.25").loading, "load ended early"
                status, reply = await cold
                assert status == 200, reply
                assert registry.entry("64x0.25").resident
            finally:
                await server.stop()

        asyncio.run(_main())

    def test_single_model_serve_unchanged(self, tiny_session, image):
        """Migration guarantee: a session-backed server neither requires
        nor is confused by the fleet fields."""

        async def _main():
            server = ServingServer(tiny_session,
                                   options=ServerOptions(port=0))
            host, port = await server.start()
            try:
                status, reply = await predict(host, port, image)
                assert status == 200 and "model" not in reply
                # A stray "model" field on a single-model server is
                # ignored, exactly as before fleets existed.
                status, reply = await predict(host, port, image,
                                              model="whatever")
                assert status == 200
            finally:
                await server.stop()

        asyncio.run(_main())
