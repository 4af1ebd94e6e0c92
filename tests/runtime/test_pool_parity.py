"""Cross-worker bit-exactness: the process pool must be indistinguishable
from a single-thread Session — same logits, bit for bit, no matter how
tiles land on workers.

The argument the suite enforces: every kernel in the stack is exact
(integer GEMMs under proven accumulator bounds), so per-image results
cannot depend on batch tiling; a pool that mmaps the same artifact into
every worker and splits sweeps across them must therefore reproduce
``Session.run_batched`` exactly.  Any mismatch — one ULP, one image —
is a real bug (shared-state corruption, transport truncation, tile
reassembly out of order), which is why the assertions are
``array_equal``, never ``allclose``.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.inference.testing import integer_network_from_spec, random_network
from repro.models.model_zoo import all_mobilenet_configs, mobilenet_v1_spec
from repro.runtime import (
    PoolClosedError,
    PoolOptions,
    Session,
    WorkerCrashedError,
    WorkerPool,
    WorkerTaskError,
)
from repro.runtime.artifact import BLOBS_NAME
from repro.runtime.shm import SharedSlab
from repro.serving import FaultInjector

# A sampled slice of the 16-config zoo: the extremes plus two interior
# points.  Structure (depth/width) comes from the spec; inputs run at
# 32x32 so each config costs milliseconds, exactly like the artifact
# round-trip sweep.
_ZOO = all_mobilenet_configs(num_classes=5)
_ZOO_SLICE = [_ZOO[0], _ZOO[5], _ZOO[10], _ZOO[15]]
_SMALL = mobilenet_v1_spec(32, 0.25, num_classes=5)


def _session_for(spec, seed):
    net = integer_network_from_spec(spec, np.random.default_rng(seed))
    return Session(net, input_hw=(32, 32))


@pytest.fixture(scope="module")
def small_setup(tmp_path_factory):
    """One tiny session + its artifact + a running 2-worker pool,
    shared by every test that doesn't need its own pool."""
    session = _session_for(_SMALL, seed=11)
    path = tmp_path_factory.mktemp("pool") / "small.artifact"
    session.save(path)
    pool = WorkerPool(path, PoolOptions(workers=2, max_tile=4)).start()
    yield session, pool
    pool.close()


@pytest.mark.parametrize("spec", _ZOO_SLICE, ids=lambda s: s.label)
def test_pool_is_bit_identical_across_zoo_slice(spec, tmp_path):
    """Acceptance: pool output == single-thread Session.run_batched on
    every tested zoo config, including an uneven final tile."""
    seed = spec.resolution + int(spec.width_multiplier * 100)
    session = _session_for(spec, seed)
    path = session.save(tmp_path / "zoo.artifact")
    x = np.random.default_rng(seed + 1).uniform(0, 1, size=(7, 3, 32, 32))
    with WorkerPool(path, PoolOptions(workers=2, max_tile=3)) as pool:
        assert np.array_equal(session.run_batched(x), pool.run_batched(x))
        assert np.array_equal(session.run(x[:2]), pool.run(x[:2]))


@pytest.mark.parametrize("n", [1, 3, 4, 5, 7, 9])
def test_ragged_run_batched_edges(small_setup, n):
    """Sweep sizes around the tile boundary (tile=4): one image, one
    tile exactly, tile+1, a ragged tail — every split must reassemble
    in order and bit-exactly."""
    session, pool = small_setup
    x = np.random.default_rng(n).uniform(0, 1, size=(n, 3, 32, 32))
    assert np.array_equal(session.run_batched(x, batch_size=4), pool.run_batched(x))
    # Explicit batch_size overrides, including degenerate tile=1.
    assert np.array_equal(
        session.run_batched(x, batch_size=1), pool.run_batched(x, batch_size=1)
    )


def test_empty_sweep_preserves_output_shape(small_setup):
    session, pool = small_setup
    empty = np.empty((0, 3, 32, 32))
    ref = session.run_batched(empty)
    got = pool.run_batched(empty)
    assert got.shape == ref.shape
    assert np.array_equal(ref, got)


def test_predict_parity(small_setup):
    session, pool = small_setup
    x = np.random.default_rng(21).uniform(0, 1, size=(6, 3, 32, 32))
    assert np.array_equal(session.predict(x), pool.predict(x))


def test_concurrent_mixed_shape_submission(small_setup):
    """Many client threads hammer the pool at once with different batch
    sizes and geometries; every caller must get exactly what a private
    single-thread session would have produced.  This is the test that
    catches slab reuse races and response misrouting."""
    session, pool = small_setup
    cases = []
    for i, (n, hw) in enumerate(
        [(1, 32), (5, 32), (2, 40), (8, 32), (3, 40), (4, 32), (7, 40), (6, 32)]
    ):
        x = np.random.default_rng(100 + i).uniform(0, 1, size=(n, 3, hw, hw))
        cases.append((x, session.run_batched(x)))

    failures = []

    def client(idx, x, expected):
        try:
            for _ in range(3):  # re-submit: interleave with other clients
                got = pool.run_batched(x)
                if not np.array_equal(expected, got):
                    failures.append((idx, "mismatch"))
        except Exception as exc:  # pragma: no cover - failure path
            failures.append((idx, repr(exc)))

    threads = [
        threading.Thread(target=client, args=(i, x, ref))
        for i, (x, ref) in enumerate(cases)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not failures, failures
    assert pool.stats()["served"] >= len(cases)


def test_worker_task_error_is_typed_and_nonfatal(small_setup):
    """A bad input fails inside the worker with the remote exception's
    identity preserved — and the worker survives to serve the next task
    (task failures are not worker failures: no respawn)."""
    session, pool = small_setup
    restarts_before = pool.restarts
    with pytest.raises(WorkerTaskError) as err:
        pool.run(np.full((1, 3, 32, 32), np.nan))
    assert err.value.etype == "InvalidInputError"
    assert pool.restarts == restarts_before
    x = np.random.default_rng(5).uniform(0, 1, size=(2, 3, 32, 32))
    assert np.array_equal(session.run(x), pool.run(x))


def test_a_crash_respawns_the_worker_and_raises_once(tmp_path):
    """The pool never re-runs a task: a killed worker is respawned in
    place, the call that lost it raises, and the next call is exact."""
    session = _session_for(_SMALL, seed=35)
    path = session.save(tmp_path / "k.artifact")
    faults = FaultInjector.parse("worker-kill:every=1,limit=1")
    x = np.random.default_rng(36).uniform(0, 1, size=(2, 3, 32, 32))
    with WorkerPool(path, PoolOptions(workers=1), faults=faults) as pool:
        with pytest.raises(WorkerCrashedError):
            pool.run(x)
        assert pool.kills == pool.restarts == 1
        assert pool.alive_workers() == 1
        assert np.array_equal(session.run(x), pool.run(x))
        assert pool.kills == pool.restarts == 1


def test_a_failed_respawn_is_chained_and_the_next_borrower_respawns(tmp_path):
    """The worker dies and its respawn fails too (the artifact went bad
    under it): the crash is raised with the failed respawn as its cause.
    The next borrower finds the slot dead and respawns it afresh."""
    session = _session_for(_SMALL, seed=37)
    path = session.save(tmp_path / "f.artifact")
    blob = path / BLOBS_NAME
    good = blob.read_bytes()
    faults = FaultInjector.parse("worker-kill:every=1,limit=1")
    x = np.random.default_rng(38).uniform(0, 1, size=(2, 3, 32, 32))
    with WorkerPool(path, PoolOptions(workers=1), faults=faults) as pool:
        bad = bytearray(good)
        bad[len(bad) // 2] ^= 0xFF
        blob.write_bytes(bytes(bad))
        with pytest.raises(WorkerCrashedError, match="mid-task") as err:
            pool.run(x)
        assert isinstance(err.value.__cause__, WorkerCrashedError)
        assert "startup" in str(err.value.__cause__)
        blob.write_bytes(good)
        with pytest.raises(WorkerCrashedError):
            pool.run(x)  # the dead slot: this caller respawns it
        assert np.array_equal(session.run(x), pool.run(x))
        assert pool.kills == 1 and pool.restarts == 2


def test_a_depthwise_first_network_ships_tiles_through_the_slabs(tmp_path):
    """The request slab is sized from the first layer's input channels,
    which a depthwise layer records as its filter count: every tile of
    ``max_tile`` images fits it, and none falls back to the pipe."""
    net = random_network(np.random.default_rng(0), resolution=32, max_layers=3)
    assert net.conv_layers[0].kind == "dw"
    session = Session(net, input_hw=(32, 32))
    path = session.save(tmp_path / "dw.artifact")
    x = np.random.default_rng(39).uniform(0, 1, size=(20, 3, 32, 32))
    with WorkerPool(path, PoolOptions(workers=1, max_tile=4)) as pool:
        assert np.array_equal(session.run_batched(x), pool.run_batched(x))
        assert pool.stats()["served"] == 5
        assert pool.inline_fallbacks == 0


def test_from_session_stages_and_cleans_up(tmp_path):
    """A pool over an unsaved in-memory session stages its own artifact
    and removes it on close; the session never names the staged copy."""
    session = _session_for(_SMALL, seed=31)
    assert session.source_artifact is None
    pool = WorkerPool.from_session(session, PoolOptions(workers=1))
    staged = pool.artifact_path
    assert session.source_artifact is None
    with pool:
        x = np.random.default_rng(6).uniform(0, 1, size=(3, 3, 32, 32))
        assert np.array_equal(session.run_batched(x), pool.run_batched(x))
        assert staged.is_dir()
    assert not staged.exists()


def test_closed_pool_rejects_new_work(tmp_path):
    session = _session_for(_SMALL, seed=41)
    path = session.save(tmp_path / "c.artifact")
    pool = WorkerPool(path, PoolOptions(workers=1)).start()
    pool.close()
    pool.close()  # idempotent
    with pytest.raises(PoolClosedError):
        pool.run(np.zeros((1, 3, 32, 32)))


def test_a_burst_of_callers_spreads_over_every_worker(small_setup):
    """Twelve callers at once, switching threads as often as the
    interpreter allows: every worker serves some of them (an idle worker
    is lent before a busy one is waited for), every caller gets its own
    bit-exact answer, and no lent or given-back worker is lost from the
    tally."""
    session, pool = small_setup
    xs = [np.random.default_rng(51 + i).uniform(0, 1, size=(2, 3, 32, 32))
          for i in range(12)]
    before = [w["served"] for w in pool.stats()["per_worker"]]
    results = [None] * len(xs)

    def caller(i):
        results[i] = pool.run(xs[i])

    threads = [threading.Thread(target=caller, args=(i,)) for i in range(len(xs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for x, got in zip(xs, results):
        assert got is not None and np.array_equal(session.run(x), got)
    after = [w["served"] for w in pool.stats()["per_worker"]]
    assert sum(after) - sum(before) == len(xs)
    assert all(a > b for a, b in zip(after, before))


def test_concurrent_first_calls_start_the_pool_once(tmp_path):
    """Callers racing into an unstarted pool: one of them starts it,
    the others wait, and every one is answered by the configured
    number of workers."""
    session = _session_for(_SMALL, seed=65)
    path = session.save(tmp_path / "r.artifact")
    x = np.random.default_rng(66).uniform(0, 1, size=(2, 3, 32, 32))
    with WorkerPool(path, PoolOptions(workers=2)) as probe:
        expected = probe.run(x)
    pool = WorkerPool(path, PoolOptions(workers=2))
    results = [None] * 3

    def caller(i):
        try:
            results[i] = pool.run(x)
        except Exception as exc:  # pragma: no cover - failure path
            results[i] = exc

    threads = [threading.Thread(target=caller, args=(i,)) for i in range(3)]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        assert all(isinstance(r, np.ndarray) and np.array_equal(expected, r)
                   for r in results), results
        assert len(pool.worker_pids()) == 2
    finally:
        pool.close()


def test_pool_runs_no_thread_of_its_own(tmp_path):
    """Callers run their own round trips: starting a pool adds no thread,
    and a sweep's executor is gone by the time ``run_batched`` returns."""
    session = _session_for(_SMALL, seed=61)
    path = session.save(tmp_path / "t.artifact")
    before = set(threading.enumerate())
    with WorkerPool(path, PoolOptions(workers=3, max_tile=2)) as pool:
        assert not set(threading.enumerate()) - before
        x = np.random.default_rng(62).uniform(0, 1, size=(7, 3, 32, 32))
        assert np.array_equal(session.run_batched(x), pool.run_batched(x))
        assert not set(threading.enumerate()) - before


class _HoldingFaults:
    """A duck-typed fault hook that holds its caller's round trip (and
    so its borrowed worker) until released; it never fires."""

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()

    def fire(self, kind):
        self.entered.set()
        self.release.wait(60)
        return None


def test_close_fails_a_caller_waiting_for_a_worker(tmp_path):
    """With the only worker on loan, a second caller waits; ``close``
    fails it with PoolClosedError at once, then waits for the borrowed
    worker to come back before it shuts the pool down."""
    session = _session_for(_SMALL, seed=71)
    path = session.save(tmp_path / "w.artifact")
    hold = _HoldingFaults()
    pool = WorkerPool(path, PoolOptions(workers=1), faults=hold).start()
    x = np.random.default_rng(72).uniform(0, 1, size=(2, 3, 32, 32))
    outcomes = {}

    def call(name):
        try:
            outcomes[name] = pool.run(x)
        except Exception as exc:
            outcomes[name] = exc

    holder = threading.Thread(target=call, args=("holder",))
    holder.start()
    assert hold.entered.wait(30)
    waiter = threading.Thread(target=call, args=("waiter",))
    waiter.start()
    deadline = time.monotonic() + 10
    while not pool._lock._waiters and time.monotonic() < deadline:
        time.sleep(0.01)  # until the waiter blocks for a worker
    closer = threading.Thread(target=pool.close)
    closer.start()
    waiter.join(timeout=30)
    assert not waiter.is_alive()
    assert isinstance(outcomes["waiter"], PoolClosedError)
    assert closer.is_alive()  # still waiting for the borrowed worker
    hold.release.set()
    holder.join(timeout=30)
    closer.join(timeout=30)
    assert not closer.is_alive()
    assert np.array_equal(session.run(x), outcomes["holder"])
    assert pool.alive_workers() == 0


def _leftovers(pool):
    """(worker pids still alive, shared segments still linked)."""
    alive = [h.pid for h in pool._workers if h.alive]
    linked = []
    for h in pool._workers:
        for slab in (h.req, h.resp):
            try:
                SharedSlab.attach(slab.name).close()
            except FileNotFoundError:
                continue
            linked.append(slab.name)
    return alive, linked


def test_pool_closed_before_start_spawns_nothing(tmp_path):
    session = _session_for(_SMALL, seed=81)
    path = session.save(tmp_path / "n.artifact")
    pool = WorkerPool(path, PoolOptions(workers=2))
    pool.close()
    with pytest.raises(PoolClosedError):
        pool.run(np.zeros((1, 3, 32, 32)))
    with pytest.raises(PoolClosedError):
        pool.start()
    assert pool.worker_pids() == []
    assert _leftovers(pool) == ([], [])


def test_failed_start_leaves_no_worker_or_segment(tmp_path):
    """One flipped blob byte: the first worker to fail its CRC check
    fails ``start``, which then closes the workers still loading and
    every segment it made."""
    session = _session_for(_SMALL, seed=91)
    path = session.save(tmp_path / "bad.artifact")
    blob = path / BLOBS_NAME
    raw = bytearray(blob.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    blob.write_bytes(bytes(raw))
    pool = WorkerPool(path, PoolOptions(workers=3))
    with pytest.raises(WorkerCrashedError):
        pool.start()
    assert len(pool.worker_pids()) >= 1
    assert _leftovers(pool) == ([], [])
    assert pool.closed
