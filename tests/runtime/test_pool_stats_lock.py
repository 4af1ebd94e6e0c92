"""Regression: ``WorkerPool.stats()`` must snapshot under the pool lock.

The bug: every other path that changes the shared state (lending a
worker, giving it back, the restart path) takes ``self._lock``, but
``stats()`` read the counters and per-worker handles lock-free — a
snapshot taken mid-restart could sum ``served`` while a handle was half
given back, or see a handle half-reset.  These tests pin the locking
contract with an instrumented Condition.
"""

import threading

import pytest

from repro.runtime.pool import PoolOptions, WorkerPool


class _RecordingCondition(threading.Condition):
    """A Condition that records whether it is held during a probe."""

    def __init__(self):
        super().__init__()
        self.acquisitions = 0

    def __enter__(self):
        result = super().__enter__()
        self.acquisitions += 1
        return result


@pytest.fixture()
def pool(tmp_path):
    # Never started: __init__ fully builds the stats-visible state, and
    # an unstarted pool exercises the same code path without spawning
    # processes.
    p = WorkerPool(tmp_path / "artifact", PoolOptions(workers=3))
    p._lock = _RecordingCondition()
    return p


def test_stats_takes_the_pool_lock(pool):
    before = pool._lock.acquisitions
    pool.stats()
    assert pool._lock.acquisitions > before


def test_stats_holds_lock_while_reading_counters(pool):
    """Stronger than 'acquired at some point': the whole snapshot —
    including the per-worker rows — happens inside one outer hold."""
    held_during_read = []
    lock = pool._lock

    class _Probe:
        served = 0
        restarts = 0
        worker_id = 0
        pid = None
        alive = False
        state = "starting"

        def __getattribute__(self, name):
            if name == "served":
                # _is_owned() is Condition's own "does this thread hold
                # the lock" probe.
                held_during_read.append(lock._is_owned())
            return object.__getattribute__(self, name)

    pool._workers = [_Probe()]
    pool.stats()
    assert held_during_read and all(held_during_read)


def test_stats_snapshot_matches_the_pool(pool):
    snapshot = pool.stats()
    assert snapshot["workers"] == 3
    assert snapshot["served"] == 0
    assert len(snapshot["per_worker"]) == len(pool._workers)


def test_borrowing_and_giving_back_take_the_pool_lock(pool):
    """Lending changes the idle queue, the handle's state and its
    ``served`` tally, which ``stats()`` reads under the lock: each of
    those writes happens while the lock is held."""
    lock = pool._lock
    writes = []

    class _Handle:
        served = 0
        state = "idle"

        def __setattr__(self, name, value):
            writes.append((name, lock._is_owned()))
            object.__setattr__(self, name, value)

    handle = _Handle()
    pool._idle.append(handle)
    before = lock.acquisitions
    assert pool._borrow() is handle
    assert lock.acquisitions > before
    before = lock.acquisitions
    pool._give_back(handle, served=True)
    assert lock.acquisitions > before
    assert handle.served == 1 and list(pool._idle) == [handle]
    assert writes and all(held for _, held in writes)
