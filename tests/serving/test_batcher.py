"""Micro-batcher core: flush-on-full, flush-on-timeout, remainder
carry-over, the pre-batching deadline guarantee, and one lane per
(model, input shape)."""

import numpy as np
import pytest

from repro.serving.batcher import MicroBatcher, Request


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def make(batcher, clock, n, deadline_in=None, model=None, hw=None):
    """Add ``n`` requests; with ``hw`` each carries a 3 x hw x hw image,
    so ``model`` and ``hw`` pick the lane."""
    reqs = []
    for _ in range(n):
        deadline = None if deadline_in is None else clock() + deadline_in
        x = len(reqs) if hw is None else np.zeros((3, hw, hw))
        r = Request(x=x, enqueued_at=clock(), deadline=deadline, model=model)
        batcher.add(r)
        reqs.append(r)
    return reqs


@pytest.fixture
def clock():
    return FakeClock()


class TestFlushOnFull:
    def test_full_tile_emits_exactly_max_batch(self, clock):
        b = MicroBatcher(max_batch=4, max_wait_s=10.0, clock=clock)
        reqs = make(b, clock, 4)
        assert b.next_flush_in() == 0.0
        batch, expired = b.take()
        assert batch == reqs and expired == [] and len(b) == 0

    def test_remainder_carries_over(self, clock):
        b = MicroBatcher(max_batch=4, max_wait_s=10.0, clock=clock)
        reqs = make(b, clock, 7)
        batch, _ = b.take()
        assert batch == reqs[:4]
        # The 3 leftovers stay pending, FIFO order preserved, and seed
        # the next tile once more requests arrive.
        assert len(b) == 3
        late = make(b, clock, 1)
        batch2, _ = b.take()
        assert batch2 == reqs[4:] + late and len(b) == 0

    def test_under_full_does_not_flush_early(self, clock):
        b = MicroBatcher(max_batch=4, max_wait_s=10.0, clock=clock)
        make(b, clock, 3)
        batch, _ = b.take()
        assert batch == [] and len(b) == 3


class TestFlushOnTimeout:
    def test_oldest_waiter_times_out_partial_tile(self, clock):
        b = MicroBatcher(max_batch=8, max_wait_s=0.5, clock=clock)
        reqs = make(b, clock, 3)
        assert b.take() == ([], []) and len(b) == 3
        clock.advance(0.5)
        assert b.next_flush_in() == 0.0
        batch, _ = b.take()
        assert batch == reqs and len(b) == 0

    def test_next_flush_in_counts_down_from_oldest(self, clock):
        b = MicroBatcher(max_batch=8, max_wait_s=0.5, clock=clock)
        assert b.next_flush_in() is None
        make(b, clock, 1)
        clock.advance(0.2)
        make(b, clock, 1)  # newer request must not extend the wait
        assert b.next_flush_in() == pytest.approx(0.3)
        clock.advance(0.4)
        assert b.next_flush_in() == 0.0

    def test_next_flush_in_respects_earliest_deadline(self, clock):
        b = MicroBatcher(max_batch=8, max_wait_s=10.0, clock=clock)
        make(b, clock, 1, deadline_in=0.25)
        assert b.next_flush_in() == pytest.approx(0.25)

    def test_force_flush_drains_partial(self, clock):
        b = MicroBatcher(max_batch=8, max_wait_s=10.0, clock=clock)
        reqs = make(b, clock, 2)
        batch, _ = b.take(force=True)
        assert batch == reqs


class TestDeadlines:
    def test_expired_requests_never_reach_a_batch(self, clock):
        b = MicroBatcher(max_batch=2, max_wait_s=10.0, clock=clock)
        doomed = make(b, clock, 1, deadline_in=0.1)
        clock.advance(0.2)
        alive = make(b, clock, 2)  # fills a tile
        batch, expired = b.take()
        assert expired == doomed
        assert batch == alive
        assert all(r not in batch for r in doomed)

    def test_expiry_is_checked_before_tile_formation(self, clock):
        # 4 requests with deadlines + enough fresh ones for a full tile:
        # the expired ones are dropped first, the tile forms from the rest.
        b = MicroBatcher(max_batch=4, max_wait_s=10.0, clock=clock)
        doomed = make(b, clock, 4, deadline_in=0.1)
        clock.advance(1.0)
        fresh = make(b, clock, 4)
        batch, expired = b.take()
        assert expired == doomed and batch == fresh

    def test_expiry_without_a_tile_leaves_live_requests(self, clock):
        b = MicroBatcher(max_batch=8, max_wait_s=10.0, clock=clock)
        doomed = make(b, clock, 1, deadline_in=0.1)
        live = make(b, clock, 1, deadline_in=5.0)
        clock.advance(0.2)
        assert b.take() == ([], doomed)
        assert len(b) == 1
        batch, _ = b.take(force=True)
        assert batch == live

    def test_no_deadline_never_expires(self, clock):
        b = MicroBatcher(max_batch=8, max_wait_s=0.1, clock=clock)
        reqs = make(b, clock, 1)
        clock.advance(1e6)
        assert b.take() == (reqs, [])


class TestValidation:
    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            MicroBatcher(max_batch=0, max_wait_s=1.0)
        with pytest.raises(ValueError):
            MicroBatcher(max_batch=1, max_wait_s=-1.0)

    def test_drain_empties_everything(self, clock):
        b = MicroBatcher(max_batch=4, max_wait_s=1.0, clock=clock)
        reqs = make(b, clock, 3)
        assert b.drain() == reqs and len(b) == 0


class TestLanes:
    def test_interleaved_models_and_shapes_give_homogeneous_tiles(self, clock):
        b = MicroBatcher(max_batch=8, max_wait_s=0.5, clock=clock)
        lanes = [("a", 32), ("b", 32), ("a", 40)]
        reqs = {lane: [] for lane in lanes}
        for _ in range(3):
            for model, hw in lanes:
                reqs[model, hw] += make(b, clock, 1, model=model, hw=hw)
        clock.advance(0.5)
        tiles = [b.take()[0] for _ in lanes]
        assert tiles == [reqs[lane] for lane in lanes]
        assert b.take() == ([], []) and len(b) == 0

    def test_lanes_are_polled_in_insertion_order(self, clock):
        b = MicroBatcher(max_batch=2, max_wait_s=10.0, clock=clock)
        first = make(b, clock, 1, model="a", hw=8)
        second = make(b, clock, 2, model="b", hw=8)
        first += make(b, clock, 1, model="a", hw=8)
        # Both lanes are full; the lane made first wins each call.
        assert b.take() == (first, [])
        assert b.take() == (second, [])

    def test_each_lane_carries_over_its_own_remainder(self, clock):
        b = MicroBatcher(max_batch=2, max_wait_s=10.0, clock=clock)
        a = make(b, clock, 3, model="a", hw=8)
        c = make(b, clock, 3, model="c", hw=8)
        assert b.take() == (a[:2], [])
        assert b.take() == (c[:2], [])
        assert b.take() == ([], []) and len(b) == 2
        a += make(b, clock, 1, model="a", hw=8)
        assert b.take() == (a[2:], [])
        c += make(b, clock, 1, model="c", hw=8)
        assert b.take() == (c[2:], [])

    def test_a_polled_lane_surfaces_its_expired_requests(self, clock):
        b = MicroBatcher(max_batch=2, max_wait_s=10.0, clock=clock)
        doomed_a = make(b, clock, 1, deadline_in=0.1, model="a", hw=8)
        doomed_b = make(b, clock, 1, deadline_in=0.1, model="b", hw=8)
        clock.advance(0.2)
        full = make(b, clock, 2, model="b", hw=8)
        # Lane a is polled first and has no tile; lane b's tile wins,
        # and the expired requests of both come back with it.
        batch, expired = b.take()
        assert batch == full and expired == doomed_a + doomed_b
        assert len(b) == 0

    def test_next_flush_in_is_the_minimum_over_lanes(self, clock):
        b = MicroBatcher(max_batch=4, max_wait_s=0.5, clock=clock)
        make(b, clock, 1, model="a", hw=8)
        clock.advance(0.1)
        make(b, clock, 1, model="b", hw=8)
        assert b.next_flush_in() == pytest.approx(0.4)
        make(b, clock, 1, deadline_in=0.25, model="c", hw=8)
        assert b.next_flush_in() == pytest.approx(0.25)
        make(b, clock, 3, model="b", hw=8)  # lane b is full
        assert b.next_flush_in() == 0.0

    def test_drain_empties_every_lane(self, clock):
        b = MicroBatcher(max_batch=4, max_wait_s=1.0, clock=clock)
        a = make(b, clock, 2, model="a", hw=8)
        c = make(b, clock, 3, model="a", hw=16)
        assert b.drain() == a + c
        assert len(b) == 0 and b.next_flush_in() is None
        assert b.take(force=True) == ([], [])
