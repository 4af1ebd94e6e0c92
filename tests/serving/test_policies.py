"""Retry/backoff determinism and the circuit-breaker state machine."""

import pytest

from repro.serving.policies import (
    BreakerState,
    CircuitBreaker,
    ServerOptions,
    retry_delays,
)


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


class TestRetryDelays:
    def test_default_retries_wait_20_then_40_ms(self):
        assert retry_delays(ServerOptions().retries) == [0.02, 0.04]

    def test_delays_double_and_cap_at_half_a_second(self):
        assert retry_delays(8) == [0.02, 0.04, 0.08, 0.16, 0.32, 0.5, 0.5, 0.5]

    def test_zero_retries_fail_fast(self):
        assert retry_delays(0) == []

    def test_deterministic_no_jitter(self):
        assert retry_delays(5) == retry_delays(5)


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        clock = FakeClock()
        b = CircuitBreaker(failure_threshold=3, reset_after_s=1.0, clock=clock)
        for _ in range(2):
            b.record_failure()
        assert b.state is BreakerState.CLOSED and b.allow()
        b.record_failure()
        assert b.state is BreakerState.OPEN and not b.allow()

    def test_success_resets_the_failure_streak(self):
        b = CircuitBreaker(failure_threshold=2)
        b.record_failure()
        b.record_success()
        b.record_failure()
        assert b.state is BreakerState.CLOSED

    def test_half_open_admits_exactly_one_probe(self):
        clock = FakeClock()
        b = CircuitBreaker(failure_threshold=1, reset_after_s=1.0, clock=clock)
        b.record_failure()
        assert not b.allow()
        clock.advance(1.0)
        assert b.state is BreakerState.HALF_OPEN
        assert b.allow()       # the probe
        assert not b.allow()   # no second concurrent probe

    def test_probe_success_closes(self):
        clock = FakeClock()
        b = CircuitBreaker(failure_threshold=1, reset_after_s=1.0, clock=clock)
        b.record_failure()
        clock.advance(1.0)
        assert b.allow()
        b.record_success()
        assert b.state is BreakerState.CLOSED and b.allow()

    def test_probe_failure_reopens_and_restarts_the_clock(self):
        clock = FakeClock()
        b = CircuitBreaker(failure_threshold=5, reset_after_s=1.0, clock=clock)
        for _ in range(5):
            b.record_failure()
        clock.advance(1.0)
        assert b.allow()
        b.record_failure()  # half-open probe fails -> OPEN immediately
        assert b.state is BreakerState.OPEN and not b.allow()
        clock.advance(0.5)
        assert not b.allow()  # reset clock restarted at the probe failure
        clock.advance(0.5)
        assert b.allow()


class TestServerOptions:
    def test_defaults_are_valid(self):
        ServerOptions()

    @pytest.mark.parametrize("kwargs", [
        {"max_batch": 0},
        {"queue_depth": 0},
        {"max_wait_ms": -1},
        {"default_deadline_ms": -1},
        {"batch_timeout_s": 0},
        {"retries": -1},
    ])
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ServerOptions(**kwargs)

    def test_replace(self):
        assert ServerOptions().replace(max_batch=2).max_batch == 2


class TestRetryAfter:
    """The Retry-After fix: derived from queue depth and drain rate
    instead of the old hardcoded ``1``."""

    def test_estimates_drain_time(self):
        from repro.serving.policies import retry_after_s

        # 40 queued, draining 10/s -> 4 seconds.
        assert retry_after_s(40, 10.0) == 4

    def test_rounds_up(self):
        from repro.serving.policies import retry_after_s

        assert retry_after_s(25, 10.0) == 3

    def test_clamped_to_bounds(self):
        from repro.serving.policies import retry_after_s

        assert retry_after_s(1, 1000.0) == 1       # floor
        assert retry_after_s(10_000, 0.5) == 30     # ceiling

    def test_no_drain_observed(self):
        from repro.serving.policies import retry_after_s

        # Backlog but nothing completing: worst case, not best case.
        assert retry_after_s(10, 0.0) == 30
        # Nothing queued either (cold start): optimistic floor.
        assert retry_after_s(0, 0.0) == 1


class TestDrainTracker:
    def test_rate_over_window(self):
        from repro.serving.metrics import DrainTracker

        clock = FakeClock()
        tracker = DrainTracker(window_s=10.0, clock=clock)
        for _ in range(20):
            clock.advance(0.5)
            tracker.mark()
        assert tracker.rate() == pytest.approx(20 / 9.5, rel=0.01)

    def test_stale_marks_age_out(self):
        from repro.serving.metrics import DrainTracker

        clock = FakeClock()
        tracker = DrainTracker(window_s=10.0, clock=clock)
        tracker.mark()
        clock.advance(60.0)
        assert tracker.rate() == 0.0

    def test_empty_tracker(self):
        from repro.serving.metrics import DrainTracker

        assert DrainTracker().rate() == 0.0
