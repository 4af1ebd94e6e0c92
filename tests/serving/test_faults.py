"""Fault injector: deterministic schedules, parsing, artifact corruption."""

import pytest

from repro.runtime import ArtifactError, Session
from repro.serving.errors import InjectedFaultError
from repro.serving.faults import FAULT_KINDS, FaultInjector, FaultSpec, corrupt_artifact


class TestSchedules:
    def test_every_n_fires_on_exact_counts(self):
        inj = FaultInjector([FaultSpec("kernel", every=3)])
        fired = [inj.fire("kernel") is not None for _ in range(9)]
        assert fired == [False, False, True] * 3

    def test_offset_shifts_the_phase(self):
        inj = FaultInjector([FaultSpec("kernel", every=3, offset=1)])
        fired = [inj.fire("kernel") is not None for _ in range(6)]
        assert fired == [True, False, False, True, False, False]

    def test_limit_caps_total_fires(self):
        inj = FaultInjector([FaultSpec("kernel", every=1, limit=2)])
        fired = [inj.fire("kernel") is not None for _ in range(5)]
        assert fired == [True, True, False, False, False]

    def test_rate_is_seed_deterministic(self):
        a = FaultInjector([FaultSpec("slow", rate=0.5)], seed=7)
        b = FaultInjector([FaultSpec("slow", rate=0.5)], seed=7)
        seq_a = [a.fire("slow") is not None for _ in range(50)]
        seq_b = [b.fire("slow") is not None for _ in range(50)]
        assert seq_a == seq_b and any(seq_a) and not all(seq_a)

    def test_unconfigured_kind_never_fires(self):
        inj = FaultInjector([FaultSpec("kernel", every=1)])
        assert inj.fire("slow") is None
        assert not FaultInjector()

    def test_duplicate_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultInjector([FaultSpec("kernel", every=1),
                           FaultSpec("kernel", every=2)])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec("gremlins", every=1)


class TestApplyBatchFaults:
    def test_kernel_fault_raises_injected_error(self):
        inj = FaultInjector([FaultSpec("kernel", every=1)])
        with pytest.raises(InjectedFaultError):
            inj.apply_batch_faults()

    def test_slow_fault_sleeps_the_configured_delay(self):
        inj = FaultInjector([FaultSpec("slow", every=1, delay=0.25)])
        slept = []
        inj.apply_batch_faults(sleep=slept.append)
        assert slept == [0.25]

    def test_every_batch_fault_is_drawn_before_any_sleep(self):
        """A hung batch draws its kernel fault with its hang, not when it
        wakes, so a late wake cannot shift the kernel schedule."""
        inj = FaultInjector.parse("hang:every=1,delay=5;kernel:every=2")
        seen = []
        inj.apply_batch_faults(sleep=lambda _: seen.append(dict(inj.events)))
        assert seen == [{"hang": 1, "kernel": 1}]

    def test_summary_reports_events_and_fires(self):
        inj = FaultInjector([FaultSpec("kernel", every=2)])
        inj.fire("kernel")
        inj.fire("kernel")
        assert inj.summary() == {"kernel": {"events": 2, "fires": 1}}


class TestParse:
    def test_parse_round_trip(self):
        inj = FaultInjector.parse(
            "kernel:every=7;slow:every=5,delay=0.05;queue-overflow:rate=0.1,limit=3"
        )
        assert inj.specs["kernel"] == FaultSpec("kernel", every=7)
        assert inj.specs["slow"] == FaultSpec("slow", every=5, delay=0.05)
        assert inj.specs["queue-overflow"] == FaultSpec("queue-overflow", rate=0.1, limit=3)

    @pytest.mark.parametrize("text", [
        "gremlins:every=1",       # unknown kind
        "kernel:whatever=1",      # unknown argument
        "kernel:every",           # not key=value
        "kernel:rate=2.0",        # out of range
    ])
    def test_parse_rejects_bad_specs(self, text):
        with pytest.raises(ValueError):
            FaultInjector.parse(text)

    def test_malformed_is_not_a_fault_kind(self):
        """Nothing fired a ``malformed`` fault, so it is refused like any
        unknown kind, with the valid kinds listed."""
        with pytest.raises(ValueError, match="unknown fault kind 'malformed'") as err:
            FaultInjector.parse("malformed:every=1")
        assert all(kind in str(err.value) for kind in FAULT_KINDS)
        assert "malformed" not in FAULT_KINDS


class TestCorruptArtifact:
    def test_corrupt_copy_fails_the_crc_pass(self, tmp_path, tiny_session):
        src = tiny_session.save(tmp_path / "good.artifact")
        bad = corrupt_artifact(src, tmp_path / "bad.artifact")
        with pytest.raises(ArtifactError, match="CRC32"):
            Session.load(bad)
        # The original is untouched and still loads.
        Session.load(src)
