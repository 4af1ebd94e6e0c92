"""Session front door: serving delegation, profiling, and pipeline()."""

import threading

import numpy as np
import pytest

import repro
from repro.core.policy import QuantMethod, QuantPolicy
from repro.inference.engine import IntegerNetwork
from repro.inference.testing import integer_network_from_spec, random_conv_layer
from repro.mcu.deploy import assert_arena_fits
from repro.models.model_zoo import mobilenet_v1_spec
from repro.runtime import Session, pipeline
from repro.runtime.errors import InvalidInputError

SPEC = mobilenet_v1_spec(32, 0.25, num_classes=5)


@pytest.fixture(scope="module")
def net():
    return integer_network_from_spec(SPEC, np.random.default_rng(3))


@pytest.fixture(scope="module")
def x():
    return np.random.default_rng(4).uniform(0, 1, size=(5, 3, 32, 32))


class TestSession:
    def test_run_matches_plan_and_reference(self, net, x):
        session = Session(net)
        assert np.array_equal(session.run(x), net.forward(x))

    def test_run_batched_tiles_per_call(self, net, x):
        session = Session(net)
        assert np.array_equal(session.run_batched(x, batch_size=2), session.run(x))
        assert np.array_equal(session.predict(x, batch_size=2), net.predict(x))
        assert np.array_equal(session.predict(x), net.predict(x))

    def test_input_hw_sizes_describe_and_construction_binds_nothing(self, net):
        session = Session(net, input_hw=(32, 32))
        assert not session.plan._bound
        assert session.plan._slabs.allocated_bytes == 0
        described = session.describe()
        assert "activation arena (input 32x32)" in described
        # One image by default, as ExecutionPlan.describe.
        arena = session.plan.arena_for((32, 32))
        assert f"planned host peak  : {arena.planned_bytes(1)} bytes (batch 1," in described
        session.run(np.zeros((2, 3, 32, 32)))
        assert list(session.plan._bound) == [(2, 3, 32, 32)]

    def test_input_hw_normalised_to_int_tuple(self, net):
        session = Session(net, input_hw=[64.0, 32])
        assert session.input_hw == (64, 32)
        assert all(isinstance(d, int) for d in session.input_hw)
        assert Session(net).input_hw is None

    @pytest.mark.parametrize("bad", [(0, 4), (4, -1), 32, (1, 2, 3), "abc"],
                             ids=["zero", "negative", "scalar", "triple", "string"])
    def test_invalid_input_hw_rejected(self, net, bad):
        with pytest.raises(ValueError, match="input_hw"):
            Session(net, input_hw=bad)

    def test_input_hw_is_keyword_only(self, net):
        with pytest.raises(TypeError):
            Session(net, (32, 32))

    def test_run_codes_always_range_checks(self, net):
        bad = np.full((1, 3, 8, 8), 300, dtype=np.int64)  # out of 8-bit range
        with pytest.raises(ValueError, match="out of UINT8 range"):
            Session(net).run_codes(bad)

    @pytest.mark.parametrize("shape,dtype,fill", [
        ((1, 4, 32, 32), np.uint8, 7),
        ((1, 2, 32, 32), np.uint8, 7),
        ((1, 1, 32, 32), np.uint8, 7),
        ((3, 32, 32), np.uint8, 7),
        ((1, 3, 32, 32), np.float32, 3.7),
        ((1, 3, 32, 32), np.float64, 3.0),
    ], ids=["4-channels", "2-channels", "1-channel", "rank-3", "float32",
            "float64-integral"])
    def test_run_codes_refuses_malformed_codes(self, net, shape, dtype, fill):
        """Malformed codes get the typed error :meth:`Session.validate_input`
        gives real input, not a numpy error from inside a kernel (or, for
        float codes, an answer the int64 reference refuses to give)."""
        with pytest.raises(InvalidInputError):
            Session(net).run_codes(np.full(shape, fill, dtype=dtype))

    def test_run_codes_refuses_a_geometry_that_collapses(self):
        layer = random_conv_layer(np.random.default_rng(0), "conv", 3, 4,
                                  kernel=3, padding=0)
        session = Session(IntegerNetwork(conv_layers=[layer]))
        with pytest.raises(InvalidInputError, match="collapses below 1x1"):
            session.run_codes(np.zeros((1, 3, 2, 2), dtype=np.uint8))
        codes = np.random.default_rng(1).integers(0, 256, (2, 3, 3, 3), dtype=np.uint8)
        assert np.array_equal(session.run_codes(codes),
                              session.network.forward_codes(codes))

    def test_run_codes_takes_integer_and_bool_codes(self, net):
        rng = np.random.default_rng(2)
        session = Session(net)
        for codes in (rng.integers(0, 256, (2, 3, 32, 32), dtype=np.uint8),
                      rng.integers(0, 256, (2, 3, 32, 32)),
                      rng.integers(0, 2, (2, 3, 32, 32)).astype(bool)):
            assert np.array_equal(session.run_codes(codes), net.forward_codes(codes))

    @pytest.mark.parametrize("entry", ["run", "run_codes"])
    def test_concurrent_calls_on_one_session_are_exact(self, net, entry):
        """Two threads call one session, so one plan and one slab set,
        200 times each on different images: the plan runs one call at a
        time, and every answer equals the single-threaded one."""
        session = Session(net)
        rng = np.random.default_rng(9)
        images = [rng.uniform(0, 1, size=(1, 3, 32, 32)) for _ in range(2)]
        if entry == "run_codes":
            images = [session.plan.quantize_input(im) for im in images]
        call = getattr(session, entry)
        expected = [call(im) for im in images]
        start = threading.Barrier(2)
        calls, wrong = [0, 0], [0, 0]

        def worker(i):
            start.wait()
            for _ in range(200):
                wrong[i] += not np.array_equal(call(images[i]), expected[i])
                calls[i] += 1

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert calls == [200, 200] and wrong == [0, 0]

    def test_profile_covers_every_layer(self, net, x):
        session = Session(net)
        prof = session.profile(x[:2], repeats=1)
        names = [t.name for t in prof.layers]
        assert names[-1] == "classifier" and "global_avg_pool" in names
        assert len(names) == len(net.conv_layers) + 2
        assert prof.total_seconds > 0
        assert "session profile" in prof.table()

    def test_profile_synthetic_batch_needs_geometry(self, net):
        with pytest.raises(ValueError, match="input_hw"):
            Session(net).profile()
        session = Session(net, input_hw=(32, 32))
        prof = session.profile(repeats=1)  # one image by default
        assert prof.batch_size == 1 and prof.input_hw == (32, 32)
        assert session.profile(batch_size=2, repeats=1).batch_size == 2

    def test_session_accepted_by_assert_arena_fits(self, net):
        session = Session(net, input_hw=(32, 32))
        peak = assert_arena_fits(session, repro.STM32H7, (32, 32))
        assert peak == session.plan.arena_for((32, 32)).logical_rw_peak_bytes


class TestPipeline:
    def test_device_search_is_wired_in(self):
        session = pipeline(SPEC, device=repro.STM32H7, seed=1)
        assert np.array_equal(
            session.run(np.zeros((1, 3, 32, 32))),
            session.network.forward(np.zeros((1, 3, 32, 32))),
        )
        # the session's geometry is the spec resolution by default, and
        # the run bound that shape
        assert session.input_hw == (32, 32)
        assert (1, 3, 32, 32) in session.plan._bound

    def test_input_hw_overrides_the_spec_resolution(self):
        session = pipeline(SPEC, seed=1, input_hw=[24, 40])
        assert session.input_hw == (24, 40)
        assert "activation arena (input 24x40)" in session.describe()

    def test_policy_bits_are_materialised(self):
        policy = QuantPolicy.uniform(SPEC, method=QuantMethod.PC_ICN, bits=4)
        policy.layers[0].q_in = 8  # network input is fixed at 8 bit
        session = pipeline(SPEC, policy=policy, seed=2)
        assert all(l.params.w_bits == 4 for l in session.network.conv_layers)
        assert all(l.out_bits == 4 for l in session.network.conv_layers[:-1])

    @pytest.mark.parametrize("method,strategy", [
        (QuantMethod.PL_FB, "FoldedBNParams"),
        (QuantMethod.PC_THRESHOLDS, "ThresholdParams"),
        (QuantMethod.PC_ICN, "ICNParams"),
    ])
    def test_method_selects_requant_strategy(self, method, strategy):
        session = pipeline(SPEC, method=method, seed=5)
        assert all(
            type(l.params).__name__ == strategy
            for l in session.network.conv_layers
        )

    def test_prebuilt_network_short_circuits(self, net, x):
        session = pipeline(SPEC, network=net)
        assert session.network is net
        assert np.array_equal(session.run(x), net.forward(x))

    def test_policy_length_mismatch_is_an_error(self):
        other = mobilenet_v1_spec(32, 0.5, num_classes=5)
        policy = QuantPolicy.uniform(other, method=QuantMethod.PC_ICN)
        del policy.layers[-1]
        with pytest.raises(ValueError, match="layers"):
            integer_network_from_spec(SPEC, policy=policy)
