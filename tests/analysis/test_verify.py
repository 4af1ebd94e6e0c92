"""Static plan verifier: acceptance over the zoo, rejection of corruption."""

import numpy as np
import pytest

from repro.analysis import PlanVerificationError, verify_artifact, verify_plan
from repro.inference.plan import ExecutionPlan
from repro.inference.testing import integer_network_from_spec, random_network
from repro.models.model_zoo import all_mobilenet_configs
from repro.runtime import Session
from repro.runtime.options import CompileOptions, SessionOptions

HW = (32, 32)
CONFIGS = all_mobilenet_configs(num_classes=5)

#: Every dispatch-relevant compile option: each backend, and validation
#: off (which voids the refined bound: a-priori dispatch, no split-K).
FLAG_COMBOS = [
    CompileOptions(input_hw=HW),
    CompileOptions(input_hw=HW, backend="int64"),
    CompileOptions(input_hw=HW, validate=False),
    CompileOptions(input_hw=HW, backend="int32"),
]


def _network(spec, act_bits=8, w_bits=8, seed=0):
    return integer_network_from_spec(
        spec, rng=np.random.default_rng(seed), act_bits=act_bits, w_bits=w_bits
    )


class TestZooAcceptance:
    @pytest.mark.parametrize("spec", CONFIGS, ids=[s.name for s in CONFIGS])
    def test_all_zoo_configs_verify_under_every_flag_combo(self, spec):
        net = _network(spec)
        for options in FLAG_COMBOS:
            plan = ExecutionPlan(net, options)
            report = verify_plan(plan, HW)
            assert report.ok
            # Every rule family actually ran.
            for rule in ("acc-bound", "container-dtype", "requant-shift",
                         "slab-aliasing", "structure"):
                assert report.count(rule) > 0, rule
            # Every layer's Eq. 5 epilogue tier was proven.
            assert report.tiers == {l.name: l.epilogue for l in plan.layers}

    @pytest.mark.parametrize("act_bits", [2, 4, 8])
    @pytest.mark.parametrize("w_bits", [2, 4, 8])
    def test_bit_mixes_verify(self, act_bits, w_bits):
        net = _network(CONFIGS[0], act_bits=act_bits, w_bits=w_bits)
        report = verify_plan(ExecutionPlan(net, CompileOptions(input_hw=HW)), HW)
        assert report.ok

    def test_threshold_strategy_verifies(self):
        net = integer_network_from_spec(
            CONFIGS[0], rng=np.random.default_rng(3), strategy="thresholds"
        )
        report = verify_plan(ExecutionPlan(net, CompileOptions(input_hw=HW)), HW)
        assert report.ok

    def test_split_k_layer_verifies(self):
        # The widest config's last pointwise layer exceeds the float32
        # bound and compiles to split-K sgemm; the verifier re-proves the
        # per-chunk bounds.
        net = _network(CONFIGS[-1])
        plan = ExecutionPlan(net, CompileOptions(input_hw=HW))
        assert any(l.split_k is not None for l in plan.layers)
        assert verify_plan(plan, HW).ok

    def test_shape_polymorphic_plan_verifies(self):
        net = _network(CONFIGS[0])
        plan = ExecutionPlan(
            net, CompileOptions(input_hw=(24, 24), max_input_hw=HW)
        )
        report = verify_plan(plan)
        assert report.ok
        # Both the max arena and the adopted smaller geometry were walked.
        assert report.count("slab-aliasing") >= 2 * len(plan.layers)


class TestViewUnfoldDepthwise:
    @pytest.mark.parametrize("seed", [38, 78])
    def test_1x1_stride1_depthwise_verifies(self, seed):
        """A 1x1 stride-1 depthwise layer unfolds as a pure view, so the
        planner gives it no cols slab or tile; the verifier must not
        charge it one."""
        net = random_network(np.random.default_rng(seed), resolution=11)
        assert any(
            l.kind == "dw" and l.stride == 1
            and l.params.weights_q.shape[2:] == (1, 1)
            for l in net.conv_layers
        )
        plan = ExecutionPlan(net, CompileOptions(input_hw=(11, 11)))
        report = verify_plan(plan, raise_on_violation=False)
        assert report.ok, [str(v) for v in report.violations]
        x = np.random.default_rng(seed + 1).uniform(0, 1, size=(2, 3, 11, 11))
        assert np.array_equal(net.forward(x), plan.run(x))


def _fresh_plan(seed=0):
    net = _network(CONFIGS[0], seed=seed)
    return ExecutionPlan(net, CompileOptions(input_hw=HW))


class TestCorruptionRejection:
    def test_shift_out_of_range_names_the_layer(self):
        plan = _fresh_plan()
        victim = plan.layers[3]
        victim.requant.rshift = np.full_like(
            np.asarray(victim.requant.rshift), 70
        )
        with pytest.raises(PlanVerificationError) as exc_info:
            verify_plan(plan, HW)
        err = exc_info.value
        assert "requant-shift" in err.rules
        assert victim.name in err.layers
        assert victim.name in str(err)

    def test_forged_container_dtype_names_the_layer(self):
        plan = _fresh_plan()
        victim = plan.layers[2]
        victim.out_dtype = np.dtype(np.uint16)  # wider than container_dtype(8)
        with pytest.raises(PlanVerificationError) as exc_info:
            verify_plan(plan, HW)
        err = exc_info.value
        assert "container-dtype" in err.rules
        assert victim.name in err.layers

    def test_forged_backend_overflows_accumulator(self):
        # The widest config has a layer whose refined bound exceeds 2^24;
        # forging it onto the float32 tier must fail acc-bound.
        net = _network(CONFIGS[-1])
        plan = ExecutionPlan(net, CompileOptions(input_hw=HW))
        victim = next(l for l in plan.layers if l.acc_bound >= (1 << 24))
        victim.backend = "blas"
        victim.gemm_dtype = np.dtype(np.float32)
        victim.acc_dtype = np.dtype(np.float32)
        victim.split_k = None
        victim.w2_chunks = None
        with pytest.raises(PlanVerificationError) as exc_info:
            verify_plan(plan, HW)
        err = exc_info.value
        assert "acc-bound" in err.rules
        assert victim.name in err.layers

    def test_understated_acc_bound_rejected(self):
        plan = _fresh_plan()
        victim = plan.layers[5]
        victim.acc_bound = 1  # claims a bound far below the true one
        with pytest.raises(PlanVerificationError) as exc_info:
            verify_plan(plan, HW)
        assert "acc-bound" in exc_info.value.rules
        assert victim.name in exc_info.value.layers

    def test_overlapping_slab_schedule_rejected(self):
        plan = _fresh_plan()
        n = len(plan.layers)
        schedule = [((i - 1) % 2, i % 2) for i in range(n)]
        in_slot, _ = schedule[4]
        schedule[4] = (in_slot, in_slot)  # output aliases the live input
        with pytest.raises(PlanVerificationError) as exc_info:
            verify_plan(plan, HW, schedule=schedule)
        err = exc_info.value
        assert "slab-aliasing" in err.rules
        assert plan.layers[4].name in err.layers

    def test_stale_read_schedule_rejected(self):
        plan = _fresh_plan()
        n = len(plan.layers)
        assert n >= 6
        schedule = [((i - 1) % 2, i % 2) for i in range(n)]
        # Layer 5 reads the slot its predecessor did NOT write: the value
        # it consumes died two layers ago.
        schedule[5] = (schedule[5][1], schedule[5][0])
        with pytest.raises(PlanVerificationError) as exc_info:
            verify_plan(plan, HW, schedule=schedule)
        err = exc_info.value
        assert "slab-aliasing" in err.rules

    def test_forged_multiplier_rejected(self):
        plan = _fresh_plan()
        victim = plan.layers[1]
        victim.requant.m0 = np.asarray(victim.requant.m0, dtype=np.int64) * 0 + (1 << 31)
        with pytest.raises(PlanVerificationError) as exc_info:
            verify_plan(plan, HW)
        assert "requant-shift" in exc_info.value.rules
        assert victim.name in exc_info.value.layers

    @pytest.mark.parametrize("constant", ["m_f64", "c_f64", "b_int"])
    def test_tampered_folded_constant_rejected(self, constant):
        plan = _fresh_plan()
        victim = next(l for l in plan.layers if l.epilogue == "f64")
        requant = victim.requant
        forged = np.array(getattr(requant, constant), copy=True)
        rng = np.random.default_rng(7)
        channel = int(rng.integers(forged.size))
        # One channel off by one unit (one ulp of the scaled float64
        # constants): the epilogue would still run, a code would be wrong.
        if forged.dtype.kind == "f":
            forged.flat[channel] = np.nextafter(forged.flat[channel], np.inf)
        else:
            forged.flat[channel] += 1
        setattr(requant, constant, forged)
        with pytest.raises(PlanVerificationError) as exc_info:
            verify_plan(plan, HW)
        err = exc_info.value
        assert err.rules == ["requant-shift"]
        assert err.layers == [victim.name]
        assert f"channel {channel}" in str(err)

    def test_in_range_multiplier_tamper_breaks_the_fold(self):
        plan = _fresh_plan()
        victim = plan.layers[4]
        victim.requant.m0 = np.asarray(victim.requant.m0) - 1  # still Q31
        with pytest.raises(PlanVerificationError) as exc_info:
            verify_plan(plan, HW)
        assert exc_info.value.rules == ["requant-shift"]
        assert "folded M=" in str(exc_info.value)

    def test_forged_float64_tier_past_the_edge_rejected(self):
        plan = _fresh_plan()
        victim = next(l for l in plan.layers if l.epilogue == "i64")
        requant = victim.requant
        # Forge the tier with correctly folded float64 constants: only the
        # 2^53 bound can catch it.
        c_int = requant.b_int + np.left_shift(np.int64(requant.z_y), requant.rshift)
        requant.m_f64 = np.ldexp(np.asarray(requant.m_int, dtype=np.float64), -requant.rshift)
        requant.c_f64 = np.ldexp(c_int.astype(np.float64), -requant.rshift)
        requant.tier = "f64"
        with pytest.raises(PlanVerificationError) as exc_info:
            verify_plan(plan, HW)
        err = exc_info.value
        assert err.rules == ["requant-shift"]
        assert err.layers == [victim.name]
        assert ">= 2^53" in str(err)

    def test_tile_region_smaller_than_a_tile_rejected(self):
        plan = _fresh_plan()
        arena = plan.arena_for(HW)
        h = w = HW[0]
        largest = {}
        for layer in plan.layers:
            if layer.kind == "dw":
                images, blocks = layer.tile_blocking(h, w, arena.dw_tile_bytes)
                widest = max(c1 - c0 for c0, c1 in blocks)
                oh = (h + 2 * layer.padding - layer.kh) // layer.stride + 1
                largest[layer.name] = (images * widest * layer.kh * layer.kw
                                       * oh * oh * layer.gemm_itemsize)
            h = w = (h + 2 * layer.padding - layer.kh) // layer.stride + 1
        victim = max(largest, key=largest.get)
        arena.scratch_bytes = largest[victim] - 1
        with pytest.raises(PlanVerificationError) as exc_info:
            verify_plan(plan, HW)
        err = exc_info.value
        assert set(err.rules) == {"dw-tiles"}
        assert victim in err.layers
        assert "tile region holds" in str(err)

    @pytest.mark.parametrize("blocks,why", [
        (((0, 3), (4, 8)), "skips channels [3, 4)"),
        (((0, 4), (3, 8)), "overlaps"),
        (((0, 4),), "cover [0, 4) of 8"),
    ])
    def test_channel_blocks_must_partition(self, blocks, why):
        plan = _fresh_plan()
        victim = next(l for l in plan.layers if l.kind == "dw" and l.in_channels == 8)
        victim.tile_blocking = lambda h, w, region: (1, blocks)
        with pytest.raises(PlanVerificationError) as exc_info:
            verify_plan(plan, HW)
        err = exc_info.value
        assert err.rules == ["dw-tiles"]
        assert err.layers == [victim.name]
        assert why in str(err)

    def test_report_collects_every_violation(self):
        plan = _fresh_plan()
        plan.layers[1].out_dtype = np.dtype(np.uint16)
        plan.layers[3].requant.rshift = np.full_like(
            np.asarray(plan.layers[3].requant.rshift), -1
        )
        report = verify_plan(plan, HW, raise_on_violation=False)
        assert not report.ok
        rules = {v.rule for v in report.violations}
        assert "container-dtype" in rules
        assert "requant-shift" in rules


class TestArtifactAndSession:
    def test_saved_artifact_verifies(self, tmp_path):
        net = _network(CONFIGS[0])
        session = Session(
            net, compile_options=CompileOptions(input_hw=HW),
            options=SessionOptions(input_hw=HW),
        )
        path = session.save(tmp_path / "model.artifact")
        session.close()
        report = verify_artifact(path)
        assert report.ok
        # The manifest cross-checks ran on top of the plan rules.
        assert report.count("acc-bound") > len(CONFIGS[0].layers) - 1

    def test_corrupt_manifest_backend_rejected(self, tmp_path):
        import json

        net = _network(CONFIGS[0])
        session = Session(
            net, compile_options=CompileOptions(input_hw=HW),
            options=SessionOptions(input_hw=HW),
        )
        path = session.save(tmp_path / "model.artifact")
        session.close()
        manifest_path = path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        victim = manifest["network"]["conv_layers"][2]
        victim["gemm_backend"] = "int64" if victim["gemm_backend"] != "int64" else "blas"
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(PlanVerificationError) as exc_info:
            verify_artifact(path)
        err = exc_info.value
        assert "acc-bound" in err.rules
        assert victim["name"] in err.layers

    def test_corrupt_arena_peak_rejected(self, tmp_path):
        import json

        net = _network(CONFIGS[0])
        session = Session(
            net, compile_options=CompileOptions(input_hw=HW),
            options=SessionOptions(input_hw=HW),
        )
        path = session.save(tmp_path / "model.artifact")
        session.close()
        manifest_path = path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["network"]["arena"]["rw_peak_bytes"] //= 2
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(PlanVerificationError) as exc_info:
            verify_artifact(path)
        assert "slab-aliasing" in exc_info.value.rules

    def test_session_verify(self):
        net = _network(CONFIGS[0])
        session = Session(
            net, compile_options=CompileOptions(input_hw=HW),
            options=SessionOptions(input_hw=HW),
        )
        report = session.verify()
        assert report.ok
        session.close()
        with pytest.raises(RuntimeError):
            session.verify()

    def test_verification_is_static(self):
        """verify_plan must never execute the network's kernels."""
        plan = _fresh_plan()

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("verification executed a layer")

        for layer in plan.layers:
            layer.__class__.__call__ = layer.__class__.__call__  # sanity
            layer._accumulate_int = boom
        old_run = ExecutionPlan.run
        ExecutionPlan.run = boom
        try:
            assert verify_plan(plan, HW).ok
        finally:
            ExecutionPlan.run = old_run
