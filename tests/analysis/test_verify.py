"""Static plan verifier: acceptance over the zoo, rejection of corruption."""

import numpy as np
import pytest

from repro.analysis import PlanVerificationError, verify_artifact, verify_plan
from repro.core.mixed_precision import search_mixed_precision
from repro.inference.plan import ExecutionPlan
from repro.inference.testing import integer_network_from_spec, random_network
from repro.models.model_zoo import all_mobilenet_configs
from repro.runtime import Session
from repro.mcu.device import STM32H7, STM32L4

HW = (32, 32)
CONFIGS = all_mobilenet_configs(num_classes=5)


def _network(spec, act_bits=8, w_bits=8, seed=0):
    return integer_network_from_spec(
        spec, rng=np.random.default_rng(seed), act_bits=act_bits, w_bits=w_bits
    )


class TestZooAcceptance:
    @pytest.mark.parametrize("spec", CONFIGS, ids=[s.name for s in CONFIGS])
    def test_all_zoo_configs_verify(self, spec):
        plan = ExecutionPlan(_network(spec))
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
        report = verify_plan(ExecutionPlan(net), HW)
        assert report.ok

    def test_threshold_strategy_verifies(self):
        net = integer_network_from_spec(
            CONFIGS[0], rng=np.random.default_rng(3), strategy="thresholds"
        )
        report = verify_plan(ExecutionPlan(net), HW)
        assert report.ok

    def test_split_k_layer_verifies(self):
        # The widest config's last pointwise layer exceeds the float32
        # bound and compiles to split-K sgemm; the verifier re-proves the
        # per-chunk bounds.
        net = _network(CONFIGS[-1])
        plan = ExecutionPlan(net)
        assert any(l.split_k is not None for l in plan.layers)
        assert verify_plan(plan, HW).ok

    def test_shape_polymorphic_plan_verifies(self):
        net = _network(CONFIGS[0])
        plan = ExecutionPlan(net)
        rng = np.random.default_rng(4)
        for hw in (HW, (24, 24)):
            x = rng.uniform(0, 1, size=(2, 3, *hw))
            assert np.array_equal(plan.run(x), net.forward(x))
        report = verify_plan(plan)
        assert report.ok
        # Both geometries the plan has run were walked, each against its
        # own sizing, although they share one slab set.
        assert report.count("slab-aliasing") >= 2 * len(plan.layers)


class TestPaperDeployments:
    """The paper's deployments: every zoo config (1000 classes) with the
    per-layer bits the memory-driven search picks under a device's flash
    and RAM budgets, best effort where the budgets cannot be met."""

    @pytest.mark.parametrize("device", [STM32H7, STM32L4], ids=["STM32H7", "STM32L4"])
    @pytest.mark.parametrize("spec", all_mobilenet_configs(),
                             ids=[s.name for s in all_mobilenet_configs()])
    def test_searched_policy_verifies(self, spec, device):
        policy = search_mixed_precision(spec, device.flash_bytes, device.ram_bytes,
                                        strict=False)
        net = integer_network_from_spec(spec, rng=np.random.default_rng(0), policy=policy)
        plan = ExecutionPlan(net)
        native = (spec.resolution, spec.resolution)
        report = verify_plan(plan, native)
        assert report.ok
        assert report.tiers == {l.name: l.epilogue for l in plan.layers}
        low = [l.name for l in plan.layers if min(l.in_bits, l.w_bits, l.out_bits) < 8]
        if spec.name.endswith("224_1.0"):
            assert low, "the search left the largest config all 8-bit"
        if spec.resolution == 128:
            x = np.random.default_rng(1).uniform(0, 1, size=(2, 3, *native))
            assert np.array_equal(plan.run(x), net.forward(x))


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
        plan = ExecutionPlan(net)
        report = verify_plan(plan, (11, 11), raise_on_violation=False)
        assert report.ok, [str(v) for v in report.violations]
        x = np.random.default_rng(seed + 1).uniform(0, 1, size=(2, 3, 11, 11))
        assert np.array_equal(net.forward(x), plan.run(x))


def _fresh_plan(seed=0):
    net = _network(CONFIGS[0], seed=seed)
    return ExecutionPlan(net)


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
        plan = ExecutionPlan(net)
        victim = next(l for l in plan.layers if l.acc_bound >= (1 << 24))
        victim.gemm_dtype = np.dtype(np.float32)
        victim.acc_dtype = np.dtype(np.float32)
        victim.split_k = None
        victim.w2_chunks = None
        with pytest.raises(PlanVerificationError) as exc_info:
            verify_plan(plan, HW)
        err = exc_info.value
        assert "acc-bound" in err.rules
        assert victim.name in err.layers

    def test_forged_int32_accumulator_rejected(self):
        """An integer GEMM runs only on int64; an int32 accumulator is
        rejected even where its bound would fit 2^31."""
        plan = _fresh_plan()
        victim = plan.layers[1]
        assert victim.acc_bound < (1 << 31)
        victim.backend = "int32"
        victim.gemm_dtype = victim.acc_dtype = np.dtype(np.int32)
        with pytest.raises(PlanVerificationError, match="unknown backend") as exc_info:
            verify_plan(plan, HW)
        assert set(exc_info.value.rules) == {"acc-bound"}
        assert set(exc_info.value.layers) == {victim.name}

    @pytest.mark.parametrize("backend,dtype", [
        ("blas", np.float16), ("blas", np.int64), ("int64", np.float64),
    ])
    def test_forged_gemm_dtype_rejected(self, backend, dtype):
        """BLAS runs only float32 or float64 and the integer fallback only
        int64: any other pairing is rejected, whatever the bound."""
        plan = _fresh_plan()
        victim = plan.layers[1]
        victim.backend = backend
        victim.gemm_dtype = victim.acc_dtype = np.dtype(dtype)
        with pytest.raises(PlanVerificationError,
                           match="unknown backend/dtype combination") as exc_info:
            verify_plan(plan, HW)
        assert "acc-bound" in exc_info.value.rules
        assert victim.name in exc_info.value.layers

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

    def test_int64_tier_past_2_63_rejected(self):
        """The compiler refuses such a layer, so only a tampered bound
        reaches the verifier's int64 rule."""
        plan = _fresh_plan()
        victim = next(l for l in plan.layers if l.epilogue == "i64")
        m_max = int(np.abs(np.asarray(victim.requant.m_int)).max())
        victim.acc_bound = (1 << 63) // m_max + 1
        with pytest.raises(PlanVerificationError) as exc_info:
            verify_plan(plan, HW)
        err = exc_info.value
        assert "requant-shift" in err.rules
        assert victim.name in err.layers
        assert "the int64 epilogue overflows" in str(err)

    def test_tile_region_smaller_than_a_tile_rejected(self, monkeypatch):
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
        monkeypatch.setattr(plan, "arena_for", lambda hw: arena)
        with pytest.raises(PlanVerificationError) as exc_info:
            verify_plan(plan, HW)
        err = exc_info.value
        assert set(err.rules) == {"dw-tiles"}
        assert victim in err.layers
        assert "tile region holds" in str(err)

    @pytest.mark.parametrize("tamper,why", [
        (lambda pitch, columns: (pitch + 1, columns), "not the padded width"),
        (lambda pitch, columns: (pitch, columns + 1), "past the padded plane"),
        (lambda pitch, columns: (pitch, columns - 1), "short of output"),
    ], ids=["pitch+1", "columns+1", "columns-1"])
    def test_wide_row_view_must_stay_in_its_plane(self, tamper, why):
        plan = _fresh_plan()
        victim = next(l for l in plan.layers if l.unfold == "rows")
        grid = victim.row_grid
        victim.row_grid = lambda h, w: tamper(*grid(h, w))
        with pytest.raises(PlanVerificationError) as exc_info:
            verify_plan(plan, HW)
        err = exc_info.value
        assert err.rules == ["dw-tiles"]
        assert err.layers == [victim.name]
        assert "wide row view" in str(err) and why in str(err)

    def test_wide_row_grid_needs_stride_one(self):
        plan = _fresh_plan()
        victim = next(l for l in plan.layers if l.unfold == "tiles" and l.kh > 1)
        victim.row_grid = lambda h, w: (w + 2 * victim.padding, 1)
        with pytest.raises(PlanVerificationError) as exc_info:
            verify_plan(plan, HW)
        assert exc_info.value.rules == ["dw-tiles"]
        assert "stride 2" in str(exc_info.value)

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


@pytest.fixture(scope="module")
def widest_artifact(tmp_path_factory):
    """The widest config, saved: its split-K layer is checked on a
    loaded plan."""
    return Session(_network(CONFIGS[-1])).save(
        tmp_path_factory.mktemp("widest") / "model.artifact")


class TestSplitKOperand:
    """A split-K layer runs column blocks of ``w2``, and the verifier
    proves its bounds on ``w2``; so a chunk that is not the very block
    ``w2[:, k0:k1]`` is refused, whatever its values."""

    @staticmethod
    def _split_k_layer(path):
        plan = Session.load(path).plan
        return plan, next(l for l in plan.layers if l.split_k is not None)

    def test_chunks_are_column_views_of_w2(self, widest_artifact):
        _, layer = self._split_k_layer(widest_artifact)
        for chunk, (k0, k1) in zip(layer.w2_chunks, layer.split_k):
            assert chunk.base is layer.w2
            assert np.array_equal(chunk, layer.w2[:, k0:k1])

    @pytest.mark.parametrize("forge,rule", [
        ("in-place", "acc-bound"),    # the edit lands in w2, out of range
        ("edited-copy", "structure"),
        ("equal-copy", "structure"),  # right values, not the proved bytes
    ])
    def test_a_forged_chunk_is_rejected(self, widest_artifact, forge, rule):
        plan, victim = self._split_k_layer(widest_artifact)
        chunks = list(victim.w2_chunks)
        if forge != "in-place":
            chunks[0] = chunks[0].copy()
        if forge != "equal-copy":
            chunks[0][:, 0] += 1000
        victim.w2_chunks = tuple(chunks)
        with pytest.raises(PlanVerificationError) as exc_info:
            verify_plan(plan, HW)
        assert exc_info.value.rules == [rule]
        assert exc_info.value.layers == [victim.name]


class TestArtifactAndSession:
    def test_saved_artifact_verifies(self, tmp_path):
        net = _network(CONFIGS[0])
        session = Session(net, input_hw=HW)
        path = session.save(tmp_path / "model.artifact")
        session.close()
        report = verify_artifact(path)
        assert report.ok
        # The manifest cross-checks ran on top of the plan rules: one
        # container-dtype check per conv layer more than the plan's.
        plan_report = verify_plan(ExecutionPlan(net), HW)
        assert (report.count("container-dtype")
                == plan_report.count("container-dtype") + len(CONFIGS[0].layers) - 1)

    def test_corrupt_arena_peak_rejected(self, tmp_path):
        import json

        net = _network(CONFIGS[0])
        session = Session(net, input_hw=HW)
        path = session.save(tmp_path / "model.artifact")
        session.close()
        manifest_path = path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["network"]["arena"]["rw_peak_bytes"] //= 2
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(PlanVerificationError) as exc_info:
            verify_artifact(path)
        assert "slab-aliasing" in exc_info.value.rules

    @staticmethod
    def _native_128_artifact(tmp_path):
        net = _network(CONFIGS[0])
        native = (128, 128)
        session = Session(net, input_hw=native)
        path = session.save(tmp_path / "model.artifact")
        session.close()
        return path

    def test_artifact_verifies_at_another_geometry(self, tmp_path):
        """The manifest's Eq. 7 peak is compared at the geometry it was
        recorded for; the requested geometry is walked."""
        path = self._native_128_artifact(tmp_path)
        report = verify_artifact(path, (96, 96))
        assert report.ok, [str(v) for v in report.violations]
        assert report.count("slab-aliasing") > len(CONFIGS[0].layers)

    def test_corrupt_arena_peak_rejected_at_another_geometry(self, tmp_path):
        import json

        path = self._native_128_artifact(tmp_path)
        manifest_path = path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["network"]["arena"]["rw_peak_bytes"] //= 2
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(PlanVerificationError) as exc_info:
            verify_artifact(path, (96, 96))
        assert exc_info.value.rules == ["slab-aliasing"]
        assert "arena 128x128" in str(exc_info.value)

    def test_session_verify(self):
        net = _network(CONFIGS[0])
        session = Session(net, input_hw=HW)
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
