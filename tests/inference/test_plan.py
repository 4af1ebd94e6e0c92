"""Compiled ExecutionPlan: bit-exactness against the interpreted engine,
boundary validation semantics, and the tiled batched runner."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.inference.arena as arena_mod
from repro.analysis import verify_plan
from repro.core.policy import QuantMethod
from repro.core.graph_convert import convert_to_integer_network
from repro.evaluation.experiments import evaluate_integer_network
from repro.inference.arena import balanced_blocks, depthwise_channel_bytes
from repro.inference.engine import IntegerNetwork
from repro.inference.kernels import int_conv2d, int_depthwise_conv2d
from repro.inference.plan import ExecutionPlan
from repro.inference.testing import integer_network_from_spec, random_conv_layer
from repro.runtime import Session
from repro.models.model_zoo import mobilenet_v1_spec
from repro.nn.functional import conv_output_size


@pytest.fixture(scope="module")
def integer_net(qat_pc_icn_model):
    return convert_to_integer_network(
        qat_pc_icn_model, method=QuantMethod.PC_ICN, input_scale=1.0 / 255.0
    )


class TestPlanBitExactness:
    def test_qat_network_logits_identical(self, integer_net, small_dataset):
        x = small_dataset.x_test[:8]
        ref = integer_net.forward(x)
        plan = integer_net.compile()
        assert np.array_equal(ref, plan.run(x))

    def test_qat_4bit_network_logits_identical(self, qat_pc_icn_4bit_model, small_dataset):
        net = convert_to_integer_network(qat_pc_icn_4bit_model, method=QuantMethod.PC_ICN)
        x = small_dataset.x_test[:8]
        assert np.array_equal(net.forward(x), net.compile().run(x))

    def test_trunk_codes_identical(self, integer_net, small_dataset):
        codes = integer_net.quantize_input(small_dataset.x_test[:4])
        ref = integer_net.forward_codes(codes)
        plan = integer_net.compile()
        assert np.array_equal(ref, plan.run_codes(codes))

    @pytest.mark.parametrize("strategy", ["icn", "folded", "thr"])
    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_synthetic_networks_identical(self, strategy, bits, rng):
        """All three requantization strategies, all bit widths."""
        spec = mobilenet_v1_spec(32, 0.25, num_classes=10)
        net = integer_network_from_spec(
            spec, np.random.default_rng(7), act_bits=bits, w_bits=bits,
            strategy=strategy, per_channel=(strategy != "folded"),
        )
        x = rng.uniform(0, 1, size=(3, 3, 32, 32))
        assert np.array_equal(net.forward(x), net.compile().run(x))

    def test_predictions_identical(self, integer_net, small_dataset):
        x = small_dataset.x_test[:8]
        plan = integer_net.compile()
        assert np.array_equal(integer_net.predict(x), plan.predict(x))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 16), bits=st.sampled_from([2, 4, 8]))
def test_property_plan_matches_interpreter(seed, bits):
    """Random networks + random inputs: compiled == interpreted, bit for bit."""
    spec = mobilenet_v1_spec(32, 0.25, num_classes=5)
    net = integer_network_from_spec(
        spec, np.random.default_rng(seed), act_bits=bits, w_bits=bits
    )
    x = np.random.default_rng(seed + 1).uniform(0, 1, size=(2, 3, 32, 32))
    assert np.array_equal(net.forward(x), net.compile().run(x))


class TestPlanStructure:
    def test_all_uint8_layers_use_blas(self, integer_net):
        plan = integer_net.compile()
        assert all(info.backend == "blas" for info in plan.layer_info())

    def test_depthwise_uses_float32_tier(self, integer_net):
        plan = integer_net.compile()
        dw = [i for i in plan.layer_info() if i.kind == "dw"]
        assert dw and all(i.gemm_dtype == "float32" for i in dw)

    def test_describe_lists_every_layer(self, integer_net):
        plan = integer_net.compile()
        text = plan.describe()
        for layer in integer_net.conv_layers:
            assert layer.name in text

    def test_describe_and_profile_name_each_unfold(self):
        """Stride-1 depthwise layers unfold in wide rows, stride-2 ones in
        (OH, OW) tiles, the rest through im2col."""
        spec = mobilenet_v1_spec(32, 0.25, num_classes=10)
        session = Session(integer_network_from_spec(spec, np.random.default_rng(0)))
        plan = session.plan
        expected = {l.name: ("im2col" if l.kind != "dw" else
                             "rows" if l.stride == 1 else "tiles")
                    for l in plan.layers}
        assert {"rows", "tiles", "im2col"} == set(expected.values())
        lines = plan.describe().splitlines()[1:len(plan.layers) + 1]
        for line in lines:
            name, path = line.split()[0], line.split()[-1]
            assert path == expected[name], line
        x = np.random.default_rng(1).uniform(0, 1, size=(1, 3, 32, 32))
        timings = session.profile(x, repeats=1).layers
        for t in timings[:len(plan.layers)]:
            assert t.dispatch.split()[-1] == expected[t.name], t.dispatch

    def test_weights_are_pre_shifted_gemm_form(self, integer_net):
        plan = integer_net.compile()
        layer = plan.layers[0]
        p = integer_net.conv_layers[0].params
        assert layer.w2.shape[0] == p.weights_q.shape[0]
        assert layer.w2.flags["C_CONTIGUOUS"]


class TestBoundaryValidation:
    def test_out_of_range_codes_rejected_at_boundary(self, integer_net):
        plan = integer_net.compile()
        bad = np.full((1, 3, 16, 16), 300, dtype=np.int64)
        with pytest.raises(ValueError, match="out of UINT8 range"):
            plan.run_codes(bad)

    def test_run_codes_always_scans(self, integer_net, small_dataset, monkeypatch):
        """The plan and a session both range-check input codes on every
        ``run_codes`` call."""
        import repro.inference.plan as plan_mod

        plan = integer_net.compile()
        session = Session(integer_net)
        scans = []
        monkeypatch.setattr(plan_mod, "check_codes", lambda *a: scans.append(a[0]))
        codes = integer_net.quantize_input(small_dataset.x_test[:2])
        assert plan.run_codes(codes).shape[0] == 2
        session.run_codes(codes)
        assert scans == ["input activation"] * 2

    def test_out_of_range_weights_rejected_at_compile_time(self, integer_net):
        """The plan enforces the interpreted engine's weight guard once,
        at compile time, instead of on every forward.  An 8-bit uint8
        container cannot even represent an out-of-range code, so the
        poisoned tensor is widened to int64 first (a corrupted legacy
        deployment)."""
        import copy

        broken = copy.deepcopy(integer_net)
        params = broken.conv_layers[0].params
        params.weights_q = params.weights_q.astype(np.int64)
        params.weights_q[0, 0, 0, 0] = 700
        with pytest.raises(ValueError, match="weight codes out of UINT8 range"):
            broken.compile()
        # The classifier's weights too.
        broken = copy.deepcopy(integer_net)
        broken.classifier.weights_q = broken.classifier.weights_q.astype(np.int64)
        broken.classifier.weights_q[0, 0] = -1
        with pytest.raises(ValueError, match="weight codes out of UINT8 range"):
            broken.compile()


class TestRunBatched:
    def test_matches_single_shot(self, integer_net, small_dataset):
        x = small_dataset.x_test[:10]
        plan = integer_net.compile()
        assert np.array_equal(plan.run(x), plan.run_batched(x, batch_size=3))

    def test_single_tile_short_circuit(self, integer_net, small_dataset):
        x = small_dataset.x_test[:4]
        plan = integer_net.compile()
        assert np.array_equal(plan.run(x), plan.run_batched(x, batch_size=16))

    def test_rejects_nonpositive_batch(self, integer_net, small_dataset):
        plan = integer_net.compile()
        with pytest.raises(ValueError, match="batch_size"):
            plan.run_batched(small_dataset.x_test[:4], batch_size=0)

    def test_predict_batched(self, integer_net, small_dataset):
        x = small_dataset.x_test[:10]
        plan = integer_net.compile()
        assert np.array_equal(plan.predict(x), plan.predict(x, batch_size=4))


class TestEmptyBatch:
    """A (0, C, H, W) batch runs on zero-size arena views and comes back
    correctly shaped."""

    @pytest.fixture(scope="class")
    def net(self):
        spec = mobilenet_v1_spec(32, 0.25, num_classes=5)
        return integer_network_from_spec(spec, np.random.default_rng(0))

    def test_run_returns_empty_logits(self, net):
        from repro.runtime import Session

        empty = np.zeros((0, 3, 32, 32))
        assert net.compile().run(empty).shape == (0, 5)
        assert Session(net).run(empty).shape == (0, 5)

    def test_run_codes_returns_empty_codes(self, net):
        plan = net.compile()
        codes = plan.run_codes(plan.quantize_input(np.zeros((0, 3, 32, 32))))
        assert codes.shape == (0, 256, 1, 1)
        # The plan still serves a real batch after the empty one.
        x = np.random.default_rng(1).uniform(0, 1, size=(2, 3, 32, 32))
        assert np.array_equal(net.forward(x), plan.run(x))


class TestEvaluateIntegerNetwork:
    def test_compiled_and_interpreted_agree(self, integer_net, small_dataset):
        x = small_dataset.x_test[:12]
        y = small_dataset.y_test[:12]
        fast = evaluate_integer_network(integer_net, x, labels=y, batch_size=5)
        slow = evaluate_integer_network(integer_net, x, labels=y, batch_size=5, compiled=False)
        assert np.array_equal(fast["predictions"], slow["predictions"])
        assert fast["top1"] == slow["top1"]
        assert fast["num_images"] == 12

    def test_empty_sweep(self, integer_net):
        empty = np.zeros((0, 3, 16, 16))
        for compiled in (True, False):
            r = evaluate_integer_network(integer_net, empty, compiled=compiled)
            assert r["predictions"].shape == (0,)
            assert r["num_images"] == 0


def test_plan_constructor_direct(integer_net, small_dataset):
    """ExecutionPlan can also be built without the compile() sugar."""
    plan = ExecutionPlan(integer_net)
    x = small_dataset.x_test[:2]
    assert np.array_equal(plan.run(x), integer_net.forward(x))


class TestInt64Fallback:
    """A layer whose refined accumulator bound passes 2^53 has no exact
    float GEMM, so the plan runs it on the int64 einsum: the plan's only
    integer GEMM branches, reached here through real input."""

    CHANNELS = 5  # at most two per block: 2/2/1, ragged
    HW = (7, 6)

    def _net(self, kind, strategy, x, kernel=3, stride=1, bits=26, trail=False):
        """One ``bits``-bit layer (26 by default, for a 3x3 reduction).
        All-positive shifted inputs and weights, the weights in
        ``[2^(bits-1), 2^bits)``, put its accumulators around ``2^53`` and
        past it.  Threshold tables are cut at the quantiles of the
        accumulators ``x`` produces, so the codes spread over all 16
        levels.  ``trail`` appends a 4-bit pointwise layer widening to 32
        channels and a 3x3 depthwise one over them, whose unfold is the
        larger."""
        rng = np.random.default_rng(5)
        layer = random_conv_layer(rng, kind, self.CHANNELS, self.CHANNELS,
                                  kernel=kernel, stride=stride, padding=kernel // 2,
                                  in_bits=bits, w_bits=bits, out_bits=4,
                                  strategy=strategy, name=kind)
        p = layer.params
        p.z_x, p.z_w = 0, np.zeros_like(p.z_w)
        p.weights_q |= np.uint32(1 << (bits - 1))
        layers = [layer]
        if trail:
            kw = dict(in_bits=4, out_bits=4, w_bits=4)
            layers += [
                random_conv_layer(rng, "pw", self.CHANNELS, 32, kernel=1, padding=0,
                                  name="trail_pw", **kw),
                random_conv_layer(rng, "dw", 32, 32, name="trail_dw", **kw),
            ]
        net = IntegerNetwork(conv_layers=layers, input_scale=2.0 ** -bits,
                             input_bits=bits)
        if strategy == "thr":
            conv = int_depthwise_conv2d if kind == "dw" else int_conv2d
            phi = conv(net.quantize_input(x), p.weights_q, 0, p.z_w, stride=stride,
                       padding=kernel // 2, x_bits=bits, w_bits=bits)
            for c in range(self.CHANNELS):
                ranked = np.sort(phi[:, c].ravel())
                p.thresholds[c, 1:] = ranked[np.arange(1, 16) * ranked.size // 16]
            p.direction[:] = 1
        return net

    @pytest.mark.parametrize("kind", ["conv", "dw"])
    def test_threshold_layer_past_2_53_matches_reference(self, monkeypatch, kind):
        x = np.random.default_rng(6).uniform(0, 1, size=(2, self.CHANNELS, *self.HW))
        net = self._net(kind, "thr", x)
        plan = net.compile()
        layer = plan.layers[0]
        assert layer.backend == "int64" and layer.acc_bound >= 2 ** 53
        if kind == "dw":
            oh, ow = self.HW
            grid = layer.row_grid(*self.HW)
            per_channel = depthwise_channel_bytes(3, 3, 1, oh, ow, layer.gemm_itemsize)
            assert grid is not None and per_channel == 9 * grid[1] * 8
            monkeypatch.setattr(arena_mod, "DW_TILE_BYTES",
                                2 * per_channel + per_channel // 2)
            region = plan.arena_for(self.HW).dw_tile_bytes
            images, blocks = layer.tile_blocking(*self.HW, region)
            assert images == 1 and blocks == ((0, 2), (2, 4), (4, 5))
        out = plan.run(x)
        ref = net.forward(x)
        assert np.array_equal(out, ref)
        # Every channel has accumulators past 2^53, where float64 cannot
        # hold them, and its top level starts among them.
        assert net.conv_layers[0].params.thresholds[:, 15].min() > 2 ** 53
        assert len(np.unique(out)) == 16
        assert verify_plan(plan, self.HW).ok

    @pytest.mark.parametrize("kernel,stride", [(3, 1), (3, 2), (1, 1), (1, 2)])
    def test_image_blocks_match_reference(self, monkeypatch, kernel, stride):
        """Batch 3 in tiles of two images, behind a wider depthwise layer
        whose unfold sets the tile region (the last tile holds one
        image).  27-bit codes put even a 1x1 reduction past 2^53."""
        x = np.random.default_rng(7).uniform(0, 1, size=(3, self.CHANNELS, *self.HW))
        net = self._net("dw", "thr", x, kernel=kernel, stride=stride, bits=27,
                        trail=True)
        plan = net.compile()
        layer = plan.layers[0]
        assert layer.backend == "int64" and layer.acc_bound >= 2 ** 53
        oh, ow = (conv_output_size(d, kernel, stride, kernel // 2) for d in self.HW)
        image_bytes = self.CHANNELS * depthwise_channel_bytes(
            kernel, kernel, stride, oh, ow, layer.gemm_itemsize)
        if image_bytes:
            monkeypatch.setattr(arena_mod, "DW_TILE_BYTES",
                                2 * image_bytes + image_bytes // 2)
        arena = plan.arena_for(self.HW)
        images, blocks = layer.tile_blocking(*self.HW, arena.dw_tile_bytes)
        assert blocks == ((0, self.CHANNELS),)
        assert balanced_blocks(3, images) == (((0, 2), (2, 3)) if image_bytes
                                              else ((0, 3),))
        assert np.array_equal(plan.run(x), net.forward(x))
        # The int64 layer's own codes, as its tiles wrote them.
        codes = plan.quantize_input(x)
        ref = net.conv_layers[0].forward(codes)
        assert np.array_equal(layer(codes, plan.bound(codes.shape)[0]), ref)
        assert len(np.unique(ref)) == 16
        assert net.conv_layers[0].params.thresholds[:, 15].max() > 2 ** 53
        assert verify_plan(plan, self.HW).ok

    @pytest.mark.parametrize("kind", ["conv", "dw"])
    def test_session_serves_the_fallback(self, kind):
        """The front door compiles the same fallback: a Session answers
        like the reference in one call and in ragged tiles, and its
        profile names the int64 dispatch."""
        x = np.random.default_rng(6).uniform(0, 1, size=(3, self.CHANNELS, *self.HW))
        net = self._net(kind, "thr", x)
        with Session(net, input_hw=self.HW) as session:
            assert session.layer_info()[0].backend == "int64"
            ref = net.forward(x)
            assert np.array_equal(session.run(x), ref)
            assert np.array_equal(session.run_batched(x, batch_size=2), ref)
            assert "int64/int64->uint8" in session.profile(x, repeats=1).table()
            assert session.healthcheck()["ok"]

    @pytest.mark.parametrize("kind", ["conv", "dw"])
    def test_icn_layer_past_2_53_is_rejected(self, kind):
        """Eq. 5 of such a layer overflows int64: the reference raises on
        its input, and the compiler refuses the layer, by name, before
        any input arrives."""
        x = np.random.default_rng(6).uniform(0, 1, size=(2, self.CHANNELS, *self.HW))
        net = self._net(kind, "icn", x)
        with pytest.raises(OverflowError):
            net.forward(x)
        with pytest.raises(OverflowError, match=f"^{kind}: .*int64"):
            net.compile()
        with pytest.raises(OverflowError, match=f"^{kind}: "):
            Session(net)
