"""Depthwise stencil kernel: bit-identity against the im2col int64
reference across bit widths, strides, paddings and channel counts, and
the compiled plan's per-call stencil/im2col dispatch."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.inference.kernels import (
    blas_gemm_dtype,
    depthwise_stencil_accumulate,
    int_depthwise_conv2d,
    shift_weights,
)


@st.composite
def dw_cases(draw):
    """One random depthwise problem: geometry, bit widths, RNG seed."""
    x_bits = draw(st.sampled_from([2, 4, 8]))
    w_bits = draw(st.sampled_from([2, 4, 8]))
    n = draw(st.integers(1, 3))
    c = draw(st.integers(1, 7))
    kernel = draw(st.sampled_from([1, 2, 3, 5]))
    stride = draw(st.integers(1, 3))
    padding = draw(st.integers(0, 2))
    # Input must yield at least one output position.
    min_hw = max(kernel - 2 * padding, 1)
    h = draw(st.integers(min_hw, min_hw + 6))
    w = draw(st.integers(min_hw, min_hw + 6))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return x_bits, w_bits, n, c, kernel, stride, padding, h, w, seed


def _random_problem(case):
    x_bits, w_bits, n, c, kernel, stride, padding, h, w, seed = case
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 2 ** x_bits, size=(n, c, h, w), dtype=np.int64)
    wq = rng.integers(0, 2 ** w_bits, size=(c, 1, kernel, kernel), dtype=np.int64)
    z_x = int(rng.integers(0, 2 ** x_bits))
    z_w = rng.integers(0, 2 ** w_bits, size=c, dtype=np.int64)
    kwargs = dict(stride=stride, padding=padding, x_bits=x_bits, w_bits=w_bits)
    return x, wq, z_x, z_w, kwargs


def _shifted_input(x, z_x, padding, dtype):
    """``x - z_x`` zero-padded in ``dtype``, the stencil's input form."""
    n, c, h, w = x.shape
    xs = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=dtype)
    np.subtract(x, z_x, out=xs[:, :, padding:h + padding, padding:w + padding],
                dtype=dtype)
    return xs


def _stencil(x, wq, z_x, z_w, kwargs, dtype, out=None, tmp=None):
    """Run the stencil kernel in ``dtype`` (fresh buffers by default)."""
    kernel, stride = wq.shape[2], kwargs["stride"]
    xs = _shifted_input(x, z_x, kwargs["padding"], dtype)
    w_cols = shift_weights(wq, z_w, wq.shape[0]).reshape(wq.shape[0], -1).astype(dtype)
    oh = (xs.shape[2] - kernel) // stride + 1
    ow = (xs.shape[3] - kernel) // stride + 1
    shape = (x.shape[0], x.shape[1], oh, ow)
    out = np.empty(shape, dtype=dtype) if out is None else out
    tmp = np.empty(shape, dtype=dtype) if tmp is None else tmp
    return depthwise_stencil_accumulate(xs, w_cols, kernel, kernel, stride, out=out, tmp=tmp)


@given(case=dw_cases())
@settings(deadline=None)
def test_property_fused_matches_im2col_int64_reference(case):
    """Stencil == im2col int64 reference, bit for bit, on the int64 tier
    and on the float tier the plan dispatches to."""
    x, wq, z_x, z_w, kwargs = _random_problem(case)
    ref = int_depthwise_conv2d(x, wq, z_x, z_w, **kwargs)
    k = wq.shape[2] * wq.shape[3]
    float_dtype = blas_gemm_dtype(k, kwargs["x_bits"], kwargs["w_bits"])
    assert np.array_equal(ref, _stencil(x, wq, z_x, z_w, kwargs, np.int64))
    assert np.array_equal(ref, _stencil(x, wq, z_x, z_w, kwargs, float_dtype))


@given(case=dw_cases())
@settings(deadline=None)
def test_property_stencil_out_tmp_buffers_reused(case):
    """Caller-provided out/tmp slab views produce the identical result
    (the contract the activation arena relies on)."""
    x, wq, z_x, z_w, kwargs = _random_problem(case)
    dtype = blas_gemm_dtype(wq.shape[2] * wq.shape[3], kwargs["x_bits"], kwargs["w_bits"])
    fresh = _stencil(x, wq, z_x, z_w, kwargs, dtype)
    # Poisoned preallocated buffers must be fully overwritten.
    out = np.full_like(fresh, 123456)
    tmp = np.full_like(fresh, -777)
    reused = _stencil(x, wq, z_x, z_w, kwargs, dtype, out=out, tmp=tmp)
    assert reused is out
    assert np.array_equal(fresh, reused)


def test_fused_scalar_zero_point():
    """Per-layer (scalar) z_w: the stencil matches the reference."""
    rng = np.random.default_rng(3)
    x = rng.integers(0, 256, size=(2, 4, 9, 9), dtype=np.int64)
    wq = rng.integers(0, 16, size=(4, 1, 3, 3), dtype=np.int64)
    kwargs = dict(stride=1, padding=1, x_bits=8, w_bits=4)
    ref = int_depthwise_conv2d(x, wq, 7, 5, **kwargs)
    assert np.array_equal(ref, _stencil(x, wq, 7, 5, kwargs, np.float32))


def test_fused_precomputed_w_shift():
    """A hoisted ``w_shift`` (what the interpreted engine caches) skips
    the per-call shift without changing codes."""
    rng = np.random.default_rng(4)
    x = rng.integers(0, 16, size=(1, 3, 6, 6), dtype=np.int64)
    wq = rng.integers(0, 16, size=(3, 1, 3, 3), dtype=np.int64)
    z_w = rng.integers(0, 16, size=3, dtype=np.int64)
    ws = shift_weights(wq, z_w, 3)
    a = int_depthwise_conv2d(x, wq, 2, z_w, x_bits=4, w_bits=4)
    b = int_depthwise_conv2d(x, wq, 2, z_w, x_bits=4, w_bits=4, w_shift=ws)
    assert np.array_equal(a, b)


def test_fused_validate_rejects_out_of_range_codes():
    x = np.full((1, 2, 4, 4), 300, dtype=np.int64)
    wq = np.zeros((2, 1, 3, 3), dtype=np.int64)
    with pytest.raises(ValueError, match="out of UINT8 range"):
        int_depthwise_conv2d(x, wq, 0, 0)


def test_fused_rejects_bad_per_channel_z_w():
    x = np.zeros((1, 2, 4, 4), dtype=np.int64)
    wq = np.zeros((2, 1, 3, 3), dtype=np.int64)
    with pytest.raises(ValueError, match="one entry per channel"):
        int_depthwise_conv2d(x, wq, 0, np.zeros(5, dtype=np.int64))


@pytest.mark.parametrize("bits,expected", [(2, np.float32), (8, np.float32)])
def test_fused_float_tier_dispatch(bits, expected):
    """3x3 depthwise reductions fit the float32 significand at any paper
    bit width (k=9, worst case 9*(2^8-1)^2 < 2^24)."""
    assert blas_gemm_dtype(9, bits, bits) == expected


class TestAutoDispatch:
    """The compiled plan's per-call stencil/im2col rule and its parity."""

    def test_prefers_stencil_above_cache_threshold(self):
        from repro.inference.kernels import (
            DW_IM2COL_BYTES_THRESHOLD,
            DW_IM2COL_S2_BYTES_THRESHOLD,
            depthwise_prefers_stencil,
        )
        # 8 x 32ch x 3x3 x 112x112 float32 im2col is ~115 MB: stencil.
        assert depthwise_prefers_stencil(8, 32, 3, 3, 112, 112, 4)
        # 1 x 8ch x 3x3 x 16x16 is ~74 kB: stays on the matmul path.
        assert not depthwise_prefers_stencil(1, 8, 3, 3, 16, 16, 4)
        # Stride 2 dispatches on its own (lower) threshold: a ~115 MB
        # unfold takes the stencil, a small one keeps the matmul path.
        assert depthwise_prefers_stencil(8, 32, 3, 3, 112, 112, 4, stride=2)
        assert not depthwise_prefers_stencil(1, 8, 3, 3, 16, 16, 4, stride=2)
        # Strides beyond 2 always fall back to im2col.
        assert not depthwise_prefers_stencil(8, 32, 3, 3, 112, 112, 4, stride=3)
        assert 0 < DW_IM2COL_S2_BYTES_THRESHOLD < DW_IM2COL_BYTES_THRESHOLD

    @pytest.mark.parametrize("mode", [True, False, "auto"])
    def test_all_dispatch_modes_bit_identical(self, mode, monkeypatch):
        """Stencil on every depthwise layer (thresholds of 0), on none
        (thresholds past every layer) or by the default rule."""
        import repro.inference.kernels as k
        from repro.inference.testing import integer_network_from_spec
        from repro.models.model_zoo import mobilenet_v1_spec

        if mode != "auto":
            threshold = 0 if mode else 1 << 62
            monkeypatch.setattr(k, "DW_IM2COL_BYTES_THRESHOLD", threshold)
            monkeypatch.setattr(k, "DW_IM2COL_S2_BYTES_THRESHOLD", threshold)
        spec = mobilenet_v1_spec(32, 0.25, num_classes=5)
        net = integer_network_from_spec(spec, np.random.default_rng(0))
        x = np.random.default_rng(1).uniform(0, 1, size=(2, 3, 32, 32))
        ref = net.forward(x)
        assert np.array_equal(ref, net.compile().run(x))

    def test_auto_engages_stencil_under_lowered_threshold(self, monkeypatch):
        """Force the auto rule to pick the stencil on a small net and
        confirm bit-identity (exercises the arena's stencil buffers)."""
        import repro.inference.kernels as k
        from repro.inference.testing import integer_network_from_spec
        from repro.models.model_zoo import mobilenet_v1_spec

        spec = mobilenet_v1_spec(32, 0.25, num_classes=5)
        net = integer_network_from_spec(spec, np.random.default_rng(0))
        x = np.random.default_rng(2).uniform(0, 1, size=(2, 3, 32, 32))
        ref = net.forward(x)
        monkeypatch.setattr(k, "DW_IM2COL_BYTES_THRESHOLD", 0)
        assert np.array_equal(ref, net.compile().run(x))

    def test_dispatch_is_read_per_call_after_binding(self, monkeypatch):
        """One plan, three threshold settings: the views a layer binds on
        its first call must not freeze the stencil/im2col decision."""
        import repro.inference.kernels as k
        import repro.inference.plan as plan_mod
        from repro.inference.testing import integer_network_from_spec
        from repro.models.model_zoo import mobilenet_v1_spec

        spec = mobilenet_v1_spec(32, 0.25, num_classes=5)
        net = integer_network_from_spec(spec, np.random.default_rng(0))
        plan = net.compile()
        n_dw = sum(layer.kind == "dw" for layer in plan.layers)
        stencil = plan_mod.depthwise_stencil_accumulate
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return stencil(*args, **kwargs)

        monkeypatch.setattr(plan_mod, "depthwise_stencil_accumulate", counted)
        x = np.random.default_rng(3).uniform(0, 1, size=(1, 3, 32, 32))
        ref = net.forward(x)
        counts = []
        for threshold in (None, 0, 1 << 62):
            if threshold is not None:
                monkeypatch.setattr(k, "DW_IM2COL_BYTES_THRESHOLD", threshold)
                monkeypatch.setattr(k, "DW_IM2COL_S2_BYTES_THRESHOLD", threshold)
            calls.clear()
            assert np.array_equal(plan.run(x), ref)
            counts.append(len(calls))
        assert counts == [0, n_dw, 0]
