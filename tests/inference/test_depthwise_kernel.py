"""Depthwise stencil kernel: bit-identity against the im2col int64
reference across bit widths, strides, paddings and channel counts; and
the compiled plan's depthwise tile loop at its tile boundaries."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.inference.arena as arena_mod
from repro.analysis import verify_plan
from repro.inference.arena import balanced_blocks, depthwise_channel_bytes
from repro.inference.engine import IntegerAvgPool, IntegerNetwork
from repro.inference.kernels import (
    blas_gemm_dtype,
    depthwise_stencil_accumulate,
    int_depthwise_conv2d,
    shift_weights,
)
from repro.inference.testing import random_conv_layer, random_linear_layer, random_network
from repro.nn.functional import conv_output_size
from repro.runtime import CompileOptions


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


# ----------------------------------------------------------------------
# The compiled plan's depthwise tile loop
# ----------------------------------------------------------------------
RES = 12
CHANNELS = 7  # prime: every split into 2..6 blocks is ragged


def _dw_net(seed, *, kernel=3, stride=1, strategy="icn", bits=8, lead=False,
            i64_tier=False):
    """conv0 -> (with ``lead``: a 3x3 dw on the full input, then a
    stride-2 one) -> the dw layer under test -> pw -> fc."""
    rng = np.random.default_rng(seed)
    kw = dict(in_bits=bits, out_bits=bits, w_bits=bits)
    layers = [random_conv_layer(rng, "conv", 3, CHANNELS, name="conv0", **kw)]
    if lead:
        layers += [
            random_conv_layer(rng, "dw", CHANNELS, CHANNELS, name="lead_s1", **kw),
            random_conv_layer(rng, "dw", CHANNELS, CHANNELS, stride=2,
                              name="lead_s2", **kw),
        ]
    dw = random_conv_layer(rng, "dw", CHANNELS, CHANNELS, kernel=kernel, stride=stride,
                           padding=kernel // 2, strategy=strategy, name="dw", **kw)
    if i64_tier:
        # One channel's right shift at the 62 clamp: z_y << 62 leaves the
        # float64 epilogue's 2^53 range, so the layer runs on int64.
        dw.params.n0[3] = 31 - 62
    layers += [dw, random_conv_layer(rng, "pw", CHANNELS, 5, kernel=1, padding=0,
                                     name="pw", **kw)]
    return IntegerNetwork(
        conv_layers=layers, pool=IntegerAvgPool(),
        classifier=random_linear_layer(rng, 5, 4, in_bits=bits, w_bits=bits),
        input_scale=1.0 / 255.0, input_zero_point=0, input_bits=bits,
    )


def _dw_input_hw(plan, name):
    """Input (h, w) of the named layer at the test resolution."""
    h = RES
    for layer in plan.layers:
        if layer.name == name:
            return h, h
        h = conv_output_size(h, layer.kh, layer.stride, layer.padding)
    raise KeyError(name)


def _channel_bytes(layer, h, w):
    oh = conv_output_size(h, layer.kh, layer.stride, layer.padding)
    ow = conv_output_size(w, layer.kw, layer.stride, layer.padding)
    return depthwise_channel_bytes(layer.kh, layer.kw, layer.stride, oh, ow,
                                   layer.gemm_itemsize)


def _images(batch, seed=1):
    return np.random.default_rng(seed).uniform(0, 1, size=(batch, 3, RES, RES))


class TestTileLoop:
    """Tiles split a depthwise layer at arbitrary channel and image
    boundaries; every split must stay bit-identical to the reference."""

    @pytest.mark.parametrize("strategy,bits,kernel,stride,backend,batch,i64_tier", [
        ("icn", 8, 3, 1, "auto", 1, False),
        ("folded", 8, 3, 2, "auto", 2, False),
        ("thr", 4, 3, 1, "auto", 3, False),
        ("icn", 2, 3, 2, "int32", 2, False),
        ("icn", 4, 5, 1, "int64", 3, False),
        ("icn", 8, 1, 2, "auto", 2, False),
        ("thr", 2, 1, 2, "int64", 1, False),
        ("icn", 8, 3, 1, "auto", 3, True),
        ("icn", 8, 3, 2, "int32", 1, True),
    ])
    def test_ragged_channel_blocks_match_reference(
            self, monkeypatch, strategy, bits, kernel, stride, backend, batch, i64_tier):
        net = _dw_net(11, kernel=kernel, stride=stride, strategy=strategy, bits=bits,
                      i64_tier=i64_tier)
        plan = net.compile(CompileOptions(backend=backend))
        dw = next(l for l in plan.layers if l.name == "dw")
        if i64_tier:
            assert dw.epilogue == "i64"
        h, w = _dw_input_hw(plan, "dw")
        # Two and a half channels' unfold: blocks of two channels, 2/2/2/1.
        per_channel = _channel_bytes(dw, h, w)
        monkeypatch.setattr(arena_mod, "DW_TILE_BYTES", 2 * per_channel + per_channel // 2)
        x = _images(batch)
        assert np.array_equal(plan.run(x), net.forward(x))
        images, blocks = dw.tile_blocking(h, w, plan.arena_for((RES, RES)).dw_tile_bytes)
        assert images == 1 and len(blocks) == 4
        assert sorted({c1 - c0 for c0, c1 in blocks}) == [1, 2]
        assert verify_plan(plan, (RES, RES)).ok

    @pytest.mark.parametrize("kernel,stride", [(3, 1), (3, 2), (1, 1), (1, 2)])
    @pytest.mark.parametrize("backend", ["auto", "int64"])
    def test_image_blocks_match_reference(self, monkeypatch, kernel, stride, backend):
        """Batch 3 in tiles of two images, behind a larger layer whose
        unfold sets the tile region (the last tile holds one image)."""
        net = _dw_net(12, kernel=kernel, stride=stride, lead=True)
        plan = net.compile(CompileOptions(backend=backend))
        dw = next(l for l in plan.layers if l.name == "dw")
        h, w = _dw_input_hw(plan, "dw")
        image_bytes = CHANNELS * _channel_bytes(dw, h, w)
        if image_bytes:
            monkeypatch.setattr(arena_mod, "DW_TILE_BYTES", 2 * image_bytes + image_bytes // 2)
        x = _images(3, seed=2)
        assert np.array_equal(plan.run(x), net.forward(x))
        images, blocks = dw.tile_blocking(h, w, plan.arena_for((RES, RES)).dw_tile_bytes)
        assert blocks == ((0, CHANNELS),)
        tiles = balanced_blocks(3, images)
        assert tiles == (((0, 2), (2, 3)) if image_bytes else ((0, 3),))
        assert verify_plan(plan, (RES, RES)).ok

    @given(seed=st.integers(0, 2 ** 16), tile=st.integers(1, 4096),
           batch=st.integers(1, 3), backend=st.sampled_from(["auto", "int32", "int64"]))
    @settings(deadline=None, max_examples=30)
    def test_property_any_tile_size_matches_reference(self, seed, tile, batch, backend):
        """Random topologies and requant strategies under tile sizes from
        one byte up: every blocking is exact and verifies."""
        net = random_network(np.random.default_rng(seed), resolution=11)
        x = np.random.default_rng(seed + 1).uniform(0, 1, size=(batch, 3, 11, 11))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(arena_mod, "DW_TILE_BYTES", tile)
            try:
                plan = net.compile(CompileOptions(backend=backend))
            except ValueError:  # int32 cannot hold this network's accumulators
                return
            assert np.array_equal(plan.run(x), net.forward(x))
            assert verify_plan(plan, (11, 11)).ok


def test_balanced_blocks_partition_evenly():
    assert balanced_blocks(7, 3) == ((0, 3), (3, 5), (5, 7))
    assert balanced_blocks(8, 3) == ((0, 3), (3, 6), (6, 8))
    assert balanced_blocks(4, 9) == ((0, 4),)
    assert balanced_blocks(0, 2) == ()
    for total in range(1, 30):
        for most in range(1, 12):
            blocks = balanced_blocks(total, most)
            sizes = [b - a for a, b in blocks]
            assert blocks[0][0] == 0 and blocks[-1][1] == total
            assert all(blocks[i][1] == blocks[i + 1][0] for i in range(len(blocks) - 1))
            assert max(sizes) <= most and max(sizes) - min(sizes) <= 1
            assert len(blocks) == -(-total // most)
