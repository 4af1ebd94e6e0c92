"""Tests of the im2col convolution primitives, including numerical
gradient checks against finite differences."""

import numpy as np
import pytest

from repro.nn import functional as F


def _numerical_grad(fn, x, eps=1e-5):
    """Central-difference gradient of a scalar function of an array."""
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        fp = fn(x)
        x[idx] = orig - eps
        fm = fn(x)
        x[idx] = orig
        grad[idx] = (fp - fm) / (2 * eps)
        it.iternext()
    return grad


class TestOutputSize:
    def test_basic(self):
        assert F.conv_output_size(224, 3, 2, 1) == 112
        assert F.conv_output_size(112, 3, 1, 1) == 112
        assert F.conv_output_size(7, 7, 1, 0) == 1

    def test_stride_two_no_pad(self):
        assert F.conv_output_size(8, 2, 2, 0) == 4


class TestIm2Col:
    def test_shape(self, rng):
        x = rng.normal(size=(2, 3, 8, 8))
        cols = F.im2col(x, 3, 3, 1, 1)
        assert cols.shape == (2, 3 * 9, 64)

    def test_identity_kernel_1x1(self, rng):
        x = rng.normal(size=(1, 4, 5, 5))
        cols = F.im2col(x, 1, 1, 1, 0)
        assert np.allclose(cols.reshape(1, 4, 25), x.reshape(1, 4, 25))

    def test_col2im_inverts_counts(self, rng):
        """col2im(im2col(x)) multiplies each pixel by its patch multiplicity."""
        x = rng.normal(size=(1, 2, 6, 6))
        cols = F.im2col(x, 3, 3, 1, 1)
        back = F.col2im(cols, x.shape, 3, 3, 1, 1)
        ones = np.ones_like(x)
        counts = F.col2im(F.im2col(ones, 3, 3, 1, 1), x.shape, 3, 3, 1, 1)
        assert np.allclose(back, x * counts)

    def test_uncopied_columns_are_read_only(self, rng):
        """A 1x1/s1 unfold is never copied: it aliases the input, so
        writing through it must raise instead of corrupting ``x``."""
        x = rng.normal(size=(1, 4, 5, 5))
        cols = F.im2col(x, 1, 1, 1, 0)
        assert np.shares_memory(cols, x)
        with pytest.raises(ValueError, match="read-only"):
            cols[0, 0, 0] = 1.0

    @pytest.mark.parametrize("contiguous_input", [True, False])
    def test_out_buffer_matches_returned_columns(self, rng, contiguous_input):
        x = rng.normal(size=(2, 3, 9, 9))
        if not contiguous_input:
            x = x[:, ::-1]
        out = np.full((2, 3 * 9, 16), np.nan)
        assert F.im2col(x, 3, 3, 2, 0, out=out) is out
        assert np.array_equal(out, F.im2col(x, 3, 3, 2, 0))

    @pytest.mark.parametrize("kh,kw,pad", [(3, 3, 1), (3, 3, 0), (5, 3, 2), (1, 3, 0)])
    @pytest.mark.parametrize("layout", ["contiguous", "channels-reversed",
                                        "columns-reversed"])
    def test_wide_rows_hold_every_output_at_pitch_wp(self, rng, kh, kw, pad, layout):
        """Output (i, j) of the wide row grid is column i*Wp + j, equal to
        column i*OW + j of the (OH, OW) unfold, on a non-square input
        whatever its strides."""
        x = rng.normal(size=(2, 3, 7, 10))
        if layout == "channels-reversed":
            x = x[:, ::-1]
        elif layout == "columns-reversed":
            x = x[..., ::-1]
        oh, ow = 7 + 2 * pad - kh + 1, 10 + 2 * pad - kw + 1
        wp = 10 + 2 * pad
        out = np.full((2, 3 * kh * kw, (oh - 1) * wp + ow), np.nan)
        assert F.im2col(x, kh, kw, 1, pad, out=out, wide=True) is out
        assert np.array_equal(out, F.im2col(x, kh, kw, 1, pad, wide=True))
        rows = np.stack([out[:, :, i * wp:i * wp + ow] for i in range(oh)], axis=2)
        assert np.array_equal(rows.reshape(2, -1, oh * ow), F.im2col(x, kh, kw, 1, pad))

    def test_wide_rows_need_stride_one(self, rng):
        with pytest.raises(ValueError, match="stride 1"):
            F.im2col(rng.normal(size=(1, 1, 6, 6)), 3, 3, 2, 0, wide=True)


class TestConv2d:
    def test_matches_direct_convolution(self, rng):
        x = rng.normal(size=(2, 3, 7, 7))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        out, _ = F.conv2d_forward(x, w, b, stride=1, pad=1)
        # Direct (slow) reference.
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        ref = np.zeros_like(out)
        for n in range(2):
            for o in range(4):
                for i in range(7):
                    for j in range(7):
                        patch = xp[n, :, i : i + 3, j : j + 3]
                        ref[n, o, i, j] = np.sum(patch * w[o]) + b[o]
        assert np.allclose(out, ref)

    def test_stride_two(self, rng):
        x = rng.normal(size=(1, 2, 8, 8))
        w = rng.normal(size=(3, 2, 3, 3))
        out, _ = F.conv2d_forward(x, w, None, stride=2, pad=1)
        assert out.shape == (1, 3, 4, 4)

    def test_backward_weight_gradient(self, rng):
        x = rng.normal(size=(2, 2, 5, 5))
        w = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)

        def loss_fn(w_):
            out, _ = F.conv2d_forward(x, w_, b, 1, 1)
            return float((out ** 2).sum() / 2)

        out, cache = F.conv2d_forward(x, w, b, 1, 1)
        _, grad_w, grad_b = F.conv2d_backward(out, cache)
        num = _numerical_grad(loss_fn, w.copy())
        assert np.allclose(grad_w, num, atol=1e-4)

    def test_backward_input_gradient(self, rng):
        x = rng.normal(size=(1, 2, 5, 5))
        w = rng.normal(size=(3, 2, 3, 3))

        def loss_fn(x_):
            out, _ = F.conv2d_forward(x_, w, None, 1, 1)
            return float((out ** 2).sum() / 2)

        out, cache = F.conv2d_forward(x, w, None, 1, 1)
        grad_x, _, _ = F.conv2d_backward(out, cache)
        num = _numerical_grad(loss_fn, x.copy())
        assert np.allclose(grad_x, num, atol=1e-4)

    def test_backward_bias_gradient(self, rng):
        x = rng.normal(size=(2, 2, 4, 4))
        w = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        out, cache = F.conv2d_forward(x, w, b, 1, 1)
        grad = np.ones_like(out)
        _, _, grad_b = F.conv2d_backward(grad, cache)
        assert np.allclose(grad_b, np.full(3, 2 * 4 * 4))

    def test_channel_mismatch_raises(self, rng):
        x = rng.normal(size=(1, 3, 5, 5))
        w = rng.normal(size=(2, 4, 3, 3))
        with pytest.raises(ValueError):
            F.conv2d_forward(x, w, None, 1, 1)


class TestDepthwiseConv2d:
    def test_matches_grouped_reference(self, rng):
        x = rng.normal(size=(2, 4, 6, 6))
        w = rng.normal(size=(4, 1, 3, 3))
        out, _ = F.depthwise_conv2d_forward(x, w, None, 1, 1)
        # Reference: one standard conv per channel.
        for c in range(4):
            ref, _ = F.conv2d_forward(x[:, c : c + 1], w[c : c + 1], None, 1, 1)
            assert np.allclose(out[:, c : c + 1], ref)

    def test_backward_matches_numerical(self, rng):
        x = rng.normal(size=(1, 3, 5, 5))
        w = rng.normal(size=(3, 1, 3, 3))

        def loss_fn(w_):
            out, _ = F.depthwise_conv2d_forward(x, w_, None, 1, 1)
            return float((out ** 2).sum() / 2)

        out, cache = F.depthwise_conv2d_forward(x, w, None, 1, 1)
        grad_x, grad_w, _ = F.depthwise_conv2d_backward(out, cache)
        assert np.allclose(grad_w, _numerical_grad(loss_fn, w.copy()), atol=1e-4)

        def loss_x(x_):
            out, _ = F.depthwise_conv2d_forward(x_, w, None, 1, 1)
            return float((out ** 2).sum() / 2)

        assert np.allclose(grad_x, _numerical_grad(loss_x, x.copy()), atol=1e-4)

    def test_wrong_weight_shape_raises(self, rng):
        x = rng.normal(size=(1, 3, 5, 5))
        w = rng.normal(size=(4, 1, 3, 3))
        with pytest.raises(ValueError):
            F.depthwise_conv2d_forward(x, w, None, 1, 1)


class TestPooling:
    def test_avg_pool_values(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out, _ = F.avg_pool2d_forward(x, 2)
        assert out.shape == (1, 1, 2, 2)
        assert np.allclose(out[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_avg_pool_backward_spreads_uniformly(self, rng):
        x = rng.normal(size=(1, 2, 4, 4))
        out, cache = F.avg_pool2d_forward(x, 2)
        grad = np.ones_like(out)
        gx = F.avg_pool2d_backward(grad, cache)
        assert np.allclose(gx, 0.25)

    def test_global_avg_pool(self, rng):
        x = rng.normal(size=(2, 3, 5, 5))
        out, cache = F.global_avg_pool2d_forward(x)
        assert out.shape == (2, 3, 1, 1)
        assert np.allclose(out[..., 0, 0], x.mean(axis=(2, 3)))
        gx = F.global_avg_pool2d_backward(np.ones_like(out), cache)
        assert np.allclose(gx, 1.0 / 25)


class TestLinear:
    def test_forward(self, rng):
        x = rng.normal(size=(4, 6))
        w = rng.normal(size=(3, 6))
        b = rng.normal(size=3)
        out, _ = F.linear_forward(x, w, b)
        assert np.allclose(out, x @ w.T + b)

    def test_backward(self, rng):
        x = rng.normal(size=(4, 6))
        w = rng.normal(size=(3, 6))
        b = rng.normal(size=3)
        out, cache = F.linear_forward(x, w, b)
        grad_x, grad_w, grad_b = F.linear_backward(out, cache)
        assert np.allclose(grad_w, out.T @ x)
        assert np.allclose(grad_b, out.sum(axis=0))
        assert np.allclose(grad_x, out @ w)
