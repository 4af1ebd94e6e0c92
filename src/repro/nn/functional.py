"""Vectorised functional primitives (im2col convolutions, pooling).

All functions operate on NCHW numpy arrays and are written with numpy
vectorised idioms (no per-pixel Python loops) so that quantization-aware
training of small/medium networks is practical on a CPU.

The forward helpers return any intermediate buffers that the matching
backward helper needs, so layers can stay stateless beyond a cache dict.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np


# ----------------------------------------------------------------------
# im2col / col2im
# ----------------------------------------------------------------------
def conv_output_size(size: int, kernel: int, stride: int, pad: int) -> int:
    """Spatial output size of a convolution along one dimension."""
    return (size + 2 * pad - kernel) // stride + 1


def im2col(
    x: np.ndarray,
    kh: int,
    kw: int,
    stride: int,
    pad: int,
    out: np.ndarray | None = None,
    wide: bool = False,
) -> np.ndarray:
    """Unfold ``x`` (N, C, H, W) into columns of shape (N, C*kh*kw, L),
    with ``L = OH*OW`` (or the wide row grid's length, below).

    The result is the reshape of a strided view, never forced into a
    fresh C-contiguous buffer: for a 1x1/s1 kernel over a C-contiguous
    input it is a read-only view of the input, which consumers that
    accept strided arrays (``einsum``, ``matmul``) read without a copy;
    overlapping kernels copy once, inside ``reshape``.

    With ``out`` the unfolded columns are written into the caller's
    preallocated ``(N, C*kh*kw, L)`` buffer (an activation-arena
    slab) instead of a fresh allocation; ``out`` is returned.

    With ``wide=True`` (stride 1 only) the columns follow a wide row grid
    instead of the ``(OH, OW)`` one: output ``(i, j)`` is column
    ``q = i*Wp + j``, where ``Wp`` is the padded input width, so tap
    ``(a, b)`` of column ``q`` is padded element ``q + a*Wp + b``.  Each
    (image, channel, tap) is then one contiguous run of
    ``L = (OH-1)*Wp + OW`` elements, which ends exactly on the padded
    plane's last element; the unfold copies one run per tap where the
    ``(OH, OW)`` grid copies one per output row.  The ``Wp - OW`` columns
    after each row's ``OW`` outputs are junk that wraps into the next row:
    a consumer reads the outputs through an ``(OH, OW)`` view with row
    stride ``Wp``.
    """
    n, c, h, w = x.shape
    oh = conv_output_size(h, kh, stride, pad)
    ow = conv_output_size(w, kw, stride, pad)
    if pad > 0:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)), mode="constant")
    s0, s1, s2, s3 = x.strides
    if wide:
        if stride != 1:
            raise ValueError(f"the wide row unfold needs stride 1, got {stride}")
        wp = x.shape[3]
        if s2 != wp * s3:
            # Runs cross row ends, so rows must sit at a pitch of Wp.
            x = np.ascontiguousarray(x)
            s0, s1, s2, s3 = x.strides
        # Strided view: (N, C, kh, kw, L).
        grid, grid_strides = ((oh - 1) * wp + ow,), (s3,)
    else:
        # Strided view: (N, C, kh, kw, OH, OW).
        grid, grid_strides = (oh, ow), (s2 * stride, s3 * stride)
    shape = (n, c, kh, kw) + grid
    strides = (s0, s1, s2, s3) + grid_strides
    cols_shape = (n, c * kh * kw, math.prod(grid))
    if out is None or not x.flags.c_contiguous:
        # Read-only: the columns returned below may alias ``x``.
        view = np.lib.stride_tricks.as_strided(x, shape=shape, strides=strides,
                                               writeable=False)
    else:
        # Only ever read, into ``out``: over a C-contiguous input the
        # ndarray constructor builds it several times faster than
        # as_strided (which a caller unfolding many small tiles pays per
        # call).
        view = np.ndarray(shape, x.dtype, x, 0, strides)
    if out is not None:
        if out.shape != cols_shape:
            raise ValueError(
                f"im2col out buffer has shape {out.shape}, expected {cols_shape}"
            )
        np.copyto(out.reshape(shape), view)
        return out
    return view.reshape(cols_shape)


def col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    pad: int,
) -> np.ndarray:
    """Fold columns (N, C*kh*kw, OH*OW) back into an image, summing overlaps."""
    n, c, h, w = x_shape
    oh = conv_output_size(h, kh, stride, pad)
    ow = conv_output_size(w, kw, stride, pad)
    hp, wp = h + 2 * pad, w + 2 * pad
    x_padded = np.zeros((n, c, hp, wp), dtype=cols.dtype)
    cols6 = cols.reshape(n, c, kh, kw, oh, ow)
    for i in range(kh):
        i_max = i + stride * oh
        for j in range(kw):
            j_max = j + stride * ow
            x_padded[:, :, i:i_max:stride, j:j_max:stride] += cols6[:, :, i, j, :, :]
    if pad > 0:
        return x_padded[:, :, pad:-pad, pad:-pad]
    return x_padded


# ----------------------------------------------------------------------
# Standard convolution
# ----------------------------------------------------------------------
def conv2d_forward(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None,
    stride: int,
    pad: int,
):
    """Forward pass of a 2-D convolution.

    Parameters
    ----------
    x:
        Input activations, shape (N, C_in, H, W).
    weight:
        Kernel, shape (C_out, C_in, kh, kw).
    bias:
        Optional per-output-channel bias of shape (C_out,).

    Returns
    -------
    (out, cache):
        ``out`` has shape (N, C_out, OH, OW); ``cache`` carries what the
        backward pass needs.
    """
    n, c_in, h, w = x.shape
    c_out, c_in_w, kh, kw = weight.shape
    if c_in != c_in_w:
        raise ValueError(f"input channels {c_in} != weight channels {c_in_w}")
    oh = conv_output_size(h, kh, stride, pad)
    ow = conv_output_size(w, kw, stride, pad)
    cols = im2col(x, kh, kw, stride, pad)  # (N, C*kh*kw, OH*OW)
    w2 = weight.reshape(c_out, -1)  # (C_out, C*kh*kw)
    out = np.einsum("ok,nkl->nol", w2, cols, optimize=True)
    if bias is not None:
        out = out + bias.reshape(1, -1, 1)
    out = out.reshape(n, c_out, oh, ow)
    cache = {"x_shape": x.shape, "cols": cols, "weight": weight,
             "stride": stride, "pad": pad, "has_bias": bias is not None}
    return out, cache


def conv2d_backward(grad_out: np.ndarray, cache: dict):
    """Backward pass of :func:`conv2d_forward`.

    Returns ``(grad_x, grad_w, grad_b)``; ``grad_b`` is ``None`` when the
    forward had no bias.
    """
    x_shape = cache["x_shape"]
    cols = cache["cols"]
    weight = cache["weight"]
    stride, pad = cache["stride"], cache["pad"]
    n = grad_out.shape[0]
    c_out, c_in, kh, kw = weight.shape
    g = grad_out.reshape(n, c_out, -1)  # (N, C_out, L)
    grad_w = np.einsum("nol,nkl->ok", g, cols, optimize=True).reshape(weight.shape)
    grad_b = g.sum(axis=(0, 2)) if cache["has_bias"] else None
    w2 = weight.reshape(c_out, -1)
    grad_cols = np.einsum("ok,nol->nkl", w2, g, optimize=True)
    grad_x = col2im(grad_cols, x_shape, kh, kw, stride, pad)
    return grad_x, grad_w, grad_b


# ----------------------------------------------------------------------
# Depthwise convolution (channel multiplier 1)
# ----------------------------------------------------------------------
def depthwise_conv2d_forward(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None,
    stride: int,
    pad: int,
):
    """Depthwise 2-D convolution (one filter per input channel).

    ``weight`` has shape (C, 1, kh, kw).
    """
    n, c, h, w = x.shape
    c_w, one, kh, kw = weight.shape
    if c_w != c or one != 1:
        raise ValueError(f"depthwise weight shape {weight.shape} incompatible with input channels {c}")
    oh = conv_output_size(h, kh, stride, pad)
    ow = conv_output_size(w, kw, stride, pad)
    cols = im2col(x, kh, kw, stride, pad).reshape(n, c, kh * kw, oh * ow)
    w2 = weight.reshape(c, kh * kw)
    out = np.einsum("ck,nckl->ncl", w2, cols, optimize=True)
    if bias is not None:
        out = out + bias.reshape(1, -1, 1)
    out = out.reshape(n, c, oh, ow)
    cache = {"x_shape": x.shape, "cols": cols, "weight": weight,
             "stride": stride, "pad": pad, "has_bias": bias is not None}
    return out, cache


def depthwise_conv2d_backward(grad_out: np.ndarray, cache: dict):
    """Backward pass of :func:`depthwise_conv2d_forward`."""
    x_shape = cache["x_shape"]
    cols = cache["cols"]  # (N, C, kh*kw, L)
    weight = cache["weight"]
    stride, pad = cache["stride"], cache["pad"]
    n, c = grad_out.shape[0], grad_out.shape[1]
    c_w, _, kh, kw = weight.shape
    g = grad_out.reshape(n, c, -1)  # (N, C, L)
    grad_w = np.einsum("ncl,nckl->ck", g, cols, optimize=True).reshape(weight.shape)
    grad_b = g.sum(axis=(0, 2)) if cache["has_bias"] else None
    w2 = weight.reshape(c, kh * kw)
    grad_cols = np.einsum("ck,ncl->nckl", w2, g, optimize=True)
    grad_cols = grad_cols.reshape(n, c * kh * kw, -1)
    grad_x = col2im(grad_cols, x_shape, kh, kw, stride, pad)
    return grad_x, grad_w, grad_b


# ----------------------------------------------------------------------
# Pooling
# ----------------------------------------------------------------------
def avg_pool2d_forward(x: np.ndarray, kernel: int, stride: int | None = None):
    """Average pooling with square kernel (no padding)."""
    stride = stride or kernel
    n, c, h, w = x.shape
    oh = conv_output_size(h, kernel, stride, 0)
    ow = conv_output_size(w, kernel, stride, 0)
    s0, s1, s2, s3 = x.strides
    view = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, oh, ow, kernel, kernel),
        strides=(s0, s1, s2 * stride, s3 * stride, s2, s3),
        writeable=False,
    )
    out = view.mean(axis=(4, 5))
    cache = {"x_shape": x.shape, "kernel": kernel, "stride": stride}
    return out, cache


def avg_pool2d_backward(grad_out: np.ndarray, cache: dict) -> np.ndarray:
    """Backward pass of average pooling (uniform spread of the gradient)."""
    n, c, h, w = cache["x_shape"]
    k, s = cache["kernel"], cache["stride"]
    oh, ow = grad_out.shape[2], grad_out.shape[3]
    grad_x = np.zeros(cache["x_shape"], dtype=grad_out.dtype)
    scaled = grad_out / (k * k)
    for i in range(k):
        for j in range(k):
            grad_x[:, :, i : i + s * oh : s, j : j + s * ow : s] += scaled
    return grad_x


def global_avg_pool2d_forward(x: np.ndarray):
    """Global average pooling: (N, C, H, W) -> (N, C, 1, 1)."""
    out = x.mean(axis=(2, 3), keepdims=True)
    return out, {"x_shape": x.shape}


def global_avg_pool2d_backward(grad_out: np.ndarray, cache: dict) -> np.ndarray:
    n, c, h, w = cache["x_shape"]
    return np.broadcast_to(grad_out / (h * w), cache["x_shape"]).copy()


# ----------------------------------------------------------------------
# Linear
# ----------------------------------------------------------------------
def linear_forward(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None):
    """Fully-connected layer forward: ``y = x @ W.T + b``.

    ``x`` has shape (N, in_features); ``weight`` (out_features, in_features).
    """
    out = x @ weight.T
    if bias is not None:
        out = out + bias
    return out, {"x": x, "weight": weight, "has_bias": bias is not None}


def linear_backward(grad_out: np.ndarray, cache: dict):
    x, weight = cache["x"], cache["weight"]
    grad_w = grad_out.T @ x
    grad_b = grad_out.sum(axis=0) if cache["has_bias"] else None
    grad_x = grad_out @ weight
    return grad_x, grad_w, grad_b
