"""Integer Channel-Normalization (ICN) conversion (paper §4, Eq. 3–5).

A fake-quantized sub-graph ``conv -> batch-norm -> quant_act`` computes

    y = quant_act((phi - mu)/sigma * gamma + beta),   phi = sum x*w  (Eq. 3)

With the affine quantization rules of the input (scale ``S_i``, zero
``Z_x``), the weights (``S_w``, ``Z_w``, possibly per-channel) and the
output activation (``S_o``, ``Z_y``), the integer-only form is

    Y = clamp(Z_y + floor(M0 * 2^N0 * (Phi + Bq)), 0, 2^Q - 1)     (Eq. 5)

where ``Phi = sum (X - Z_x)(W - Z_w)`` is the integer convolution output,
``Bq = round((B - mu + beta*sigma/gamma) / (S_i S_w))`` the quantized
bias, and ``M = S_i S_w gamma / (S_o sigma)`` decomposed per channel as
``M = M0 * 2^N0`` with ``0.5 <= |M0| < 1`` stored as a signed Q31
fixed-point mantissa.

Two alternative requantization strategies are provided for comparison:

* **Folded batch-norm** (PL+FB, [11]): gamma/sigma is folded into the
  weights before quantization, leaving a per-layer scalar multiplier.
* **Integer thresholds** ([21, 8]): each of the ``2^Q`` output levels of a
  channel gets an explicit INT32 threshold on ``Phi``; the output is the
  index of the bracketing interval.  Lossless but ``c_O * 2^Q`` thresholds
  of memory (Table 1, last row).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

# Number of fractional bits of the M0 mantissa (signed Q31, stored INT32).
M0_FRACTIONAL_BITS = 31

#: Largest right shift of Eq. 5's fixed-point scaling (``2^62`` is the
#: largest power-of-two divisor int64 holds).  Every implementation of
#: Eq. 5 clamps a longer shift (a multiplier below ``2^-31``) to it.
MAX_RSHIFT = 62


# ----------------------------------------------------------------------
# Fixed-point decomposition
# ----------------------------------------------------------------------
def decompose_fixed_point(m: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Decompose each element of ``m`` as ``m = m0 * 2^n0``.

    ``m0`` is a signed fractional value with ``0.5 <= |m0| < 1`` (zero maps
    to zero) and ``n0`` an integer exponent, as required by Eq. 5.  Returns
    ``(m0, n0)`` as float64 / int64 arrays of the same shape as ``m``.
    """
    m = np.asarray(m, dtype=np.float64)
    m0 = np.zeros_like(m)
    n0 = np.zeros(m.shape, dtype=np.int64)
    nonzero = m != 0
    if np.any(nonzero):
        mant, exp = np.frexp(m[nonzero])  # m = mant * 2^exp, 0.5 <= |mant| < 1
        m0[nonzero] = mant
        n0[nonzero] = exp
    return m0, n0


def quantize_mantissa(m0: np.ndarray, frac_bits: int = M0_FRACTIONAL_BITS) -> np.ndarray:
    """Round the fractional mantissa to a signed fixed-point integer."""
    return np.round(np.asarray(m0, dtype=np.float64) * (1 << frac_bits)).astype(np.int64)


def quantize_multiplier(m: np.ndarray, frac_bits: int = M0_FRACTIONAL_BITS):
    """Decompose real multipliers into (INT32 mantissa, exponent) pairs.

    Combines :func:`decompose_fixed_point` and :func:`quantize_mantissa`
    and renormalises the corner case where rounding pushes the mantissa to
    exactly ``±2^frac_bits`` (i.e. |m0| = 1.0), which must be re-expressed
    as ``±2^(frac_bits-1)`` with the exponent incremented to stay inside
    the signed fixed-point range.
    """
    m0_f, n0 = decompose_fixed_point(m)
    m0_int = quantize_mantissa(m0_f, frac_bits)
    limit = 1 << frac_bits
    overflow = np.abs(m0_int) >= limit
    if np.any(overflow):
        m0_int = np.where(overflow, np.sign(m0_int) * (limit >> 1), m0_int)
        n0 = np.where(overflow, n0 + 1, n0)
    return m0_int.astype(np.int64), n0.astype(np.int64)


def mantissa_to_float(m0_int: np.ndarray, frac_bits: int = M0_FRACTIONAL_BITS) -> np.ndarray:
    """Inverse of :func:`quantize_mantissa`."""
    return np.asarray(m0_int, dtype=np.float64) / (1 << frac_bits)


# ----------------------------------------------------------------------
# Parameter containers
# ----------------------------------------------------------------------
@dataclass
class ICNParams:
    """Static integer parameters of one ICN layer (Eq. 5).

    All arrays have length ``c_O``.  ``m0`` is the INT32 fixed-point
    mantissa (Q31), ``n0`` the INT8 exponent, ``bq`` the INT32 bias.
    """

    weights_q: np.ndarray          # UINT-Qw integer weight codes
    z_w: np.ndarray                # weight zero-point(s): scalar (PL) or per-channel (PC)
    z_x: int                       # input activation zero-point
    z_y: int                       # output activation zero-point
    bq: np.ndarray                 # INT32 quantized bias, per channel
    m0: np.ndarray                 # INT32 fixed-point mantissa, per channel
    n0: np.ndarray                 # INT8 exponent, per channel
    out_bits: int                  # Q of the output activation
    w_bits: int                    # Q of the weights
    per_channel: bool

    @property
    def out_channels(self) -> int:
        return int(self.bq.shape[0])


@dataclass
class FoldedBNParams:
    """Static parameters of the folded-batch-norm deployment (PL+FB, [11]).

    The BN scale is folded into the weights, so requantization only needs a
    per-layer scalar multiplier ``m0 * 2^n0`` plus a per-channel bias.
    """

    weights_q: np.ndarray
    z_w: int
    z_x: int
    z_y: int
    bq: np.ndarray
    m0: int
    n0: int
    out_bits: int
    w_bits: int


@dataclass
class ThresholdParams:
    """Per-channel integer thresholds ([21, 8]): ``c_O x 2^Q`` INT32 values.

    ``thresholds[c, j]`` is the smallest ``Phi`` for which the output of
    channel ``c`` is at least ``j``; ``direction[c]`` is +1 when the
    channel's transfer function is increasing in ``Phi`` and -1 otherwise
    (a negative batch-norm gamma flips the monotonicity).
    """

    weights_q: np.ndarray
    z_w: np.ndarray
    z_x: int
    thresholds: np.ndarray
    direction: np.ndarray
    out_bits: int
    w_bits: int


# ----------------------------------------------------------------------
# Conversion from fake-quantized parameters
# ----------------------------------------------------------------------
def _as_channel_vector(value, c_o: int) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64).reshape(-1)
    if arr.size == 1:
        return np.full(c_o, float(arr[0]))
    if arr.size != c_o:
        raise ValueError(f"expected scalar or length-{c_o} vector, got size {arr.size}")
    return arr


def compute_icn_params(
    weights_q: np.ndarray,
    s_w: np.ndarray | float,
    z_w: np.ndarray | int,
    s_in: float,
    z_x: int,
    s_out: float,
    z_y: int,
    out_bits: int,
    w_bits: int,
    bn_gamma: np.ndarray,
    bn_beta: np.ndarray,
    bn_mean: np.ndarray,
    bn_std: np.ndarray,
    conv_bias: Optional[np.ndarray] = None,
    per_channel: bool = False,
) -> ICNParams:
    """Derive the ICN parameters of Eq. 4–5 for one layer.

    ``bn_std`` is ``sqrt(var + eps)`` (the ``sigma`` of Eq. 3).  When the
    layer has no batch normalisation pass ``gamma=1, beta=0, mean=0,
    std=1``.  ``s_w``/``z_w`` may be scalars (PL) or per-channel vectors
    (PC).
    """
    c_o = weights_q.shape[0]
    gamma = _as_channel_vector(bn_gamma, c_o)
    beta = _as_channel_vector(bn_beta, c_o)
    mu = _as_channel_vector(bn_mean, c_o)
    sigma = _as_channel_vector(bn_std, c_o)
    s_w_vec = _as_channel_vector(s_w, c_o)
    bias = _as_channel_vector(conv_bias if conv_bias is not None else 0.0, c_o)

    if np.any(sigma <= 0):
        raise ValueError("batch-norm std must be strictly positive")
    # A zero (or denormal) gamma makes Eq. 4's beta*sigma/gamma undefined;
    # clamp its magnitude so the channel degrades gracefully instead of
    # producing non-finite parameters.  BN gammas of trained networks are
    # far from this regime.
    tiny = np.abs(gamma) < 1e-6
    if np.any(tiny):
        gamma = np.where(tiny, np.where(gamma < 0, -1e-6, 1e-6), gamma)

    int32_min, int32_max = -(2 ** 31), 2 ** 31 - 1
    # Eq. 4: Bq = round((B - mu + beta*sigma/gamma) / (S_i * S_w)), stored INT32.
    bq_real = np.round((bias - mu + beta * sigma / gamma) / (s_in * s_w_vec))
    bq = np.clip(bq_real, int32_min, int32_max).astype(np.int64)
    # M = S_i S_w gamma / (S_o sigma), per channel.
    m = s_in * s_w_vec * gamma / (s_out * sigma)
    m0, n0 = quantize_multiplier(m)

    z_w_arr = np.asarray(z_w, dtype=np.int64).reshape(-1)
    if not per_channel and z_w_arr.size != 1:
        raise ValueError("per-layer conversion expects a scalar weight zero point")
    if per_channel and z_w_arr.size == 1:
        z_w_arr = np.full(c_o, int(z_w_arr[0]), dtype=np.int64)

    return ICNParams(
        # Keep the quantizer's narrow container dtype (uint8 for <= 8-bit
        # codes); the kernels widen on the fly inside their GEMM loops.
        weights_q=np.asarray(weights_q),
        z_w=z_w_arr,
        z_x=int(z_x),
        z_y=int(z_y),
        bq=bq,
        m0=m0,
        n0=n0.astype(np.int64),
        out_bits=out_bits,
        w_bits=w_bits,
        per_channel=per_channel,
    )


def compute_folded_params(
    weights_folded_q: np.ndarray,
    s_w: float,
    z_w: int,
    s_in: float,
    z_x: int,
    s_out: float,
    z_y: int,
    out_bits: int,
    w_bits: int,
    folded_bias: np.ndarray,
) -> FoldedBNParams:
    """Deployment parameters of the PL+FB strategy ([11]).

    ``weights_folded_q`` are the integer codes of the *folded* weights
    (gamma/sigma already multiplied in) under a per-layer scale ``s_w``;
    ``folded_bias`` is the per-channel real-valued bias
    ``beta - gamma*mu/sigma`` (plus any conv bias).
    """
    c_o = weights_folded_q.shape[0]
    bq = np.round(_as_channel_vector(folded_bias, c_o) / (s_in * s_w)).astype(np.int64)
    m0, n0 = quantize_multiplier(np.array([s_in * s_w / s_out]))
    return FoldedBNParams(
        weights_q=np.asarray(weights_folded_q),
        z_w=int(z_w),
        z_x=int(z_x),
        z_y=int(z_y),
        bq=bq,
        m0=int(m0[0]),
        n0=int(n0[0]),
        out_bits=out_bits,
        w_bits=w_bits,
    )


def compute_thresholds(icn: ICNParams) -> ThresholdParams:
    """Integer-threshold parameters equivalent to an ICN layer ([21, 8]).

    For each output channel ``c`` with multiplier ``M_c = m0_c * 2^{n0_c}``
    the output level is ``Y = clamp(Z_y + floor(M_c (Phi + Bq_c)), 0,
    2^Q-1)``, a monotone staircase in ``Phi``.  ``thresholds[c, j]`` stores
    the smallest integer ``Phi`` that yields ``Y >= j`` (largest when the
    channel is decreasing), so inference reduces to one binary search per
    output value.
    """
    levels = 2 ** icn.out_bits
    c_o = icn.out_channels
    thresholds = np.zeros((c_o, levels), dtype=np.int64)
    direction = np.ones(c_o, dtype=np.int64)
    int64_max = np.iinfo(np.int64).max
    int64_min = np.iinfo(np.int64).min
    for c in range(c_o):
        m0 = int(icn.m0[c])
        n0 = int(icn.n0[c])
        bq = int(icn.bq[c])
        direction[c] = 1 if m0 >= 0 else -1
        for j in range(levels):
            target = j - icn.z_y
            if m0 == 0:
                # Constant channel: output is always clamp(Zy, ...); every
                # positive level is unreachable.
                thresholds[c, j] = int64_max if target > 0 else int64_min
                continue
            # Exact integer condition, with the shift split and clamped as
            # in _fixed_point_scale (r = min(31-n0, MAX_RSHIFT), l = n0-31):
            #   Y >= j <=> floor(m0 * (Phi+Bq) / 2^r) >= target
            #          <=> m0 * (Phi+Bq) >= target * 2^r            (n0 <= 31)
            #   Y >= j <=> m0 * (Phi+Bq) >= ceil(target / 2^l)     (n0 > 31)
            # (arbitrary-precision Python ints avoid any overflow).
            shift = M0_FRACTIONAL_BITS - n0
            if shift >= 0:
                rhs = target << min(shift, MAX_RSHIFT)
            else:
                rhs = -((-target) >> -shift)
            if m0 > 0:
                # Phi + Bq >= ceil(rhs / m0)
                bound = -((-rhs) // m0) - bq
            else:
                # Dividing by a negative flips the inequality:
                # Phi + Bq <= floor(rhs / m0)
                bound = (rhs // m0) - bq
            thresholds[c, j] = int(np.clip(bound, int64_min, int64_max))
    return ThresholdParams(
        weights_q=icn.weights_q,
        z_w=icn.z_w,
        z_x=icn.z_x,
        thresholds=thresholds,
        direction=direction,
        out_bits=icn.out_bits,
        w_bits=icn.w_bits,
    )


# ----------------------------------------------------------------------
# Integer requantization (the arithmetic of Eq. 5)
# ----------------------------------------------------------------------
def _fixed_point_scale(acc: np.ndarray, m0_int: np.ndarray, n0: np.ndarray) -> np.ndarray:
    """Integer-exact ``floor(m0 * 2^n0 * acc)`` with ``m0 = m0_int / 2^31``.

    ``floor`` of the scaled value is an exact arithmetic shift:
    ``floor_divide(m0_int * acc, 2^(31 - n0))``.  The product
    ``m0_int * acc`` (shifted left when ``n0 > 31``) is formed in int64,
    which holds it for every layer of the model zoo (|acc| < 2^32,
    |m0_int| <= 2^31).  Where some ``|acc|`` exceeds its channel's
    ``(2^63 - 1 >> lshift) // |m0_int|`` the product would wrap, so this
    raises ``OverflowError`` instead of returning wrong codes.
    """
    m0_int = m0_int.astype(np.int64, copy=False)
    acc = acc.astype(np.int64, copy=False)
    shift = M0_FRACTIONAL_BITS - n0.astype(np.int64)
    # shift >= 0 is the practical case (M < 2^31); guard the other branch.
    # Shifts beyond MAX_RSHIFT would overflow the int64 divisor; they
    # correspond to multipliers below 2^-31, whose scaled output is 0 (or
    # -1 for negative accumulators under floor) while |m0 * acc| < 2^62;
    # past that, the clamped shift defines Eq. 5 here.
    pos = np.minimum(np.maximum(shift, 0), MAX_RSHIFT)
    neg = np.maximum(-shift, 0)
    # A zero mantissa never overflows: its channel's reach is unbounded.
    reach = np.where(
        m0_int == 0, np.iinfo(np.int64).max,
        np.right_shift(np.int64(2 ** 63 - 1), np.minimum(neg, 63))
        // np.maximum(np.abs(m0_int), 1),
    )
    if np.any((acc > reach) | (acc < -reach)):
        raise OverflowError(
            "Eq. 5 fixed-point product m0 * (Phi + Bq) overflows int64: an "
            "accumulator exceeds its channel's (2^63-1 >> lshift) // |m0|"
        )
    prod = m0_int * acc
    scaled = np.floor_divide(prod, np.left_shift(np.int64(1), pos))
    return np.left_shift(scaled, neg)


def icn_requantize(
    phi: np.ndarray,
    params: ICNParams,
    channel_axis: int = 1,
) -> np.ndarray:
    """Apply Eq. 5 to an integer accumulator tensor ``phi``.

    ``phi`` holds the integer convolution output ``sum (X-Zx)(W-Zw)``; the
    channel dimension is ``channel_axis``.  All arithmetic is integer-only
    (int64 accumulators, fixed-point multiply, arithmetic shift), matching
    what the MCU kernel executes.
    """
    shape = [1] * phi.ndim
    shape[channel_axis] = -1
    m0 = params.m0.reshape(shape)
    n0 = params.n0.reshape(shape)
    bq = params.bq.reshape(shape)
    acc = phi.astype(np.int64, copy=False) + bq
    y = params.z_y + _fixed_point_scale(acc, m0, n0)
    return np.clip(y, 0, 2 ** params.out_bits - 1).astype(np.int64, copy=False)


def folded_requantize(phi: np.ndarray, params: FoldedBNParams, channel_axis: int = 1) -> np.ndarray:
    """Requantization of the PL+FB strategy: per-layer scalar multiplier."""
    shape = [1] * phi.ndim
    shape[channel_axis] = -1
    bq = params.bq.reshape(shape)
    acc = phi.astype(np.int64, copy=False) + bq
    y = params.z_y + _fixed_point_scale(
        acc, np.array([params.m0], dtype=np.int64), np.array([params.n0], dtype=np.int64)
    )
    return np.clip(y, 0, 2 ** params.out_bits - 1).astype(np.int64, copy=False)


def threshold_requantize(phi: np.ndarray, params: ThresholdParams, channel_axis: int = 1) -> np.ndarray:
    """Requantization via per-channel integer thresholds ([21, 8]).

    The output of channel ``c`` is the number of thresholds passed by
    ``Phi`` in the channel's monotone direction.
    """
    levels = 2 ** params.out_bits
    moved = np.moveaxis(phi, channel_axis, 0)
    out = np.zeros_like(moved)
    for c in range(moved.shape[0]):
        th = params.thresholds[c]
        vals = moved[c]
        if params.direction[c] > 0:
            # Count thresholds j >= 1 with Phi >= th[j]; th is non-decreasing.
            y = np.searchsorted(th[1:], vals, side="right")
        else:
            # Decreasing channel: thresholds are non-increasing in j.
            rev = th[1:][::-1]
            y = levels - 1 - np.searchsorted(rev, vals, side="left")
        out[c] = np.clip(y, 0, levels - 1)
    return np.moveaxis(out, 0, channel_axis).astype(np.int64, copy=False)
