"""Integer convolution / linear kernels (bit-accurate CMSIS-NN emulation).

Each kernel computes the integer accumulator

    Phi = sum (X - Z_x) (W - Z_w)

with exact integer arithmetic over UINT-Q operand codes — the same
quantity the extended CMSIS-NN kernels accumulate in their MAC loop — and
leaves the requantization (ICN, folded-BN or thresholds) to the caller.

:func:`int_conv2d`, :func:`int_depthwise_conv2d` and :func:`int_linear`
contract in int64 ``einsum`` (large reductions K-tiled by
:func:`int_einsum_gemm`).  They never dispatch to BLAS and have no
magnitude restriction: they are the ground-truth reference of the
interpreted engine, which the compiled plan is tested against.

The compiled plan (:mod:`repro.inference.plan`) picks a faster tier per
layer with the exactness bounds defined here.  Every operand is an exact
small integer and every partial sum is bounded by
``k * (2^Qx - 1) * (2^Qw - 1)``; below ``2^24`` (float32) or ``2^53``
(float64) every intermediate of a float BLAS GEMM is exactly
representable, so the result equals the integer accumulator bit for bit
regardless of the summation order BLAS picks (the ``"blas"`` tier,
:func:`exact_gemm_dtype_for_bound`).  Past ``2^53`` the plan runs the
int64 einsum.  These reference kernels range-check their operand codes
on every call; the plan checks weight codes once at compile time and
input codes once at the network boundary.

The a-priori bound ``k * (2^Qx - 1) * (2^Qw - 1)`` assumes every weight
sits at the corner of its code range.  At compile time the actual shifted
weights are known, and :func:`refined_max_abs_accumulator` tightens the
bound to ``max_o sum_k |W_ok - Z_w| * max|X - Z_x|`` — every partial sum
of any BLAS summation order is bounded by it, per output channel, so a
layer whose a-priori bound demands float64 often drops to the 2x-faster
float32 tier once its real weights are inspected.
"""

from __future__ import annotations

import numpy as np

from repro.nn.functional import conv_output_size, im2col

#: Bits of the float64 significand: integer values of magnitude strictly
#: below ``2^53`` are exactly representable, so a float64 GEMM over such
#: integers is exact.
FLOAT64_EXACT_BITS = 53

#: Same bound for float32 (24-bit significand).  Depthwise reductions
#: (k = kh*kw) and narrow pointwise layers fit it even at 8x8 bits, and
#: sgemm doubles the throughput / halves the traffic of dgemm.
FLOAT32_EXACT_BITS = 24


def max_abs_accumulator(k_reduction: int, x_bits: int, w_bits: int) -> int:
    """Worst-case ``|Phi|`` of a length-``k_reduction`` MAC reduction.

    Assumes codes and zero points both lie in ``[0, 2^Q - 1]``, so each
    shifted operand is bounded by ``2^Q - 1`` in magnitude.
    """
    return k_reduction * (2 ** x_bits - 1) * (2 ** w_bits - 1)


def refined_max_abs_accumulator(w_shift: np.ndarray, z_x: int, x_bits: int) -> int:
    """Data-dependent worst-case ``|Phi|`` given the actual shifted weights.

    Every partial sum of ``sum_k (X_k - Z_x) W'_ok`` — under *any*
    summation order and over any subset of terms — is bounded by
    ``sum_k |W'_ok| * max|X - Z_x|``.  Output channels never mix inside
    one GEMM row, so the max over channels is a sound per-layer bound,
    usually far below the a-priori :func:`max_abs_accumulator` corner
    case.  The compiled plan uses it to pick the narrowest exact
    accumulator dtype per layer.

    ``w_shift`` stays in the signed dtype :func:`shift_weights` gave it
    (int16 for 8-bit codes): ``|W'|`` is taken there, which cannot
    overflow because that dtype holds ``-W'`` too, and only the row sums
    accumulate in int64.
    """
    x_mag = max(int(z_x), 2 ** x_bits - 1 - int(z_x))
    w2 = np.asarray(w_shift).reshape(w_shift.shape[0], -1)
    if w2.size == 0:
        return 0
    row = np.abs(w2).sum(axis=1, dtype=np.int64)
    return int(row.max()) * x_mag


def exact_gemm_dtype_for_bound(bound: int):
    """Narrowest float dtype whose significand holds every partial sum of
    a reduction with worst-case magnitude ``bound`` (None: no float dtype
    is exact and the integer fallback must run)."""
    if bound < (1 << FLOAT32_EXACT_BITS):
        return np.float32
    if bound < (1 << FLOAT64_EXACT_BITS):
        return np.float64
    return None


def check_codes(name: str, arr: np.ndarray, bits: int) -> None:
    """Validate that ``arr`` holds UINT-``bits`` codes (full min/max scan)."""
    qmax = 2 ** bits - 1
    if arr.size and (arr.min() < 0 or arr.max() > qmax):
        raise ValueError(f"{name} codes out of UINT{bits} range [0, {qmax}]")



def quantize_input_codes(
    x_real: np.ndarray, scale: float, zero_point: int, bits: int, dtype=np.int64
) -> np.ndarray:
    """Quantize real network inputs into UINT-``bits`` codes.

    The single boundary quantizer shared by the interpreted engine and
    the compiled plan, so their bit-exactness contract cannot drift.
    ``dtype`` selects the code container: the interpreted reference keeps
    int64, the compiled plan passes the uint8 container.
    """
    q = np.floor(np.asarray(x_real, dtype=np.float64) / scale)
    q = q + zero_point
    return np.clip(q, 0, 2 ** bits - 1).astype(dtype)


def gemm_reduction_length(kind: str, weight_shape) -> int:
    """MAC-reduction length k of one layer's GEMM, from its weight shape.

    ``kind`` is ``"conv"``/``"pw"`` (k = c_in*kh*kw), ``"dw"`` (k = kh*kw)
    or ``"fc"`` (k = in_features) — the single source of truth shared by
    the compiled plan and the deployment export.
    """
    if kind == "dw":
        return int(weight_shape[2]) * int(weight_shape[3])
    if kind == "fc":
        return int(weight_shape[1])
    return int(weight_shape[1]) * int(weight_shape[2]) * int(weight_shape[3])


_INT64 = np.dtype(np.int64)


def shifted_weight_dtype(container: np.dtype) -> np.dtype:
    """Signed dtype one step wider than an integer weight container:
    int16 for the uint8 codes of every paper width, int32 for uint16 and
    int64 for anything wider (or not an integer dtype at all).  The
    difference of two values of the container fits it."""
    container = np.dtype(container)
    if container.kind in "ui" and container.itemsize <= 2:
        return np.dtype(np.int16 if container.itemsize == 1 else np.int32)
    return _INT64


def shift_weights(w_codes: np.ndarray, z_w: np.ndarray | int, c_out: int) -> np.ndarray:
    """Zero-point-shifted weights ``W - Z_w``; ``z_w`` scalar or per-channel.

    The result is in :func:`shifted_weight_dtype` of the codes' container
    (int16 for uint8 codes), not int64: the compiled plan takes its
    bounds there and casts it once into its GEMM dtype, and the
    interpreted reference widens its own cached copy to int64 once.  A
    zero point outside the container's range would not fit that dtype,
    so such a layer is shifted in int64.
    """
    w_codes = np.asarray(w_codes)
    z_w_arr = np.asarray(z_w, dtype=np.int64).reshape(-1)
    if z_w_arr.size != 1 and z_w_arr.size != c_out:
        raise ValueError("per-channel z_w must have one entry per output channel")
    dtype = shifted_weight_dtype(w_codes.dtype)
    if dtype != _INT64 and z_w_arr.size:
        info = np.iinfo(w_codes.dtype)
        if z_w_arr.min() < info.min or z_w_arr.max() > info.max:
            dtype = _INT64
    # The zero points in the result dtype too: a subtraction that casts
    # an int64 operand runs numpy's buffered loop, ~3x slower.
    z_w_arr = z_w_arr.astype(dtype)
    if z_w_arr.size == 1:
        return np.subtract(w_codes, z_w_arr[0], dtype=dtype)
    return np.subtract(w_codes, z_w_arr.reshape((-1,) + (1,) * (w_codes.ndim - 1)), dtype=dtype)


#: Reduction-axis tile of the integer einsum GEMM.  A plain
#: ``ok,nkl->nol`` einsum re-streams the whole (K, L) operand from DRAM
#: for every output row once K*L leaves the last-level cache; tiling K
#: keeps each (k_block, L) slab hot across all O rows.  Integer addition
#: is associative, so any tiling is bit-exact.  Measured ~1.5x on a
#: K=4608 int64 contraction.
INT_GEMM_K_BLOCK = 512


# hot
def int_einsum_gemm(
    w2: np.ndarray,
    cols: np.ndarray,
    out: np.ndarray | None = None,
    k_block: int = INT_GEMM_K_BLOCK,
) -> np.ndarray:
    """Exact integer GEMM ``(O, K) @ (N, K, L) -> (N, O, L)``, K-tiled.

    The contraction dtype is the operands' (int64).  Reductions with
    ``K <= k_block`` run as one einsum; larger K accumulates per-tile
    partials so the exact-reference path stops thrashing on the wide
    pointwise layers (K = c_in up to 1024 in the model zoo).

    The tiled path allocates one output-sized partial per call — the
    zero-steady-state-allocation contract of the activation arena covers
    the float (BLAS) layers; a compiled layer past ``2^53`` over a wide
    reduction trades that guarantee for the tiling win.  ``out=None``
    (a fresh result) serves the interpreted reference engine.
    """
    n, k, l = cols.shape
    if k <= k_block:
        return np.einsum("ok,nkl->nol", w2, cols, optimize=True, out=out)
    if out is None:
        out = np.empty((n, w2.shape[0], l), dtype=np.result_type(w2, cols))  # analysis: ignore[hot-alloc] — reference engine (no arena)
    np.einsum("ok,nkl->nol", w2[:, :k_block], cols[:, :k_block], optimize=True, out=out)
    partial = np.empty_like(out)  # analysis: ignore[hot-alloc] — documented tiling tradeoff
    for k0 in range(k_block, k, k_block):
        k1 = min(k0 + k_block, k)
        np.einsum("ok,nkl->nol", w2[:, k0:k1], cols[:, k0:k1], optimize=True, out=partial)
        out += partial
    return out


#: Batch-blocking target of the stencil: taps iterate inside blocks whose
#: out/tmp/window working set stays around this size, so the accumulator
#: churns in cache instead of streaming from DRAM on every tap.
DW_STENCIL_BLOCK_BYTES = 2 << 20


# hot
def depthwise_stencil_accumulate(
    x_shift: np.ndarray,
    w_cols: np.ndarray,
    kh: int,
    kw: int,
    stride: int,
    out: np.ndarray,
    tmp: np.ndarray | None,
) -> np.ndarray:
    """Depthwise accumulation as a per-tap strided stencil, no im2col.

    ``x_shift`` is the zero-point-shifted, already zero-padded input
    ``(N, C, HP, WP)`` and ``w_cols`` the shifted weights ``(C, kh*kw)``
    in the *same* dtype.  Instead of materialising the unfolded
    ``(N, C, kh*kw, OH*OW)`` column tensor (a ``kh*kw``-fold copy of the
    input — what makes large depthwise layers memory-bound), the kernel
    makes one multiply-add pass per kernel tap over a strided window view
    of the input, accumulating straight into the output-sized buffer.
    Taps run innermost over batch blocks of ~``DW_STENCIL_BLOCK_BYTES``
    so the accumulator stays cache-resident across the tap sweep.

    Exactness matches the GEMM tiers: every tap product is bounded by
    ``(2^Qx - 1) * (2^Qw - 1)`` and every partial sum by
    ``k * (2^Qx - 1) * (2^Qw - 1)``, so whenever that bound fits the
    float significand (the same 2^24 / 2^53 dispatch as
    :func:`exact_gemm_dtype_for_bound`) every float intermediate is an exact
    integer; over int64 it is exact unconditionally.

    ``out`` and ``tmp`` are preallocated ``(N, C, OH, OW)`` buffers;
    ``out`` must not alias ``x_shift``, and ``tmp`` may be ``None`` only
    for a single-tap (1x1) kernel.

    The compiled plan does not call it: it unfolds each depthwise layer
    in cache-sized tiles (:data:`repro.inference.arena.DW_TILE_BYTES`),
    and unfold plus matmul over those tiles beat this kernel by 1.3-1.8x
    on every depthwise layer of MobileNetV1 224_1.0 at batch 8 (2-vCPU
    Xeon, OpenBLAS).
    """
    n, c, hp, wp = x_shift.shape
    oh = (hp - kh) // stride + 1
    ow = (wp - kw) // stride + 1
    itemsize = x_shift.dtype.itemsize
    per_channel = 3 * oh * ow * itemsize
    c_block = max(1, DW_STENCIL_BLOCK_BYTES // max(per_channel, 1))
    if c_block >= c:
        # Whole channel ranges fit the target: block over the batch.
        c_block = c
        n_block = max(1, DW_STENCIL_BLOCK_BYTES // max(per_channel * c, 1))
    else:
        n_block = 1
    i_stops = [
        (i, j, i + stride * (oh - 1) + 1, j + stride * (ow - 1) + 1)
        for i, j in (divmod(idx, kw) for idx in range(kh * kw))
    ]
    for b0 in range(0, n, n_block):
        b1 = min(b0 + n_block, n)
        for c0 in range(0, c, c_block):
            c1 = min(c0 + c_block, c)
            x_b = x_shift[b0:b1, c0:c1]
            out_b = out[b0:b1, c0:c1]
            tmp_b = None if tmp is None else tmp[b0:b1, c0:c1]
            for idx, (i, j, i_stop, j_stop) in enumerate(i_stops):
                window = x_b[:, :, i:i_stop:stride, j:j_stop:stride]
                tap = w_cols[c0:c1, idx].reshape(1, c1 - c0, 1, 1)
                if idx == 0:
                    np.multiply(window, tap, out=out_b)
                else:
                    np.multiply(window, tap, out=tmp_b)
                    out_b += tmp_b
    return out


def int_conv2d(
    x_codes: np.ndarray,
    w_codes: np.ndarray,
    z_x: int,
    z_w: np.ndarray | int,
    stride: int = 1,
    padding: int = 0,
    x_bits: int = 8,
    w_bits: int = 8,
    w_shift: np.ndarray | None = None,
) -> np.ndarray:
    """Integer accumulator of a standard convolution (int64 reference).

    ``x_codes``: (N, C_in, H, W) unsigned codes; ``w_codes``: (C_out, C_in,
    kh, kw).  ``z_w`` may be a scalar (per-layer) or a per-output-channel
    vector (per-channel).  Zero padding pads with the code ``z_x`` so that
    the padded positions represent the real value 0, as the MCU kernel
    does.  ``w_shift`` optionally supplies the pre-shifted weights
    (``w_codes - z_w``, widened to int64) so callers that run repeatedly can hoist the
    shift out of the per-inference path.
    """
    check_codes("activation", x_codes, x_bits)
    check_codes("weight", w_codes, w_bits)
    n, c_in, h, w = x_codes.shape
    c_out, _, kh, kw = w_codes.shape
    if w_shift is None:
        w_shift = shift_weights(w_codes, z_w, c_out).astype(np.int64, copy=False)
    # Shift activations by Z_x before im2col so zero padding contributes 0.
    x_shift = np.subtract(x_codes, int(z_x), dtype=np.int64)
    cols = im2col(x_shift, kh, kw, stride, padding)
    phi = int_einsum_gemm(w_shift.reshape(c_out, -1), cols)
    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(w, kw, stride, padding)
    return phi.reshape(n, c_out, oh, ow)


def int_depthwise_conv2d(
    x_codes: np.ndarray,
    w_codes: np.ndarray,
    z_x: int,
    z_w: np.ndarray | int,
    stride: int = 1,
    padding: int = 0,
    x_bits: int = 8,
    w_bits: int = 8,
    w_shift: np.ndarray | None = None,
) -> np.ndarray:
    """Integer accumulator of a depthwise convolution (int64 im2col
    reference).

    ``w_codes`` has shape (C, 1, kh, kw); the per-channel ``z_w`` vector
    has one entry per channel.  This is the unfold-then-contract ground
    truth the stencil kernel (:func:`depthwise_stencil_accumulate`) is
    property-tested against.
    """
    check_codes("activation", x_codes, x_bits)
    check_codes("weight", w_codes, w_bits)
    n, c, h, w = x_codes.shape
    kh, kw = w_codes.shape[2], w_codes.shape[3]
    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(w, kw, stride, padding)
    if w_shift is None:
        try:
            w_shift = shift_weights(w_codes, z_w, c).astype(np.int64, copy=False)
        except ValueError:
            raise ValueError("per-channel z_w must have one entry per channel") from None
    x_shift = np.subtract(x_codes, int(z_x), dtype=np.int64)
    cols = im2col(x_shift, kh, kw, stride, padding)
    cols = cols.reshape(n, c, kh * kw, oh * ow)
    phi = np.einsum("ck,nckl->ncl", w_shift.reshape(c, kh * kw), cols, optimize=True)
    return phi.reshape(n, c, oh, ow)


def int_linear(
    x_codes: np.ndarray,
    w_codes: np.ndarray,
    z_x: int,
    z_w: np.ndarray | int,
    x_bits: int = 8,
    w_bits: int = 8,
    w_shift: np.ndarray | None = None,
) -> np.ndarray:
    """Integer accumulator of a fully connected layer (int64 reference).

    ``x_codes``: (N, in_features); ``w_codes``: (out_features, in_features).
    """
    check_codes("activation", x_codes, x_bits)
    check_codes("weight", w_codes, w_bits)
    if w_shift is None:
        try:
            w_shift = shift_weights(w_codes, z_w, w_codes.shape[0]).astype(np.int64, copy=False)
        except ValueError:
            raise ValueError("per-channel z_w must have one entry per output feature") from None
    return np.subtract(x_codes, int(z_x), dtype=np.int64) @ w_shift.T


# hot
def int_avg_pool_global(x_codes: np.ndarray) -> np.ndarray:
    """Integer global average pooling with floor rounding.

    CMSIS-NN pools in the integer domain; the result keeps the input's
    scale and zero point (averaging is affine-invariant up to the floor).
    """
    n, c, h, w = x_codes.shape
    total = x_codes.astype(np.int64, copy=False).sum(axis=(2, 3), dtype=np.int64)
    return np.floor_divide(total, h * w).reshape(n, c)
