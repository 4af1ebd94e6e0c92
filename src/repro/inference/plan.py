"""Compile-then-execute inference: the :class:`ExecutionPlan` subsystem.

``IntegerNetwork.compile()`` walks the deployment graph once and hoists
everything that does not depend on the input batch out of the
per-inference path:

* weight tensors are zero-point-shifted and reshaped to GEMM form once,
  from the narrow codes: the shift lands in the signed dtype one step
  wider than the code container (int16 for uint8 codes,
  :func:`~repro.inference.kernels.shift_weights`), the accumulator
  bound and split-K cut are taken there, and one cast makes the GEMM
  operand, so compiling holds no int64 copy of a weight tensor;
* each layer's GEMM backend follows from its *weight-data refined*
  accumulator bound ``max_o sum_k |W_ok - Z_w| * max|X - Z_x|``
  (:func:`repro.inference.kernels.refined_max_abs_accumulator`) alone:
  float32 BLAS when that bound fits the 24-bit significand (2x the
  throughput of float64 — most wide pointwise layers clear it even
  though the a-priori corner-case bound does not), float64 BLAS below
  ``2^53`` (split into a few float32 GEMMs where each K-chunk fits),
  and the K-tiled int64 einsum only past ``2^53``;
* a depthwise layer runs as a loop over cache-sized tiles — blocks of
  whole images, or channel blocks of one image — each unfolded into a
  fixed region of at most ``DW_TILE_BYTES``, contracted and requantized
  before the next is unfolded, like the CMSIS-NN kernels' small im2col
  buffer; a stride-1 layer unfolds on a wide row grid, one contiguous
  copy per (image, channel, tap);
* fixed-point requantization (Eq. 5) is folded into per-channel
  constants for the flat ``(N, C, L)`` accumulator layout and runs as a
  short float64 or int64 epilogue, the tier picked from the layer's
  accumulator bound and re-proved by :mod:`repro.analysis.verify` (a
  layer that would overflow the int64 tier does not compile);
  threshold tables are pre-sliced for ``searchsorted``;
* weight codes are range-checked once at compile time, and input codes
  once at the network boundary (``run_codes`` always checks them)
  instead of per layer inside the hot loop;
* activation codes live at their *container width* end to end: uint8
  slabs for every <=8-bit activation, requantized accumulators streamed
  through a small cache-blocked scratch straight into the code slab —
  the arena's physical code bytes match the paper's Eq. 7 accounting
  for 8-bit networks;
* activation and scratch buffers are views of the plan's one slab set,
  sized by a static :class:`~repro.inference.arena.ActivationArena` per
  input geometry to the largest geometry and batch that has run, and
  bound once per input shape, so steady-state inference performs no
  per-layer allocations and peak host activation memory equals the
  compile-time plan.

The plan executes bit-identically to ``IntegerNetwork.forward`` — the
tests assert equality against the int64 einsum reference — and
``run_batched`` streams large evaluation sweeps through the arena in
fixed-size tiles, writing into a preallocated result, so activation
memory stays bounded by one tile regardless of the sweep size.
"""

from __future__ import annotations

import bisect
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.icn import (
    M0_FRACTIONAL_BITS,
    MAX_RSHIFT,
    FoldedBNParams,
    ICNParams,
    ThresholdParams,
)
from repro.inference.arena import (
    ActivationArena,
    SlabSet,
    balanced_blocks,
    depthwise_blocking,
    depthwise_channel_bytes,
    depthwise_columns,
    plan_activations,
    unfolds_rows,
)
from repro.inference.kernels import (
    FLOAT32_EXACT_BITS,
    FLOAT64_EXACT_BITS,
    check_codes,
    exact_gemm_dtype_for_bound,
    gemm_reduction_length,
    int_avg_pool_global,
    int_einsum_gemm,
    max_abs_accumulator,
    quantize_input_codes,
    refined_max_abs_accumulator,
    shift_weights,
)
# Not called by the plan; perfbench wraps this name to count stencil
# layers, so it stays importable from here.
from repro.inference.kernels import depthwise_stencil_accumulate  # noqa: F401  # analysis: ignore[unused-import]
from repro.inference.packing import container_dtype
from repro.nn.functional import conv_output_size, im2col

_INT64 = np.dtype(np.int64)

#: Input shapes ``(N, C, H, W)`` whose bound views one plan keeps (the
#: least recently used is dropped first): every batch size up to the
#: serving default ``max_batch`` (8) of eight geometries, so a fleet that
#: rotates a few smaller geometries through one plan stays bound.  One
#: bound trunk is ~70 KiB of view objects on MobileNetV1 128_0.5 at
#: batch 1 (~290 KiB at batch 8); an evicted shape just binds again
#: (~0.5 ms at 128_0.5 batch 1) on its next call.
MAX_BOUND_SHAPES = 64

#: Output features per block of the classifier's transposing cast.
_TRANSPOSE_BLOCK = 256

#: Columns between two stored prefix sums of the split-K cut search.
_SPLIT_K_BLOCK = 32

#: Most K-chunks a split-K sgemm layer may use.  Each chunk is one sgemm
#: call plus one accumulate pass; past a few chunks the float64 GEMM is
#: the better deal again.
_SPLIT_K_MAX_CHUNKS = 4


def _split_k_chunks(w_shift: np.ndarray, z_x: int, x_bits: int):
    """Greedy K-partition whose per-chunk refined bounds fit float32.

    A float64-tier GEMM whose refined bound only just exceeds ``2^24``
    can run as a few float32 GEMMs over reduction chunks: every partial
    sum inside one chunk is bounded by that chunk's refined bound (sound
    per output channel, any summation order), so each sgemm is exact,
    and the chunk results — exact integers — are summed exactly in
    float64.  Returns the chunk boundaries, or None when a single chunk
    suffices (plain sgemm) or more than ``_SPLIT_K_MAX_CHUNKS`` would be
    needed (float64 stays the better deal).

    A chunk ends just before the first column where some row's sum of
    ``|W'| * x_mag`` since the chunk's start reaches ``2^24``.  Those
    sums never decrease along K, so a binary search over per-row
    prefix sums of ``|W'|`` finds that column.  ``|W'|`` is taken in the
    shifted weights' own narrow dtype, and the prefix sums run in the
    narrowest integer dtype that holds ``K * max|W'|``.  They are kept
    at every :data:`_SPLIT_K_BLOCK`-th column only, and a probe between
    two adds the columns since the last (a full per-column cumulative
    sum is numpy's scalar accumulate loop, ~3 ns per weight).
    """
    x_mag = max(int(z_x), 2 ** x_bits - 1 - int(z_x))
    # An integer sum s has s * x_mag >= 2^24 exactly when s >= limit.
    limit = -(-(1 << FLOAT32_EXACT_BITS) // x_mag)
    w_abs = np.abs(w_shift.reshape(w_shift.shape[0], -1))
    k = w_abs.shape[1]
    top = k * int(w_abs.max()) if w_abs.size else 0
    sum_dtype = next(
        (dt for dt in (np.int16, np.int32) if top <= np.iinfo(dt).max), np.int64)
    # blocks[:, q] sums the columns [0, q * _SPLIT_K_BLOCK).
    blocks = np.zeros((w_abs.shape[0], -(-k // _SPLIT_K_BLOCK) + 1), dtype=sum_dtype)
    np.cumsum(np.add.reduceat(w_abs, np.arange(0, k, _SPLIT_K_BLOCK), axis=1,
                              dtype=sum_dtype), axis=1, out=blocks[:, 1:])

    def prefix(j: int) -> np.ndarray:
        """Every row's sum over columns ``[0, j)``."""
        q, r = divmod(j, _SPLIT_K_BLOCK)
        if not r:
            return blocks[:, q]
        return blocks[:, q] + w_abs[:, j - r:j].sum(axis=1, dtype=sum_dtype)

    def overflows(k0: int, k1: int) -> bool:
        """Whether some row's sum over columns ``[k0, k1)`` reaches the limit."""
        return int((prefix(k1) - prefix(k0)).max()) >= limit

    bounds = [0]
    while bounds[-1] < k and len(bounds) <= _SPLIT_K_MAX_CHUNKS:
        start = bounds[-1]
        bounds.append(start + 1 + bisect.bisect_left(
            range(start + 1, k), True, key=lambda j: overflows(start, j + 1)))
    chunks = list(zip(bounds[:-1], bounds[1:]))
    # Past the cap, or one chunk: float64 or plain sgemm.  Soundness
    # guard: a single column can never exceed the limit for the paper's
    # bit widths, but refuse rather than split unsoundly.
    if bounds[-1] < k or len(chunks) < 2 or any(overflows(*c) for c in chunks):
        return None
    return chunks


def _resolve_compiled_backend(bound: int) -> Tuple[str, np.dtype]:
    """Backend + accumulator dtype for one compiled layer.

    ``bound`` is the refined (weight-data) worst-case ``|Phi|``; it is
    never larger than the a-priori ``k * (2^Qx-1) * (2^Qw-1)`` corner
    case, so layers whose corner case overflows float32 often still get
    the exact sgemm tier here.  Past ``2^53`` no float dtype is exact and
    the layer runs the int64 einsum.
    """
    float_dtype = exact_gemm_dtype_for_bound(bound)
    if float_dtype is not None:
        return "blas", np.dtype(float_dtype)
    return "int64", _INT64


# ----------------------------------------------------------------------
# Compiled requantization (bit-identical to repro.core.icn on (N, C, L))
# ----------------------------------------------------------------------
def _float64_tier_fits(acc_bound: int, m_int: np.ndarray, b_int: np.ndarray,
                       rshift: np.ndarray, z_y: int) -> bool:
    """Whether ``max_c acc_bound*|M_c| + |C_c| < 2^53``, conservatively,
    without a per-channel Python loop.

    ``C = B + (z_y << rshift)`` may not fit int64 (``z_y << 62``), so the
    bound is estimated in float64: ``z_y * 2^rshift`` is exact there and
    ``|B| < 2^63``, so near the edge the estimate is off by less than
    ``2^11``.  A layer whose estimate comes within ``2^11`` of ``2^53``
    takes the int64 tier.
    """
    est = float(np.max(
        np.abs(b_int + np.ldexp(float(z_y), rshift)) + float(acc_bound) * np.abs(m_int)
    ))
    return est < 2.0 ** FLOAT64_EXACT_BITS - 2.0 ** 11


def _int64_tier_fits(acc_bound: int, m0: np.ndarray, bq: np.ndarray,
                     lshift: np.ndarray, z_y: int) -> bool:
    """Whether ``max_c acc_bound*|M_c| + |B_c|``, then ``>> rshift`` and
    ``+ z_y``, stays below ``2^63`` (the verifier's ``requant-shift``
    bound), conservatively, without a per-channel Python loop.

    Estimated in float64 from ``m0``, ``bq`` and ``lshift``, so a folded
    ``M`` or ``B`` that wrapped int64 cannot hide: with ``|M| = |m0|
    2^lshift`` and ``|B| = |bq| |M|`` the sum is
    ``(acc_bound + |bq|) |m0| 2^lshift``, and ``>> rshift`` only shrinks
    it.  The estimate is off by a few ulps, under ``2^13`` near
    ``2^63``, so it must stay ``2^14`` below.
    """
    m = np.ldexp(np.abs(np.asarray(m0, dtype=np.float64)), lshift)
    est = (float(acc_bound) + np.abs(np.asarray(bq, dtype=np.float64))) * m
    return float(np.max(est)) + z_y < 2.0 ** 63 - 2.0 ** 14


class _CompiledFixedPointRequant:
    """Eq. 5 folded into per-channel constants for the (N, C, L) accumulator.

    Serves both ICN (per-channel ``bq``/``m0``/``n0``) and folded-BN
    (per-channel ``bq``, scalar multiplier).  ``icn._fixed_point_scale``
    floor-divides by ``2^rshift`` (clamped to [0, 62]) and left-shifts
    by the residual ``lshift``; at most one of the two is non-zero, so
    with ``M = m0 << lshift`` and ``B = (bq * m0) << lshift`` Eq. 5 is
    exactly ``clip(((Phi * M + B) >> rshift) + z_y, 0, qmax)``.  Two
    tiers run it, picked once from the layer's accumulator bound:

    ``"i64"``
        That formula over int64: ``*M``, ``+B``, ``>>rshift``, ``+z_y``,
        clip.  ``z_y << rshift`` is never formed, so large shifts cannot
        overflow it.  Sound while ``acc_bound * |M| + |B| < 2^63``; a
        layer past that bound is refused with ``OverflowError`` naming
        it, as the interpreted reference refuses its input.
    ``"f64"``
        With ``C = B + (z_y << rshift)``, ``M' = M * 2^-rshift`` and
        ``C' = C * 2^-rshift``: when ``acc_bound * |M| + |C| < 2^53``
        every ``Phi * M + C`` is an integer that float64 holds exactly,
        and scaling by a power of two is exact, so ``Phi * M' + C'`` is
        the exact quotient; clipped to ``[0, qmax]`` its truncation into the
        codes equals the floor.  Three passes: ``*M'``, ``+C'``, clip.

    :mod:`repro.analysis.verify` recomputes every folded constant in
    Python ints and re-proves the tier's bound.

    ``bind(phi, out, scratch, channels)`` takes the constants of output
    channels ``channels = (c0, c1)`` (a depthwise tile binds its own
    block, every other layer all of them) and cuts the accumulator
    (float32/float64/int64), the small int64 ``scratch`` (viewed
    as float64 on the ``f64`` tier) and the container-width ``out`` codes
    into aligned cache-resident chunks of whole rows — one per image
    when an image's accumulator fits.  ``phi`` and ``out`` are
    ``(N, C, L)``, or ``(N, C, OH, OW)`` where ``phi`` is the strided
    output view of a wide-row accumulator; ``run(bound)`` casts each
    accumulator chunk into its scratch (dropping a wide row grid's junk
    columns on the way), requantizes there in place and truncates into
    its codes.  The casts stay in those two plain copies: a ufunc that casts
    its operands runs numpy's buffered loop, which measured slower than
    the extra copy.
    The clip bounds are typed scalars, which ``ndarray.clip`` takes
    without converting Python ints on every call.
    """

    kind = "fixed"

    def __init__(self, bq: np.ndarray, m0, n0, z_y: int, out_bits: int,
                 acc_bound: int, name: str):
        self.bq = bq
        self.m0 = m0
        shift = M0_FRACTIONAL_BITS - n0
        # Same guard as icn._fixed_point_scale: divisor shift clamped to
        # [0, MAX_RSHIFT], residual negative shift applied as a left shift.
        self.rshift = np.minimum(np.maximum(shift, 0), MAX_RSHIFT)
        self.lshift = np.maximum(-shift, 0)
        self.z_y = int(z_y)
        self.qmax = 2 ** out_bits - 1
        self._z_y_i64 = np.int64(self.z_y)
        self._clip_i64 = (np.int64(0), np.int64(self.qmax))
        self._clip_f64 = (np.float64(0), np.float64(self.qmax))
        self.m_int = np.left_shift(m0, self.lshift)
        self.b_int = np.left_shift(bq * m0, self.lshift)
        if _float64_tier_fits(
                int(acc_bound), self.m_int, self.b_int, self.rshift, self.z_y):
            self.tier = "f64"
            # |C| < 2^53 here, so even if ``z_y << rshift`` wraps, the
            # wrapping (mod 2^64) int64 sum is C exactly.
            c_int = self.b_int + np.left_shift(np.int64(self.z_y), self.rshift)
            self.m_f64 = np.ldexp(np.asarray(self.m_int, dtype=np.float64), -self.rshift)
            self.c_f64 = np.ldexp(c_int.astype(np.float64), -self.rshift)
        elif _int64_tier_fits(acc_bound, m0, bq, self.lshift, self.z_y):
            self.tier = "i64"
            self.m_f64 = self.c_f64 = None
        else:
            raise OverflowError(
                f"{name}: the Eq. 5 epilogue overflows int64 at accumulator "
                f"bound {int(acc_bound)}: acc_bound * |M| + |B| (then "
                f">> rshift, + z_y) reaches 2^63"
            )

    def bind(self, phi: np.ndarray, out: np.ndarray, scratch: np.ndarray,
             channels: Tuple[int, int]) -> tuple:
        """The constants of output channels ``[c0, c1)`` and the
        ``(accumulator, scratch, codes)`` chunk views, for :meth:`run`."""
        if self.tier == "f64":
            scratch = scratch.view(np.float64)
            consts = (self.m_f64, self.c_f64)
        else:
            consts = (self.m_int, self.b_int, self.rshift)
        consts = tuple(_channel_slice(k, *channels, phi.ndim) for k in consts)
        n, c, rows = phi.shape[:3]
        row = phi.shape[3:]  # () for (N, C, L), (OW,) for (N, C, OH, OW)
        block = max(c * math.prod(row), 1)  # scratch per row of all channels
        lc = max(1, min(rows, scratch.size // block))
        chunks = []
        for b in range(n):
            for r0 in range(0, rows, lc):
                r1 = min(r0 + lc, rows)
                chunks.append((phi[b:b + 1, :, r0:r1],
                               scratch[: block * (r1 - r0)].reshape(1, c, r1 - r0, *row),
                               out[b:b + 1, :, r0:r1]))
        return consts, tuple(chunks)

    # hot
    def run(self, bound: tuple) -> None:
        consts, chunks = bound
        if self.tier == "f64":
            (m, c), (lo, hi) = consts, self._clip_f64
            for phi, s, out in chunks:
                np.copyto(s, phi, casting="unsafe")
                s *= m
                s += c
                s.clip(lo, hi, out=s)
                np.copyto(out, s, casting="unsafe")
            return
        (m, b, r), z, (lo, hi) = consts, self._z_y_i64, self._clip_i64
        for phi, s, out in chunks:
            np.copyto(s, phi, casting="unsafe")
            s *= m
            s += b
            np.right_shift(s, r, out=s)
            s += z
            s.clip(lo, hi, out=s)
            np.copyto(out, s, casting="unsafe")


def _channel_slice(const, c0: int, c1: int, ndim: int):
    """Output channels ``[c0, c1)`` of a per-channel ``(1, C, 1)``
    constant, shaped to broadcast over an ``ndim``-D accumulator; a
    per-layer scalar is every channel's."""
    if const.ndim != 3:
        return const
    return const[:, c0:c1].reshape(1, c1 - c0, *(1,) * (ndim - 2))


def _compile_icn_requant(params: ICNParams, acc_bound: int,
                         name: str) -> _CompiledFixedPointRequant:
    c_o = params.out_channels
    return _CompiledFixedPointRequant(
        bq=params.bq.reshape(1, c_o, 1),
        m0=params.m0.reshape(1, c_o, 1),
        n0=params.n0.reshape(1, c_o, 1),
        z_y=params.z_y,
        out_bits=params.out_bits,
        acc_bound=acc_bound,
        name=name,
    )


def _compile_folded_requant(params: FoldedBNParams, acc_bound: int,
                            name: str) -> _CompiledFixedPointRequant:
    return _CompiledFixedPointRequant(
        bq=params.bq.reshape(1, -1, 1),
        m0=np.int64(params.m0),
        n0=np.int64(params.n0),
        z_y=params.z_y,
        out_bits=params.out_bits,
        acc_bound=acc_bound,
        name=name,
    )


class _CompiledThresholdRequant:
    """Per-channel threshold tables pre-sliced/pre-reversed for searchsorted.

    ``run`` consumes the accumulator one image at a time through the
    int64 scratch — ``searchsorted`` compares in the integer domain —
    writes each channel's clipped levels back over its scratch row, and
    copies the image's levels into the container-width code slab.  Like
    the fixed-point epilogue it takes ``(N, C, L)`` or ``(N, C, OH, OW)``
    views, the latter over a wide-row accumulator.
    """

    kind = "thr"
    tier = "thr"

    def __init__(self, params: ThresholdParams):
        self.levels = 2 ** params.out_bits
        self._clip = (np.intp(0), np.intp(self.levels - 1))
        self.tables: List[tuple] = []
        for c in range(params.thresholds.shape[0]):
            th = params.thresholds[c, 1:]
            if params.direction[c] > 0:
                self.tables.append((np.ascontiguousarray(th), 1))
            else:
                self.tables.append((np.ascontiguousarray(th[::-1]), -1))

    def _levels_for(self, vals: np.ndarray, table: np.ndarray, direction: int) -> np.ndarray:
        if direction > 0:
            y = np.searchsorted(table, vals, side="right")
        else:
            y = self.levels - 1 - np.searchsorted(table, vals, side="left")
        return y

    def bind(self, phi: np.ndarray, out: np.ndarray, scratch: np.ndarray,
             channels: Tuple[int, int]) -> tuple:
        """The image-sized scratch, its per-channel rows paired with the
        tables of output channels ``[c0, c1)``, and per image the
        ``(accumulator, codes)`` views for :meth:`run`."""
        n, c = phi.shape[:2]
        c0, c1 = channels
        s = scratch[: math.prod(phi.shape[1:])]
        return (s.reshape(phi.shape[1:]),
                tuple(zip(s.reshape(c, -1), self.tables[c0:c1])),
                tuple((phi[b], out[b]) for b in range(n)))

    # hot
    def run(self, bound: tuple) -> None:
        s, rows, images = bound
        lo, hi = self._clip
        for phi, out in images:
            np.copyto(s, phi, casting="unsafe")
            for vals, (table, direction) in rows:
                y = self._levels_for(vals, table, direction)
                y.clip(lo, hi, out=y)
                np.copyto(vals, y)
            np.copyto(out, s, casting="unsafe")


def _compile_requant(params, acc_bound: int, name: str):
    if isinstance(params, ICNParams):
        return _compile_icn_requant(params, acc_bound, name)
    if isinstance(params, FoldedBNParams):
        return _compile_folded_requant(params, acc_bound, name)
    if isinstance(params, ThresholdParams):
        return _CompiledThresholdRequant(params)
    raise TypeError(f"unsupported requantization parameters {type(params)!r}")


# ----------------------------------------------------------------------
# Compiled layers
# ----------------------------------------------------------------------
class CompiledConvLayer:
    """One conv/depthwise layer with all static state precomputed.

    The weight codes are range-checked once at compile time — the same
    guard the interpreted engine applies on every forward, at zero
    per-inference cost, and required by the refined accumulator bound,
    which assumes codes within [0, 2^Q - 1].

    A depthwise layer runs as a loop over cache-sized tiles
    (:meth:`tile_blocking`): after the whole layer is shifted and padded
    once, each tile is unfolded into the arena's fixed tile region,
    contracted into a prefix of the accumulator slab and requantized at
    once with its channels' Eq. 5 constants, so no tile's working set
    leaves the cache.  A stride-1 layer with a kernel larger than 1x1
    unfolds on the wide row grid (:meth:`row_grid`): one contiguous copy
    per (image, channel, tap) instead of one per output row; its requant
    reads the valid outputs through a strided view, which drops the
    junk columns in the copy it makes anyway.  ``unfold`` names the
    layer's unfold: ``"rows"`` (wide row grid), ``"tiles"`` (the other
    depthwise layers' ``(OH, OW)`` tiles) or ``"im2col"``.

    A call computes entirely inside the views :meth:`bind` took from an
    :class:`~repro.inference.arena.ActivationArena` for its input shape
    and returns a view into the code slot they were bound to, at the
    output's container width (uint8 for <=8-bit activations).
    """

    def __init__(self, layer):
        p = layer.params
        self.name = layer.name
        self.kind = layer.kind
        self.stride = int(layer.stride)
        self.padding = int(layer.padding)
        self.in_bits = int(layer.in_bits)
        self.out_bits = int(layer.out_bits)
        self.w_bits = int(p.w_bits)
        w = p.weights_q
        check_codes(f"{self.name} weight", w, self.w_bits)
        self.kh, self.kw = int(w.shape[2]), int(w.shape[3])
        self.out_channels = int(w.shape[0])
        self.in_channels = self.out_channels if self.kind == "dw" else int(w.shape[1])
        self.unfold = ("rows" if unfolds_rows(self.kind, self.kh, self.kw, self.stride)
                       else "tiles" if self.kind == "dw" else "im2col")
        self.k_reduction = gemm_reduction_length(self.kind, w.shape)
        self.z_x = int(p.z_x)
        w_shift = shift_weights(w, p.z_w, self.out_channels)
        # Refined accumulator bound: the actual shifted weights are in
        # hand, so dispatch on max_o sum_k |W'| * max|X - Zx| instead of
        # the a-priori corner case (exact for codes within range, which
        # the weight check above and the input boundary check guarantee).
        self.acc_bound = min(
            max_abs_accumulator(self.k_reduction, self.in_bits, self.w_bits),
            refined_max_abs_accumulator(w_shift, self.z_x, self.in_bits),
        )
        self.backend, gemm_dtype = _resolve_compiled_backend(self.acc_bound)
        self.gemm_dtype = gemm_dtype
        self.acc_dtype = gemm_dtype
        # Split-K sgemm: a float64-tier pointwise layer whose reduction
        # can be partitioned into a few chunks each individually under
        # the float32 bound runs as chunked sgemms (2x dgemm throughput)
        # summed exactly in float64.
        self.split_k = None
        if (
            self.backend == "blas" and gemm_dtype == np.float64
            and self.kind == "pw" and self.kh == 1 and self.kw == 1
            and self.stride == 1 and self.padding == 0
        ):
            self.split_k = _split_k_chunks(w_shift, self.z_x, self.in_bits)
            if self.split_k is not None:
                self.gemm_dtype = np.dtype(np.float32)
                self.acc_dtype = np.dtype(np.float64)
        self.out_dtype = container_dtype(self.out_bits)
        # One cast from the narrow shifted weights into the GEMM dtype
        # (a fresh C-contiguous array).
        w2 = w_shift.reshape(self.out_channels, -1).astype(self.gemm_dtype)
        self.w2 = w2
        # Split-K operands are column views of ``w2`` (BLAS takes the
        # row stride), so the layer holds its weights once.
        self.w2_chunks = (
            None if self.split_k is None
            else tuple(w2[:, k0:k1] for k0, k1 in self.split_k)
        )
        self.gemm_itemsize = self.gemm_dtype.itemsize
        if self.kind == "dw" and self.backend == "blas":
            # (C, 1, kh*kw) batched-matmul form (the integer einsum
            # contraction keeps the flat form); a view of ``w2``.
            self.w2 = w2[:, None, :]
        self.requant = _compile_requant(p, self.acc_bound, self.name)
        self.requant_kind = self.requant.kind
        #: Eq. 5 epilogue tier: "f64", "i64" or "thr" (thresholds).
        self.epilogue = self.requant.tier

    def tile_blocking(self, h: int, w: int,
                      region: int) -> Tuple[int, Tuple[Tuple[int, int], ...]]:
        """``(images per tile, channel blocks)`` of this depthwise layer
        at input ``(h, w)``, for an arena whose tile region is ``region``
        bytes (:func:`~repro.inference.arena.depthwise_blocking`)."""
        oh = conv_output_size(h, self.kh, self.stride, self.padding)
        ow = conv_output_size(w, self.kw, self.stride, self.padding)
        return depthwise_blocking(self.in_channels, depthwise_channel_bytes(
            self.kh, self.kw, self.stride, oh, ow, self.gemm_itemsize), region)

    def row_grid(self, h: int, w: int) -> Optional[Tuple[int, int]]:
        """``(pitch, columns)`` of this layer's wide row grid at input
        ``(h, w)``: the padded width ``Wp`` and ``(OH-1)*Wp + OW``, the
        run one (image, channel, tap) unfolds to; None for a layer that
        does not unfold in rows.  :func:`~repro.analysis.verify_plan`
        proves every run stays inside its padded plane."""
        if self.unfold != "rows":
            return None
        oh = conv_output_size(h, self.kh, self.stride, self.padding)
        ow = conv_output_size(w, self.kw, self.stride, self.padding)
        return w + 2 * self.padding, depthwise_columns(self.kw, self.stride, oh, ow)

    def bind(self, arena: ActivationArena, shape: Tuple[int, ...],
             slot: int) -> "_LayerViews":
        """Every arena view one call at input ``shape`` touches.

        The plan caches the result (:meth:`ExecutionPlan.bound`), so a
        steady-state call only issues kernels.  A depthwise layer binds
        its tiles.
        """
        n, c, h, w = shape
        oh = conv_output_size(h, self.kh, self.stride, self.padding)
        ow = conv_output_size(w, self.kw, self.stride, self.padding)
        l_out = oh * ow
        out_shape = (n, self.out_channels, l_out)
        v = _LayerViews()
        # Zero-point-shifted input, zero-padded: ``x - Z_x`` is written
        # straight into the interior of the padded buffer (one pass where
        # the interpreted path makes two, subtract then ``np.pad``).
        p = self.padding
        v.pad = arena.pad(self.gemm_dtype, (n, c, h + 2 * p, w + 2 * p))
        v.pad_in = v.pad[:, :, p:-p, p:-p] if p else v.pad
        out = arena.codes(slot, out_shape, self.out_dtype)
        v.out = out.reshape(n, self.out_channels, oh, ow)
        v.cols = v.split = v.tiles = None
        if self.kind == "dw":
            v.tiles = self._bind_tiles(arena, v.pad, out, shape, oh, ow)
            return v
        # im2col columns: a pure view for 1x1/s1, an arena slab otherwise.
        if self.kh == 1 and self.kw == 1 and self.stride == 1:
            cols = v.pad.reshape(n, c, l_out)
        else:
            v.cols = cols = arena.cols(self.gemm_dtype, (n, c * self.kh * self.kw, l_out))
        v.acc = arena.acc(self.acc_dtype, out_shape)
        v.gemm_in, v.gemm_out = cols, v.acc
        if self.split_k is not None:
            v.split = (arena.cols(self.gemm_dtype, out_shape),
                       tuple(cols[:, k0:k1, :] for k0, k1 in self.split_k))
        v.requant = self.requant.bind(v.acc, out, arena.requant_scratch(),
                                      (0, self.out_channels))
        return v

    def _bind_tiles(self, arena: ActivationArena, pad: np.ndarray,
                    out: np.ndarray, shape: Tuple[int, ...],
                    oh: int, ow: int) -> Tuple["_Tile", ...]:
        """One depthwise tile per (image block, channel block).

        Every tile unfolds at the start of the arena's fixed scratch and
        accumulates into a prefix of the accumulator slab, so tiles of
        one shape share those views.  On a wide row grid both hold
        ``(OH-1)*Wp + OW`` columns per channel, and the requant binds
        the ``(OH, OW)`` outputs among them.
        """
        n, _, h, w = shape
        k = self.k_reduction
        grid = self.row_grid(h, w)
        l_cols = oh * ow if grid is None else grid[1]
        unfold = not (self.kh == 1 and self.kw == 1 and self.stride == 1)
        images, channel_blocks = self.tile_blocking(h, w, arena.dw_tile_bytes)
        scratch = arena.requant_scratch()
        by_shape = {}
        tiles = []
        for b0, b1 in balanced_blocks(n, images):
            for c0, c1 in channel_blocks:
                nb, cb = b1 - b0, c1 - c0
                views = by_shape.get((nb, cb))
                if views is None:
                    acc = arena.acc(self.acc_dtype, (nb, cb, l_cols))
                    cols = (arena.tile(self.gemm_dtype, (nb, cb * k, l_cols))
                            if unfold else None)
                    views = by_shape[(nb, cb)] = (
                        acc if grid is None else _row_outputs(acc, grid[0], oh, ow),
                        cols,
                        cols.reshape(nb, cb, k, l_cols) if unfold else None,
                        (acc.reshape(nb, cb, 1, l_cols) if self.backend == "blas"
                         else acc),
                    )
                t = _Tile()
                phi, t.cols, t.gemm_in, t.gemm_out = views
                t.src = pad[b0:b1, c0:c1]
                if not unfold:
                    t.gemm_in = t.src.reshape(nb, cb, 1, l_cols)
                t.w = self.w2[c0:c1]
                t.requant = self.requant.bind(
                    phi, out[b0:b1, c0:c1].reshape(phi.shape), scratch, (c0, c1))
                tiles.append(t)
        return tuple(tiles)

    # hot
    def __call__(self, x_codes: np.ndarray, v: "_LayerViews") -> np.ndarray:
        if self.padding:
            v.pad.fill(0)
        # The subtraction loop is pinned to the GEMM dtype, so narrow
        # (uint8) input containers are widened on the fly, never wrapped.
        np.subtract(x_codes, self.z_x, out=v.pad_in, dtype=self.gemm_dtype)
        if v.tiles is not None:
            kh, kw, stride, wide = self.kh, self.kw, self.stride, self.unfold == "rows"
            blas, requant = self.backend == "blas", self.requant.run
            for t in v.tiles:
                if t.cols is not None:
                    im2col(t.src, kh, kw, stride, 0, out=t.cols, wide=wide)
                if blas:
                    np.matmul(t.w, t.gemm_in, out=t.gemm_out)
                else:
                    np.einsum("ck,nckl->ncl", t.w, t.gemm_in, optimize=True,
                              out=t.gemm_out)
                # Eq. 5 on this tile while its accumulator is still hot.
                requant(t.requant)
            return v.out
        if v.cols is not None:
            im2col(v.pad, self.kh, self.kw, self.stride, 0, out=v.cols)
        if v.split is not None:
            # Chunked sgemm over the K-partition, each chunk exact in
            # float32, summed exactly in the float64 accumulator.
            tmp, chunks = v.split
            np.matmul(self.w2_chunks[0], chunks[0], out=tmp)
            np.copyto(v.acc, tmp)
            for w2c, chunk in zip(self.w2_chunks[1:], chunks[1:]):
                np.matmul(w2c, chunk, out=tmp)
                np.add(v.acc, tmp, out=v.acc)
        elif self.backend == "blas":
            np.matmul(self.w2, v.gemm_in, out=v.gemm_out)
        else:
            # Integer einsum contraction: no float dtype is exact here.
            int_einsum_gemm(self.w2, v.gemm_in, out=v.gemm_out)
        # Chunked requantization: accumulator -> int64 scratch tiles ->
        # container-width codes.  Exact: every accumulator value is an
        # integer below the refined bound by construction.
        self.requant.run(v.requant)
        return v.out


def _row_outputs(acc: np.ndarray, pitch: int, oh: int, ow: int) -> np.ndarray:
    """The ``(N, C, OH, OW)`` outputs of a wide-row accumulator
    ``(N, C, L)``: row ``i`` starts at column ``i * pitch``.  Built over
    ``acc`` as a buffer, so a view that would run past it raises."""
    s0, s1, s2 = acc.strides
    return np.ndarray((*acc.shape[:2], oh, ow), acc.dtype, acc, 0,
                      (s0, s1, pitch * s2, s2))


class _LayerViews:
    """The arena views of one :class:`CompiledConvLayer` call at one input
    shape: slab views (and a depthwise layer's tiles), never the layer."""

    __slots__ = ("pad", "pad_in", "cols", "acc", "gemm_in", "gemm_out",
                 "split", "tiles", "requant", "out")


class _Tile:
    """One depthwise tile's views: its padded input, unfold, accumulator
    and codes, plus views of its channels' weights and Eq. 5 constants
    (small arrays that die with the plan)."""

    __slots__ = ("src", "cols", "gemm_in", "gemm_out", "w", "requant")


class CompiledLinear:
    """Compiled integer classifier: shifted/transposed weights and the
    dequantization scale (``s_in * s_w``) are materialised once.  The
    accumulator dtype uses the same refined weight-data bound as the
    conv layers (sgemm on most classifier widths)."""

    def __init__(self, layer):
        self.name = layer.name
        self.kind = "fc"
        self.in_bits = int(layer.in_bits)
        self.w_bits = int(layer.w_bits)
        check_codes(f"{self.name} weight", layer.weights_q, self.w_bits)
        self.k_reduction = gemm_reduction_length("fc", layer.weights_q.shape)
        self.out_channels = int(layer.weights_q.shape[0])
        self.z_x = int(layer.z_x)
        w_shift = shift_weights(layer.weights_q, layer.z_w, self.out_channels)
        self.acc_bound = min(
            max_abs_accumulator(self.k_reduction, self.in_bits, self.w_bits),
            refined_max_abs_accumulator(w_shift, self.z_x, self.in_bits),
        )
        self.backend, self.gemm_dtype = _resolve_compiled_backend(self.acc_bound)
        # The (K, O) operand, transposed and cast in one pass, a block of
        # output features at a time (2x faster than one strided copy of
        # a 1024x1000 classifier).
        self.w_t = np.empty(w_shift.shape[::-1], dtype=self.gemm_dtype)
        for o0 in range(0, self.out_channels, _TRANSPOSE_BLOCK):
            o1 = o0 + _TRANSPOSE_BLOCK
            np.copyto(self.w_t[:, o0:o1], w_shift[o0:o1].T, casting="unsafe")
        s_w = np.asarray(layer.s_w, dtype=np.float64).reshape(-1)
        # Match IntegerLinearLayer.forward exactly: s_in * s_w is evaluated
        # first there too (left-to-right), so hoisting it preserves ulps.
        if s_w.size == 1:
            self.scale = layer.s_in * float(s_w[0])
        else:
            self.scale = layer.s_in * s_w.reshape(1, -1)
        self.bias = None if layer.bias is None else np.asarray(layer.bias, dtype=np.float64)

    def __call__(self, x_codes: np.ndarray) -> np.ndarray:
        phi = np.subtract(x_codes, self.z_x, dtype=self.gemm_dtype) @ self.w_t
        phi = phi.astype(np.float64)
        logits = self.scale * phi
        if self.bias is not None:
            logits = logits + self.bias
        return logits


# ----------------------------------------------------------------------
# Execution plan
# ----------------------------------------------------------------------
@dataclass
class LayerPlanInfo:
    """Static description of one compiled layer (for reports/export)."""

    name: str
    kind: str
    backend: str
    gemm_dtype: str
    k_reduction: int
    out_channels: int
    in_bits: int
    w_bits: int
    #: Container dtype the output codes are stored at ("-" for fc logits).
    container: str = "-"
    #: Refined worst-case |Phi| the accumulator dtype was picked for.
    acc_bound: int = 0
    #: Eq. 5 epilogue tier ("f64", "i64", "thr"); "-" for fc logits.
    epilogue: str = "-"
    #: How the layer unfolds: "rows" (a stride-1 depthwise layer's wide
    #: row grid), "tiles" (the other depthwise layers), "im2col"; "-"
    #: for fc.
    unfold: str = "-"


class ExecutionPlan:
    """Compiled form of an :class:`~repro.inference.engine.IntegerNetwork`.

    Construction takes no options: each layer's accumulator follows from
    its refined bound.  Weight codes are range-checked
    once here, and :meth:`run_codes` range-checks incoming codes unless
    told not to; the per-call per-layer scans of the interpreted engine
    never run inside the plan.  All activation/scratch traffic goes
    through views of the plan's one
    :class:`~repro.inference.arena.SlabSet`, bound once per input shape
    (:meth:`bound`) from the geometry's size plan (:meth:`arena_for`).

    The plan runs one call at a time: :meth:`run` and :meth:`run_codes`
    hold the plan's lock for the whole call, since every call writes
    the same slabs.  A second thread waits for the first to finish.
    """

    def __init__(self, network):
        self.layers: List[CompiledConvLayer] = [
            CompiledConvLayer(l) for l in network.conv_layers
        ]
        self.input_scale = float(network.input_scale)
        self.input_zero_point = int(network.input_zero_point)
        self.input_bits = int(network.input_bits)
        self.has_pool = network.pool is not None
        self.classifier: Optional[CompiledLinear] = (
            None if network.classifier is None
            else CompiledLinear(network.classifier)
        )
        self._slabs = SlabSet()
        #: Input shape -> every layer's views, least recently used first.
        self._bound: OrderedDict[Tuple[int, ...], Tuple[_LayerViews, ...]] = OrderedDict()
        #: Held by each call from the first slab write until its result
        #: no longer views a slab.
        self._lock = threading.Lock()

    # -- input boundary ------------------------------------------------
    def quantize_input(self, x_real: np.ndarray) -> np.ndarray:
        """Quantize a real NCHW image batch into input codes (same
        boundary quantizer as the interpreted engine, stored at the
        input's container width)."""
        return quantize_input_codes(
            x_real, self.input_scale, self.input_zero_point, self.input_bits,
            dtype=container_dtype(self.input_bits),
        )

    # -- activation memory planning ------------------------------------
    def arena_for(self, input_hw: Tuple[int, int]) -> ActivationArena:
        """The static activation arena planned for one input geometry.

        A pure size plan, built afresh on every call (it allocates
        nothing): :meth:`bound` plans a geometry when it first binds a
        shape of it.  Every geometry runs in the plan's one slab set,
        which grows to the largest per-image need and batch that has run;
        ``planned_bytes(batch)`` is exact for this geometry at any batch.
        This is also the introspection entry point: the arena carries the
        per-layer :class:`LayerActivationPlan` list, the Eq. 7
        ``logical_rw_peak_bytes`` the deploy path checks against a
        device's RW budget, and the container-width
        ``physical_code_bytes`` that must equal it for 8-bit networks.
        """
        return ActivationArena(
            plan_activations(self.layers, input_hw, self.classifier), self._slabs
        )

    def bound(self, shape: Tuple[int, ...]) -> Tuple[_LayerViews, ...]:
        """Every layer's views for one trunk call at input ``shape``
        ``(N, C, H, W)``: layer ``i`` reads code slot ``(i-1) % 2`` and
        writes slot ``i % 2``.

        Bound through each layer's ``bind`` on first use and handed back
        as is on every later call, so a steady-state call constructs no
        views at all.  The plan keeps the :data:`MAX_BOUND_SHAPES` most
        recently used shapes.  Growing the slab set drops every bound
        shape first.  The views hold no reference to a layer (a
        depthwise tile keeps views of its channels' compiled weights and
        Eq. 5 constants, which die with the plan).
        """
        views = self._bound.get(shape)
        if views is not None:
            self._bound.move_to_end(shape)
            return views
        arena = self.arena_for(shape[2:])
        # An empty batch runs on zero-size views of a one-image slab.
        self._slabs.hold(arena, max(1, shape[0]), release=self._bound.clear)
        trunk, s = [], shape
        for i, layer in enumerate(self.layers):
            trunk.append(layer.bind(arena, s, i % 2))
            s = trunk[-1].out.shape
        views = self._bound[shape] = tuple(trunk)
        if len(self._bound) > MAX_BOUND_SHAPES:
            self._bound.popitem(last=False)
        return views

    # -- execution -----------------------------------------------------
    def _trunk(self, x_codes: np.ndarray) -> Tuple[np.ndarray, bool]:
        """Run the conv trunk; returns (codes, codes_are_an_arena_view)."""
        if not self.layers:
            return x_codes, False
        for layer, views in zip(self.layers, self.bound(x_codes.shape)):
            x_codes = layer(x_codes, views)
        return x_codes, True

    def run_codes(self, x_codes: np.ndarray) -> np.ndarray:
        """Run the convolutional trunk on integer codes; returns codes
        the caller owns (never a live view into the arena).  The codes
        are range-checked first, since every layer's accumulator
        dispatch assumes in-range codes."""
        with self._lock:
            check_codes("input activation", x_codes, self.input_bits)
            codes, is_view = self._trunk(x_codes)
            return codes.copy() if is_view else codes

    def run(self, x_real: np.ndarray) -> np.ndarray:
        """End-to-end inference from a real image batch to real logits."""
        with self._lock:
            codes = self.quantize_input(x_real)
            # quantize_input clips into range, so the boundary check is
            # moot here; pool/classifier consume the trunk's arena view
            # before the lock lets another call reuse the slabs, so no
            # defensive copy either.
            codes, _ = self._trunk(codes)
            if self.has_pool:
                codes = int_avg_pool_global(codes)
            if self.classifier is not None:
                return self.classifier(codes)
            return codes.astype(np.float64)

    def output_spec(self, input_shape: Sequence[int]) -> Tuple[Tuple[int, ...], np.dtype]:
        """Per-image output shape and dtype of :meth:`run` — without running.

        ``input_shape`` is the per-image ``(C, H, W)``.  Logits (and the
        pool-less code passthrough) are always float64; the shape cascade
        is the same geometry walk the arena planner performs.
        """
        dtype = np.dtype(np.float64)
        if self.classifier is not None:
            return (self.classifier.out_channels,), dtype
        c, h, w = (int(d) for d in input_shape)
        for layer in self.layers:
            h = conv_output_size(h, layer.kh, layer.stride, layer.padding)
            w = conv_output_size(w, layer.kw, layer.stride, layer.padding)
            c = layer.out_channels
        if self.has_pool:
            return (c,), dtype
        return (c, h, w), dtype

    def run_batched(self, x_real: np.ndarray, batch_size: int = 32) -> np.ndarray:
        """Stream a large sweep through the plan in fixed-size tiles.

        Every tile reuses the same activation arena, and results are
        written into one preallocated output, so peak activation memory
        is the compile-time ``arena_for(hw).planned_bytes(batch_size)``
        regardless of the sweep size — sweeps far larger than RAM would
        allow for whole-sweep activations stream through unchanged.

        Degenerate sweeps take the cheap path: an empty batch returns an
        empty, correctly-shaped result without touching the kernels, and
        a sweep no larger than one tile (including batch-of-1) runs
        single-shot with no intermediate result copy.
        """
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        x_real = np.asarray(x_real)
        n = x_real.shape[0]
        if n == 0:
            shape, dtype = self.output_spec(x_real.shape[1:])
            return np.empty((0,) + shape, dtype=dtype)
        if n <= batch_size:
            return self.run(x_real)
        shape, dtype = self.output_spec(x_real.shape[1:])
        out = np.empty((n,) + shape, dtype=dtype)
        for i in range(0, n, batch_size):
            out[i:i + batch_size] = self.run(x_real[i:i + batch_size])
        return out

    def predict(self, x_real: np.ndarray, batch_size: Optional[int] = None) -> np.ndarray:
        """Class predictions for a real image batch (optionally tiled)."""
        if batch_size is None:
            return np.argmax(self.run(x_real), axis=1)
        return np.argmax(self.run_batched(x_real, batch_size=batch_size), axis=1)

    # -- introspection -------------------------------------------------
    def layer_info(self) -> Sequence[LayerPlanInfo]:
        infos = [
            LayerPlanInfo(l.name, l.kind, l.backend, np.dtype(l.gemm_dtype).name,
                          l.k_reduction, l.out_channels, l.in_bits, l.w_bits,
                          np.dtype(l.out_dtype).name, l.acc_bound, l.epilogue,
                          l.unfold)
            for l in self.layers
        ]
        if self.classifier is not None:
            c = self.classifier
            infos.append(
                LayerPlanInfo(c.name, c.kind, c.backend, np.dtype(c.gemm_dtype).name,
                              c.k_reduction, c.out_channels, c.in_bits, c.w_bits,
                              acc_bound=c.acc_bound)
            )
        return infos

    def describe(self, input_hw: Optional[Tuple[int, int]] = None,
                 batch_size: int = 1) -> str:
        """Human-readable per-layer dispatch summary.

        The ``eq5`` column is each layer's requantization epilogue tier:
        ``f64`` (folded float64 constants), ``i64`` (int64 formula) or
        ``thr`` (threshold tables).  The ``path`` column is its unfold:
        ``rows`` (a stride-1 depthwise layer's wide row grid), ``tiles``
        (the other depthwise layers) or ``im2col``.

        With ``input_hw`` (else at the geometry the plan bound most
        recently, if any) the summary ends with the activation-arena
        plan: the host slab bytes for ``batch_size`` images, the physical
        (container-width) bytes of the ping-pong code pair, and the
        paper-model (Eq. 7) logical RW peak for packed codes — physical
        and logical agree exactly for pure 8-bit networks.
        """
        lines = [f"{'layer':<16} {'kind':<5} {'backend':<7} {'acc':<8} "
                 f"{'codes':<6} {'eq5':<4} {'k':>6} {'c_out':>6}  {'path'}"]
        for info in self.layer_info():
            lines.append(
                f"{info.name:<16} {info.kind:<5} {info.backend:<7} {info.gemm_dtype:<8} "
                f"{info.container:<6} {info.epilogue:<4} {info.k_reduction:>6} "
                f"{info.out_channels:>6}  {info.unfold}"
            )
        if input_hw is None and self._bound:
            input_hw = next(reversed(self._bound))[2:]
        if input_hw is not None:
            arena = self.arena_for(input_hw)
            h, w = input_hw
            lines += [
                "",
                f"activation arena (input {h}x{w}):",
                f"  planned host peak  : {arena.planned_bytes(batch_size)} bytes"
                f" (batch {batch_size}, {arena.bytes_per_image()} per image"
                f" + {arena.fixed_bytes} requant/tile scratch)",
                f"  physical code pair : {arena.physical_code_bytes(1)} bytes"
                f" (container-width ping-pong, batch 1)",
                f"  logical RW peak    : {arena.logical_rw_peak_bytes} bytes"
                f" (paper Eq. 7, packed codes)",
            ]
        return "\n".join(lines)
