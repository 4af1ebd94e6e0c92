"""Static activation memory arena for the compiled :class:`ExecutionPlan`.

The paper's RW-memory model (Table 1, Eq. 7) assumes an output-stationary
dataflow: while one layer executes, exactly one input/output activation
pair is alive, and the binding RAM term is the *maximum over layers* of
that pair's packed size.  The seed engine (and the PR-1 compiled plan)
instead allocated fresh activation and scratch buffers on every layer of
every call, so host peak memory tracked allocator behaviour rather than
the model — and held every code in int64, 8x the container width the
model accounts for.

This module plans that behaviour statically, at compile time:

* :func:`plan_activations` cascades the input geometry through the layer
  stack once and records, per layer, the activation shapes plus every
  scratch buffer the compiled kernels need (padded/shifted input, im2col
  columns, GEMM accumulator, requantization scratch, and a depthwise
  layer's cache-sized unfold tile);
* :class:`ActivationArena` turns that plan into preallocated slabs: a
  ping-pong pair of *container-width* code slabs (uint8 for every <=8-bit
  activation — the Eq. 7 input/output pair at its true physical width,
  sized per slot), pad/cols/acc scratch sized to the worst layer, and a
  small fixed scratch that the requantization and the depthwise tiles
  take turns in; every slab is reused by every subsequent call;
* :func:`logical_rw_peak_bytes` evaluates the *paper's* Eq. 7 over the
  same per-layer plan, using the identical packed-tensor formula as
  :mod:`repro.core.memory_model` (imported, not reimplemented), so the
  arena and the analytical model cannot drift — the tests assert the two
  agree layer for layer on every model-zoo spec, and that for a pure
  8-bit network the ping-pong pair's *physical* bytes equal the Eq. 7
  peak exactly (:meth:`ActivationArena.physical_code_bytes`).

Buffers are raw ``uint8`` slabs viewed at the per-layer dtype, so a
float32-tier depthwise layer and a float64 pointwise layer share the same
storage.  ``ensure(batch)`` grows the slabs monotonically; the planned
peak for a given tile size is exact and is what ``run_batched`` is
bounded by.
"""

from __future__ import annotations

import math
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.memory_model import activation_rw_bytes
from repro.inference.kernels import (
    blas_gemm_dtype,
    blas_gemm_is_exact,
    gemm_reduction_length,
)
from repro.inference.packing import container_dtype
from repro.nn.functional import conv_output_size

_INT64_BYTES = np.dtype(np.int64).itemsize

#: Target size of one requantization tile.  The compiled plan
#: requantizes the accumulator in cache-blocked chunks through a small
#: int64 scratch (Eq. 5 needs 64-bit intermediates for the Q31 multiply)
#: and stores straight into the container-width code slab — instead of
#: round-tripping the whole layer through an out-sized int64 buffer.
REQUANT_SCRATCH_BYTES = 512 << 10

#: Most bytes one depthwise im2col tile unfolds.  The compiled plan runs a
#: depthwise layer as a loop over tiles — blocks of whole images, or
#: blocks of channels of one image when one image's unfold is larger —
#: and requantizes each tile before unfolding the next, the host analogue
#: of the CMSIS-NN kernels' small per-output im2col buffer.  An
#: interleaved sweep from 128 KiB to 4 MiB on a 2-vCPU host with 2 MiB of
#: L2 per core was flat from 512 KiB to 2 MiB on MobileNetV1 128_0.5
#: batch 1 and from 256 KiB to 1 MiB on 224_1.0 batch 8; 1 MiB lies in
#: both flat ranges (smaller tiles pay more per-tile overhead, larger
#: ones leave L2).
DW_TILE_BYTES = 1 << 20

#: Batch sizes whose layer bindings one arena keeps (the least recently
#: used is dropped first).  A binding set is ~0.3 MB of view objects per
#: batch size on MobileNetV1 128_0.5; 8 covers the serving default
#: ``max_batch``, and an evicted batch size just rebinds on its next call.
MAX_BOUND_BATCHES = 8


@dataclass(frozen=True)
class LayerGeometry:
    """Static geometry of one layer, as needed for activation planning.

    Decoupled from the compiled layer objects so the deployment export
    can plan activations for a serialised network without compiling it.
    ``gemm_itemsize`` is the byte width of the layer's GEMM operands and
    accumulator (float32/float64/int32/int64 depending on dispatch);
    ``out_itemsize`` the container width its output codes are stored at
    (1 for every <=8-bit activation); ``requant_kind`` selects the
    requantization scratch requirement (``"fixed"`` fixed-point Eq. 5,
    ``"thr"`` thresholds, ``""`` for fc).
    """

    name: str
    kind: str  # "conv" | "pw" | "dw" | "fc"
    in_channels: int
    out_channels: int
    kh: int
    kw: int
    stride: int
    padding: int
    in_bits: int
    out_bits: int
    gemm_itemsize: int  # bytes per scratch element (float32/float64/int32/int64)
    out_itemsize: int = 1  # container bytes per output code
    requant_kind: str = "fixed"
    #: Split-K sgemm layer: needs an output-sized float32 chunk buffer in
    #: the cols slab (its 1x1 unfold is otherwise a pure view).
    split_k: bool = False

    @classmethod
    def from_compiled(cls, layer) -> "LayerGeometry":
        """Geometry of a compiled conv/dw/pw layer (plan.CompiledConvLayer)."""
        return cls(
            name=layer.name,
            kind=layer.kind,
            in_channels=layer.in_channels,
            out_channels=layer.out_channels,
            kh=layer.kh,
            kw=layer.kw,
            stride=layer.stride,
            padding=layer.padding,
            in_bits=layer.in_bits,
            out_bits=layer.out_bits,
            # Slabs are sized at the wider of the operand and accumulator
            # dtypes (they differ only for split-K sgemm layers).
            gemm_itemsize=max(
                np.dtype(layer.gemm_dtype).itemsize,
                np.dtype(getattr(layer, "acc_dtype", layer.gemm_dtype)).itemsize,
            ),
            out_itemsize=np.dtype(layer.out_dtype).itemsize,
            requant_kind=getattr(layer, "requant_kind", "fixed"),
            split_k=getattr(layer, "split_k", None) is not None,
        )

    @classmethod
    def from_weights(
        cls,
        name: str,
        kind: str,
        weight_shape: Sequence[int],
        stride: int,
        padding: int,
        in_bits: int,
        w_bits: int,
        out_bits: int,
        requant_kind: str = "fixed",
    ) -> "LayerGeometry":
        """Geometry from a raw weight shape, using the a-priori GEMM
        dispatch (what a fresh ``compile()`` of the network would pick
        before the weight-data bound refinement, which needs the codes)."""
        if kind == "fc":
            c_in, c_out = int(weight_shape[1]), int(weight_shape[0])
            kh = kw = 1
        elif kind == "dw":
            c_in = c_out = int(weight_shape[0])
            kh, kw = int(weight_shape[2]), int(weight_shape[3])
        else:
            c_out, c_in = int(weight_shape[0]), int(weight_shape[1])
            kh, kw = int(weight_shape[2]), int(weight_shape[3])
        k = gemm_reduction_length(kind, weight_shape)
        if blas_gemm_is_exact(k, in_bits, w_bits):
            itemsize = np.dtype(blas_gemm_dtype(k, in_bits, w_bits)).itemsize
        else:
            itemsize = _INT64_BYTES
        return cls(
            name=name,
            kind=kind,
            in_channels=c_in,
            out_channels=c_out,
            kh=kh,
            kw=kw,
            stride=int(stride),
            padding=int(padding),
            in_bits=int(in_bits),
            out_bits=int(out_bits),
            gemm_itemsize=itemsize,
            out_itemsize=container_dtype(int(out_bits)).itemsize,
            requant_kind=requant_kind,
        )


@dataclass(frozen=True)
class LayerActivationPlan:
    """Resolved per-layer activation/scratch footprint (per batch element).

    ``pad_elems``/``cols_elems``/``acc_elems`` are the host scratch
    buffers of the compiled kernels; ``in_shape``/``out_shape`` are the
    logical activation tensors of the paper's Eq. 7.  ``out_itemsize``
    is the container width of the layer's output codes (what the
    ping-pong slab physically stores), ``requant_bytes`` the fixed
    (batch-independent) int64 requantization scratch this layer needs,
    ``tile_bytes`` the fixed unfold-tile bound of a depthwise layer
    (:func:`depthwise_tile_bound`).
    """

    name: str
    kind: str
    in_shape: Tuple[int, int, int]  # (C, H, W)
    out_shape: Tuple[int, int, int]
    in_bits: int
    out_bits: int
    pad_elems: int
    cols_elems: int
    acc_elems: int
    gemm_itemsize: int
    out_itemsize: int = 1
    requant_bytes: int = 0
    tile_bytes: int = 0

    @property
    def in_elems(self) -> int:
        c, h, w = self.in_shape
        return c * h * w

    @property
    def out_elems(self) -> int:
        c, h, w = self.out_shape
        return c * h * w

    @property
    def rw_bytes(self) -> int:
        """Eq. 7 RW term of this layer: packed input + output activations."""
        return activation_rw_bytes(
            self.in_elems, self.in_bits, self.out_elems, self.out_bits
        )

    @property
    def physical_out_bytes(self) -> int:
        """Host bytes of the output codes at their container width."""
        return self.out_elems * self.out_itemsize


def requant_scratch_bytes(kind: str, requant_kind: str, c_out: int,
                           out_elems: int) -> int:
    """Fixed int64 scratch one layer's chunked requantization needs.

    Fixed-point layers tile the accumulator into ~``REQUANT_SCRATCH_BYTES``
    chunks (never smaller than one (C, 1) column so the per-channel
    constants broadcast); threshold layers consume one whole image at a
    time (per-channel ``searchsorted`` wants contiguous rows).
    """
    if kind == "fc":
        return 0
    if requant_kind == "thr":
        return out_elems * _INT64_BYTES
    return max(c_out * _INT64_BYTES,
               min(out_elems * _INT64_BYTES, REQUANT_SCRATCH_BYTES))


def depthwise_channel_bytes(kh: int, kw: int, stride: int, oh: int, ow: int,
                            itemsize: int) -> int:
    """Bytes one channel of one image unfolds to in a depthwise layer
    (0 for a 1x1 stride-1 kernel, whose unfold is a view)."""
    if kh == 1 and kw == 1 and stride == 1:
        return 0
    return kh * kw * oh * ow * itemsize


def depthwise_tile_bound(channels: int, channel_bytes: int) -> int:
    """Fixed bytes a depthwise layer's unfold tiles need.

    One image's unfold when that is smaller, else :data:`DW_TILE_BYTES`
    (or one channel's unfold, if that alone is larger).  Monotone in the
    input geometry, so an arena planned for a larger ``(H, W)`` covers
    every smaller one.
    """
    return min(channels * channel_bytes, max(DW_TILE_BYTES, channel_bytes))


def balanced_blocks(total: int, most: int) -> Tuple[Tuple[int, int], ...]:
    """``range(total)`` cut into the fewest contiguous ``(start, stop)``
    blocks of at most ``most`` items, their sizes differing by at most
    one (so the last block is never a sliver)."""
    count = -(-total // max(1, most))
    blocks = []
    start = 0
    for i in range(count):
        stop = start + total // count + (i < total % count)
        blocks.append((start, stop))
        start = stop
    return tuple(blocks)


def depthwise_blocking(channels: int, channel_bytes: int,
                       region: int) -> Tuple[int, Tuple[Tuple[int, int], ...]]:
    """How a depthwise layer cuts its batch into tiles.

    Returns ``(images per tile, channel blocks)``.  A tile unfolds at
    most ``min(DW_TILE_BYTES, region)`` bytes — ``region`` is the arena's
    planned tile region (:attr:`ActivationArena.dw_tile_bytes`) — unless
    one channel of one image alone is larger:

    * when one image's unfold fits, a tile is a block of whole images,
      every channel;
    * otherwise it is a block of channels of one image, the blocks
      balanced by :func:`balanced_blocks`.
    """
    limit = min(DW_TILE_BYTES, region)
    image_bytes = channels * channel_bytes
    if image_bytes <= limit:
        return max(1, limit // max(image_bytes, 1)), ((0, channels),)
    return 1, balanced_blocks(channels, limit // channel_bytes)


def plan_activations(
    geometries: Sequence[LayerGeometry], input_hw: Tuple[int, int]
) -> List[LayerActivationPlan]:
    """Cascade ``input_hw`` through the layer stack and size every buffer.

    The trailing ``"fc"`` geometry (if any) is planned after an implicit
    global average pool, i.e. at spatial size 1x1 — matching both the
    deployment graph and the model-zoo :class:`LayerSpec` convention.
    """
    h, w = int(input_hw[0]), int(input_hw[1])
    plans: List[LayerActivationPlan] = []
    for g in geometries:
        if g.kind == "fc":
            plans.append(
                LayerActivationPlan(
                    name=g.name,
                    kind="fc",
                    in_shape=(g.in_channels, 1, 1),
                    out_shape=(g.out_channels, 1, 1),
                    in_bits=g.in_bits,
                    out_bits=g.out_bits,
                    pad_elems=0,
                    cols_elems=0,
                    acc_elems=0,
                    gemm_itemsize=g.gemm_itemsize,
                    out_itemsize=g.out_itemsize,
                    requant_bytes=0,
                )
            )
            continue
        oh = conv_output_size(h, g.kh, g.stride, g.padding)
        ow = conv_output_size(w, g.kw, g.stride, g.padding)
        if oh < 1 or ow < 1:
            raise ValueError(
                f"layer {g.name!r}: input {h}x{w} collapses to {oh}x{ow}"
            )
        hp, wp = h + 2 * g.padding, w + 2 * g.padding
        out_elems = g.out_channels * oh * ow
        tile_bytes = 0
        if g.kind == "dw":
            # A depthwise layer unfolds tile by tile into the fixed
            # scratch.
            cols_elems = 0
            tile_bytes = depthwise_tile_bound(g.in_channels, depthwise_channel_bytes(
                g.kh, g.kw, g.stride, oh, ow, g.gemm_itemsize))
        elif g.kh == 1 and g.kw == 1 and g.stride == 1:
            # im2col of a 1x1/s1 kernel is a pure view; split-K layers
            # repurpose the cols slab as their sgemm chunk buffer.
            cols_elems = out_elems if g.split_k else 0
        else:
            cols_elems = g.in_channels * g.kh * g.kw * oh * ow
        plans.append(
            LayerActivationPlan(
                name=g.name,
                kind=g.kind,
                in_shape=(g.in_channels, h, w),
                out_shape=(g.out_channels, oh, ow),
                in_bits=g.in_bits,
                out_bits=g.out_bits,
                pad_elems=g.in_channels * hp * wp,
                cols_elems=cols_elems,
                acc_elems=out_elems,
                gemm_itemsize=g.gemm_itemsize,
                out_itemsize=g.out_itemsize,
                requant_bytes=requant_scratch_bytes(
                    g.kind, g.requant_kind, g.out_channels, out_elems
                ),
                tile_bytes=tile_bytes,
            )
        )
        h, w = oh, ow
    return plans


def logical_rw_peak_bytes(plans: Sequence[LayerActivationPlan]) -> int:
    """Binding term of the paper's Eq. 7 over a planned layer stack.

    Max over layers of the packed input+output activation pair — the
    quantity the MCU deploy path checks against the device RW budget, and
    the quantity the tests cross-check against
    :func:`repro.core.memory_model.network_rw_peak_bytes`.
    """
    if not plans:
        return 0
    return max(p.rw_bytes for p in plans)


class ActivationArena:
    """Preallocated ping-pong + scratch slabs for one input geometry.

    Raw ``uint8`` slabs, sized per batch element at plan time:

    ``codes`` (x2)
        The ping-pong activation-code pair at *container width*: slot
        ``s`` is sized to the largest output (uint8 codes for <=8-bit
        activations) among the layers that write it (layer ``i`` reads
        its input codes from slot ``(i-1) % 2`` and writes its
        requantized output into slot ``i % 2``) — the host mirror of the
        paper's output-stationary input/output activation pair.  For a
        pure 8-bit chain the pair's physical bytes equal the Eq. 7 peak
        exactly (no int64 inflation); sub-byte activations keep the
        one-byte container, so physical >= logical there.
    ``pad``
        Zero-point-shifted (and zero-padded) input in the layer's GEMM
        dtype.
    ``cols``
        im2col columns of the non-depthwise layers (conv0 is the largest)
        — also the chunk buffer of a split-K layer.
    ``acc``
        The GEMM accumulator (float tier, int32, or int64 depending on
        the layer's dispatch); a depthwise tile accumulates into a prefix.
    ``scratch``
        A small *fixed-size* (batch-independent) int64 buffer that two
        users take turns in.  The chunked requantization tiles the
        accumulator through its first ``requant_scratch_bytes``; a
        depthwise layer unfolds each tile in its first
        ``dw_tile_bytes``.  A tile's columns are dead once its GEMM has
        run, which is before its requantization writes the scratch.

    ``ensure`` grows capacity monotonically; views are sliced to the live
    batch, so a smaller batch reuses the same storage.

    **Bindings.** A compiled layer runs inside views of these slabs:
    :meth:`bound` builds them once per (layer, input shape, code slot)
    through the layer's ``bind`` and hands the same views back on every
    later call, so a steady-state call constructs no views at all.
    Bindings are grouped by batch size, at most
    :data:`MAX_BOUND_BATCHES` of them (least recently used dropped
    first), and hold no reference to the layer (a depthwise tile keeps
    views of its channels' compiled weights and Eq. 5 constants, which
    die with the plan).  Whenever
    the slab owner reallocates, its bindings and those of every arena
    sharing its slabs are dropped, so no view pins a retired slab.

    **Shape polymorphism** (``slabs_from``): an arena may *adopt* the
    slabs of a donor arena planned for a larger (max) geometry instead
    of allocating its own.  Every slab requirement is monotone
    non-decreasing in the input ``(H, W)`` (``conv_output_size`` is
    monotone, every pad/cols/acc/requant formula scales with the layer
    element counts, and so does :func:`depthwise_tile_bound`), so an
    arena planned for any geometry at or below the donor's fits inside
    the donor's slabs; its views slice
    only the prefix they need.  The child keeps its *own* per-layer
    plan list — so Eq. 7 accounting, ``describe`` and the physical-bytes
    checks stay exact for its geometry — while all storage stays with
    the donor: ``ensure`` grows the donor and views read the donor's
    current slabs.  This is what lets one
    :class:`~repro.inference.plan.ExecutionPlan` serve every input
    geometry up to a declared maximum without per-resolution slab
    explosion.
    """

    def __init__(self, plans: Sequence[LayerActivationPlan],
                 slabs_from: Optional["ActivationArena"] = None):
        self.plans: List[LayerActivationPlan] = list(plans)
        conv = [p for p in self.plans if p.kind != "fc"]
        self.code_slot_bytes_per_image = [
            max((p.physical_out_bytes for p in conv[s::2]), default=0)
            for s in (0, 1)
        ]
        self.pad_bytes_per_image = max(
            (p.pad_elems * p.gemm_itemsize for p in conv), default=0
        )
        self.cols_bytes_per_image = max(
            (p.cols_elems * p.gemm_itemsize for p in conv), default=0
        )
        self.acc_bytes_per_image = max(
            (p.acc_elems * p.gemm_itemsize for p in conv), default=0
        )
        self.requant_scratch_bytes = max(
            (p.requant_bytes for p in conv), default=0
        )
        #: Unfold-tile region of the depthwise layers: what they cut
        #: their tiles to (:func:`depthwise_blocking`).
        self.dw_tile_bytes = max((p.tile_bytes for p in conv), default=0)
        #: The fixed scratch both of the above take turns in.
        self.scratch_bytes = max(self.requant_scratch_bytes,
                                 -(-self.dw_tile_bytes // _INT64_BYTES) * _INT64_BYTES)
        # Slab storage; a slab-sharing arena leaves these unset and reads
        # its donor's.
        self._capacity = 0
        self._codes: List[Optional[np.ndarray]] = [None, None]
        self._pad: Optional[np.ndarray] = None
        self._cols: Optional[np.ndarray] = None
        self._acc: Optional[np.ndarray] = None
        self._scratch: Optional[np.ndarray] = None
        self._donor = slabs_from
        #: Arenas executing inside this arena's slabs.
        self._sharers: weakref.WeakSet[ActivationArena] = weakref.WeakSet()
        #: batch size -> {(id(layer), input shape, slot): (layer ref, views)},
        #: least recently used first.
        self._bindings: OrderedDict[int, Dict[tuple, Tuple[Any, Any]]] = OrderedDict()
        if slabs_from is not None:
            self._check_fits_donor(slabs_from)
            slabs_from._sharers.add(self)

    def _check_fits_donor(self, donor: "ActivationArena") -> None:
        """Every per-image byte need must fit the donor's slab sizing —
        guaranteed by monotonicity when the donor was planned for a
        geometry at least as large, asserted here so a violation fails
        loudly at plan time rather than corrupting a slab at run time."""
        pairs = [
            ("code slot 0", self.code_slot_bytes_per_image[0],
             donor.code_slot_bytes_per_image[0]),
            ("code slot 1", self.code_slot_bytes_per_image[1],
             donor.code_slot_bytes_per_image[1]),
            ("pad", self.pad_bytes_per_image, donor.pad_bytes_per_image),
            ("cols", self.cols_bytes_per_image, donor.cols_bytes_per_image),
            ("acc", self.acc_bytes_per_image, donor.acc_bytes_per_image),
            ("requant", self.requant_scratch_bytes,
             donor.requant_scratch_bytes),
            ("tile", self.dw_tile_bytes, donor.scratch_bytes),
        ]
        for label, need, have in pairs:
            if need > have:
                raise ValueError(
                    f"arena cannot share slabs: {label} needs {need} B/image "
                    f"but the donor arena only provisions {have} B/image"
                )

    # -- sizing --------------------------------------------------------
    def bytes_per_image(self) -> int:
        """Planned host bytes per batch element, all growing slabs."""
        return (
            sum(self.code_slot_bytes_per_image)
            + self.pad_bytes_per_image
            + self.cols_bytes_per_image
            + self.acc_bytes_per_image
        )

    @property
    def fixed_bytes(self) -> int:
        """Batch-independent slab bytes (the requant/tile scratch)."""
        return self.scratch_bytes

    def planned_bytes(self, batch_size: int) -> int:
        """Compile-time peak host activation bytes for a given tile size."""
        return self.bytes_per_image() * int(batch_size) + self.fixed_bytes

    def physical_code_bytes(self, batch_size: int = 1) -> int:
        """Physical bytes of the ping-pong code pair at container width.

        The runtime counterpart of Eq. 7's input/output activation pair:
        for a pure 8-bit network this equals
        :attr:`logical_rw_peak_bytes` exactly (asserted by the tests and
        by :func:`repro.mcu.deploy.assert_arena_fits`).
        """
        return sum(self.code_slot_bytes_per_image) * int(batch_size)

    @property
    def capacity(self) -> int:
        """Images the slabs hold right now (the donor's, when shared)."""
        return self._slab_owner._capacity

    @property
    def _slab_owner(self) -> "ActivationArena":
        return self if self._donor is None else self._donor

    @property
    def shares_slabs(self) -> bool:
        """Whether this arena executes inside a donor arena's slabs."""
        return self._donor is not None

    @property
    def donor(self) -> Optional["ActivationArena"]:
        """The max-geometry arena whose slabs this one adopts (or None)."""
        return self._donor

    @property
    def allocated_bytes(self) -> int:
        """Bytes actually held right now (== planned at current capacity).

        A slab-sharing arena owns nothing — its storage is accounted to
        the donor, so summing ``allocated_bytes`` over a plan's arenas
        never double-counts."""
        if self._donor is not None:
            return 0
        return self.planned_bytes(self._capacity) if self._capacity else 0

    @property
    def logical_rw_peak_bytes(self) -> int:
        """Paper Eq. 7 peak for this geometry (batch-1, packed codes)."""
        return logical_rw_peak_bytes(self.plans)

    # -- allocation ----------------------------------------------------
    def ensure(self, batch_size: int) -> None:
        """Grow the slabs to hold ``batch_size`` images (never shrinks).

        A slab-sharing arena grows the *donor* instead (at the donor's
        larger per-image sizes), whose slabs its views read — the donor's
        capacity for ``n`` images is sufficient for any smaller geometry
        by the monotonicity argument checked at construction."""
        n = int(batch_size)
        if self._donor is not None:
            self._donor.ensure(n)
            return
        if n <= self._capacity:
            return
        # Release the old slabs, and every view bound on them (ours and
        # our sharers'), before allocating: they are freed, not held
        # next to their replacements.
        self._drop_bindings()
        self._codes = [None, None]
        self._pad = self._cols = self._acc = None
        self._capacity = 0
        self._codes = [
            np.empty(n * self.code_slot_bytes_per_image[0], dtype=np.uint8),
            np.empty(n * self.code_slot_bytes_per_image[1], dtype=np.uint8),
        ]
        self._pad = np.empty(n * self.pad_bytes_per_image, dtype=np.uint8)
        self._cols = np.empty(n * self.cols_bytes_per_image, dtype=np.uint8)
        self._acc = np.empty(n * self.acc_bytes_per_image, dtype=np.uint8)
        if self._scratch is None and self.scratch_bytes:
            self._scratch = np.empty(
                self.scratch_bytes // _INT64_BYTES, dtype=np.int64
            )
        self._capacity = n

    # -- bindings ------------------------------------------------------
    def bound(self, layer, shape: Tuple[int, ...], slot: int):
        """The views ``layer`` runs one call in, for input ``shape`` and
        output code slot ``slot``.

        Built by ``layer.bind(self, shape, slot)`` on first use and
        returned as is until the slabs are reallocated or the batch size
        falls out of the :data:`MAX_BOUND_BATCHES` most recently used.
        Keyed by ``id(layer)`` with a weak reference to tell a recycled
        id apart, so the cache never keeps a layer (or the weights it
        may map from disk) alive.
        """
        group = self._bindings.get(shape[0])
        if group is None:
            group = self._bindings[shape[0]] = {}
            if len(self._bindings) > MAX_BOUND_BATCHES:
                self._bindings.popitem(last=False)
        else:
            self._bindings.move_to_end(shape[0])
        key = (id(layer), shape, slot)
        entry = group.get(key)
        if entry is None or entry[0]() is not layer:
            entry = group[key] = (weakref.ref(layer), layer.bind(self, shape, slot))
        return entry[1]

    def _drop_bindings(self) -> None:
        self._bindings.clear()
        for sharer in self._sharers:
            sharer._bindings.clear()

    # -- views (taken by the layers' bind step) ------------------------
    @staticmethod
    def _view(slab: np.ndarray, dtype, shape: Tuple[int, ...]) -> np.ndarray:
        count = math.prod(shape)
        nbytes = count * np.dtype(dtype).itemsize
        if nbytes > slab.nbytes:
            raise ValueError(
                f"arena slab overflow: need {nbytes} bytes, slab holds {slab.nbytes}"
            )
        return slab[:nbytes].view(dtype).reshape(shape)

    def codes(self, slot: int, shape: Tuple[int, ...], dtype) -> np.ndarray:
        return self._view(self._slab_owner._codes[slot % 2], dtype, shape)

    def pad(self, dtype, shape: Tuple[int, ...]) -> np.ndarray:
        return self._view(self._slab_owner._pad, dtype, shape)

    def cols(self, dtype, shape: Tuple[int, ...]) -> np.ndarray:
        return self._view(self._slab_owner._cols, dtype, shape)

    def acc(self, dtype, shape: Tuple[int, ...]) -> np.ndarray:
        return self._view(self._slab_owner._acc, dtype, shape)

    def requant_scratch(self) -> np.ndarray:
        """The flat int64 requantization scratch (fixed size per arena)."""
        owner = self._slab_owner
        if owner._scratch is None or not owner.requant_scratch_bytes:
            raise ValueError("arena was planned without requantization scratch")
        return owner._scratch[: owner.requant_scratch_bytes // _INT64_BYTES]

    def tile(self, dtype, shape: Tuple[int, ...]) -> np.ndarray:
        """A depthwise tile's unfold buffer, in the fixed scratch."""
        scratch = self._slab_owner._scratch
        if scratch is None:
            raise ValueError("arena was planned without a depthwise tile region")
        return self._view(scratch.view(np.uint8), dtype, shape)
