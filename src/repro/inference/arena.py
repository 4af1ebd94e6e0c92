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
* :class:`ActivationArena` turns that plan into views of preallocated
  slabs: a ping-pong pair of *container-width* code slabs (uint8 for
  every <=8-bit activation — the Eq. 7 input/output pair at its true
  physical width, sized per slot), pad/cols/acc scratch sized to the
  worst layer, and a small fixed scratch that the requantization and the
  depthwise tiles take turns in.  The slabs live in a :class:`SlabSet`
  that every input geometry of one plan runs in, and every slab is
  reused by every subsequent call;
* :func:`logical_rw_peak_bytes` evaluates the *paper's* Eq. 7 over the
  same per-layer plan, using the identical packed-tensor formula as
  :mod:`repro.core.memory_model` (imported, not reimplemented), so the
  arena and the analytical model cannot drift — the tests assert the two
  agree layer for layer on every model-zoo spec, and that for a pure
  8-bit network the ping-pong pair's *physical* bytes equal the Eq. 7
  peak exactly (:meth:`ActivationArena.physical_code_bytes`).

Buffers are raw ``uint8`` slabs viewed at the per-layer dtype, so a
float32-tier depthwise layer and a float64 pointwise layer share the same
storage.  ``SlabSet.hold`` grows the slab set to the largest per-image
need and batch that has run (never shrinks); for one geometry the
planned peak at a given tile size is exact and is what ``run_batched``
is bounded by.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.memory_model import activation_rw_bytes
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


def requant_scratch_bytes(requant_kind: str, c_out: int, out_elems: int,
                          row: int = 1) -> int:
    """Fixed int64 scratch one layer's chunked requantization needs.

    Fixed-point layers tile the accumulator into ~``REQUANT_SCRATCH_BYTES``
    chunks of whole rows of ``row`` outputs (``OW`` for a wide-row layer,
    whose outputs are an ``(OH, OW)`` view; else 1), never smaller than one
    ``(C, row)`` block so the per-channel constants broadcast; threshold
    layers consume one whole image at a time (per-channel
    ``searchsorted`` wants contiguous rows).
    """
    if requant_kind == "thr":
        return out_elems * _INT64_BYTES
    return max(c_out * row * _INT64_BYTES,
               min(out_elems * _INT64_BYTES, REQUANT_SCRATCH_BYTES))


def unfolds_rows(kind: str, kh: int, kw: int, stride: int) -> bool:
    """Whether a layer unfolds on the wide row grid of
    :func:`~repro.nn.functional.im2col` (``wide=True``): every stride-1
    depthwise layer with a kernel larger than 1x1.  A strided depthwise
    layer keeps the ``(OH, OW)`` grid, where a wide one would double its
    GEMM columns."""
    return kind == "dw" and stride == 1 and (kh, kw) != (1, 1)


def depthwise_columns(kw: int, stride: int, oh: int, ow: int) -> int:
    """Columns one channel of one image unfolds per tap, and accumulates,
    in a depthwise layer: ``(OH-1)*Wp + OW`` on a stride-1 layer's wide
    row grid, whose pitch is the padded width ``Wp = OW + kw - 1``;
    ``OH*OW`` otherwise (the two agree when ``OH`` is 1 or ``kw`` is 1)."""
    if stride == 1:
        return (oh - 1) * (ow + kw - 1) + ow
    return oh * ow


def depthwise_channel_bytes(kh: int, kw: int, stride: int, oh: int, ow: int,
                            itemsize: int) -> int:
    """Bytes one channel of one image unfolds to in a depthwise layer
    (0 for a 1x1 stride-1 kernel, whose unfold is a view)."""
    if kh == 1 and kw == 1 and stride == 1:
        return 0
    return kh * kw * depthwise_columns(kw, stride, oh, ow) * itemsize


def depthwise_tile_bound(channels: int, channel_bytes: int) -> int:
    """Fixed bytes a depthwise layer's unfold tiles need.

    One image's unfold when that is smaller, else :data:`DW_TILE_BYTES`
    (or one channel's unfold, if that alone is larger).
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


def plan_activations(layers: Sequence[Any], input_hw: Tuple[int, int],
                     classifier: Any = None) -> List[LayerActivationPlan]:
    """Cascade ``input_hw`` through compiled layers and size every buffer.

    ``layers`` are a plan's
    :class:`~repro.inference.plan.CompiledConvLayer` trunk; their slabs
    are sized at the wider of the operand and accumulator dtypes (they
    differ only for split-K sgemm layers).  A ``classifier``
    (:class:`~repro.inference.plan.CompiledLinear`) is planned after an
    implicit global average pool, i.e. at spatial size 1x1 — matching
    both the deployment graph and the model-zoo :class:`LayerSpec`
    convention.
    """
    h, w = int(input_hw[0]), int(input_hw[1])
    plans: List[LayerActivationPlan] = []
    for g in layers:
        oh = conv_output_size(h, g.kh, g.stride, g.padding)
        ow = conv_output_size(w, g.kw, g.stride, g.padding)
        if oh < 1 or ow < 1:
            raise ValueError(
                f"layer {g.name!r}: input {h}x{w} collapses to {oh}x{ow}"
            )
        itemsize = max(np.dtype(g.gemm_dtype).itemsize, np.dtype(g.acc_dtype).itemsize)
        hp, wp = h + 2 * g.padding, w + 2 * g.padding
        out_elems = acc_elems = g.out_channels * oh * ow
        tile_bytes = 0
        if g.kind == "dw":
            # A depthwise layer unfolds tile by tile into the fixed
            # scratch, and accumulates its unfold's columns (the junk
            # ones of a wide row grid too).
            cols_elems = 0
            acc_elems = g.out_channels * depthwise_columns(g.kw, g.stride, oh, ow)
            tile_bytes = depthwise_tile_bound(g.in_channels, depthwise_channel_bytes(
                g.kh, g.kw, g.stride, oh, ow, itemsize))
        elif g.kh == 1 and g.kw == 1 and g.stride == 1:
            # im2col of a 1x1/s1 kernel is a pure view; split-K layers
            # repurpose the cols slab as their sgemm chunk buffer.
            cols_elems = 0 if g.split_k is None else out_elems
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
                acc_elems=acc_elems,
                gemm_itemsize=itemsize,
                out_itemsize=np.dtype(g.out_dtype).itemsize,
                requant_bytes=requant_scratch_bytes(
                    g.requant_kind, g.out_channels, out_elems,
                    row=ow if g.unfold == "rows" else 1,
                ),
                tile_bytes=tile_bytes,
            )
        )
        h, w = oh, ow
    if classifier is not None:
        c = classifier
        # Logits leave the integer domain; for the Eq. 7 model the
        # classifier output is accounted at the activation width.
        plans.append(LayerActivationPlan(
            name=c.name, kind="fc",
            in_shape=(c.k_reduction, 1, 1), out_shape=(c.out_channels, 1, 1),
            in_bits=c.in_bits, out_bits=c.in_bits,
            pad_elems=0, cols_elems=0, acc_elems=0,
            gemm_itemsize=np.dtype(c.gemm_dtype).itemsize,
            out_itemsize=container_dtype(c.in_bits).itemsize,
        ))
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


class SlabSet:
    """The storage every input geometry of one plan runs in.

    One raw ``uint8`` slab each for the ping-pong code pair, pad, cols
    and acc, which hold :attr:`capacity` images at the largest per-image
    need among the arenas it has held, and for the fixed scratch, at the
    largest fixed need.  :meth:`hold` only ever grows them.
    """

    def __init__(self) -> None:
        self.capacity = 0
        self.slabs: Dict[str, Optional[np.ndarray]] = dict.fromkeys(
            ("code0", "code1", "pad", "cols", "acc", "scratch")
        )
        #: Bytes per image of each growing slab, then the fixed scratch
        #: bytes, as allocated (in the order of :attr:`slabs`).
        self.sizes: Tuple[int, ...] = (0,) * len(self.slabs)

    @property
    def allocated_bytes(self) -> int:
        """Bytes the slabs hold right now."""
        if not self.capacity:
            return 0
        return sum(self.sizes[:-1]) * self.capacity + self.sizes[-1]

    def hold(self, arena: "ActivationArena", batch_size: int,
             release: Callable[[], None]) -> None:
        """Grow to hold ``batch_size`` images of ``arena``'s geometry.

        Before it reallocates it calls ``release``, which must drop every
        view of the slabs, so the old slabs are freed, not held next to
        their replacements.
        """
        sizes = tuple(map(max, self.sizes, arena.slab_sizes()))
        n = max(int(batch_size), self.capacity)
        if n == self.capacity and sizes == self.sizes:
            return
        release()
        nbytes = [size * n for size in sizes[:-1]] + [sizes[-1]]
        stale = {name: want for (name, slab), want in zip(self.slabs.items(), nbytes)
                 if slab is None or slab.nbytes != want}
        self.capacity = 0
        self.slabs.update(dict.fromkeys(stale))
        for name, want in stale.items():
            self.slabs[name] = np.empty(want, dtype=np.uint8)
        self.sizes, self.capacity = sizes, n


class ActivationArena:
    """One input geometry's activation plan, run in a plan's slabs.

    Sized per batch element at plan time, in raw ``uint8`` slabs of a
    :class:`SlabSet`:

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
        The GEMM accumulator (float tier or int64 depending on
        the layer's dispatch); a depthwise tile accumulates into a prefix,
        over its unfold's columns (a wide row grid's junk ones too).
    ``scratch``
        A small *fixed-size* (batch-independent) int64 buffer that two
        users take turns in.  The chunked requantization tiles the
        accumulator through its first ``requant_scratch_bytes``; a
        depthwise layer unfolds each tile in its first
        ``dw_tile_bytes``.  A tile's columns are dead once its GEMM has
        run, which is before its requantization writes the scratch.

    The arena is a size plan: its per-layer plan list (so Eq. 7
    accounting, ``describe`` and the physical-bytes checks stay exact
    for its geometry), its per-image sizing and its tile region.  It
    holds no storage of its own: every geometry of an
    :class:`~repro.inference.plan.ExecutionPlan` runs in the plan's one
    slab set, which
    :meth:`SlabSet.hold` grows to this geometry's sizes and a batch
    (never shrinks).  A compiled layer's ``bind`` takes its views from
    the arena, sliced to the live batch and geometry, so a smaller
    batch or geometry reuses the same storage.
    """

    def __init__(self, plans: Sequence[LayerActivationPlan], slabs: SlabSet):
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
        self._slabs = slabs

    # -- sizing --------------------------------------------------------
    def bytes_per_image(self) -> int:
        """Planned host bytes per batch element, all growing slabs."""
        return sum(self.slab_sizes()[:-1])

    def slab_sizes(self) -> Tuple[int, ...]:
        """This geometry's need of each slab, in the order of
        :attr:`SlabSet.slabs`: bytes per image of the growing slabs, then
        the fixed scratch."""
        return (*self.code_slot_bytes_per_image, self.pad_bytes_per_image,
                self.cols_bytes_per_image, self.acc_bytes_per_image,
                self.scratch_bytes)

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
    def logical_rw_peak_bytes(self) -> int:
        """Paper Eq. 7 peak for this geometry (batch-1, packed codes)."""
        return logical_rw_peak_bytes(self.plans)

    # -- views (taken by the layers' bind step) ------------------------
    def _view(self, name: str, dtype, shape: Tuple[int, ...]) -> np.ndarray:
        slab = self._slabs.slabs[name]
        if slab is None:
            raise ValueError("arena slabs are not allocated; hold the arena first")
        nbytes = math.prod(shape) * np.dtype(dtype).itemsize
        if nbytes > slab.nbytes:
            raise ValueError(
                f"arena slab overflow: need {nbytes} bytes, slab holds {slab.nbytes}"
            )
        return slab[:nbytes].view(dtype).reshape(shape)

    def codes(self, slot: int, shape: Tuple[int, ...], dtype) -> np.ndarray:
        return self._view(f"code{slot % 2}", dtype, shape)

    def pad(self, dtype, shape: Tuple[int, ...]) -> np.ndarray:
        return self._view("pad", dtype, shape)

    def cols(self, dtype, shape: Tuple[int, ...]) -> np.ndarray:
        return self._view("cols", dtype, shape)

    def acc(self, dtype, shape: Tuple[int, ...]) -> np.ndarray:
        return self._view("acc", dtype, shape)

    def requant_scratch(self) -> np.ndarray:
        """The flat int64 requantization scratch (this geometry's size)."""
        if not self.requant_scratch_bytes:
            raise ValueError("arena was planned without requantization scratch")
        return self._view("scratch", np.int64,
                          (self.requant_scratch_bytes // _INT64_BYTES,))

    def tile(self, dtype, shape: Tuple[int, ...]) -> np.ndarray:
        """A depthwise tile's unfold buffer, in the fixed scratch."""
        return self._view("scratch", dtype, shape)
