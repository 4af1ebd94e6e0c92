"""Static plan verifier: prove a compiled plan safe without executing it.

The compiled :class:`~repro.inference.plan.ExecutionPlan` rests on a
stack of hand-maintained invariants — accumulator-overflow bounds that
gate the sgemm/int32 dispatch, sub-byte container-dtype rules across
quantizer → packing → arena, requantization shift ranges, and the
ping-pong slab lifetime discipline of the activation arena.  Runtime
tests only exercise these on the inputs they happen to run;
:func:`verify_plan` re-derives each invariant symbolically from the
compiled state and fails with a layer-named diagnostic when any is
violated, so *every* plan (including one rebuilt from a saved artifact)
can be proven safe before its first inference.

Five rule families (the rule name appears in every diagnostic):

``acc-bound``
    Per-layer worst-case ``|Phi|`` recomputed from the actual shifted
    weights (a-priori corner case *and* the refined weight-data bound,
    plus split-K per-chunk bounds) must fit the dispatched backend:
    float32 < 2^24, int32 < 2^31, float64 < 2^53, int64 unconditional.
``container-dtype``
    Output codes must land in exactly the container
    :func:`~repro.inference.packing.container_dtype` prescribes for
    their bit width (never a wider slab), requantization clamps must
    match ``2^bits - 1``, and the bit/channel chain across layers must
    be consistent.
``requant-shift``
    Fixed-point shift split into ``[0, 62]`` right / non-negative left
    parts, ``|m0| < 2^31`` (Q31 multiplier), ``z_y`` within the output
    code range; the folded Eq. 5 constants ``M = m0 << lshift``,
    ``B = (bq * m0) << lshift`` (and, on the float64 tier,
    ``C = B + (z_y << rshift)``, ``M' = M * 2^-rshift``,
    ``C' = C * 2^-rshift``) recomputed in Python ints equal to the
    compiled ones; and per channel, at the layer's accumulator bound,
    ``acc_bound * |M| + |C| < 2^53`` for a float64-tier epilogue or
    ``acc_bound * |M| + |B| < 2^63`` for an int64-tier one.  Threshold
    tables sized ``2^bits - 1`` and sorted.
``slab-aliasing``
    Walk the ping-pong schedule and prove no two simultaneously-live
    tensors share slab bytes and every read happens inside its
    producer's live range: each layer's input slot must have been
    written last by its predecessor (no stale reads), cover at least the
    bytes read, and differ from the layer's output slot; every per-layer
    slab view must fit its slab (no silent overflow at run time).
``dw-tiles``
    Per depthwise layer and geometry, the tile loop's blocking
    (:meth:`~repro.inference.plan.CompiledConvLayer.tile_blocking`): its
    channel blocks cover every channel exactly once, and its largest
    tile — images per tile x widest channel block x one channel's
    unfold, recomputed here — fits the fixed scratch it unfolds into.
    Image blocks come from :func:`~repro.inference.arena.balanced_blocks`
    (a partition of any batch), so the two facts hold at every batch
    size.  The tile region time-shares that scratch with the
    requantization: a tile's columns are dead once its GEMM has run.

Structural inconsistencies discovered on the way (shape mismatches,
non-integral weights, broken metadata cross-checks) are reported under
``structure``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.inference.arena import requant_scratch_bytes
from repro.inference.kernels import (
    FLOAT32_EXACT_BITS,
    FLOAT64_EXACT_BITS,
    INT32_EXACT_BITS,
    a_priori_gemm_backend,
    max_abs_accumulator,
)
from repro.inference.packing import container_dtype
from repro.nn.functional import conv_output_size

__all__ = [
    "PlanVerificationError",
    "VerificationReport",
    "Violation",
    "verify_artifact",
    "verify_plan",
]

_INT64 = np.dtype(np.int64)

#: Maximum right-shift the compiled fixed-point requantization applies
#: (same clamp as ``icn._fixed_point_scale`` / ``_CompiledFixedPointRequant``).
_MAX_RSHIFT = 62


@dataclass(frozen=True)
class Violation:
    """One failed static check, pinned to a rule and a layer."""

    rule: str
    layer: str
    message: str

    def __str__(self) -> str:
        return f"[{self.rule}] {self.layer}: {self.message}"


class PlanVerificationError(ValueError):
    """A compiled plan failed static verification.

    Carries the full list of :class:`Violation` diagnostics (each naming
    its rule and layer), not just the first one, so a corrupted artifact
    reports every broken invariant in one pass.
    """

    def __init__(self, violations: Sequence[Violation]):
        self.violations: List[Violation] = list(violations)
        lines = [f"plan verification failed ({len(self.violations)} violation(s)):"]
        lines += [f"  {v}" for v in self.violations]
        super().__init__("\n".join(lines))

    @property
    def layers(self) -> List[str]:
        return [v.layer for v in self.violations]

    @property
    def rules(self) -> List[str]:
        return [v.rule for v in self.violations]


@dataclass
class VerificationReport:
    """Outcome of one verification pass: per-rule check counts + violations."""

    checks: Dict[str, int] = field(default_factory=dict)
    violations: List[Violation] = field(default_factory=list)
    #: Eq. 5 epilogue tier proven per conv layer ("f64", "i64", "thr").
    tiers: Dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def count(self, rule: str) -> int:
        return self.checks.get(rule, 0)

    def passed(self, rule: str, n: int = 1) -> None:
        self.checks[rule] = self.checks.get(rule, 0) + n

    def fail(self, rule: str, layer: str, message: str) -> None:
        self.checks[rule] = self.checks.get(rule, 0) + 1
        self.violations.append(Violation(rule, layer, message))

    def raise_if_failed(self) -> None:
        if self.violations:
            raise PlanVerificationError(self.violations)

    def summary(self) -> str:
        total = sum(self.checks.values())
        status = "ok" if self.ok else f"{len(self.violations)} violation(s)"
        per_rule = ", ".join(
            f"{rule}={n}" for rule, n in sorted(self.checks.items())
        )
        tiers = sorted(Counter(self.tiers.values()).items())
        eq5 = "; eq5 tiers " + ", ".join(f"{t}={n}" for t, n in tiers) if tiers else ""
        return f"verified {total} checks ({per_rule}){eq5}: {status}"


# ----------------------------------------------------------------------
# Per-layer helpers
# ----------------------------------------------------------------------
def _recover_int_weights(layer, report: VerificationReport) -> Optional[np.ndarray]:
    """The layer's shifted weights back in exact int64 ``(O, K)`` form.

    The compiled plan stores them at the GEMM dtype (float32/float64/
    int32/int64); a float-stored weight that is not an exact integer can
    never have come from integer codes and is reported as a ``structure``
    violation.
    """
    if getattr(layer, "kind", "") == "fc":
        w = np.asarray(layer.w_t).T  # stored (K, O)
    else:
        w = np.asarray(layer.w2)  # a depthwise layer's may be (C, 1, kh*kw)
    w = w.reshape(w.shape[0], -1)
    if w.dtype.kind == "f":
        rounded = np.rint(w)
        if not np.array_equal(rounded, w):
            report.fail(
                "structure", layer.name,
                f"float-stored weights are not exact integers (dtype {w.dtype})",
            )
            return None
        w = rounded
    return w.astype(np.int64)


def _x_magnitude(z_x: int, x_bits: int) -> int:
    """Worst-case ``max|X - Z_x|`` over in-range input codes."""
    return max(int(z_x), 2 ** x_bits - 1 - int(z_x))


def _check_acc_bound(layer, plan_validate: bool, report: VerificationReport) -> None:
    """Accumulator-overflow safety of one compiled layer's dispatch."""
    name = layer.name
    w = _recover_int_weights(layer, report)
    if w is None:
        return
    k = int(layer.k_reduction)
    if w.shape[1] != k:
        report.fail(
            "structure", name,
            f"weight reduction width {w.shape[1]} != declared k_reduction {k}",
        )
        return
    w_limit = 2 ** layer.w_bits - 1
    w_max = int(np.abs(w).max()) if w.size else 0
    if w_max > w_limit:
        report.fail(
            "acc-bound", name,
            f"shifted weight magnitude {w_max} exceeds 2^{layer.w_bits}-1 = "
            f"{w_limit} — weight codes were out of range",
        )
        return
    apriori = max_abs_accumulator(k, layer.in_bits, layer.w_bits)
    x_mag = _x_magnitude(layer.z_x, layer.in_bits)
    per_channel = (
        np.abs(w).sum(axis=1, dtype=np.int64) * x_mag
        if w.size else np.zeros(w.shape[0], dtype=np.int64)
    )
    refined = int(per_channel.max()) if per_channel.size else 0
    # The refinement is only sound when boundary validation guarantees
    # in-range codes; mirror the compiler's gating exactly.
    bound = min(apriori, refined) if plan_validate else apriori
    recorded = int(layer.acc_bound)
    if recorded < bound:
        report.fail(
            "acc-bound", name,
            f"recorded acc_bound {recorded} understates the recomputed "
            f"worst-case |Phi| {bound}",
        )
        return
    backend = layer.backend
    gemm = np.dtype(layer.gemm_dtype)
    split_k = getattr(layer, "split_k", None)
    if split_k is not None:
        _check_split_k(layer, w, x_mag, report)
        # The chunk sums accumulate exactly in float64; the whole-layer
        # bound must still fit the float64 significand.
        limit, limit_desc = 1 << FLOAT64_EXACT_BITS, "2^53 (split-K float64 acc)"
    elif backend == "blas" and gemm == np.float32:
        limit, limit_desc = 1 << FLOAT32_EXACT_BITS, "2^24 (float32 significand)"
    elif backend == "blas" and gemm == np.float64:
        limit, limit_desc = 1 << FLOAT64_EXACT_BITS, "2^53 (float64 significand)"
    elif backend == "int32" and gemm == np.int32:
        limit, limit_desc = 1 << INT32_EXACT_BITS, "2^31 (int32 accumulator)"
    elif backend == "int64" and gemm == _INT64:
        report.passed("acc-bound")
        return  # unbounded reference path
    else:
        report.fail(
            "acc-bound", name,
            f"unknown backend/dtype combination ({backend!r}, {gemm.name})",
        )
        return
    if bound >= limit:
        report.fail(
            "acc-bound", name,
            f"worst-case |Phi| = {bound} >= {limit_desc} for backend "
            f"{backend!r}/{gemm.name} (k={k}, Qx={layer.in_bits}, "
            f"Qw={layer.w_bits})",
        )
        return
    report.passed("acc-bound")


def _check_split_k(layer, w: np.ndarray, x_mag: int,
                   report: VerificationReport) -> None:
    """Split-K soundness: chunk partition + per-chunk float32 bounds."""
    name = layer.name
    chunks = list(layer.split_k)
    ok = True
    if not (layer.backend == "blas"
            and np.dtype(layer.gemm_dtype) == np.float32
            and np.dtype(layer.acc_dtype) == np.float64):
        report.fail(
            "acc-bound", name,
            f"split-K layer must run float32 sgemm chunks into a float64 "
            f"accumulator, got {layer.backend!r}/"
            f"{np.dtype(layer.gemm_dtype).name}/{np.dtype(layer.acc_dtype).name}",
        )
        ok = False
    if not (layer.kind == "pw" and layer.kh == 1 and layer.kw == 1
            and layer.stride == 1 and layer.padding == 0):
        report.fail(
            "acc-bound", name,
            "split-K is only sound for 1x1 stride-1 unpadded pointwise "
            f"layers, got kind={layer.kind!r} {layer.kh}x{layer.kw} "
            f"s{layer.stride} p{layer.padding}",
        )
        ok = False
    k = int(layer.k_reduction)
    starts = [c[0] for c in chunks]
    ends = [c[1] for c in chunks]
    if (starts[0] != 0 or ends[-1] != k
            or any(ends[i] != starts[i + 1] for i in range(len(chunks) - 1))
            or any(e <= s for s, e in chunks)):
        report.fail(
            "acc-bound", name,
            f"split-K chunks {chunks} do not partition [0, {k}) contiguously",
        )
        return
    limit = 1 << FLOAT32_EXACT_BITS
    for i, (k0, k1) in enumerate(chunks):
        chunk_bound = int(
            (np.abs(w[:, k0:k1]).sum(axis=1, dtype=np.int64) * x_mag).max()
        )
        if chunk_bound >= limit:
            report.fail(
                "acc-bound", name,
                f"split-K chunk {i} [{k0}:{k1}] worst-case |Phi| = "
                f"{chunk_bound} >= 2^{FLOAT32_EXACT_BITS} — sgemm chunk is "
                "not exact",
            )
            ok = False
    w2c = getattr(layer, "w2_chunks", None)
    if w2c is None or len(w2c) != len(chunks) or any(
        c.shape != (w.shape[0], k1 - k0) for c, (k0, k1) in zip(w2c, chunks)
    ):
        report.fail(
            "structure", name,
            "w2_chunks do not match the declared split-K partition",
        )
        ok = False
    if ok:
        report.passed("acc-bound")


def _check_container(layer, report: VerificationReport) -> None:
    """Container-dtype soundness of one layer's output codes."""
    name = layer.name
    out_dtype = np.dtype(layer.out_dtype)
    expected = container_dtype(layer.out_bits)
    if out_dtype != expected:
        report.fail(
            "container-dtype", name,
            f"output codes land in {out_dtype.name} but container_dtype"
            f"({layer.out_bits}) prescribes {expected.name}",
        )
        return
    qmax = 2 ** layer.out_bits - 1
    requant = layer.requant
    if requant.kind == "fixed":
        if int(requant.qmax) != qmax:
            report.fail(
                "container-dtype", name,
                f"requant clamps to {requant.qmax} but UINT{layer.out_bits} "
                f"codes end at {qmax}",
            )
            return
    elif requant.kind == "thr":
        if int(requant.levels) != qmax + 1:
            report.fail(
                "container-dtype", name,
                f"threshold requant emits {requant.levels} levels but "
                f"UINT{layer.out_bits} holds {qmax + 1}",
            )
            return
    if qmax > int(np.iinfo(out_dtype).max):
        report.fail(
            "container-dtype", name,
            f"container {out_dtype.name} cannot hold the maximum "
            f"UINT{layer.out_bits} code {qmax}",
        )
        return
    report.passed("container-dtype")


def _check_requant(layer, report: VerificationReport) -> None:
    """Requantization ranges, folded Eq. 5 constants and the tier bound."""
    name = layer.name
    requant = layer.requant
    if requant.kind == "thr":
        tables = requant.tables
        if len(tables) != layer.out_channels:
            report.fail(
                "requant-shift", name,
                f"{len(tables)} threshold tables for {layer.out_channels} "
                "output channels",
            )
            return
        for c, (table, _direction) in enumerate(tables):
            if table.shape[0] != requant.levels - 1:
                report.fail(
                    "requant-shift", name,
                    f"channel {c}: {table.shape[0]} thresholds for "
                    f"{requant.levels} levels",
                )
                return
            if table.size > 1 and bool(np.any(np.diff(table) < 0)):
                report.fail(
                    "requant-shift", name,
                    f"channel {c}: threshold table is not sorted ascending",
                )
                return
        report.tiers[name] = "thr"
        report.passed("requant-shift")
        return
    rshift = np.asarray(requant.rshift).reshape(-1)
    lshift = np.asarray(requant.lshift).reshape(-1)
    if rshift.size and (int(rshift.min()) < 0 or int(rshift.max()) > _MAX_RSHIFT):
        report.fail(
            "requant-shift", name,
            f"right shift out of [0, {_MAX_RSHIFT}]: range "
            f"[{int(rshift.min())}, {int(rshift.max())}]",
        )
        return
    if lshift.size and int(lshift.min()) < 0:
        report.fail(
            "requant-shift", name,
            f"negative left shift {int(lshift.min())}",
        )
        return
    both = np.broadcast_arrays(rshift, lshift)
    if bool(np.any((both[0] > 0) & (both[1] > 0))):
        report.fail(
            "requant-shift", name,
            "a channel applies both a right and a left shift — the split "
            "shift must be one-sided",
        )
        return
    m0 = np.asarray(requant.m0).reshape(-1)
    if m0.dtype.kind not in "iu":
        report.fail(
            "requant-shift", name,
            f"Q31 multiplier stored as {m0.dtype} — must be an integer dtype",
        )
        return
    if m0.size and int(np.abs(m0).max()) >= (1 << 31):
        report.fail(
            "requant-shift", name,
            f"|m0| = {int(np.abs(m0).max())} >= 2^31 — not a Q31 multiplier",
        )
        return
    qmax = 2 ** layer.out_bits - 1
    if not (0 <= int(requant.z_y) <= qmax):
        report.fail(
            "requant-shift", name,
            f"output zero point {requant.z_y} outside [0, {qmax}]",
        )
        return
    tier = getattr(requant, "tier", None)
    if tier not in ("f64", "i64"):
        report.fail(
            "requant-shift", name,
            f"unknown Eq. 5 epilogue tier {tier!r} (expected 'f64' or 'i64')",
        )
        return
    # Fold the constants again in Python ints (no wraparound) and prove
    # the tier's bound at the layer's accumulator bound, per channel.
    bound = int(layer.acc_bound)
    c_out = layer.out_channels
    consts = {
        "bq": requant.bq, "m0": requant.m0, "rshift": requant.rshift,
        "lshift": lshift, "M": requant.m_int, "B": requant.b_int,
    }
    if tier == "f64":
        consts.update({"M_f64": requant.m_f64, "C_f64": requant.c_f64})
    per_channel = {}
    for key, value in consts.items():
        flat = np.asarray(value).reshape(-1)
        if flat.size not in (1, c_out):
            report.fail(
                "structure", name,
                f"requant constant {key} has {flat.size} entries for "
                f"{c_out} channels",
            )
            return
        per_channel[key] = np.broadcast_to(flat, (c_out,)).tolist()
    for c in range(c_out):
        bq_c, m0_c = int(per_channel["bq"][c]), int(per_channel["m0"][c])
        r, ls = int(per_channel["rshift"][c]), int(per_channel["lshift"][c])
        m_c = m0_c << ls
        b_c = (bq_c * m0_c) << ls
        if per_channel["M"][c] != m_c or per_channel["B"][c] != b_c:
            report.fail(
                "requant-shift", name,
                f"channel {c}: folded M={per_channel['M'][c]}, "
                f"B={per_channel['B'][c]} but m0 << lshift = {m_c}, "
                f"(bq * m0) << lshift = {b_c}",
            )
            return
        if tier == "i64":
            # Phi * M + B, then (>> rshift) + z_y, must both stay in int64.
            worst = bound * abs(m_c) + abs(b_c)
            if worst >= (1 << 63) or (worst >> r) + int(requant.z_y) >= (1 << 63):
                report.fail(
                    "requant-shift", name,
                    f"channel {c}: acc_bound * |M| + |B| = {worst} (then "
                    f">> {r}, + z_y) reaches 2^63 — the int64 epilogue "
                    "overflows",
                )
                return
            continue
        c_c = b_c + (int(requant.z_y) << r)
        # M' and C' must be M and C scaled by exactly 2^-rshift: scaling
        # the stored float back up by 2^rshift is exact (no rounding
        # below 2^1024), and float == int compares exactly.
        m_f, c_f = per_channel["M_f64"][c], per_channel["C_f64"][c]
        if math.ldexp(m_f, r) != m_c or math.ldexp(c_f, r) != c_c:
            report.fail(
                "requant-shift", name,
                f"channel {c}: float64 constants M'={m_f!r}, C'={c_f!r} "
                f"are not M={m_c}, C={c_c} scaled by 2^-{r}",
            )
            return
        worst = bound * abs(m_c) + abs(c_c)
        if worst >= (1 << FLOAT64_EXACT_BITS):
            report.fail(
                "requant-shift", name,
                f"channel {c}: acc_bound * |M| + |C| = {worst} >= 2^53 — "
                "the float64 epilogue is not exact",
            )
            return
    report.tiers[name] = tier
    report.passed("requant-shift")


# ----------------------------------------------------------------------
# Arena slab lifetime / aliasing
# ----------------------------------------------------------------------
def _conv_slab_needs(layer, h: int, w: int) -> Tuple[Dict[str, int], Tuple[int, int]]:
    """Per-image slab bytes one compiled conv layer touches at ``(h, w)``.

    Recomputed from the compiled layer itself — independently of the
    arena planner — so a plan whose arena was sized for the wrong
    geometry (or tampered with) fails the capacity comparison.
    """
    oh = conv_output_size(h, layer.kh, layer.stride, layer.padding)
    ow = conv_output_size(w, layer.kw, layer.stride, layer.padding)
    gemm_isz = max(
        np.dtype(layer.gemm_dtype).itemsize,
        np.dtype(getattr(layer, "acc_dtype", layer.gemm_dtype)).itemsize,
    )
    out_elems = layer.out_channels * oh * ow
    hp, wp = h + 2 * layer.padding, w + 2 * layer.padding
    pad = layer.in_channels * hp * wp * gemm_isz
    if layer.kind == "dw":
        # Depthwise tiles unfold into the fixed scratch (_check_dw_tiles).
        cols = 0
    elif layer.kh == 1 and layer.kw == 1 and layer.stride == 1:
        # A 1x1/s1 unfold is a view; only a split-K layer uses the slab
        # (its sgemm chunk).
        cols = out_elems * gemm_isz if getattr(layer, "split_k", None) else 0
    else:
        cols = layer.in_channels * layer.kh * layer.kw * oh * ow * gemm_isz
    acc = out_elems * gemm_isz
    out = out_elems * np.dtype(layer.out_dtype).itemsize
    requant = requant_scratch_bytes(
        layer.kind, layer.requant_kind, layer.out_channels, out_elems
    )
    return (
        {"pad": pad, "cols": cols, "acc": acc, "out": out, "requant": requant},
        (oh, ow),
    )


def _check_dw_tiles(layer, h: int, w: int, region: int, capacity: int,
                    report: VerificationReport) -> None:
    """A depthwise layer's tiles at input ``(h, w)``: a channel partition
    and a largest tile that fits the ``capacity``-byte fixed scratch."""
    name = layer.name
    oh = conv_output_size(h, layer.kh, layer.stride, layer.padding)
    ow = conv_output_size(w, layer.kw, layer.stride, layer.padding)
    if layer.kh == 1 and layer.kw == 1 and layer.stride == 1:
        channel_bytes = 0  # the unfold is a view of the padded input
    else:
        channel_bytes = (layer.kh * layer.kw * oh * ow
                         * np.dtype(layer.gemm_dtype).itemsize)
    images, blocks = layer.tile_blocking(h, w, region)
    where = f"at {h}x{w}"
    if images < 1:
        report.fail("dw-tiles", name, f"{images} images per tile {where}")
        return
    covered = 0
    for c0, c1 in blocks:
        if c0 != covered or c1 <= c0:
            gap = (f"skips channels [{covered}, {c0})" if c0 > covered
                   else f"overlaps or repeats channels from {c0}")
            report.fail(
                "dw-tiles", name,
                f"channel blocks {list(blocks)} {where}: block [{c0}, {c1}) {gap}",
            )
            return
        covered = c1
    if covered != layer.in_channels:
        report.fail(
            "dw-tiles", name,
            f"channel blocks {list(blocks)} {where} cover [0, {covered}) of "
            f"{layer.in_channels} channels",
        )
        return
    widest = max(c1 - c0 for c0, c1 in blocks)
    largest = images * widest * channel_bytes
    if largest > capacity:
        report.fail(
            "dw-tiles", name,
            f"largest tile {where} unfolds {largest} B ({images} image(s) x "
            f"{widest} channel(s)) but the tile region holds {capacity} B",
        )
        return
    report.passed("dw-tiles")


def _check_arena(plan, input_hw: Tuple[int, int],
                 schedule: Optional[Sequence[Tuple[int, int]]],
                 report: VerificationReport) -> None:
    """Slab capacity + ping-pong lifetime safety for one input geometry."""
    layers = plan.layers
    label = f"arena {input_hw[0]}x{input_hw[1]}"
    try:
        arena = plan.arena_for(input_hw)
    except ValueError as exc:
        report.fail("slab-aliasing", label, f"arena planning failed: {exc}")
        return
    # A donor-backed arena executes inside the donor's storage — its
    # capacity is what the views must fit (checked at adoption, and
    # re-proved here against the compiled layers).
    owner = arena.donor if arena.shares_slabs else arena
    slot_bytes = owner.code_slot_bytes_per_image
    slab_caps = {
        "pad": owner.pad_bytes_per_image,
        "cols": owner.cols_bytes_per_image,
        "acc": owner.acc_bytes_per_image,
        "requant": owner.requant_scratch_bytes,
    }
    if schedule is None:
        schedule = [((i - 1) % 2, i % 2) for i in range(len(layers))]
    if len(schedule) != len(layers):
        report.fail(
            "slab-aliasing", label,
            f"schedule covers {len(schedule)} layers, plan has {len(layers)}",
        )
        return
    h, w = int(input_hw[0]), int(input_hw[1])
    # last_write[slot] = (producer index, bytes written) — the lifetime
    # state the ping-pong walk threads through the trunk.
    last_write: Dict[int, Tuple[int, int]] = {}
    ok = True
    for i, layer in enumerate(layers):
        name = layer.name
        in_slot, out_slot = schedule[i]
        if in_slot not in (0, 1) or out_slot not in (0, 1):
            report.fail(
                "slab-aliasing", name,
                f"schedule slots ({in_slot}, {out_slot}) outside the "
                "ping-pong pair {0, 1}",
            )
            return
        needs, (oh, ow) = _conv_slab_needs(layer, h, w)
        in_bytes = layer.in_channels * h * w * container_dtype(layer.in_bits).itemsize
        # Capacity: every per-image view this layer takes must fit its
        # slab — the static form of ActivationArena._view's overflow guard.
        for slab in ("pad", "cols", "acc", "requant"):
            if needs[slab] > slab_caps[slab]:
                report.fail(
                    "slab-aliasing", name,
                    f"{slab} view needs {needs[slab]} B/image but the slab "
                    f"holds {slab_caps[slab]} B/image",
                )
                ok = False
        if layer.kind == "dw":
            _check_dw_tiles(layer, h, w, arena.dw_tile_bytes, owner.scratch_bytes,
                            report)
        if needs["out"] > slot_bytes[out_slot]:
            report.fail(
                "slab-aliasing", name,
                f"output codes need {needs['out']} B/image but code slot "
                f"{out_slot} holds {slot_bytes[out_slot]} B/image",
            )
            ok = False
        # Lifetime: the input value must still be live in its slot.
        if i > 0:
            producer = last_write.get(in_slot)
            if producer is None:
                report.fail(
                    "slab-aliasing", name,
                    f"reads code slot {in_slot} which no layer has written",
                )
                ok = False
            else:
                p_idx, p_bytes = producer
                if p_idx != i - 1:
                    report.fail(
                        "slab-aliasing", name,
                        f"stale read: code slot {in_slot} was last written "
                        f"by layer {p_idx} ({layers[p_idx].name}), not by "
                        f"the predecessor {layers[i - 1].name} — the value "
                        "read is outside its producer's live range",
                    )
                    ok = False
                elif p_bytes < in_bytes:
                    report.fail(
                        "slab-aliasing", name,
                        f"reads {in_bytes} B/image from slot {in_slot} but "
                        f"its producer wrote only {p_bytes} B/image",
                    )
                    ok = False
        # Aliasing: while layer i runs, its input (slot in_slot) and its
        # output (slot out_slot) are simultaneously live — they must not
        # share slab bytes.  Slots are disjoint slabs, so out != in is
        # exactly the no-overlap proof.
        if i > 0 and out_slot == in_slot:
            report.fail(
                "slab-aliasing", name,
                f"writes code slot {out_slot} while reading its own input "
                "from the same slot — simultaneously-live tensors would "
                "share slab bytes",
            )
            ok = False
        last_write[out_slot] = (i, needs["out"])
        h, w = oh, ow
    if ok:
        report.passed("slab-aliasing", max(1, len(layers)))


def _known_geometries(plan, input_hw) -> List[Tuple[int, int]]:
    geoms: List[Tuple[int, int]] = []
    if input_hw is not None:
        geoms.append((int(input_hw[0]), int(input_hw[1])))
    for key in plan._arenas:
        if key not in geoms:
            geoms.append(key)
    for opt in (plan.options.input_hw, plan.options.max_input_hw):
        if opt is not None and tuple(opt) not in geoms:
            geoms.append((int(opt[0]), int(opt[1])))
    return geoms


def _check_chain(plan, report: VerificationReport) -> None:
    """Bit-width and channel chaining across the layer stack."""
    layers = plan.layers
    ok = True
    if layers and plan.input_bits != layers[0].in_bits:
        report.fail(
            "container-dtype", layers[0].name,
            f"consumes UINT{layers[0].in_bits} codes but the input "
            f"boundary quantizes to UINT{plan.input_bits}",
        )
        ok = False
    for prev, nxt in zip(layers, layers[1:]):
        if prev.out_bits != nxt.in_bits:
            report.fail(
                "container-dtype", nxt.name,
                f"consumes UINT{nxt.in_bits} codes but {prev.name} "
                f"produces UINT{prev.out_bits}",
            )
            ok = False
        if prev.out_channels != nxt.in_channels:
            report.fail(
                "structure", nxt.name,
                f"consumes {nxt.in_channels} channels but {prev.name} "
                f"produces {prev.out_channels}",
            )
            ok = False
    cl = plan.classifier
    if cl is not None and layers:
        last = layers[-1]
        if cl.in_bits != last.out_bits:
            report.fail(
                "container-dtype", cl.name,
                f"consumes UINT{cl.in_bits} codes but {last.name} "
                f"produces UINT{last.out_bits}",
            )
            ok = False
        if plan.has_pool and cl.k_reduction != last.out_channels:
            report.fail(
                "structure", cl.name,
                f"reduces over {cl.k_reduction} features but the pooled "
                f"trunk produces {last.out_channels}",
            )
            ok = False
    if ok:
        report.passed("structure", max(1, len(layers)))


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def verify_plan(plan, input_hw: Optional[Tuple[int, int]] = None, *,
                schedule: Optional[Sequence[Tuple[int, int]]] = None,
                raise_on_violation: bool = True) -> VerificationReport:
    """Statically verify a compiled :class:`ExecutionPlan`.

    Runs every rule family over every layer without executing the plan.
    ``input_hw`` adds (or selects) a geometry for the slab-lifetime walk;
    without it, every geometry the plan already knows about (planned
    arenas, ``options.input_hw`` / ``options.max_input_hw``) is walked.
    ``schedule`` overrides the ping-pong ``(in_slot, out_slot)`` sequence
    — the hook the corruption tests use to prove the race detector
    actually detects races.

    Returns a :class:`VerificationReport`; raises
    :class:`PlanVerificationError` listing every violation when
    ``raise_on_violation`` (the default) and any check failed.
    """
    report = VerificationReport()
    for layer in plan.layers:
        _check_acc_bound(layer, plan.validate, report)
        _check_container(layer, report)
        _check_requant(layer, report)
    if plan.classifier is not None:
        _check_acc_bound(plan.classifier, plan.validate, report)
    _check_chain(plan, report)
    for hw in _known_geometries(plan, input_hw):
        _check_arena(plan, hw, schedule, report)
    if raise_on_violation:
        report.raise_if_failed()
    return report


def verify_artifact(path: Union[str, Path],
                    input_hw: Optional[Tuple[int, int]] = None, *,
                    raise_on_violation: bool = True) -> VerificationReport:
    """Statically verify a saved artifact without executing it.

    Loads the artifact (which already CRC-checks every weight blob),
    recompiles the plan from the persisted
    :class:`~repro.runtime.options.CompileOptions` — compilation is
    static: weights reshape, bounds resolve, nothing runs — and applies
    :func:`verify_plan`.  On top of the plan rules, the persisted
    manifest metadata is cross-checked against the recompiled truth:
    per-layer container dtype, reduction length, recorded auto-dispatch
    backend, and the persisted Eq. 7 arena peak.
    """
    from repro.inference.plan import ExecutionPlan
    from repro.runtime.artifact import load_artifact

    network, compile_options, session_options, manifest = load_artifact(path)
    plan = ExecutionPlan(network, compile_options)
    hw = input_hw
    net_manifest = manifest.get("network", {})
    arena_info = net_manifest.get("arena")
    if hw is None and arena_info is not None:
        hw = (int(arena_info["input_hw"][0]), int(arena_info["input_hw"][1]))
    if hw is None and session_options.input_hw is not None:
        hw = session_options.input_hw
    report = verify_plan(plan, hw, raise_on_violation=False)
    entries = list(net_manifest.get("conv_layers", []))
    if len(entries) != len(plan.layers):
        report.fail(
            "structure", "manifest",
            f"manifest records {len(entries)} conv layers, plan compiled "
            f"{len(plan.layers)}",
        )
    for entry, layer in zip(entries, plan.layers):
        name = str(entry.get("name", "?"))
        if name != layer.name:
            report.fail(
                "structure", name,
                f"manifest order mismatch: entry {name!r} vs compiled "
                f"layer {layer.name!r}",
            )
            continue
        declared = str(entry.get("container_dtype", ""))
        expected = container_dtype(int(entry["w_bits"])).name
        if declared != expected:
            report.fail(
                "container-dtype", name,
                f"manifest declares weight container {declared!r} but "
                f"container_dtype({entry['w_bits']}) is {expected!r}",
            )
        else:
            report.passed("container-dtype")
        if int(entry.get("k_reduction", -1)) != layer.k_reduction:
            report.fail(
                "structure", name,
                f"manifest k_reduction {entry.get('k_reduction')} != "
                f"compiled {layer.k_reduction}",
            )
        recorded_backend = entry.get("gemm_backend")
        expected_backend = a_priori_gemm_backend(
            layer.k_reduction, layer.in_bits, layer.w_bits
        )
        if recorded_backend is not None and recorded_backend != expected_backend:
            report.fail(
                "acc-bound", name,
                f"manifest records a-priori backend {recorded_backend!r} "
                f"but the accumulator contract resolves to "
                f"{expected_backend!r}",
            )
        else:
            report.passed("acc-bound")
    if arena_info is not None and hw is not None:
        recorded_peak = int(arena_info.get("rw_peak_bytes", -1))
        actual_peak = plan.arena_for(hw).logical_rw_peak_bytes
        if recorded_peak != actual_peak:
            report.fail(
                "slab-aliasing", f"arena {hw[0]}x{hw[1]}",
                f"manifest records an Eq. 7 RW peak of {recorded_peak} B "
                f"but the recompiled plan needs {actual_peak} B",
            )
        else:
            report.passed("slab-aliasing")
    if raise_on_violation:
        report.raise_if_failed()
    return report
