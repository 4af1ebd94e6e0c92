"""The :class:`Session` front door: quantize → compile → serve in one object.

``Session`` owns a compiled :class:`~repro.inference.plan.ExecutionPlan`
plus the input geometry it serves, and adds the serving conveniences
the bare plan does not have: input checks at the boundary, a per-layer
:meth:`profile`, and — the round-trip capability — :meth:`save` /
:meth:`load` to/from the on-disk artifact format of
:mod:`repro.runtime.artifact`.  :func:`pipeline` is the one-call
replacement for the hand-wired spec → policy → convert → compile chains.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.inference.plan import ExecutionPlan
from repro.runtime.artifact import InputSpec, load_artifact, normalize_hw, save_artifact


@dataclass
class LayerTiming:
    """Best-of-N wall time of one compiled layer inside the arena."""

    name: str
    kind: str
    dispatch: str
    seconds: float


@dataclass
class SessionProfile:
    """Per-layer latency breakdown returned by :meth:`Session.profile`."""

    batch_size: int
    input_hw: Tuple[int, int]
    layers: List[LayerTiming] = field(default_factory=list)
    total_seconds: float = 0.0

    def table(self) -> str:
        from repro.evaluation.tables import render_table

        rows = [
            [t.name, t.kind, t.dispatch, round(t.seconds * 1e3, 3),
             round(100.0 * t.seconds / self.total_seconds, 1)
             if self.total_seconds else 0.0]
            for t in self.layers
        ]
        layer_sum = sum(t.seconds for t in self.layers)
        rows.append(["TOTAL (end to end)", "", "", round(self.total_seconds * 1e3, 3),
                     round(100.0 * layer_sum / self.total_seconds, 1)
                     if self.total_seconds else 0.0])
        h, w = self.input_hw
        return render_table(
            ["Layer", "Kind", "Dispatch", "ms", "% of e2e"], rows,
            title=f"session profile — batch {self.batch_size} @ {h}x{w}",
        )


def _best_of(fn, reps: int) -> float:
    best = float("inf")
    for _ in range(max(1, reps)):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


class Session:
    """A compiled, servable integer network and the geometry it serves.

    ``Session(network, input_hw=(H, W))`` compiles ``network``
    (compilation takes no options).  ``input_hw``, a positive ``(H, W)``
    pair or ``None`` (anything else is a ``ValueError``), sizes
    synthetic and health-check batches, ``describe``/``verify`` and a
    saved artifact's arena section.  The plan binds each input shape on
    its first call, so steady-state serving performs no per-layer
    allocations, and every input is checked at the boundary.

    The session is also the unit of deployment: :meth:`save` writes a
    self-contained artifact (JSON manifest + CRC-checked binary blobs)
    and :meth:`load` rehydrates it into a bit-identical running session
    with no reference to the originating network object.
    """

    def __init__(self, network, *, input_hw: Optional[Tuple[int, int]] = None):
        self.network = network
        self.input_hw = normalize_hw(input_hw)
        # Artifact directory this session is known to round-trip with
        # (set by load/save) — lets WorkerPool.from_session reuse it
        # instead of staging a temporary copy.
        self.source_artifact: Optional[Path] = None
        # mmap-loaded networks carry their MappedBlobs handle so
        # Session.close() can release the mapping (registry eviction).
        self.mapped_blobs = getattr(network, "mapped_blobs", None)
        self._closed = False
        self._plan = ExecutionPlan(network)
        #: The batches the plan accepts (:class:`InputSpec`).
        self.input_spec = InputSpec.from_plan(self._plan)

    # -- lifecycle -----------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release the session's resources: drop the compiled plan and
        network (freeing arena slabs and, for mmap-loaded artifacts,
        every weight view), then close the underlying
        :class:`~repro.runtime.artifact.MappedBlobs` mapping so the
        page-cache pin is released immediately instead of at GC time.
        Idempotent; the registry calls this on LRU eviction.  A closed
        session raises ``RuntimeError("session is closed")`` from every
        entry point, and :meth:`healthcheck` reports that error.
        """
        if self._closed:
            return
        self._closed = True
        # Order matters: every mmap-backed array (network weights,
        # compiled requant-parameter views) must be unreachable before
        # the mapping can release its exported buffers.
        self._plan = None
        self.network = None
        blobs, self.mapped_blobs = self.mapped_blobs, None
        if blobs is not None:
            blobs.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- introspection -------------------------------------------------
    @property
    def plan(self) -> ExecutionPlan:
        """The compiled :class:`ExecutionPlan` backing this session; every
        entry point reaches it here, so a closed session raises."""
        if self._closed:
            raise RuntimeError("session is closed")
        return self._plan

    def layer_info(self):
        return self.plan.layer_info()

    def describe(self, input_hw: Optional[Tuple[int, int]] = None,
                 batch_size: int = 1) -> str:
        """Per-layer dispatch summary plus the arena plan (see
        :meth:`ExecutionPlan.describe`) at ``input_hw`` (default: the
        session's geometry) for ``batch_size`` images."""
        return self.plan.describe(input_hw=input_hw or self.input_hw,
                                  batch_size=batch_size)

    def verify(self, input_hw: Optional[Tuple[int, int]] = None,
               raise_on_violation: bool = True):
        """Statically verify the compiled plan without executing it.

        Runs :func:`repro.analysis.verify_plan` over the session's plan:
        accumulator bounds vs. the dispatched backends, container-dtype
        soundness, requantization shift ranges, and arena slab
        lifetime/aliasing safety over the ping-pong schedule.  Returns
        the :class:`~repro.analysis.VerificationReport`; raises
        :class:`~repro.analysis.PlanVerificationError` (listing every
        violation with its layer) unless ``raise_on_violation=False``.
        """
        from repro.analysis import verify_plan

        return verify_plan(
            self.plan, input_hw or self.input_hw,
            raise_on_violation=raise_on_violation,
        )

    # -- input boundary ------------------------------------------------
    def validate_input(self, x_real) -> np.ndarray:
        """Check a batch at the serving boundary; returns it as an array.

        Rejections raise :class:`~repro.runtime.errors.InvalidInputError`
        (a client-side error by contract — the serving tier maps it to a
        400) instead of letting numpy internals leak out of a kernel:
        :attr:`input_spec`'s checks.
        """
        if self._closed:
            raise RuntimeError("session is closed")
        return self.input_spec.check(x_real)

    # -- serving -------------------------------------------------------
    def run(self, x_real: np.ndarray) -> np.ndarray:
        """Single-shot inference: real NCHW batch -> real logits."""
        return self.plan.run(self.validate_input(x_real))

    def run_codes(self, x_codes: np.ndarray) -> np.ndarray:
        """Run the conv trunk on integer codes.  The batch gets the rank,
        channel and geometry checks of :meth:`validate_input` and must
        hold integers (or bools), else :class:`InvalidInputError`; the
        plan then range-checks the codes (``ValueError``)."""
        return self.plan.run_codes(self.input_spec.check(x_codes, codes=True))

    def run_batched(self, x_real: np.ndarray, batch_size: int = 32) -> np.ndarray:
        """Stream a sweep through the arena in ``batch_size`` tiles."""
        return self.plan.run_batched(self.validate_input(x_real),
                                     batch_size=batch_size)

    def predict(self, x_real: np.ndarray, batch_size: int = 32) -> np.ndarray:
        """Class predictions, tiled through the arena."""
        return np.argmax(self.run_batched(x_real, batch_size=batch_size), axis=1)

    def synthetic_batch(self, batch_size: int = 1, rng_seed: int = 0,
                        input_hw: Optional[Tuple[int, int]] = None) -> np.ndarray:
        """A random real-valued NCHW batch matching the session's input
        geometry: channel count from the first compiled layer, ``(H, W)``
        from ``input_hw`` falling back to the session's.  The single
        source of the synthetic-input rule shared by :meth:`profile`,
        :meth:`healthcheck` and the ``repro-mcu run`` CLI."""
        plan = self.plan
        hw = input_hw or self.input_hw
        if hw is None:
            raise ValueError(
                "no input geometry known: pass input_hw or build the "
                "session with Session(network, input_hw=...)"
            )
        channels = plan.layers[0].in_channels if plan.layers else 1
        return np.random.default_rng(rng_seed).uniform(
            0.0, 1.0, size=(int(batch_size), channels, hw[0], hw[1])
        )

    def healthcheck(self, input_hw: Optional[Tuple[int, int]] = None) -> dict:
        """End-to-end self-test: one synthetic image through the full
        pipeline, logits checked for shape and finiteness.

        Returns ``{"ok": bool, "latency_ms": float, "output_shape": ...,
        "error": str|None}`` and never raises — the serving tier calls
        this at startup (warming the arena in the same pass) and from
        its health endpoint, where an exception would be a liveness bug.
        """
        t0 = time.perf_counter()
        try:
            x = self.synthetic_batch(1, input_hw=input_hw)
            out = self.run(x)
            shape, _ = self.plan.output_spec(x.shape[1:])
            ok = out.shape == (1,) + shape and bool(np.isfinite(out).all())
            error = None if ok else f"bad output: shape {out.shape}, finite=False"
        except Exception as exc:  # liveness probe: report, never raise
            return {
                "ok": False,
                "latency_ms": round((time.perf_counter() - t0) * 1e3, 3),
                "output_shape": None,
                "error": f"{type(exc).__name__}: {exc}",
            }
        return {
            "ok": ok,
            "latency_ms": round((time.perf_counter() - t0) * 1e3, 3),
            "output_shape": list(out.shape),
            "error": error,
        }

    def profile(self, x_real: Optional[np.ndarray] = None,
                batch_size: int = 1, repeats: int = 3,
                rng_seed: int = 0) -> SessionProfile:
        """Best-of-``repeats`` per-layer latency breakdown.

        With no input, a synthetic batch of ``batch_size`` images is
        drawn at the session's geometry; layer timings run inside the
        arena on propagated intermediate codes, exactly like steady-state
        serving.
        """
        plan = self.plan
        if x_real is None:
            x_real = self.synthetic_batch(batch_size, rng_seed=rng_seed)
        x_real = np.asarray(x_real)
        n, _, h, w = x_real.shape
        prof = SessionProfile(batch_size=n, input_hw=(h, w))
        prof.total_seconds = _best_of(lambda: plan.run(x_real), repeats)
        codes = plan.quantize_input(x_real)
        infos = {i.name: i for i in plan.layer_info()}
        for layer, views in zip(plan.layers, plan.bound(codes.shape)):
            info = infos[layer.name]
            dispatch = (f"{info.backend}/{info.gemm_dtype}->{info.container}"
                        f" eq5:{info.epilogue} {info.unfold}")
            # Layer i reads slot (i-1)%2 and writes slot i%2, so its
            # input survives the repeats; the last output feeds layer i+1.
            t = _best_of(lambda: layer(codes, views), repeats)
            prof.layers.append(LayerTiming(layer.name, layer.kind, dispatch, t))
            codes = layer(codes, views)
        if plan.has_pool:
            from repro.inference.kernels import int_avg_pool_global

            t = _best_of(lambda: int_avg_pool_global(codes), repeats)
            prof.layers.append(LayerTiming("global_avg_pool", "pool", "-", t))
            codes = int_avg_pool_global(codes)
        if plan.classifier is not None:
            c = plan.classifier
            t = _best_of(lambda: c(codes), repeats)
            dispatch = f"{c.backend}/{np.dtype(c.gemm_dtype).name}->logits"
            prof.layers.append(LayerTiming(c.name, "fc", dispatch, t))
        return prof

    # -- persistence ---------------------------------------------------
    def save(self, path: Union[str, Path]) -> Path:
        """Write the session as a loadable artifact directory
        (manifest.json + CRC-checked blobs.bin); returns the path."""
        out = save_artifact(path, self.network, input_hw=self.input_hw,
                            plan=self.plan)
        self.source_artifact = out
        return out

    @classmethod
    def load(cls, path: Union[str, Path], *, mmap: bool = False) -> "Session":
        """Rehydrate a saved artifact into a running session.

        Blob CRCs and packed-weight budgets are verified before
        compilation; the resulting plan is bit-identical to the one the
        artifact was saved from.  ``mmap=True`` keeps the weight blobs
        as read-only views of the memory-mapped ``blobs.bin`` (pages
        shared across every process loading the same artifact) instead
        of private heap copies — the :class:`repro.runtime.pool`
        workers and the fleet registry load this way (``close()``
        releases the mapping).
        """
        network, input_hw, _ = load_artifact(path, mmap=mmap)
        session = cls(network, input_hw=input_hw)
        session.source_artifact = Path(path)
        return session


def pipeline(
    spec,
    *,
    policy=None,
    device=None,
    method=None,
    network=None,
    seed: int = 0,
    input_hw: Optional[Tuple[int, int]] = None,
    strict: bool = False,
) -> Session:
    """One front door for quantize → compile → serve.

    From a :class:`~repro.models.model_zoo.NetworkSpec` this runs the
    memory-driven mixed-precision search (when ``policy`` is not given
    and a ``device`` provides the budgets), materialises an integer
    deployment of the spec honouring the policy's per-layer bit
    assignment, compiles it into a session, and — when ``device`` is
    given and the policy is feasible — asserts the activation arena fits
    the device's RW budget.  Every keyword has a production default:

    ``pipeline(spec, device=STM32H7)`` is the whole paper flow.

    ``network`` short-circuits the synthetic materialisation with a
    prebuilt :class:`~repro.inference.engine.IntegerNetwork` (e.g. from
    :func:`~repro.core.graph_convert.convert_to_integer_network` after
    QAT), in which case ``policy`` is only used for reporting/fit checks.
    ``input_hw`` is the session's geometry (default: the spec's
    resolution), which the device fit is checked at.
    """
    from repro.core.mixed_precision import search_mixed_precision
    from repro.core.policy import QuantMethod, QuantPolicy

    if method is None:
        method = policy.method if policy is not None else QuantMethod.PC_ICN
    if policy is None:
        if device is not None:
            policy = search_mixed_precision(
                spec, device.flash_bytes, device.ram_bytes,
                method=method, strict=strict,
            )
        else:
            policy = QuantPolicy.uniform(spec, method=method)
    if network is None:
        from repro.inference.testing import integer_network_from_spec

        strategy = (
            "thr" if method is QuantMethod.PC_THRESHOLDS
            else "folded" if method.folds_batchnorm
            else "icn"
        )
        network = integer_network_from_spec(
            spec, np.random.default_rng(seed),
            per_channel=method.per_channel, strategy=strategy, policy=policy,
        )
    session = Session(network, input_hw=input_hw or (spec.resolution, spec.resolution))
    if device is not None and policy.feasible:
        from repro.mcu.deploy import assert_arena_fits

        assert_arena_fits(session.plan, device, session.input_hw)
    return session
