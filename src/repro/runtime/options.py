"""Options dataclasses for the :mod:`repro.runtime` front door.

:class:`CompileOptions` is how an ``IntegerNetwork`` is compiled: one
frozen, validated, hashable value object (``backend``, ``validate``,
``input_hw``) — the ONNX-Runtime ``SessionOptions`` shape.
:class:`SessionOptions` carries the serving-side knobs (batch tiling,
boundary-validation override, arena geometry) consumed by
:class:`repro.runtime.Session`.

Both classes are plain data: constructing them performs no work beyond
validation, and the same instance can configure any number of networks.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

#: GEMM backends understood by the compiled plan (see
#: :func:`repro.inference.plan._resolve_compiled_backend`).
VALID_BACKENDS = ("auto", "int32", "int64")

#: Compile options that no longer exist.  Each selected an execution
#: path or an arena storage mode whose answers are bit-identical to the
#: single compiled plan, so :meth:`CompileOptions.from_dict` drops them:
#: an artifact saved with any of them loads as the default plan, and
#: re-saving omits them.
RETIRED_COMPILE_OPTIONS = ("narrow", "use_arena", "fused_depthwise", "refined_bound",
                           "max_input_hw")


def _normalize_hw(value: Any) -> Optional[Tuple[int, int]]:
    if value is None:
        return None
    try:
        h, w = value
    except (TypeError, ValueError):
        raise ValueError(f"input_hw must be a (height, width) pair, got {value!r}")
    h, w = int(h), int(w)
    if h < 1 or w < 1:
        raise ValueError(f"input_hw must be positive, got {(h, w)}")
    return (h, w)


@dataclass(frozen=True)
class CompileOptions:
    """How an :class:`~repro.inference.engine.IntegerNetwork` is compiled
    into an :class:`~repro.inference.plan.ExecutionPlan`.

    Fields (all keyword-friendly, all with the production defaults):

    ``backend``
        GEMM dispatch: ``"auto"`` picks the narrowest exact accumulator
        per layer under the weight-data refined bound; ``"int32"``
        forces the MCU-style int32 accumulator under the ``2^31`` bound
        (error if it overflows); ``"int64"`` forces the exact einsum
        reference.
    ``validate``
        Range-check weight codes at compile time and activation codes at
        the network boundary.  Disabling also voids the refined-bound
        guarantee (dispatch falls back to the a-priori corner case).
    ``input_hw``
        Optional ``(H, W)`` to plan the activation arena eagerly at
        compile time instead of lazily on first run.
    """

    backend: str = "auto"
    validate: bool = True
    input_hw: Optional[Tuple[int, int]] = None

    def __post_init__(self) -> None:
        if self.backend not in VALID_BACKENDS:
            raise ValueError(
                f"backend must be one of {VALID_BACKENDS}, got {self.backend!r}"
            )
        object.__setattr__(self, "input_hw", _normalize_hw(self.input_hw))

    def replace(self, **changes: Any) -> "CompileOptions":
        """A copy with ``changes`` applied (frozen-dataclass update)."""
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form (used by the session artifact)."""
        d = dataclasses.asdict(self)
        if d["input_hw"] is not None:
            d["input_hw"] = list(d["input_hw"])
        return d

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "CompileOptions":
        """Options from their :meth:`to_dict` form (an artifact manifest).

        Retired options are dropped and ``backend: "blas"`` reads as
        ``"auto"`` (it compiled exactly the ``"auto"`` plan or raised),
        so every saved artifact still loads.  Unknown names raise
        ``TypeError`` listing the valid set.
        """
        d = {k: v for k, v in d.items() if k not in RETIRED_COMPILE_OPTIONS}
        if d.get("backend") == "blas":
            d["backend"] = "auto"
        valid = {f.name for f in dataclasses.fields(cls)}
        unknown = set(d) - valid
        if unknown:
            raise TypeError(
                f"unknown compile option(s) {sorted(unknown)}; "
                f"valid options are {sorted(valid)}"
            )
        return cls(**d)


@dataclass(frozen=True)
class SessionOptions:
    """Serving-side configuration of a :class:`repro.runtime.Session`.

    ``batch_size``
        Default tile size for ``Session.run_batched`` / ``predict`` —
        large sweeps stream through the activation arena in tiles of
        this many images.
    ``validate``
        Boundary-validation override for ``run_codes``: ``None`` keeps
        the compiled plan's setting, ``True``/``False`` force it per
        session.
    ``input_hw``
        Arena geometry: when given, the session plans (and allocates on
        first use) the activation arena for this ``(H, W)`` at
        construction, so the first request pays no planning latency.
    ``workers``
        Default process-pool width for scale-out serving: ``1`` keeps
        everything in-process (the degenerate case), ``N > 1`` lets the
        serving tier stand up a :class:`repro.runtime.pool.WorkerPool`
        of N artifact-backed workers sharing one mmap'd copy of the
        weights.  Stored in the artifact like every other session
        option, and overridable per serve (CLI ``--workers``).
    """

    batch_size: int = 32
    validate: Optional[bool] = None
    input_hw: Optional[Tuple[int, int]] = None
    workers: int = 1

    def __post_init__(self) -> None:
        if int(self.batch_size) < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        object.__setattr__(self, "batch_size", int(self.batch_size))
        object.__setattr__(self, "input_hw", _normalize_hw(self.input_hw))
        if int(self.workers) < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        object.__setattr__(self, "workers", int(self.workers))

    def replace(self, **changes: Any) -> "SessionOptions":
        """A copy with ``changes`` applied (frozen-dataclass update)."""
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> Dict[str, Any]:
        d = dataclasses.asdict(self)
        if d["input_hw"] is not None:
            d["input_hw"] = list(d["input_hw"])
        return d

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "SessionOptions":
        valid = {f.name for f in dataclasses.fields(cls)}
        unknown = set(d) - valid
        if unknown:
            raise TypeError(
                f"unknown session option(s) {sorted(unknown)}; "
                f"valid options are {sorted(valid)}"
            )
        return cls(**d)
