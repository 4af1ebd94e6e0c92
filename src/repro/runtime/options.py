"""Options dataclasses for the :mod:`repro.runtime` front door.

:class:`CompileOptions` is how an ``IntegerNetwork`` is compiled: one
frozen, validated, hashable value object whose one field, ``backend``,
picks the accumulator — the ONNX-Runtime ``SessionOptions`` shape.
:class:`SessionOptions` carries the serving-side knobs (batch tiling,
the input boundary check, arena geometry) consumed by
:class:`repro.runtime.Session`.  Pool width belongs to the serving tier
(``ServerOptions.workers``, CLI ``--workers``).

Both classes are plain data: constructing them performs no work beyond
validation, and the same instance can configure any number of networks.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Optional, Set, Tuple

#: GEMM backends understood by the compiled plan (see
#: :func:`repro.inference.plan._resolve_compiled_backend`).
VALID_BACKENDS = ("auto", "int32", "int64")

#: Compile options that no longer exist, so :meth:`CompileOptions.from_dict`
#: drops them: an artifact saved with any of them loads as the default
#: plan, and re-saving omits them.  The input check and the geometry now
#: belong to :class:`SessionOptions` (``load_artifact`` moves an old
#: compile-side ``input_hw`` there).
RETIRED_COMPILE_OPTIONS = ("narrow", "use_arena", "fused_depthwise", "refined_bound",
                           "max_input_hw", "validate", "input_hw")


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


def _check_names(d: Dict[str, Any], valid: Set[str], what: str) -> None:
    unknown = set(d) - valid
    if unknown:
        raise TypeError(
            f"unknown {what} option(s) {sorted(unknown)}; "
            f"valid options are {sorted(valid)}"
        )


@dataclass(frozen=True)
class CompileOptions:
    """How an :class:`~repro.inference.engine.IntegerNetwork` is compiled
    into an :class:`~repro.inference.plan.ExecutionPlan`.

    ``backend``
        GEMM dispatch: ``"auto"`` (the default) picks the narrowest exact
        accumulator per layer under the weight-data refined bound;
        ``"int32"`` forces the MCU-style int32 accumulator under the
        ``2^31`` bound (error if it overflows); ``"int64"`` forces the
        exact einsum reference.

    Compilation always range-checks the weight codes, once.  Input codes
    are checked at run time (:class:`SessionOptions` ``validate``), and
    the arena is planned per input geometry on first use.
    """

    backend: str = "auto"

    def __post_init__(self) -> None:
        if self.backend not in VALID_BACKENDS:
            raise ValueError(
                f"backend must be one of {VALID_BACKENDS}, got {self.backend!r}"
            )

    def replace(self, **changes: Any) -> "CompileOptions":
        """A copy with ``changes`` applied (frozen-dataclass update)."""
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form (used by the session artifact)."""
        return dataclasses.asdict(self)

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
        _check_names(d, {f.name for f in dataclasses.fields(cls)}, "compile")
        return cls(**d)


@dataclass(frozen=True)
class SessionOptions:
    """Serving-side configuration of a :class:`repro.runtime.Session`.

    ``batch_size``
        Default tile size for ``Session.run_batched`` / ``predict`` —
        large sweeps stream through the activation arena in tiles of
        this many images.
    ``validate``
        Check inputs at the network boundary (default ``True``): real
        batches for rank, channels, geometry and finiteness, integer
        codes (``run_codes``) for range.  ``False`` skips both scans for
        trusted in-process callers.
    ``input_hw``
        The session's input geometry: the session plans the activation
        arena for this ``(H, W)`` at construction (allocating on first
        use), so the first request pays no planning latency; synthetic
        batches, the health check and a saved artifact's embedded arena
        plan use it too.
    """

    batch_size: int = 32
    validate: bool = True
    input_hw: Optional[Tuple[int, int]] = None

    def __post_init__(self) -> None:
        if int(self.batch_size) < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        object.__setattr__(self, "batch_size", int(self.batch_size))
        if self.validate not in (True, False):
            raise ValueError(f"validate must be a bool, got {self.validate!r}")
        object.__setattr__(self, "validate", bool(self.validate))
        object.__setattr__(self, "input_hw", _normalize_hw(self.input_hw))

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
        """Options from their :meth:`to_dict` form (an artifact manifest).

        Older artifacts load too: their ``workers`` (pool width, now the
        serving tier's alone) is dropped and ``validate: null`` (which
        kept the compiled default) reads as ``True``.
        """
        d = {k: v for k, v in d.items() if k != "workers"}
        if d.get("validate", True) is None:
            d["validate"] = True
        _check_names(d, {f.name for f in dataclasses.fields(cls)}, "session")
        return cls(**d)
