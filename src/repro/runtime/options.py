"""The :class:`SessionOptions` of the :mod:`repro.runtime` front door.

:class:`SessionOptions` carries the serving-side knobs (batch tiling,
the input boundary check, arena geometry) consumed by
:class:`repro.runtime.Session`.  Compilation takes no options: every
layer's accumulator follows from its refined bound.  Pool width belongs
to the serving tier (``ServerOptions.workers``, CLI ``--workers``).

The class is plain data: constructing it performs no work beyond
validation, and the same instance can configure any number of networks.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple


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
        The session's input geometry ``(H, W)``: synthetic batches, the
        health check, ``describe``/``verify`` and a saved artifact's
        embedded arena plan use it.  Construction plans and allocates
        nothing; the plan binds each input shape on its first call.
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
        valid = {f.name for f in dataclasses.fields(cls)}
        unknown = set(d) - valid
        if unknown:
            raise TypeError(
                f"unknown session option(s) {sorted(unknown)}; "
                f"valid options are {sorted(valid)}"
            )
        return cls(**d)
