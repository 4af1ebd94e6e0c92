"""Deterministic fault injection for the serving tier.

Every failure mode the robustness layer claims to handle can be
injected here at a controlled, *reproducible* rate — the chaos suite
and the CI smoke lane assert behaviour under faults that fire on exact
event counts, not on luck:

``kernel``
    Raise :class:`~repro.serving.errors.InjectedFaultError` inside the
    engine's executor thread — a stand-in for a crashed kernel.
``slow``
    Sleep ``delay`` seconds inside the batch (latency spike, under the
    watchdog).
``hang``
    Sleep ``delay`` seconds chosen *past* the watchdog — a wedged batch
    the engine must abandon.
``poison``
    Tag the admitted request itself: any batch containing it crashes on
    *every* attempt (a data-dependent kernel fault), so retries cannot
    fix it — only batch-of-1 degradation can isolate and quarantine it.
``queue-overflow``
    Force admission control to treat the queue as full for this
    request (shed path without needing a real traffic burst).
``worker-kill``
    Consumed by :class:`repro.runtime.pool.WorkerPool`: the task goes
    out marked, and the worker SIGKILLs itself on reading it, before it
    computes or replies — a deterministic mid-batch crash: the caller
    that borrowed the worker respawns it, and the engine retries the
    tile (``serve --workers N --inject worker-kill:every=7``).

Schedules are counter-based (``every=N`` fires on the N-th, 2N-th, …
event, optionally at a phase ``offset``), optionally bounded by
``limit``; a seeded Bernoulli ``rate`` is also supported and is
deterministic for a fixed seed and event sequence.  Artifact corruption
is a separate helper (:func:`corrupt_artifact`) because it happens on
disk before a server exists.

Spec strings (CLI ``--inject``, bench ``--inject``)::

    kernel:every=7
    slow:every=5,delay=0.05;hang:every=40,delay=10,limit=1
"""

from __future__ import annotations

import random
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.serving.errors import InjectedFaultError

FAULT_KINDS = ("kernel", "slow", "hang", "poison", "queue-overflow",
               "worker-kill")


@dataclass(frozen=True)
class FaultSpec:
    """One fault class and its deterministic firing schedule."""

    kind: str
    every: int = 0            # fire on every N-th event (0 = disabled)
    offset: int = 0           # phase shift for ``every``
    rate: float = 0.0         # seeded Bernoulli probability per event
    delay: float = 0.0        # sleep for slow/hang faults, seconds
    limit: Optional[int] = None  # max total fires (None = unbounded)

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; valid: {FAULT_KINDS}"
            )
        if self.every < 0 or self.offset < 0:
            raise ValueError("every/offset must be >= 0")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")


class FaultInjector:
    """Owns the event counters and decides, per event, whether to fire.

    One injector instance is threaded through the engine (batch
    events), the server (admission events) and the worker pool (task
    events).  All decisions are pure functions of the event count and
    the seed, so a failing chaos run replays identically.
    """

    def __init__(self, specs: Union[FaultSpec, List[FaultSpec], None] = None,
                 seed: int = 0):
        if specs is None:
            specs = []
        elif isinstance(specs, FaultSpec):
            specs = [specs]
        self.specs: Dict[str, FaultSpec] = {}
        for spec in specs:
            if spec.kind in self.specs:
                raise ValueError(f"duplicate fault spec for {spec.kind!r}")
            self.specs[spec.kind] = spec
        self.seed = seed
        self._rng = random.Random(seed)
        self.events: Dict[str, int] = {k: 0 for k in self.specs}
        self.fires: Dict[str, int] = {k: 0 for k in self.specs}

    def __bool__(self) -> bool:
        return bool(self.specs)

    def fire(self, kind: str) -> Optional[FaultSpec]:
        """Count one ``kind`` event; return the spec iff it fires now."""
        spec = self.specs.get(kind)
        if spec is None:
            return None
        self.events[kind] += 1
        if spec.limit is not None and self.fires[kind] >= spec.limit:
            return None
        hit = False
        if spec.every:
            hit = (self.events[kind] - spec.offset) % spec.every == 0
        if not hit and spec.rate:
            hit = self._rng.random() < spec.rate
        if hit:
            self.fires[kind] += 1
            return spec
        return None

    # -- engine-side application (runs on the executor thread) ---------
    def apply_batch_faults(self, sleep=time.sleep) -> None:
        """Called by the engine at the top of every batch execution.

        Every batch fault is drawn before any of them sleeps, so a hung
        batch that wakes after the watchdog has moved on draws nothing
        late and leaves the later batches' schedule as it was."""
        slow, hang, kernel = self.fire("slow"), self.fire("hang"), self.fire("kernel")
        event = self.events.get("kernel")
        for spec in (slow, hang):
            if spec is not None:
                sleep(spec.delay)
        if kernel is not None:
            raise InjectedFaultError(f"injected kernel fault (event {event})")

    def summary(self) -> dict:
        return {
            kind: {"events": self.events[kind], "fires": self.fires[kind]}
            for kind in self.specs
        }

    # -- spec-string parsing (CLI / CI) --------------------------------
    @classmethod
    def parse(cls, text: str, seed: int = 0) -> "FaultInjector":
        """Build an injector from ``kind:key=val,...;kind:...`` syntax."""
        specs = []
        for part in filter(None, (p.strip() for p in text.split(";"))):
            kind, _, argtext = part.partition(":")
            kwargs = {}
            for item in filter(None, (a.strip() for a in argtext.split(","))):
                key, _, value = item.partition("=")
                if not _:
                    raise ValueError(
                        f"malformed fault argument {item!r} in {part!r} "
                        f"(expected key=value)"
                    )
                if key in ("every", "offset", "limit"):
                    kwargs[key] = int(value)
                elif key in ("rate", "delay"):
                    kwargs[key] = float(value)
                else:
                    raise ValueError(f"unknown fault argument {key!r} in {part!r}")
            specs.append(FaultSpec(kind=kind.strip(), **kwargs))
        return cls(specs, seed=seed)


def corrupt_artifact(src: Union[str, Path], dst: Union[str, Path],
                     byte_offset: int = 0, flip: int = 0xFF) -> Path:
    """Copy a session artifact and flip one byte of its blob stream.

    The loader's CRC pass must reject the copy with a typed
    :class:`~repro.runtime.errors.ArtifactError` — this is the
    deterministic stand-in for disk/transfer corruption used by the
    chaos suite and the CI smoke lane.
    """
    from repro.runtime.artifact import BLOBS_NAME

    src, dst = Path(src), Path(dst)
    if dst.exists():
        shutil.rmtree(dst)
    shutil.copytree(src, dst)
    blob_path = dst / BLOBS_NAME
    raw = bytearray(blob_path.read_bytes())
    if not raw:
        raise ValueError(f"{blob_path} is empty; nothing to corrupt")
    raw[byte_offset % len(raw)] ^= flip & 0xFF
    blob_path.write_bytes(bytes(raw))
    return dst
