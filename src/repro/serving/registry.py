"""Multi-model fleet registry: many artifacts, one memory budget.

One server process hosting a fleet of artifacts cannot keep them all
resident — the point of the paper's memory accounting is that models
are sized against a *device budget*, and the registry applies the same
discipline to the serving host: every resident model is charged its
read-only weight bytes (the ``blobs.bin`` it maps) plus its Eq. 7
activation-arena peak at its native geometry, and the sum must stay
inside ``memory_budget_bytes``: a newly-loaded model is admitted once
``resident + weights + arena <= budget``, with the arena peak read from
its compiled plan.

Residency is managed lazily with LRU eviction:

* a request for a cold model loads it on first use
  (``Session.load(path, mmap=True)``, so weight pages are file-backed
  and shareable) and plans its arena at the artifact's native geometry;
  every smaller request geometry runs in the plan's one slab set;
* when the budget cannot admit the newcomer, least-recently-used idle
  models are evicted — ``Session.close()`` drops the plan and unmaps
  the blobs *now*, not at GC time — until it fits;
* a model that cannot fit even with every idle model evicted is a
  :class:`~repro.serving.errors.OverBudgetError` (HTTP 413);
* models with requests in flight, or being loaded, are never evicted;
* the load and the worker-pool start run outside the registry lock, so
  ``stats``, admission and other models' checkouts answer meanwhile,
  and a second checkout of a loading model waits for that load.

A single-model server is a fleet of one: :meth:`ModelRegistry.adopt`
registers the caller's live session as a resident entry that the
registry never evicts or closes (the caller owns it).  Worker pools are
configured once for the whole registry (:meth:`ModelRegistry.use_pools`,
from the server's options and fault injector); each resident model gets
its own pool on first checkout, torn down at eviction or close.

The registry owns the budget, so it owns the limit the budget was
sized for: an entry with a manifest checks every batch, at admission
and in :meth:`ModelRegistry.run`, against the manifest's
:class:`~repro.runtime.artifact.InputSpec` (a loaded session's checks
plus the native geometry as a maximum), cold, loading or resident
alike, so a rejection loads nothing.

All public methods are thread-safe; ``run`` is called from the batch
engine's executor threads.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.runtime.artifact import InputSpec, read_manifest
from repro.serving.errors import ModelNotFoundError, OverBudgetError


class FleetEntry:
    """One artifact known to the registry (resident or cold)."""

    def __init__(self, name: str, path: Optional[Path], manifest: dict):
        self.name = name
        self.path = Path(path) if path is not None else None
        #: The batches the model accepts, as its manifest records them.
        self.spec = InputSpec.from_manifest(manifest)
        #: Checks a batch for this model: the spec's check, or an adopted
        #: session's :meth:`~repro.runtime.Session.validate_input`.
        self.check = self.spec.check
        #: Read-only cost: the byte length of blobs.bin (what the mmap
        #: pins), from the manifest blob table.
        self.ro_bytes = sum(
            int(meta.get("nbytes", 0))
            for meta in manifest.get("blobs", {}).values()
        )
        #: Eq. 7 RW peak as recorded at export time (None for artifacts
        #: saved without a geometry; measured at first load instead).
        arena = manifest.get("network", {}).get("arena") or {}
        self.rw_bytes: Optional[int] = (
            int(arena["rw_peak_bytes"]) if "rw_peak_bytes" in arena else None
        )
        self.session = None
        self.pool = None
        #: A checkout is loading the session or starting the pool outside
        #: the registry lock; other checkouts of this entry wait for it.
        self.loading = False
        #: An adopted session: the caller owns it, so the registry never
        #: evicts or closes it.
        self.borrowed = False
        self.inflight = 0
        self.last_used = 0
        self.loads = 0
        self.evictions = 0
        self.requests = 0

    @property
    def resident(self) -> bool:
        return self.session is not None

    def cost_bytes(self) -> int:
        return self.ro_bytes + int(self.rw_bytes or 0)

    @property
    def max_hw(self) -> Optional[Tuple[int, int]]:
        return self.spec.max_hw

    @property
    def in_channels(self) -> Optional[int]:
        return self.spec.channels

    def to_dict(self) -> dict:
        return {
            "resident": self.resident,
            "loading": self.loading,
            "inflight": self.inflight,
            "loads": self.loads,
            "evictions": self.evictions,
            "requests": self.requests,
            "ro_bytes": self.ro_bytes,
            "rw_peak_bytes": self.rw_bytes,
            "cost_bytes": self.cost_bytes(),
            "max_input_hw": list(self.max_hw) if self.max_hw else None,
            "workers": self.pool.options.workers if self.pool else 1,
        }


class ModelRegistry:
    """Artifact registry with LRU residency under a memory budget.

    ``memory_budget_bytes=None`` disables eviction entirely (every
    model loads and stays resident — the unconstrained dev default).
    After :meth:`use_pools` each *resident* model runs on its own
    :class:`repro.runtime.pool.WorkerPool` of artifact-backed worker
    processes, stood up at first checkout and torn down at eviction.
    """

    def __init__(self, *, memory_budget_bytes: Optional[int] = None):
        if memory_budget_bytes is not None and memory_budget_bytes < 1:
            raise ValueError(
                f"memory_budget_bytes must be >= 1, got {memory_budget_bytes}"
            )
        self.memory_budget_bytes = memory_budget_bytes
        self.pool_options = None
        self.faults = None
        self._entries: Dict[str, FleetEntry] = {}
        self._lock = threading.RLock()
        #: Signalled whenever an entry stops loading.
        self._loaded = threading.Condition(self._lock)
        self._tick = 0
        self.loads = 0
        self.evictions = 0
        self._closed = False

    # -- construction --------------------------------------------------
    @classmethod
    def from_directory(cls, root, **kwargs) -> "ModelRegistry":
        """Scan ``root`` for artifact subdirectories (anything holding a
        ``manifest.json``) and register each under its directory name.
        The directory itself may also be a single artifact."""
        root = Path(root)
        registry = cls(**kwargs)
        candidates: List[Path] = []
        if (root / "manifest.json").is_file():
            candidates.append(root)
        else:
            candidates.extend(sorted(
                p for p in root.iterdir()
                if p.is_dir() and (p / "manifest.json").is_file()
            ))
        if not candidates:
            raise ModelNotFoundError(f"no artifacts found under {root}")
        for path in candidates:
            registry.add(path.name, path, manifest=read_manifest(path))
        return registry

    def add(self, name: str, path, manifest: Optional[dict] = None) -> FleetEntry:
        if manifest is None:
            manifest = read_manifest(path)
        return self._register(FleetEntry(name, Path(path), manifest))

    def adopt(self, name: str, session) -> FleetEntry:
        """Register a live session the caller owns, resident from the
        start.  The registry never evicts or closes it (it does close
        any pool it starts for it) and charges it nothing: it validates
        its own inputs at any geometry the session accepts.  A pool over
        it mmaps the session's artifact, or stages one
        (:meth:`WorkerPool.from_session`)."""
        entry = FleetEntry(name, None, {})
        entry.session = session
        entry.borrowed = True
        entry.check = session.validate_input
        return self._register(entry)

    def _register(self, entry: FleetEntry) -> FleetEntry:
        with self._lock:
            if entry.name in self._entries:
                raise ValueError(f"model {entry.name!r} already registered")
            self._entries[entry.name] = entry
        return entry

    def use_pools(self, options, faults=None) -> None:
        """Run every resident model on a
        :class:`~repro.runtime.pool.WorkerPool` built from ``options``
        (a :class:`~repro.runtime.pool.PoolOptions`; ``None`` runs
        in-process), with ``faults`` as the pools' chaos hook."""
        self.pool_options = options
        self.faults = faults

    # -- lookup --------------------------------------------------------
    @property
    def models(self) -> List[str]:
        with self._lock:
            return sorted(self._entries)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._entries

    def entry(self, name: str) -> FleetEntry:
        with self._lock:
            entry = self._entries.get(name)
        if entry is None:
            raise ModelNotFoundError(
                f"unknown model {name!r}; fleet has {self.models}"
            )
        return entry

    def resident_bytes(self) -> int:
        with self._lock:
            return sum(e.cost_bytes() for e in self._entries.values()
                       if e.resident)

    # -- residency -----------------------------------------------------
    def checkout(self, name: str) -> FleetEntry:
        """Pin ``name`` resident and mark a request in flight.  Loads
        (and evicts) as needed, and stands up the model's worker pool
        once :meth:`use_pools` has configured one; every checkout must
        be paired with :meth:`release`.

        The load and the pool start run outside the registry lock, so
        ``stats``, admission and the other models' checkouts do not wait
        for them.  Under the lock the entry is pinned (a loading or
        in-flight entry is never evicted), marked loading, and room is
        made on its manifest cost; the lock is taken again to run the
        budget check and publish the session and pool.  A second
        checkout of a loading model waits for that load.
        """
        with self._lock:
            entry = self._lookup_locked(name)
            while entry.loading:
                self._loaded.wait()
                entry = self._lookup_locked(name)
            need_session = not entry.resident
            need_pool = entry.pool is None and self.pool_options is not None
            entry.inflight += 1
            if need_session or need_pool:
                entry.loading = True
                if need_session:
                    self._pre_evict_locked(entry)
        if need_session or need_pool:
            try:
                self._load(entry, need_session, need_pool)
            except BaseException:
                self.release(entry)
                raise
        with self._lock:
            entry.requests += 1
            self._tick += 1
            entry.last_used = self._tick
        return entry

    def _lookup_locked(self, name: str) -> FleetEntry:
        if self._closed:
            raise ModelNotFoundError("registry is closed")
        entry = self._entries.get(name)
        if entry is None:
            raise ModelNotFoundError(
                f"unknown model {name!r}; fleet has {sorted(self._entries)}"
            )
        return entry

    def release(self, entry: FleetEntry) -> None:
        with self._lock:
            entry.inflight = max(0, entry.inflight - 1)

    def run(self, name: str, xs: np.ndarray) -> np.ndarray:
        """Execute one tile on ``name``'s session (or worker pool) —
        the batch engine's executor-thread body.  An adopted session
        checks the tile as it runs; any other entry checks it first."""
        entry = self.entry(name)
        if not entry.borrowed:
            entry.check(xs)
        entry = self.checkout(name)
        try:
            if entry.pool is not None:
                return entry.pool.run(xs)
            return entry.session.run(xs)
        finally:
            self.release(entry)

    def validate_input(self, name: str, x_real) -> np.ndarray:
        """Check one batch for ``name`` at admission without a load
        (:attr:`FleetEntry.check`); a rejection is an
        :class:`~repro.runtime.errors.InvalidInputError`."""
        return self.entry(name).check(x_real)

    def _pre_evict_locked(self, entry: FleetEntry) -> None:
        """Evict on manifest metadata before a load, so the transient
        (loaded but not yet admitted) state overshoots the budget as
        little as possible.  The authoritative check still runs on the
        compiled plan, in :meth:`_load`."""
        if self.memory_budget_bytes is not None and entry.rw_bytes is not None:
            while (self.resident_bytes() + entry.cost_bytes()
                   > self.memory_budget_bytes):
                if not self._evict_lru_locked():
                    break

    def _load(self, entry: FleetEntry, need_session: bool,
              need_pool: bool) -> None:
        """Load ``entry``'s session and start its pool, both outside the
        lock, then admit and publish them under it; raises
        OverBudgetError when the budget never admits the model.  Whatever
        is not published is closed outside the lock."""
        from repro.runtime.session import Session

        session = pool = None
        failure: Optional[BaseException] = None
        try:
            if need_session:
                session = Session.load(entry.path, mmap=True)
            if need_pool:
                # A cold entry's pool maps its artifact; an adopted one
                # (no path) is resident already.
                pool = self._start_pool(entry)
            with self._lock:
                if self._closed:
                    raise ModelNotFoundError("registry is closed")
                if session is not None:
                    self._admit_locked(entry, session)
                    entry.session, session = session, None
                    entry.loads += 1
                    self.loads += 1
                if pool is not None:
                    entry.pool, pool = pool, None
        except OverBudgetError as exc:
            # Keep only the message: the live exception's traceback pins
            # the plan — and with it the mmap views — which would make
            # session.close() fail with BufferError.
            failure = OverBudgetError(str(exc))
        except BaseException as exc:
            failure = exc
        finally:
            with self._lock:
                entry.loading = False
                self._loaded.notify_all()
        if pool is not None:
            pool.close()
        if session is not None:
            session.close()
        if failure is not None:
            raise failure

    def _admit_locked(self, entry: FleetEntry, session) -> None:
        """The budget gate: evict LRU idle models until everyone resident
        plus the newcomer's weights and its Eq. 7 arena peak at the
        native geometry (0 without one) fit the budget, then record that
        peak as the entry's arena cost."""
        plan = session.plan
        rw = (plan.arena_for(entry.max_hw).logical_rw_peak_bytes
              if entry.max_hw is not None and plan.layers else None)
        if self.memory_budget_bytes is not None:
            while (self.resident_bytes() + entry.ro_bytes + (rw or 0)
                   > self.memory_budget_bytes):
                if not self._evict_lru_locked():
                    raise OverBudgetError(self._over_budget_msg(entry))
        if rw is not None:
            entry.rw_bytes = rw

    def _over_budget_msg(self, entry: FleetEntry) -> str:
        return (
            f"model {entry.name!r} needs {entry.cost_bytes()} B "
            f"(weights {entry.ro_bytes} B + arena {entry.rw_bytes or '?'} B) "
            f"but the fleet budget is {self.memory_budget_bytes} B with "
            f"{self.resident_bytes()} B resident and nothing evictable"
        )

    def _evict_lru_locked(self) -> bool:
        """Evict the least-recently-used idle resident model; False when
        nothing is evictable (all cold or all in flight)."""
        victims = [e for e in self._entries.values()
                   if e.resident and e.inflight == 0 and not e.borrowed]
        if not victims:
            return False
        victim = min(victims, key=lambda e: e.last_used)
        self._close_entry(victim)
        victim.evictions += 1
        self.evictions += 1
        return True

    @staticmethod
    def _close_entry(entry: FleetEntry) -> None:
        pool, entry.pool = entry.pool, None
        session, entry.session = entry.session, None
        if pool is not None:
            pool.close()
        if session is not None and not entry.borrowed:
            session.close()

    def _start_pool(self, entry: FleetEntry):
        from repro.runtime.pool import WorkerPool

        if entry.path is not None:
            pool = WorkerPool(entry.path, self.pool_options,
                              faults=self.faults)
        else:
            pool = WorkerPool.from_session(entry.session, self.pool_options,
                                           faults=self.faults)
        return pool.start()

    # -- introspection / lifecycle -------------------------------------
    def stats(self) -> dict:
        with self._lock:
            return {
                "budget_bytes": self.memory_budget_bytes,
                "resident_bytes": self.resident_bytes(),
                "models_known": len(self._entries),
                "models_resident": sum(
                    1 for e in self._entries.values() if e.resident
                ),
                "loads": self.loads,
                "evictions": self.evictions,
                "models": {
                    name: e.to_dict()
                    for name, e in sorted(self._entries.items())
                },
            }

    def close(self) -> None:
        with self._lock:
            self._closed = True
            for entry in self._entries.values():
                self._close_entry(entry)
            # Checkouts waiting on a load give up; the load itself
            # closes what it made when it finds the registry closed.
            self._loaded.notify_all()

    def __enter__(self) -> "ModelRegistry":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def materialize_fleet(root, configs, *, num_classes: int = 5,
                      seed: int = 0) -> List[Path]:
    """Build a fleet directory of zoo artifacts: one
    ``{resolution}x{width}`` subdirectory per ``(resolution, width)``
    config, each a loadable session artifact saved at its native
    geometry (so the manifest carries the Eq. 7 arena plan the registry
    budgets with).  Returns the artifact paths."""
    from repro.models.model_zoo import mobilenet_v1_spec
    from repro.runtime.session import pipeline

    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, (resolution, width) in enumerate(configs):
        spec = mobilenet_v1_spec(int(resolution), float(width),
                                 num_classes=num_classes)
        session = pipeline(spec, seed=seed + i)
        label = f"{int(resolution)}x{width:g}"
        paths.append(session.save(root / label))
    return paths
