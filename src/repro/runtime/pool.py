"""Process-based worker pool over a session artifact: N cores, one copy
of the weights.

The scaling unit of the serving tier.  Each worker is a separate
process that opens the *same* artifact directory via the mmap load path
(:func:`repro.runtime.artifact.load_artifact` with ``mmap=True``): the
read-only pages of ``blobs.bin`` are shared by the OS page cache across
every worker, so an N-worker pool costs one copy of the weight blobs
plus N private activation arenas (and N compiled plans) — not N full
model copies.  Every worker compiles the identical
:class:`~repro.runtime.Session` from the identical bytes, so pool
results are bit-identical to a single in-process session by
construction, and the parity suite asserts it.

Dispatch is lending: :meth:`WorkerPool.run` borrows an idle worker
under the pool lock (the one idle longest; it waits while every worker
is out on loan), runs the round trip on the calling thread and gives
the worker back.  The pool starts no threads of its own.  Tensors
travel through per-worker :class:`~repro.runtime.shm.SharedSlab`
segments (zero-copy IPC; oversize payloads fall back to the control
pipe, counted).

Failure contract:

* a worker that dies mid-task (crash, OOM-kill, injected SIGKILL) is
  **respawned** in place by the caller that borrowed it, and the task is
  retried up to ``PoolOptions.retries`` times before the caller sees a
  :class:`~repro.runtime.errors.WorkerCrashedError`;
* a worker wedged past :data:`TASK_TIMEOUT_S` is SIGKILL'd and handled
  the same way (the pool-side analogue of the engine's hung-batch watchdog);
* an exception *inside* the task (bad input reaching a kernel) comes
  back as :class:`~repro.runtime.errors.WorkerTaskError` without a
  respawn — task failures are not worker failures;
* ``close`` fails every caller still waiting for a worker with
  :class:`~repro.runtime.errors.PoolClosedError`, and a ``start`` that
  fails closes every worker and segment it made before it re-raises.

The ``worker-kill`` chaos fault lives here: the pool accepts any object
with a ``fire(kind) -> spec|None`` method (duck-typed so this module
never imports the serving tier) and, when it fires, marks the task so
the worker SIGKILLs itself on reading it, before computing or replying
— a deterministic stand-in for a mid-batch crash.
"""

from __future__ import annotations

import os
import signal
import tempfile
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Deque, List, Optional, Union

import numpy as np

from repro.runtime.errors import (
    PoolClosedError,
    WorkerCrashedError,
    WorkerTaskError,
)
from repro.runtime.shm import SharedSlab

_FALLBACK_SLAB_BYTES = 16 * 1024 * 1024


#: ``multiprocessing`` start method.  ``spawn`` gives every worker a
#: clean interpreter with no locks inherited from a threaded parent —
#: a caller's thread respawns crashed workers, which is only safe with
#: clean children.
START_METHOD = "spawn"
#: How long to wait for a worker to report ready (plan compiled, arena
#: warm), and the per-task wedge watchdog: a worker silent past it is
#: killed and respawned.
SPAWN_TIMEOUT_S = 120.0
TASK_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class PoolOptions:
    """Configuration of a :class:`WorkerPool` (frozen value object).

    ``workers``
        Number of worker processes.
    ``retries``
        Respawn-and-retry budget per task after a worker crash
        (0 = fail the task on the first crash).
    ``max_tile``
        Upper bound on images per dispatched task; ``run_batched``
        sweeps are split into tiles of at most this many images, and
        the shared-memory slabs are sized to carry one such tile.
    """

    workers: int = 2
    retries: int = 1
    max_tile: int = 32

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.max_tile < 1:
            raise ValueError(f"max_tile must be >= 1, got {self.max_tile}")


def _worker_main(worker_id: int, artifact_path: str, req_name: str,
                 resp_name: str, conn) -> None:  # pragma: no cover
    """Worker-process body: load the artifact (mmap), warm the plan,
    then serve ``run`` requests off the control pipe until told to
    ``close``.  Runs in a child process — everything it needs arrives via
    arguments, nothing is inherited (and coverage cannot trace it:
    it is exercised end to end by the pool suites, not line-counted)."""
    # The parent owns lifecycle; a Ctrl-C on the process group must not
    # tear workers down before the pool's own close sequence does.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):
        pass
    from repro.runtime.session import Session

    req = SharedSlab.attach(req_name)
    resp = SharedSlab.attach(resp_name)
    try:
        session = Session.load(artifact_path, mmap=True)
        health = session.healthcheck()  # warms the arena + kernels
        conn.send({"op": "ready", "pid": os.getpid(), "worker": worker_id,
                   "health": health})
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            op = msg.get("op")
            if op == "close":
                conn.send({"op": "closed", "pid": os.getpid()})
                break
            if op != "run":
                conn.send({"op": "error", "seq": msg.get("seq"),
                           "etype": "ValueError",
                           "message": f"unknown op {op!r}"})
                continue
            if msg.get("kill"):
                # Injected worker-kill: die holding the task, before
                # computing or replying, so the crash is certain.
                os.kill(os.getpid(), signal.SIGKILL)
            try:
                if msg.get("inline") is not None:
                    xs = np.asarray(msg["inline"])
                else:
                    xs = req.view(msg["shape"], msg["dtype"])
                out = session.run(xs)
            except Exception as exc:
                conn.send({"op": "error", "seq": msg.get("seq"),
                           "etype": type(exc).__name__, "message": str(exc)})
                continue
            out = np.ascontiguousarray(out)
            reply = {"op": "done", "seq": msg.get("seq"),
                     "shape": out.shape, "dtype": out.dtype.str}
            if resp.fits(out.nbytes):
                resp.write(out)
            else:
                reply["inline"] = out
            conn.send(reply)
    finally:
        req.close()
        resp.close()
        try:
            conn.close()
        except OSError:
            pass  # already torn down by the parent


class _WorkerHandle:
    """Parent-side record of one worker slot (process + pipe + slabs).
    After start(), only the caller that has borrowed the slot touches
    its process, pipe and slabs; counters change under the pool lock."""

    def __init__(self, worker_id: int, req: SharedSlab, resp: SharedSlab):
        self.worker_id = worker_id
        self.req = req
        self.resp = resp
        self.proc = None
        self.conn = None
        self.pid: Optional[int] = None
        self.seq = 0
        self.state = "starting"
        self.served = 0
        self.restarts = 0

    @property
    def alive(self) -> bool:
        return self.proc is not None and self.proc.is_alive()


class WorkerPool:
    """N artifact-backed worker processes, each lent to one caller at a
    time.  See the module docstring for the full contract."""

    def __init__(self, artifact_path: Union[str, Path],
                 options: Optional[PoolOptions] = None,
                 faults: Optional[Any] = None):
        self.artifact_path = Path(artifact_path)
        self.options = options or PoolOptions()
        self.faults = faults  # duck-typed: .fire("worker-kill") -> spec|None
        self._ctx = None
        self._closed = False
        self._started = False
        self._owned_tmp: Optional[str] = None
        self._lock = threading.Condition()
        self._start_lock = threading.Lock()  # one start spawns; the rest wait
        self._workers: List[_WorkerHandle] = []
        self._idle: Deque[_WorkerHandle] = deque()  # longest idle first
        self._lent = 0
        self.kills = 0
        self.inline_fallbacks = 0
        self._total_restarts = 0

    # -- construction helpers ------------------------------------------
    @classmethod
    def from_session(cls, session, options: Optional[PoolOptions] = None,
                     faults: Optional[Any] = None) -> "WorkerPool":
        """Pool over an in-memory session: reuse the artifact it was
        loaded from when known, else stage a private temporary artifact
        (removed on ``close``)."""
        source = getattr(session, "source_artifact", None)
        if source is not None and Path(source).is_dir():
            return cls(source, options=options, faults=faults)
        tmp = tempfile.mkdtemp(prefix="repro-pool-")
        path = Path(tmp) / "model.artifact"
        session.save(path)
        pool = cls(path, options=options, faults=faults)
        pool._owned_tmp = tmp
        return pool

    def _slab_bytes(self, manifest: dict) -> int:
        try:
            net = manifest["network"]
            arena = net["arena"]
            h, w = arena["input_hw"]
            channels = int(net["conv_layers"][0]["weight_shape"][1])
            per_image = channels * int(h) * int(w) * 8  # float64 NCHW
            return max(64 * 1024, self.options.max_tile * per_image)
        except (KeyError, IndexError, TypeError, ValueError):
            return _FALLBACK_SLAB_BYTES

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "WorkerPool":
        """Spawn the workers and wait for every one to report ready
        (plan compiled, arena warm).  Starts no thread.  Idempotent, also
        across threads: the first caller spawns, the others wait for it.

        A closed pool raises :class:`PoolClosedError` before it spawns
        anything; a start that fails closes the pool (every worker and
        segment it made) before it re-raises."""
        with self._start_lock:
            if self._started:
                return self
            if self._closed:
                raise PoolClosedError("pool is closed")
            import multiprocessing as mp

            from repro.runtime.artifact import read_manifest

            manifest = read_manifest(self.artifact_path)  # fail fast + sizing
            slab_bytes = self._slab_bytes(manifest)
            self._ctx = mp.get_context(START_METHOD)
            try:
                for wid in range(self.options.workers):
                    handle = _WorkerHandle(
                        wid, SharedSlab(slab_bytes), SharedSlab(slab_bytes)
                    )
                    self._workers.append(handle)
                    self._spawn(handle)
                deadline = time.monotonic() + SPAWN_TIMEOUT_S
                for handle in self._workers:
                    self._await_ready(handle, deadline)
            except BaseException:
                self.close()
                raise
            with self._lock:
                for handle in self._workers:
                    handle.state = "idle"
                self._idle.extend(self._workers)
                self._started = True
            return self

    def _spawn(self, handle: _WorkerHandle) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(handle.worker_id, str(self.artifact_path),
                  handle.req.name, handle.resp.name, child_conn),
            name=f"repro-pool-worker-{handle.worker_id}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        handle.proc = proc
        handle.conn = parent_conn
        handle.pid = proc.pid

    def _await_ready(self, handle: _WorkerHandle, deadline: float) -> None:
        while True:
            timeout = deadline - time.monotonic()
            if timeout <= 0:
                raise WorkerCrashedError(
                    f"worker {handle.worker_id} did not report ready within "
                    f"{SPAWN_TIMEOUT_S:.0f}s"
                )
            if handle.conn.poll(min(0.1, timeout)):
                try:
                    msg = handle.conn.recv()
                except (EOFError, OSError):
                    raise WorkerCrashedError(
                        f"worker {handle.worker_id} died during startup"
                    ) from None
                if msg.get("op") == "ready":
                    return
            elif not handle.proc.is_alive():
                raise WorkerCrashedError(
                    f"worker {handle.worker_id} died during startup "
                    f"(exit code {handle.proc.exitcode})"
                )

    def _respawn(self, handle: _WorkerHandle) -> None:
        """Replace a dead worker in place (same slot, same slabs), on the
        thread of the caller that borrowed it."""
        with self._lock:
            handle.state = "respawning"
            handle.restarts += 1
            self._total_restarts += 1
        try:
            handle.conn.close()
        except OSError:
            pass  # pipe already broken — that is why we are respawning
        if handle.proc is not None and handle.proc.is_alive():
            handle.proc.kill()
        if handle.proc is not None:
            handle.proc.join(timeout=5.0)
        self._spawn(handle)
        self._await_ready(handle, time.monotonic() + SPAWN_TIMEOUT_S)
        with self._lock:
            handle.state = "busy"

    def close(self) -> None:
        """Fail every caller still waiting for a worker, wait up to
        ``TASK_TIMEOUT_S + 10`` s for borrowed workers to come back,
        then shut the workers down and release every shared segment.
        Idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._lock.notify_all()
            self._lock.wait_for(lambda: not self._lent,
                                timeout=TASK_TIMEOUT_S + 10.0)
        for handle in self._workers:
            try:
                if handle.alive:
                    handle.conn.send({"op": "close"})
            except (OSError, ValueError):
                pass  # worker died first; the kill below still runs
        for handle in self._workers:
            if handle.proc is not None:
                handle.proc.join(timeout=2.0)
                if handle.proc.is_alive():
                    handle.proc.kill()
                    handle.proc.join(timeout=2.0)
            if handle.conn is not None:
                try:
                    handle.conn.close()
                except OSError:
                    pass  # double-close after a crashed worker
            handle.req.close()
            handle.resp.close()
        if self._owned_tmp:
            import shutil

            shutil.rmtree(self._owned_tmp, ignore_errors=True)
            self._owned_tmp = None

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- lending -------------------------------------------------------
    def _borrow(self) -> _WorkerHandle:
        """The worker idle longest; waits while every worker is borrowed."""
        with self._lock:
            while not self._closed and not self._idle:
                self._lock.wait()
            if self._closed:
                raise PoolClosedError("pool is closed")
            handle = self._idle.popleft()
            handle.state = "busy"
            self._lent += 1
            return handle

    def _give_back(self, handle: _WorkerHandle, served: bool) -> None:
        with self._lock:
            handle.served += served
            handle.state = "idle"
            self._idle.append(handle)
            self._lent -= 1
            self._lock.notify_all()

    def _roundtrip(self, handle: _WorkerHandle, xs: np.ndarray) -> np.ndarray:
        """Ship one tile to ``handle``'s worker and wait for its reply.
        Raises :class:`WorkerCrashedError` if the process dies or wedges
        past the task watchdog, :class:`WorkerTaskError` if the task
        itself failed remotely."""
        handle.seq += 1
        seq = handle.seq
        msg = {"op": "run", "seq": seq, "shape": xs.shape,
               "dtype": xs.dtype.str}
        if xs.size and handle.req.fits(xs.nbytes):
            handle.req.write(xs)
        elif xs.size:
            msg["inline"] = xs
            with self._lock:
                self.inline_fallbacks += 1
        # Chaos hook: the task carries the kill, and the worker SIGKILLs
        # itself on reading it — a deterministic mid-batch crash the
        # borrowing caller must absorb.
        if self.faults is not None and self.faults.fire("worker-kill") is not None:
            msg["kill"] = True
            with self._lock:
                self.kills += 1
        try:
            handle.conn.send(msg)
        except (BrokenPipeError, OSError) as exc:
            raise WorkerCrashedError(
                f"worker {handle.worker_id} (pid {handle.pid}) pipe broke "
                f"while sending a task"
            ) from exc
        deadline = time.monotonic() + TASK_TIMEOUT_S
        while True:
            if handle.conn.poll(0.05):
                try:
                    reply = handle.conn.recv()
                except (EOFError, OSError):
                    raise WorkerCrashedError(
                        f"worker {handle.worker_id} (pid {handle.pid}) died "
                        f"mid-task"
                    ) from None
                if reply.get("seq") != seq:
                    continue  # stale chatter from an abandoned task; keep draining
                break
            if not handle.proc.is_alive():
                # One final poll: the reply may have been in flight when
                # the process exited.
                if handle.conn.poll(0):
                    continue
                raise WorkerCrashedError(
                    f"worker {handle.worker_id} (pid {handle.pid}) died "
                    f"mid-task (exit code {handle.proc.exitcode})"
                )
            if time.monotonic() > deadline:
                try:
                    os.kill(handle.pid, signal.SIGKILL)
                except (ProcessLookupError, OSError):
                    pass
                raise WorkerCrashedError(
                    f"worker {handle.worker_id} (pid {handle.pid}) wedged "
                    f"past the {TASK_TIMEOUT_S:.0f}s task watchdog"
                )
        if reply.get("op") == "error":
            raise WorkerTaskError(reply.get("etype", "Exception"),
                                  reply.get("message", ""))
        if reply.get("op") != "done":
            raise WorkerCrashedError(
                f"worker {handle.worker_id} sent an unexpected "
                f"{reply.get('op')!r} reply"
            )
        if reply.get("inline") is not None:
            return np.asarray(reply["inline"])
        return handle.resp.read(reply["shape"], reply["dtype"])

    # -- serving surface ----------------------------------------------
    def run(self, xs: np.ndarray) -> np.ndarray:
        """One tile, synchronously, on the calling thread: real NCHW
        batch -> real logits (bit-identical to ``Session.run`` on any
        worker's session).  Borrows an idle worker, respawns and retries
        it here if it crashes, and gives it back.  Thread-safe."""
        if not self._started:
            self.start()
        xs = np.ascontiguousarray(np.asarray(xs))
        handle = self._borrow()
        served = False
        crash: Optional[WorkerCrashedError] = None
        try:
            for _ in range(self.options.retries + 1):
                if crash is not None and self._closed:
                    raise PoolClosedError("pool closed during retry") from crash
                try:
                    out = self._roundtrip(handle, xs)
                except WorkerCrashedError as exc:
                    crash = exc
                    try:
                        self._respawn(handle)
                    except WorkerCrashedError as respawn_exc:
                        # The slot did not come back: the next attempt
                        # (or the next borrower) spawns it afresh.
                        crash = respawn_exc
                    continue
                served = True
                return out
            raise crash
        finally:
            self._give_back(handle, served)

    def run_batched(self, x_real: np.ndarray,
                    batch_size: Optional[int] = None) -> np.ndarray:
        """A sweep, tiled *across* workers: split into contiguous tiles
        of ``batch_size`` (default ``PoolOptions.max_tile``), run them on
        up to ``workers`` threads of an executor that lives only for this
        call, and reassemble them in order.  Because every kernel in the
        stack is exact, per-tile execution is bit-identical to
        ``Session.run_batched`` of the whole sweep no matter how the
        tiles land on workers.  A sweep of one tile (or none: the empty
        sweep keeps the plan's output shape) runs on the calling thread."""
        x = np.asarray(x_real)
        tile = int(batch_size or self.options.max_tile)
        if tile < 1:
            raise ValueError(f"batch_size must be >= 1, got {tile}")
        n = x.shape[0] if x.ndim else 0
        if n <= tile:
            return self.run(x)
        tiles = [x[i:i + tile] for i in range(0, n, tile)]
        width = min(len(tiles), self.options.workers)
        with ThreadPoolExecutor(max_workers=width,
                                thread_name_prefix="repro-pool-sweep") as sweep:
            return np.concatenate(list(sweep.map(self.run, tiles)), axis=0)

    def predict(self, x_real: np.ndarray,
                batch_size: Optional[int] = None) -> np.ndarray:
        return np.argmax(self.run_batched(x_real, batch_size=batch_size),
                         axis=1)

    # -- introspection -------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def restarts(self) -> int:
        return self._total_restarts

    def alive_workers(self) -> int:
        return sum(1 for h in self._workers if h.alive)

    def stats(self) -> dict:
        """Health + accounting snapshot (the ``/stats`` pool section).

        Taken under the pool lock, which every counter change also
        takes, so the counters and per-worker rows all describe one
        instant — an unlocked snapshot can sum ``served`` mid-restart
        or see a handle half given back.
        """
        with self._lock:
            return {
                "workers": self.options.workers,
                "alive": self.alive_workers(),
                "restarts": self._total_restarts,
                "kills": self.kills,
                "served": sum(h.served for h in self._workers),
                "inline_fallbacks": self.inline_fallbacks,
                "per_worker": [
                    {
                        "worker": h.worker_id,
                        "pid": h.pid,
                        "alive": h.alive,
                        "state": h.state,
                        "served": h.served,
                        "restarts": h.restarts,
                    }
                    for h in self._workers
                ],
            }

    def worker_pids(self) -> List[Optional[int]]:
        return [h.pid for h in self._workers]
