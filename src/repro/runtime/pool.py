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

Dispatch is work-stealing: the pool keeps one task deque per worker
plus one parent-side dispatcher thread per worker.  ``submit`` enqueues
onto the shortest deque; an idle dispatcher first drains its own deque,
then steals the *oldest* task from the longest peer deque (FIFO steal —
the task that has waited longest moves first).  Tensors travel through
per-worker :class:`~repro.runtime.shm.SharedSlab` segments (zero-copy
IPC; oversize payloads fall back to the control pipe, counted).

Failure contract:

* a worker that dies mid-task (crash, OOM-kill, injected SIGKILL) is
  detected by its dispatcher thread, **respawned**, and the task is
  retried up to ``PoolOptions.retries`` times before the caller sees a
  :class:`~repro.runtime.errors.WorkerCrashedError`;
* a worker wedged past :data:`TASK_TIMEOUT_S` is SIGKILL'd and handled
  the same way (the pool-side analogue of the engine's hung-batch watchdog);
* an exception *inside* the task (bad input reaching a kernel) comes
  back as :class:`~repro.runtime.errors.WorkerTaskError` without a
  respawn — task failures are not worker failures.

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
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional, Union

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
#: crash-respawn from a dispatcher thread is only safe with clean
#: children.
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
    then serve run/batched requests off the control pipe until told to
    close.  Runs in a child process — everything it needs arrives via
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
            if op == "ping":
                conn.send({"op": "pong", "pid": os.getpid(),
                           "seq": msg.get("seq")})
                continue
            if op not in ("run", "batched"):
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
                if op == "batched":
                    out = session.run_batched(
                        xs, batch_size=msg.get("batch_size")
                    )
                else:
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


class _Task:
    """One unit of dispatch: a tile plus its completion future."""

    __slots__ = ("op", "xs", "batch_size", "future", "attempts")

    def __init__(self, op: str, xs: np.ndarray,
                 batch_size: Optional[int] = None):
        import concurrent.futures

        self.op = op
        self.xs = xs
        self.batch_size = batch_size
        self.future: "concurrent.futures.Future" = concurrent.futures.Future()
        self.attempts = 0


class _WorkerHandle:
    """Parent-side record of one worker slot (process + pipe + slabs).
    Only the slot's dispatcher thread mutates it after start()."""

    def __init__(self, worker_id: int, req: SharedSlab, resp: SharedSlab):
        self.worker_id = worker_id
        self.req = req
        self.resp = resp
        self.proc = None
        self.conn = None
        self.pid: Optional[int] = None
        self.ready = False
        self.state = "starting"
        self.served = 0
        self.restarts = 0
        self.stolen = 0

    @property
    def alive(self) -> bool:
        return self.proc is not None and self.proc.is_alive()


class WorkerPool:
    """N artifact-backed worker processes behind a work-stealing
    dispatcher.  See the module docstring for the full contract."""

    def __init__(self, artifact_path: Union[str, Path],
                 options: Optional[PoolOptions] = None,
                 faults: Optional[Any] = None):
        self.artifact_path = Path(artifact_path)
        self.options = options or PoolOptions()
        self.faults = faults  # duck-typed: .fire("worker-kill") -> spec|None
        self._ctx = None
        self._seq = 0
        self._closed = False
        self._started = False
        self._owned_tmp: Optional[str] = None
        self._lock = threading.Condition()
        n = self.options.workers
        self._queues: List[Deque[_Task]] = [deque() for _ in range(n)]
        self._workers: List[_WorkerHandle] = []
        self._threads: List[threading.Thread] = []
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
        """Spawn the workers, wait for every one to report ready (plan
        compiled, arena warm), then start the dispatcher threads.
        Idempotent."""
        if self._started:
            return self
        import multiprocessing as mp

        from repro.runtime.artifact import read_manifest

        manifest = read_manifest(self.artifact_path)  # fail fast + sizing
        slab_bytes = self._slab_bytes(manifest)
        self._ctx = mp.get_context(START_METHOD)
        for wid in range(self.options.workers):
            handle = _WorkerHandle(
                wid, SharedSlab(slab_bytes), SharedSlab(slab_bytes)
            )
            self._workers.append(handle)
            self._spawn(handle)
        deadline = time.monotonic() + SPAWN_TIMEOUT_S
        for handle in self._workers:
            self._await_ready(handle, deadline)
        self._started = True
        for handle in self._workers:
            t = threading.Thread(
                target=self._dispatch_loop, args=(handle,),
                name=f"repro-pool-dispatch-{handle.worker_id}", daemon=True,
            )
            self._threads.append(t)
            t.start()
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
        handle.ready = False
        handle.state = "starting"

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
                    handle.ready = True
                    handle.state = "idle"
                    return
            elif not handle.proc.is_alive():
                raise WorkerCrashedError(
                    f"worker {handle.worker_id} died during startup "
                    f"(exit code {handle.proc.exitcode})"
                )

    def _respawn(self, handle: _WorkerHandle) -> None:
        """Replace a dead worker in place (same slot, same slabs)."""
        try:
            handle.conn.close()
        except OSError:
            pass  # pipe already broken — that is why we are respawning
        if handle.proc is not None and handle.proc.is_alive():
            handle.proc.kill()
        if handle.proc is not None:
            handle.proc.join(timeout=5.0)
        handle.restarts += 1
        with self._lock:
            self._total_restarts += 1
        self._spawn(handle)
        self._await_ready(handle, time.monotonic() + SPAWN_TIMEOUT_S)

    def close(self) -> None:
        """Stop dispatchers, shut workers down, release every shared
        segment, and fail tasks still queued.  Idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            leftovers = [t for q in self._queues for t in q]
            for q in self._queues:
                q.clear()
            self._lock.notify_all()
        for task in leftovers:
            if not task.future.done():
                task.future.set_exception(
                    PoolClosedError("pool closed with tasks still queued")
                )
        for t in self._threads:
            t.join(timeout=TASK_TIMEOUT_S + 10.0)
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

    # -- dispatch ------------------------------------------------------
    def submit(self, xs: np.ndarray, op: str = "run",
               batch_size: Optional[int] = None):
        """Enqueue one tile; returns a ``concurrent.futures.Future``
        resolving to the tile's logits.  Thread-safe."""
        if not self._started:
            self.start()
        task = _Task(op, np.ascontiguousarray(np.asarray(xs)), batch_size)
        with self._lock:
            if self._closed:
                raise PoolClosedError("pool is closed")
            target = min(
                range(len(self._queues)), key=lambda i: len(self._queues[i])
            )
            self._queues[target].append(task)
            self._lock.notify_all()
        return task.future

    def _take_task(self, handle: _WorkerHandle) -> Optional[_Task]:
        """Own queue first; else steal the oldest task from the longest
        peer queue; else block until work arrives or the pool closes."""
        wid = handle.worker_id
        with self._lock:
            while True:
                if self._closed:
                    return None
                if self._queues[wid]:
                    return self._queues[wid].popleft()
                victim = max(
                    range(len(self._queues)),
                    key=lambda i: len(self._queues[i]),
                )
                if self._queues[victim]:
                    handle.stolen += 1
                    return self._queues[victim].popleft()
                handle.state = "idle"
                self._lock.wait()

    def _requeue_front(self, handle: _WorkerHandle, task: _Task) -> None:
        with self._lock:
            if self._closed:
                if not task.future.done():
                    task.future.set_exception(
                        PoolClosedError("pool closed during retry")
                    )
                return
            self._queues[handle.worker_id].appendleft(task)
            self._lock.notify_all()

    def _dispatch_loop(self, handle: _WorkerHandle) -> None:
        while True:
            task = self._take_task(handle)
            if task is None:
                return
            if task.future.cancelled():
                continue
            handle.state = "busy"
            try:
                result = self._roundtrip(handle, task)
            except WorkerCrashedError as exc:
                handle.state = "respawning"
                try:
                    self._respawn(handle)
                except WorkerCrashedError as respawn_exc:
                    # Could not bring the slot back: fail the task and
                    # keep trying to serve the queue with a fresh spawn
                    # on the next task.
                    exc = respawn_exc
                task.attempts += 1
                if task.attempts <= self.options.retries:
                    self._requeue_front(handle, task)
                elif not task.future.done():
                    task.future.set_exception(exc)
                handle.state = "idle"
                continue
            except Exception as exc:
                if not task.future.done():
                    task.future.set_exception(exc)
                handle.state = "idle"
                continue
            handle.served += 1
            handle.state = "idle"
            if not task.future.done():
                task.future.set_result(result)

    def _roundtrip(self, handle: _WorkerHandle, task: _Task) -> np.ndarray:
        """Ship one task to ``handle``'s worker and wait for its reply.
        Raises :class:`WorkerCrashedError` if the process dies or wedges
        past the task watchdog, :class:`WorkerTaskError` if the task
        itself failed remotely."""
        with self._lock:
            self._seq += 1
            seq = self._seq
        xs = task.xs
        msg: Dict[str, Any] = {
            "op": task.op, "seq": seq,
            "shape": xs.shape, "dtype": xs.dtype.str,
            "batch_size": task.batch_size,
        }
        if xs.size and handle.req.fits(xs.nbytes):
            handle.req.write(xs)
        elif xs.size:
            msg["inline"] = xs
            with self._lock:
                self.inline_fallbacks += 1
        # Chaos hook: the task carries the kill, and the worker SIGKILLs
        # itself on reading it — a deterministic mid-batch crash the
        # dispatcher must absorb.
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
                    continue  # stale pre-crash chatter; keep draining
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
        """One tile, synchronously: real NCHW batch -> real logits
        (bit-identical to ``Session.run`` on any worker's session)."""
        return self.submit(xs, op="run").result()

    def run_batched(self, x_real: np.ndarray,
                    batch_size: Optional[int] = None) -> np.ndarray:
        """A sweep, tiled *across* workers: split into contiguous tiles
        of ``batch_size`` (default ``PoolOptions.max_tile``), dispatch
        them all, and reassemble in submission order.  Because every
        kernel in the stack is exact, per-tile execution is
        bit-identical to ``Session.run_batched`` of the whole sweep no
        matter how the tiles land on workers."""
        x = np.asarray(x_real)
        tile = int(batch_size or self.options.max_tile)
        if tile < 1:
            raise ValueError(f"batch_size must be >= 1, got {tile}")
        n = x.shape[0] if x.ndim else 0
        if n == 0:
            # Shape-preserving empty sweep: one worker answers with the
            # plan's output spec applied to zero images.
            return self.submit(x, op="batched",
                               batch_size=tile).result()
        futures = [self.submit(x[i:i + tile], op="run")
                   for i in range(0, n, tile)]
        return np.concatenate([f.result() for f in futures], axis=0)

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

    def queue_depths(self) -> List[int]:
        with self._lock:
            return [len(q) for q in self._queues]

    def stats(self) -> dict:
        """Health + accounting snapshot (the ``/stats`` pool section).

        Taken under the pool lock so the counters, queue depths and
        per-worker rows all describe one instant — an unlocked snapshot
        can sum ``served`` mid-restart and report a batch both in a
        queue and in a worker's tally.  (``queue_depths`` re-enters the
        lock; the Condition's default lock is reentrant.)
        """
        with self._lock:
            return {
                "workers": self.options.workers,
                "alive": self.alive_workers(),
                "restarts": self._total_restarts,
                "kills": self.kills,
                "served": sum(h.served for h in self._workers),
                "stolen": sum(h.stolen for h in self._workers),
                "inline_fallbacks": self.inline_fallbacks,
                "queue_depths": self.queue_depths(),
                "per_worker": [
                    {
                        "worker": h.worker_id,
                        "pid": h.pid,
                        "alive": h.alive,
                        "state": h.state,
                        "served": h.served,
                        "restarts": h.restarts,
                        "stolen": h.stolen,
                    }
                    for h in self._workers
                ],
            }

    def worker_pids(self) -> List[Optional[int]]:
        return [h.pid for h in self._workers]
