"""Shared-memory tensor transport for the worker pool.

One :class:`SharedSlab` is a fixed-size ``multiprocessing.shared_memory``
segment the parent and exactly one worker agree on: the caller that has
borrowed the worker writes a request batch into its request slab, sends
a tiny control message (shape + dtype + sequence number) over the
worker's pipe, and the worker maps the same bytes as a numpy view — the
batch never crosses the pipe, and neither does the response.  The
protocol is strictly request/response per worker, and a worker is lent
to one caller at a time, so a slab is never written while the peer
might still be reading it and the slab itself needs no lock.

Payloads that do not fit the slab (a caller submitting a tile larger
than the pool was sized for, or an unusually large trunk output) fall
back to pickling the array through the control pipe — slower, never
wrong.  :class:`repro.runtime.pool.WorkerPool` counts those fallbacks
in its stats so an undersized pool is visible, not silent.

Lifecycle: the *parent* owns every segment (creates and unlinks);
workers only attach.  A SIGKILL'd worker therefore leaks nothing — the
segment lives until the pool closes, and the respawned worker attaches
to the same name.
"""

from __future__ import annotations

from multiprocessing import shared_memory
from typing import Optional, Sequence, Tuple

import numpy as np


class SharedSlab:
    """A named shared-memory byte range with numpy views on top."""

    def __init__(self, nbytes: int, name: Optional[str] = None,
                 create: bool = True):
        self.create = bool(create)
        if create:
            self._shm = shared_memory.SharedMemory(
                create=True, size=max(1, int(nbytes))
            )
        else:
            # Attaching would re-register the segment with the resource
            # tracker (shared with the parent process), and our later
            # deregistration would cancel the *parent's* registration —
            # its unlink at pool close would then warn about an unknown
            # name.  Workers only borrow the mapping, so suppress the
            # registration entirely for the duration of the attach.
            from multiprocessing import resource_tracker

            original_register = resource_tracker.register

            def _borrowing_register(name_, rtype):
                if rtype != "shared_memory":
                    original_register(name_, rtype)

            resource_tracker.register = _borrowing_register
            try:
                self._shm = shared_memory.SharedMemory(name=name)
            finally:
                resource_tracker.register = original_register
        self.name = self._shm.name
        self.nbytes = self._shm.size

    def fits(self, nbytes: int) -> bool:
        return int(nbytes) <= self.nbytes

    def view(self, shape: Sequence[int], dtype) -> np.ndarray:
        """A numpy view of the slab's first ``prod(shape)`` elements."""
        shape = tuple(int(d) for d in shape)
        arr = np.ndarray(shape, dtype=np.dtype(dtype), buffer=self._shm.buf)
        return arr

    def write(self, array: np.ndarray) -> Tuple[Tuple[int, ...], str]:
        """Copy ``array`` into the slab; returns ``(shape, dtype.str)``
        for the control message.  Caller must have checked :meth:`fits`."""
        arr = np.ascontiguousarray(array)
        if arr.size:
            self.view(arr.shape, arr.dtype)[...] = arr
        return arr.shape, arr.dtype.str

    def read(self, shape: Sequence[int], dtype) -> np.ndarray:
        """Copy the described tensor *out* of the slab (the slab is
        reused for the next task, so the result must own its bytes)."""
        return np.array(self.view(shape, dtype), copy=True)

    def close(self) -> None:
        try:
            self._shm.close()
        except (OSError, BufferError):
            pass  # exported views may still pin the mapping; GC reaps it
        if self.create:
            try:
                self._shm.unlink()
            except OSError:
                pass  # another owner already unlinked the segment

    @classmethod
    def attach(cls, name: str) -> "SharedSlab":
        """Worker-side: map an existing parent-owned segment by name."""
        return cls(0, name=name, create=False)
