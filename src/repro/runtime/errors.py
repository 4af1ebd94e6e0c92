"""Typed error hierarchy for the :mod:`repro.runtime` front door.

Serving callers need to tell *what* went wrong without parsing numpy
tracebacks: a broken artifact on disk is an operational problem (page
whoever deployed it), a bad input batch is a client problem (reject the
request with a 400), and neither should surface as a raw ``ValueError``
from deep inside a kernel.  The classes below are the boundary between
those worlds.

Both roots subclass :class:`ValueError` so historical call sites (and
tests) that caught ``ValueError`` keep working; the missing-artifact
case additionally subclasses :class:`FileNotFoundError` for the same
reason.
"""

from __future__ import annotations


class ArtifactError(ValueError):
    """A session artifact on disk is unusable.

    Raised by :func:`repro.runtime.artifact.load_artifact` (and hence
    :meth:`repro.runtime.Session.load`) for every corruption class —
    missing files, truncated or bit-flipped blobs, CRC mismatches,
    unparseable manifests, unknown formats/versions, and export dicts
    that fail the deployment-side integrity pass.  The message always
    names the artifact path and the failing check.
    """


class ArtifactNotFoundError(ArtifactError, FileNotFoundError):
    """The artifact directory (or one of its two files) does not exist."""


class InvalidInputError(ValueError):
    """An input batch was rejected at the ``Session.run`` boundary.

    Raised before any kernel runs when a batch is not a real-valued
    NCHW array the compiled plan can consume: wrong rank, wrong channel
    count, non-numeric or complex dtype, non-finite values, or a
    geometry the layer cascade collapses to nothing.  Client-side by
    definition — the serving tier maps it to a 400, never a 500.
    """


class PoolError(RuntimeError):
    """Base class for :class:`repro.runtime.pool.WorkerPool` failures.

    Deliberately *not* a :class:`ValueError`: a pool failure is an
    operational event (a worker process died, the pool was closed), not
    a malformed value.  The serving tier treats these like any other
    batch-execution failure — retry, then surface per policy.
    """


class WorkerCrashedError(PoolError):
    """A worker process died (or wedged past the task watchdog) while a
    task was in flight.  The caller that borrowed the worker respawns it
    and then raises this error; the pool never re-runs the task, so a
    retry is the caller's (the serving engine's ``retries``)."""


class WorkerTaskError(PoolError):
    """The task itself raised inside the worker.  Carries the remote
    exception's type name and message; the worker stays alive — this is
    a task failure, not a worker failure, so no respawn happens."""

    def __init__(self, etype: str, message: str) -> None:
        super().__init__(f"{etype}: {message}")
        self.etype = etype


class PoolClosedError(PoolError):
    """The pool was closed; no further tasks are accepted, and callers
    still waiting for a worker at close time fail with this error."""
