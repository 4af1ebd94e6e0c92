"""Typed failure vocabulary of the serving tier.

Every request that does not end in a prediction ends in exactly one of
these, and each maps to one HTTP status — the policy table in the
README is the authoritative crosswalk.  Handlers switch on the type,
never on message text.
"""

from __future__ import annotations


class ServingError(Exception):
    """Base class for every serving-tier failure.

    ``status`` is the HTTP status the front end answers with; subclasses
    pin it so the mapping lives with the error, not in the handler.
    """

    status = 500

    def payload(self) -> dict:
        return {"error": type(self).__name__, "detail": str(self)}


class MalformedRequestError(ServingError, ValueError):
    """The request body could not be turned into a model input (bad
    JSON, missing fields, wrong shape/dtype, non-finite values)."""

    status = 400


class RequestTimeoutError(ServingError):
    """The client did not finish sending its request — request line,
    headers and body — within the server's read deadline; the handler
    answers and closes instead of waiting on it forever."""

    status = 408


class DeadlineExceededError(ServingError):
    """The request's deadline passed while it waited for a batch slot;
    it was dropped *before* reaching the engine."""

    status = 504


class QueueFullError(ServingError):
    """Admission control shed the request: the bounded queue was at
    depth.  The response carries ``Retry-After`` — explicit backpressure
    instead of unbounded buffering."""

    status = 503


class CircuitOpenError(ServingError):
    """The model's circuit breaker is open after consecutive batch
    failures; requests are shed until a half-open probe succeeds."""

    status = 503


class ServerClosingError(ServingError):
    """The server is shutting down; pending requests are failed fast
    rather than silently dropped."""

    status = 503


class ModelNotFoundError(ServingError):
    """The request named a model the fleet registry does not know.  A
    permanent condition for this request — no Retry-After."""

    status = 404


class OverBudgetError(ServingError):
    """The named model exists but cannot be made resident: even after
    evicting every idle model, its flash + Eq. 7 arena cost exceeds the
    registry's memory budget.  Payload-too-large in spirit — the model,
    not the request body, is what does not fit."""

    status = 413


class BatchExecutionError(ServingError):
    """A batch failed terminally (retries exhausted, or the request was
    quarantined as the poisoner during batch-of-1 degradation)."""

    status = 500


class HungBatchError(BatchExecutionError):
    """The engine's watchdog abandoned a batch that exceeded the batch
    timeout; the executor thread was replaced to keep the tier live."""


class InjectedFaultError(RuntimeError):
    """Raised by the fault-injection harness inside the engine to stand
    in for a kernel crash.  Deliberately *not* a ServingError: the
    robustness layer must treat it like any unexpected exception."""
