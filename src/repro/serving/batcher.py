"""Micro-batching core: accumulate single requests into engine-shaped tiles.

The algorithm is the ``InputContainer`` accumulate-until-full pattern:
requests append to a pending queue; when ``max_batch`` are waiting a
full tile is emitted and the remainder is *carried over* to seed the
next tile; when the oldest pending request has waited ``max_wait_s`` the
partial tile is flushed so light traffic still sees bounded latency.

Deadlines are enforced *here*, before batching: an expired request is
dropped from the pending queue and never reaches the engine — inference
capacity is never spent on an answer nobody is waiting for.

The batcher is deliberately synchronous and clock-injected (pass
``clock=`` a fake for tests); the asyncio server drives it from its
batch loop and owns all waiting/waking.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, List, Optional, Tuple

_request_ids = itertools.count(1)


@dataclass
class Request:
    """One admitted inference request waiting for a batch slot.

    ``deadline`` is absolute on the batcher's clock (``None`` = no
    deadline).  ``future`` is whatever completion handle the caller
    wants resolved (the asyncio server stores an ``asyncio.Future``);
    the batcher never touches it.
    """

    x: Any  # per-image CHW array (already validated at admission)
    enqueued_at: float
    deadline: Optional[float] = None
    future: Any = None
    #: Tagged by the fault injector: this request deterministically
    #: crashes any batch containing it (data-dependent kernel fault).
    poisoned: bool = False
    #: The registry entry the request routes to.
    model: Optional[str] = None
    req_id: int = field(default_factory=lambda: next(_request_ids))

    def expired(self, now: float) -> bool:
        return self.deadline is not None and now >= self.deadline


class MicroBatcher:
    """Gather requests into tiles of at most ``max_batch``.

    ``max_wait_s`` bounds how long the *oldest* pending request may sit
    before a partial tile is flushed.  ``take()`` returns
    ``(batch, expired)`` — expired requests are surfaced so the caller
    can answer them (504), and are guaranteed never to appear in a
    batch.
    """

    def __init__(self, max_batch: int, max_wait_s: float,
                 clock: Callable[[], float] = time.monotonic):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait_s < 0:
            raise ValueError(f"max_wait_s must be >= 0, got {max_wait_s}")
        self.max_batch = int(max_batch)
        self.max_wait_s = float(max_wait_s)
        self.clock = clock
        self._pending: Deque[Request] = deque()

    def __len__(self) -> int:
        return len(self._pending)

    def add(self, request: Request) -> None:
        self._pending.append(request)

    def expire(self, now: Optional[float] = None) -> List[Request]:
        """Drop and return every pending request whose deadline passed."""
        now = self.clock() if now is None else now
        expired = [r for r in self._pending if r.expired(now)]
        if expired:
            self._pending = deque(
                r for r in self._pending if not r.expired(now)
            )
        return expired

    def ready(self, now: Optional[float] = None) -> bool:
        """Is a tile due — full, or the oldest waiter timed out?"""
        if len(self._pending) >= self.max_batch:
            return True
        if not self._pending:
            return False
        now = self.clock() if now is None else now
        return now - self._pending[0].enqueued_at >= self.max_wait_s

    def next_flush_in(self, now: Optional[float] = None) -> Optional[float]:
        """Seconds until the pending partial tile must flush (0 when a
        tile is already due, ``None`` when nothing is pending).  The
        server sleeps exactly this long between loop wakeups."""
        if not self._pending:
            return None
        if len(self._pending) >= self.max_batch:
            return 0.0
        now = self.clock() if now is None else now
        due = self._pending[0].enqueued_at + self.max_wait_s
        for r in self._pending:
            if r.deadline is not None:
                due = min(due, r.deadline)
        return max(0.0, due - now)

    def take(self, now: Optional[float] = None,
             force: bool = False) -> Tuple[List[Request], List[Request]]:
        """Form the next tile: ``(batch, expired)``.

        Expired requests are removed first and can never be batched.  A
        full tile takes exactly ``max_batch`` requests and *carries the
        remainder* for the next call; a timed-out partial tile takes
        everything pending; otherwise the batch is empty.  ``force``
        flushes a partial tile immediately (shutdown drain).
        """
        now = self.clock() if now is None else now
        expired = self.expire(now)
        if not self._pending:
            return [], expired
        if len(self._pending) >= self.max_batch:
            batch = [self._pending.popleft() for _ in range(self.max_batch)]
            return batch, expired
        if force or now - self._pending[0].enqueued_at >= self.max_wait_s:
            batch = list(self._pending)
            self._pending.clear()
            return batch, expired
        return [], expired

    def drain(self) -> List[Request]:
        """Remove and return everything pending (shutdown path)."""
        pending = list(self._pending)
        self._pending.clear()
        return pending


class FleetBatcher:
    """Per-``(model, input shape)`` micro-batching: the server's batcher.

    A tile must be homogeneous — one model, one geometry — because the
    engine stacks it into a single array and runs it through one
    session.  Each distinct ``(request.model, request.x.shape)`` pair
    therefore gets its own :class:`MicroBatcher` lane; lanes are created
    on first use and dropped when empty, so a fleet of mostly-idle
    models costs nothing.  The interface mirrors ``MicroBatcher``.
    """

    def __init__(self, max_batch: int, max_wait_s: float,
                 clock: Callable[[], float] = time.monotonic):
        self.max_batch = int(max_batch)
        self.max_wait_s = float(max_wait_s)
        self.clock = clock
        self._lanes: "dict[tuple, MicroBatcher]" = {}

    def __len__(self) -> int:
        return sum(len(lane) for lane in self._lanes.values())

    @property
    def lanes(self) -> int:
        return len(self._lanes)

    def _key(self, request: Request) -> tuple:
        shape = tuple(getattr(request.x, "shape", ()))
        return (request.model, shape)

    def add(self, request: Request) -> None:
        key = self._key(request)
        lane = self._lanes.get(key)
        if lane is None:
            lane = self._lanes[key] = MicroBatcher(
                self.max_batch, self.max_wait_s, clock=self.clock
            )
        lane.add(request)

    def next_flush_in(self, now: Optional[float] = None) -> Optional[float]:
        now = self.clock() if now is None else now
        delays = [d for d in (lane.next_flush_in(now)
                              for lane in self._lanes.values())
                  if d is not None]
        return min(delays) if delays else None

    def take(self, now: Optional[float] = None,
             force: bool = False) -> Tuple[List[Request], List[Request]]:
        """The next due tile across all lanes: ``(batch, expired)``.

        Lanes are polled in insertion order; the first lane with a due
        tile wins this call (the batch loop calls again immediately, so
        other due lanes are at most one iteration behind).  Expired
        requests from *every* polled lane are surfaced.  Empty lanes are
        garbage-collected as they are encountered.
        """
        now = self.clock() if now is None else now
        expired: List[Request] = []
        batch: List[Request] = []
        for key in list(self._lanes):
            lane = self._lanes[key]
            got, exp = lane.take(now, force=force)
            expired.extend(exp)
            if not len(lane):
                del self._lanes[key]
            if got:
                batch = got
                break
        return batch, expired

    def drain(self) -> List[Request]:
        pending: List[Request] = []
        for lane in self._lanes.values():
            pending.extend(lane.drain())
        self._lanes.clear()
        return pending
