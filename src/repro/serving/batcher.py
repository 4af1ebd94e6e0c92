"""Micro-batching core: accumulate single requests into engine-shaped tiles.

The algorithm is the ``InputContainer`` accumulate-until-full pattern,
run per lane (one model, one input shape): requests append to their
lane's queue; when ``max_batch`` are waiting a full tile is emitted and
the remainder is *carried over* to seed the lane's next tile; when the
oldest request of a lane has waited ``max_wait_s`` its partial tile is
flushed so light traffic still sees bounded latency.

Deadlines are enforced *here*, before batching: an expired request is
dropped from its lane and never reaches the engine — inference
capacity is never spent on an answer nobody is waiting for.

The batcher is deliberately synchronous and clock-injected (pass
``clock=`` a fake for tests); the asyncio server drives it from its
batch loop and owns all waiting/waking.
"""

from __future__ import annotations

import itertools
import math
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

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
    """Gather requests into homogeneous tiles of at most ``max_batch``.

    A tile must be homogeneous — one model, one input shape — because
    the engine stacks it into one array and runs it through one session,
    so pending requests wait in one FIFO lane per ``(request.model,
    request.x.shape)``.  Lanes are made on first use and dropped when
    empty, so a fleet of mostly idle models costs nothing.

    ``max_wait_s`` bounds how long the *oldest* request of a lane may
    sit before that lane's partial tile is flushed.  ``take()`` returns
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
        self._lanes: Dict[tuple, Deque[Request]] = {}

    def __len__(self) -> int:
        return sum(len(lane) for lane in self._lanes.values())

    def add(self, request: Request) -> None:
        key = (request.model, tuple(getattr(request.x, "shape", ())))
        lane = self._lanes.get(key)
        if lane is None:
            lane = self._lanes[key] = deque()
        lane.append(request)

    def next_flush_in(self, now: Optional[float] = None) -> Optional[float]:
        """Seconds until some lane's partial tile must flush or one of
        its requests expires (0 when a tile is already due, ``None``
        when nothing is pending).  The server sleeps exactly this long
        between loop wakeups."""
        if not self._lanes:
            return None
        now = self.clock() if now is None else now
        due = math.inf
        for lane in self._lanes.values():
            if len(lane) >= self.max_batch:
                return 0.0
            due = min(due, lane[0].enqueued_at + self.max_wait_s,
                      *(r.deadline for r in lane if r.deadline is not None))
        return max(0.0, due - now)

    def take(self, now: Optional[float] = None,
             force: bool = False) -> Tuple[List[Request], List[Request]]:
        """Form the next tile: ``(batch, expired)``.

        Lanes are polled in insertion order and the first lane with a
        due tile wins this call (the server calls again at once, so the
        other due lanes are at most one call behind).  In each polled
        lane the expired requests are removed first, so they can never
        be batched, and every one of them is returned.  A full tile
        takes exactly ``max_batch`` requests and *carries the lane's
        remainder* to the next call; a timed-out partial tile takes the
        whole lane; otherwise the batch is empty.  ``force`` flushes a
        partial tile at once.
        """
        now = self.clock() if now is None else now
        expired: List[Request] = []
        for key, lane in list(self._lanes.items()):
            if any(r.expired(now) for r in lane):
                expired.extend(r for r in lane if r.expired(now))
                lane = self._lanes[key] = deque(
                    r for r in lane if not r.expired(now))
            batch: List[Request] = []
            if len(lane) >= self.max_batch:
                batch = [lane.popleft() for _ in range(self.max_batch)]
            elif lane and (force or now - lane[0].enqueued_at >= self.max_wait_s):
                batch = list(lane)
                lane.clear()
            if not lane:
                del self._lanes[key]
            if batch:
                return batch, expired
        return [], expired

    def drain(self) -> List[Request]:
        """Remove and return everything pending, lane by lane (shutdown
        path)."""
        pending = [r for lane in self._lanes.values() for r in lane]
        self._lanes.clear()
        return pending
