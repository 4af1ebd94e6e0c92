"""HTTP load generation for the ``serve-*`` workloads.

The benchmark owns its client, so a change to the program's own client
cannot move the numbers.  Every request opens its own connection, sends
a body encoded before timing, and reads the response to EOF (the server
closes each connection after answering).

* :func:`open_loop` sends on a fixed schedule whatever the server does.
  A request is timed from when it was due, so a stall that delays later
  sends counts against them; how late each send left is kept too.
* :func:`closed_loop` keeps ``connections`` requests outstanding, each
  connection sending its next request when the previous one returns; a
  request is timed from when it was sent.

Both take calibration samples only while no request is outstanding: the
open loop in gaps of the schedule, the closed loop in short pauses in
which it stops sending and waits for the outstanding requests to drain.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import time
from typing import List, NamedTuple, Optional, Sequence, Tuple

#: Smallest schedule gap worth a calibration sample (the kernel runs ~1 ms).
CAL_GAP_S = 0.003
#: Least time between calibration samples in the open loop.
CAL_INTERVAL_S = 0.05
#: The open loop stops sleeping this long before a send is due.
SPIN_S = 0.0015
#: Closed loop: pause to calibrate this often, for this many samples.
PAUSE_EVERY_S = 0.5
PAUSE_SAMPLES = 3


class Outcome(NamedTuple):
    index: int
    #: HTTP status, or ``"error:<Exception>"`` when no response came back.
    status: object
    prediction: Optional[int]
    due: float
    sent: float
    done: float


def encode_request(method: str, path: str, body: bytes = b"") -> bytes:
    return (
        f"{method} {path} HTTP/1.1\r\nHost: perfbench\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n"
    ).encode("latin-1") + body


def predict_request(image) -> bytes:
    """A ``POST /v1/predict`` request carrying one CHW image as JSON."""
    body = json.dumps({"input": image.tolist()}).encode("utf-8")
    return encode_request("POST", "/v1/predict", body)


async def http_request(host: str, port: int, payload: bytes,
                       timeout: float = 30.0) -> Tuple[int, bytes]:
    """Send ``payload`` on a new connection; ``(status, body)`` back."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(payload)
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(-1), timeout)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass  # reset after the response was read
    head, _, body = raw.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), body


async def get_json(host: str, port: int, path: str) -> dict:
    status, body = await http_request(host, port, encode_request("GET", path))
    if status != 200:
        raise RuntimeError(f"GET {path} answered {status}")
    return json.loads(body)


async def _send(host: str, port: int, payload: bytes, index: int, due: float,
                outcomes: List[Outcome]) -> None:
    sent = time.perf_counter()
    prediction = None
    try:
        status, body = await http_request(host, port, payload)
        if status == 200:
            prediction = int(json.loads(body)["prediction"])
    except (OSError, EOFError, asyncio.TimeoutError, ValueError, KeyError, IndexError) as exc:
        status = f"error:{type(exc).__name__}"
    outcomes.append(Outcome(index, status, prediction, due, sent, time.perf_counter()))


async def open_loop(host: str, port: int, payloads: Sequence[bytes],
                    schedule: Sequence[float], calibrator=None,
                    start_delay_s: float = 0.05):
    """Send ``payloads[i]`` at ``schedule[i]`` seconds into the window.

    Returns ``(outcomes, window_start, window_end)``; the window runs
    from the first possible send to the last response.
    """
    outcomes: List[Outcome] = []
    tasks = []
    inflight = 0
    idle = asyncio.Event()

    async def one(i: int, payload: bytes, due: float) -> None:
        nonlocal inflight
        try:
            await _send(host, port, payload, i, due, outcomes)
        finally:
            inflight -= 1
            if not inflight:
                idle.set()

    t0 = time.perf_counter() + start_delay_s
    next_cal = t0
    for i, (offset, payload) in enumerate(zip(schedule, payloads)):
        due = t0 + offset
        while True:
            now = time.perf_counter()
            gap = due - now
            if gap <= 0:
                break
            if gap <= SPIN_S:
                # Timers fire up to a millisecond late; poll the loop
                # (still serving responses) for the last stretch.
                await asyncio.sleep(0)
            elif inflight:
                idle.clear()
                try:
                    await asyncio.wait_for(idle.wait(), gap - SPIN_S)
                except asyncio.TimeoutError:
                    pass
            elif calibrator is not None and now >= next_cal and gap > CAL_GAP_S:
                calibrator.sample()
                next_cal = time.perf_counter() + CAL_INTERVAL_S
            else:
                # Sleep towards the send, or to the next calibration slot
                # if one opens early enough in this gap.
                wake = due - SPIN_S
                if calibrator is not None and now < next_cal < due - CAL_GAP_S:
                    wake = next_cal
                await asyncio.sleep(wake - now)
        inflight += 1
        tasks.append(asyncio.create_task(one(i, payload, due)))
    await asyncio.gather(*tasks)
    return outcomes, t0, time.perf_counter()


async def closed_loop(host: str, port: int, payloads: Sequence[bytes],
                      connections: int, seconds: float, calibrator=None):
    """``connections`` clients send back to back for ``seconds``.

    Every ``PAUSE_EVERY_S`` the clients stop sending, the outstanding
    requests drain and ``PAUSE_SAMPLES`` calibration samples run.
    Returns ``(outcomes, window_start, window_end, idle_s)``, where
    ``idle_s`` is the time spent calibrating with nothing outstanding.
    """
    outcomes: List[Outcome] = []
    t_start = time.perf_counter()
    deadline = t_start + seconds
    running, idle = asyncio.Event(), asyncio.Event()
    running.set()
    inflight = 0
    idle_s = 0.0
    counter = itertools.count()

    async def client() -> None:
        nonlocal inflight
        while True:
            await running.wait()
            now = time.perf_counter()
            if now >= deadline:
                return
            i = next(counter)
            inflight += 1
            try:
                await _send(host, port, payloads[i % len(payloads)], i, now, outcomes)
            finally:
                inflight -= 1
                if not inflight:
                    idle.set()

    async def pauser() -> None:
        nonlocal idle_s
        while time.perf_counter() + PAUSE_EVERY_S < deadline:
            await asyncio.sleep(PAUSE_EVERY_S)
            running.clear()
            while inflight:
                idle.clear()
                await idle.wait()
            t = time.perf_counter()
            for _ in range(PAUSE_SAMPLES):
                calibrator.sample()
            idle_s += time.perf_counter() - t
            running.set()

    tasks = [client() for _ in range(connections)]
    if calibrator is not None:
        tasks.append(pauser())
    await asyncio.gather(*tasks)
    return outcomes, t_start, time.perf_counter(), idle_s
