"""Span tracing from outside the program, and the per-layer metrics.

The traced run wraps public functions of the program from the
benchmark's own files — nothing under ``src/`` knows it is traced.  A
span records its name, start, end, parent span (the enclosing wrapped
call on the same thread) and an operation or request id.  Spans stay in
memory and are written out when the run ends.

Which functions become which spans:

==========================================  ===========================
wrapped                                     span
==========================================  ===========================
``Session.run`` / ``Session.run_batched``   ``session.run`` (root)
``Session.validate_input``                  ``session.validate`` inside
                                            a run, ``server.validate``
                                            at admission
``ExecutionPlan.quantize_input``            ``plan.quantize``
``CompiledConvLayer.__call__``              ``plan.<layer>``
``int_avg_pool_global``                     ``plan.pool``
``CompiledLinear.__call__``                 ``plan.fc``
``im2col`` / ``depthwise_stencil_...``      ``kernel.im2col`` /
                                            ``kernel.stencil`` (counts)
``load_artifact``                           ``setup.load``
``ExecutionPlan.__init__`` / ``arena_for``  ``setup.compile`` /
                                            ``arena_for``
``Session.healthcheck``                     ``setup.healthcheck``
``MicroBatcher.take``                       ``server.queue_wait`` (one
                                            per request taken)
``BatchEngine.run_batch``                   ``server.engine``
==========================================  ===========================

A span's self time is its duration minus its direct ``plan.*`` and
``session.*`` children's, so those means add up to ``Session.run``
exactly; :func:`coverage` says how much of it the children explain.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import statistics
import threading
import time
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: Optional[int]
    #: Work items of the span: images for runs/tiles, bytes for im2col.
    n: int

    @property
    def ms(self) -> float:
        return 1e3 * (self.end - self.start)


class Tracer:
    """In-memory span recorder with monkeypatch wrappers."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.op: Optional[int] = None
        #: Wrapped names the program under test no longer has.
        self.missing: List[str] = []
        self._ids = itertools.count()
        self._tls = threading.local()
        self._restore: List[Tuple[object, str, object]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def record(self, name: str, start: float, end: float,
               parent: Optional[int] = None, op: Optional[int] = None,
               n: int = 1) -> None:
        self.spans.append(Span(next(self._ids), name, start, end, parent, op, n))

    def wrap(self, owner, attr: str, name, items: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``name`` is a span name or ``f(args, stack) -> name``; ``items``
        is ``f(args, result) -> n``.  Coroutine functions get an async
        wrapper that records no parent (tasks interleave on one thread).
        """
        try:
            original = inspect.getattr_static(owner, attr)
        except AttributeError:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        naming = name if callable(name) else (lambda args, stack: name)
        count = items or (lambda args, result: 1)
        tracer = self

        if inspect.iscoroutinefunction(original):
            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                t0 = tracer.clock()
                result = await original(*args, **kwargs)
                tracer.record(naming(args, ()), t0, tracer.clock(), None,
                              tracer.op, count(args, result))
                return result
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                stack = tracer._stack()
                parent = stack[-1] if stack else None
                span_name = naming(args, stack)
                sid = next(tracer._ids)
                stack.append(sid)
                t0 = tracer.clock()
                try:
                    result = original(*args, **kwargs)
                finally:
                    t1 = tracer.clock()
                    stack.pop()
                tracer.spans.append(Span(sid, span_name, t0, t1, parent, tracer.op,
                                         count(args, result)))
                return result

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([list(s) for s in self.spans], fh)


def load_spans(path) -> List[Span]:
    with open(path) as fh:
        return [Span(*s) for s in json.load(fh)]


# ----------------------------------------------------------------------
# Installing the wrappers
# ----------------------------------------------------------------------
def _batch(args) -> int:
    return int(len(args[1])) if len(args) > 1 else 1


def install_engine(tracer: Tracer) -> None:
    """Spans for the session, the compiled plan and setup."""
    import repro.inference.plan as plan_mod
    import repro.runtime.session as session_mod
    from repro.inference.plan import CompiledConvLayer, CompiledLinear, ExecutionPlan
    from repro.runtime.session import Session

    tracer.wrap(Session, "run", "session.run", items=lambda a, r: _batch(a))
    tracer.wrap(Session, "run_batched", "session.run", items=lambda a, r: _batch(a))
    tracer.wrap(Session, "validate_input",
                lambda args, stack: "session.validate" if stack else "server.validate")
    tracer.wrap(Session, "healthcheck", "setup.healthcheck")
    tracer.wrap(ExecutionPlan, "quantize_input", "plan.quantize")
    tracer.wrap(ExecutionPlan, "__init__", "setup.compile")
    tracer.wrap(ExecutionPlan, "arena_for", "arena_for")
    tracer.wrap(CompiledConvLayer, "__call__", lambda args, stack: "plan." + args[0].name)
    tracer.wrap(CompiledLinear, "__call__", "plan.fc")
    tracer.wrap(plan_mod, "int_avg_pool_global", "plan.pool")
    tracer.wrap(plan_mod, "im2col", "kernel.im2col",
                items=lambda a, r: int(getattr(r, "nbytes", 0)))
    tracer.wrap(plan_mod, "depthwise_stencil_accumulate", "kernel.stencil")
    tracer.wrap(session_mod, "load_artifact", "setup.load")


def install_server(tracer: Tracer) -> None:
    """Engine spans plus the serving tier's queue and engine hop."""
    from repro.serving.batcher import MicroBatcher
    from repro.serving.engine import BatchEngine

    install_engine(tracer)
    tracer.wrap(BatchEngine, "run_batch", "server.engine", items=lambda a, r: _batch(a))

    original_take = MicroBatcher.take

    @functools.wraps(original_take)
    def take(self, *args, **kwargs):
        batch, expired = original_take(self, *args, **kwargs)
        if batch:
            now = time.monotonic()  # the clock enqueued_at is stamped with
            for r in batch:
                tracer.record("server.queue_wait", r.enqueued_at, now, None, r.req_id)
        return batch, expired

    MicroBatcher.take = take
    tracer._restore.append((MicroBatcher, "take", original_take))


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def within(spans: Iterable[Span], t0: float, t1: float) -> List[Span]:
    return [s for s in spans if s.start >= t0 and s.end <= t1]


def children_of(spans: Sequence[Span]) -> Dict[int, List[Span]]:
    kids: Dict[int, List[Span]] = {}
    for s in spans:
        if s.parent is not None:
            kids.setdefault(s.parent, []).append(s)
    return kids


def _counted(span: Span) -> bool:
    return span.name.startswith(("plan.", "session."))


def coverage(spans: Sequence[Span], root: str = "session.run") -> float:
    """Share of the ``root`` spans' time their direct ``plan.*`` and
    ``session.*`` children cover."""
    kids = children_of(spans)
    total = covered = 0.0
    for s in spans:
        if s.name == root:
            total += s.end - s.start
            covered += sum(k.end - k.start for k in kids.get(s.id, ()) if _counted(k))
    if total <= 0:
        raise ValueError(f"no {root} spans")
    return covered / total


def engine_metrics(spans: Sequence[Span], layers: Sequence[Tuple[str, str]]) -> Dict[str, float]:
    """Per-``Session.run`` means (ms) of the plan's layers, plus counts.

    ``layers`` lists ``(name, kind)`` of the compiled conv layers.
    Returns zeros when no run was traced (the engine did not run here).
    """
    roots = [s for s in spans if s.name == "session.run"]
    kids = children_of(spans)
    n = len(roots)
    totals: Dict[str, float] = {}
    self_ms = images = stencil = im2col_bytes = 0.0
    for root in roots:
        images += root.n
        direct = [k for k in kids.get(root.id, ()) if _counted(k)]
        self_ms += root.ms - sum(k.ms for k in direct)
        for k in direct:
            totals[k.name] = totals.get(k.name, 0.0) + k.ms
            for g in kids.get(k.id, ()):
                if g.name == "kernel.stencil":
                    stencil += 1
                elif g.name == "kernel.im2col":
                    im2col_bytes += g.n

    def mean(name: str) -> float:
        return totals.get(name, 0.0) / n if n else 0.0

    out = {"plan.quantize_ms": mean("plan.quantize")}
    for name, _ in layers:
        out[f"plan.{name}_ms"] = mean(f"plan.{name}")
    out["plan.pool_ms"] = mean("plan.pool")
    out["plan.fc_ms"] = mean("plan.fc")
    out["plan.dw_ms"] = sum(mean(f"plan.{name}") for name, kind in layers if kind == "dw")
    out["plan.pw_ms"] = sum(mean(f"plan.{name}") for name, kind in layers if kind == "pw")
    out["session.validate_ms"] = mean("session.validate")
    out["session.self_ms"] = self_ms / n if n else 0.0
    out["plan.dw_stencil_layers"] = stencil / n if n else 0.0
    out["plan.im2col_mb_per_image"] = im2col_bytes / images / 2 ** 20 if images else 0.0
    return out


def setup_metrics(spans: Sequence[Span], intervals: Sequence[Tuple[float, float]]) -> Dict[str, float]:
    """Mean per set-up (ms) of loading, compiling, arena planning and the
    first inference, over the ``[start, end]`` set-up intervals."""
    keys = ("setup.load_ms", "setup.compile_ms", "setup.arena_ms", "setup.warm_ms")
    if not intervals:
        return dict.fromkeys(keys, 0.0)
    sums = dict.fromkeys(keys, 0.0)
    for t0, t1 in intervals:
        inside = within(spans, t0, t1)
        by_id = {s.id: s for s in inside}
        kids = children_of(inside)
        for s in inside:
            if s.name == "setup.load":
                sums["setup.load_ms"] += s.ms
            elif s.name == "setup.compile":
                sums["setup.compile_ms"] += s.ms - sum(
                    k.ms for k in kids.get(s.id, ()) if k.name == "arena_for")
            elif s.name == "arena_for" and not _under(s, by_id, "session.run"):
                sums["setup.arena_ms"] += s.ms
            elif s.name == "session.run" and not _under(s, by_id, "session.run"):
                sums["setup.warm_ms"] += s.ms
    return {k: v / len(intervals) for k, v in sums.items()}


def _under(span: Span, by_id: Dict[int, Span], name: str) -> bool:
    parent = by_id.get(span.parent) if span.parent is not None else None
    while parent is not None:
        if parent.name == name:
            return True
        parent = by_id.get(parent.parent) if parent.parent is not None else None
    return False


def server_metrics(spans: Sequence[Span], client_ms: Sequence[float]) -> Dict[str, float]:
    """Serving-tier means: queue wait and admission validation per
    request, engine hop per tile, and the front end as what is left of
    the client's request time after its queue wait and the engine time
    of its tile (connect, read, parse, decode, validate, admit, respond).
    """
    waits = [s.ms for s in spans if s.name == "server.queue_wait"]
    validates = [s.ms for s in spans if s.name == "server.validate"]
    tiles = [s for s in spans if s.name == "server.engine"]
    runs = [s.ms for s in spans if s.name == "session.run"]

    def mean(values) -> float:
        return statistics.fmean(values) if values else 0.0

    images = sum(t.n for t in tiles)
    # Each request waits for its whole tile, so weight tiles by size.
    engine_per_request = sum(t.n * t.ms for t in tiles) / images if images else 0.0
    engine = mean([t.ms for t in tiles])
    request = mean(client_ms)
    return {
        "client.request_ms": request,
        "server.queue_wait_ms": mean(waits),
        "server.front_ms": request - mean(waits) - engine_per_request if client_ms else 0.0,
        "server.validate_ms": mean(validates),
        "server.engine_ms": engine,
        "server.session_run_ms": mean(runs),
        "server.hop_ms": engine - mean(runs) if tiles else 0.0,
        "server.batch_size": images / len(tiles) if tiles else 0.0,
        "server.tiles": float(len(tiles)),
    }
