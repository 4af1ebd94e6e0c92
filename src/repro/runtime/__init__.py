"""repro.runtime — the public serving API (canonical reference).

This package is the single front door onto the integer inference stack:
everything an application needs to quantize, compile, serve, save and
reload a network lives behind two names::

    from repro.runtime import Session, pipeline

Quickstart
----------
::

    import repro
    from repro.runtime import Session, pipeline

    # spec + policy + device -> a running session (search included):
    spec = repro.mobilenet_v1_spec(192, 0.5)
    session = pipeline(spec, device=repro.STM32H7)
    logits = session.run(images)               # single shot
    labels = session.predict(image_sweep, batch_size=16)  # tiled through the arena
    print(session.describe())                  # per-layer dispatch + arena plan

    # Or wrap a QAT-converted network directly:
    session = Session(net, input_hw=(32, 32))

    # Round-trippable deployment artifact (JSON manifest + CRC'd blobs):
    session.save("model.artifact")
    restored = Session.load("model.artifact")  # bit-identical, no net needed

Vocabulary
----------
:class:`Session`
    A compiled, servable network and its input geometry,
    ``Session(net, input_hw=(H, W))``: the geometry sizes synthetic and
    health-check batches, ``describe``/``verify`` and a saved artifact's
    arena section.  ``run`` / ``run_batched`` / ``predict`` /
    ``run_codes`` execute, with every input checked at the boundary and
    the tile size (``batch_size``, default 32) passed per call;
    ``describe`` / ``layer_info`` / ``profile`` introspect; ``save`` /
    ``load`` round-trip the on-disk artifact.  Compilation takes no
    options: each layer's accumulator follows from its refined bound,
    weight codes are always range-checked at compile time, and every
    input geometry runs in the plan's one slab set.  Pool width is the
    serving tier's (``ServerOptions.workers``).  Artifacts saved with
    retired session keys (``batch_size``, ``validate``, ``workers``) or
    a ``compile_options`` manifest section load (only a legacy
    ``input_hw`` is read), and re-saving drops them.
:func:`pipeline`
    ``spec [+ policy] [+ device] -> Session`` — the one-call
    replacement for hand-wired search → convert → compile chains, with
    the device RW-budget assertion built in.
:mod:`repro.runtime.artifact`
    The artifact format itself (``save_artifact`` / ``load_artifact``,
    the latter with an ``mmap=True`` zero-copy mode), for tooling that
    wants the raw manifest.
:class:`WorkerPool` / :class:`PoolOptions`
    Process-pool scale-out over a saved artifact: N workers share one
    mmap'd copy of the weights, and each call borrows an idle worker and
    runs its round trip on the caller's thread; a crashed worker is
    respawned in place and the call raises (``repro.runtime.pool``).

Both core names are re-exported at the top level (``repro.Session``
…) and the ``repro-mcu run <artifact>`` CLI subcommand serves a saved
artifact from the shell (``serve --workers N`` for the pool).
"""

from repro.runtime.artifact import load_artifact, read_manifest, save_artifact
from repro.runtime.errors import (
    ArtifactError,
    ArtifactNotFoundError,
    InvalidInputError,
    PoolClosedError,
    PoolError,
    WorkerCrashedError,
    WorkerTaskError,
)
from repro.runtime.pool import PoolOptions, WorkerPool
from repro.runtime.session import LayerTiming, Session, SessionProfile, pipeline

__all__ = [
    "Session",
    "SessionProfile",
    "LayerTiming",
    "pipeline",
    "save_artifact",
    "load_artifact",
    "read_manifest",
    "ArtifactError",
    "ArtifactNotFoundError",
    "InvalidInputError",
    "PoolError",
    "PoolClosedError",
    "WorkerCrashedError",
    "WorkerTaskError",
    "PoolOptions",
    "WorkerPool",
]
