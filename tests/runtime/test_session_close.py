"""Session/MappedBlobs lifetime: close() releases the mapping *now*.

Before the explicit lifecycle, an mmap-loaded session's ``blobs.bin``
mapping lived until the garbage collector reaped the last weight view —
on a fleet server that meant evicted models kept their pages pinned
indefinitely.  These tests pin the new contract: ``Session.close()``
drops the plan and network, closes the mapping deterministically
(verified against ``/proc/self/smaps`` where available and via weakref
otherwise), and a closed session refuses further work instead of
segfault-adjacent behaviour on released buffers.
"""

import gc
import weakref
from pathlib import Path

import numpy as np
import pytest

from repro.inference.testing import integer_network_from_spec
from repro.models.model_zoo import mobilenet_v1_spec
from repro.runtime import Session
from repro.runtime.artifact import MappedBlobs

_SPEC = mobilenet_v1_spec(32, 0.25, num_classes=5)

_X = np.zeros((1, 3, 32, 32))

#: One call per public entry point of a session, each of which must
#: raise the typed error once the session is closed.
_ENTRY_POINTS = {
    "plan": lambda s, tmp: s.plan,
    "layer_info": lambda s, tmp: s.layer_info(),
    "describe": lambda s, tmp: s.describe(),
    "verify": lambda s, tmp: s.verify(),
    "validate_input": lambda s, tmp: s.validate_input(_X),
    "run": lambda s, tmp: s.run(_X),
    "run_codes": lambda s, tmp: s.run_codes(np.zeros((1, 3, 32, 32), np.uint8)),
    "run_batched": lambda s, tmp: s.run_batched(_X),
    "predict": lambda s, tmp: s.predict(_X),
    "synthetic_batch": lambda s, tmp: s.synthetic_batch(),
    "profile": lambda s, tmp: s.profile(repeats=1),
    "save": lambda s, tmp: s.save(tmp / "resaved"),
}


@pytest.fixture()
def artifact(tmp_path):
    network = integer_network_from_spec(_SPEC, np.random.default_rng(9))
    session = Session(network, input_hw=(32, 32))
    return session.save(tmp_path / "model")


def _mapped_paths():
    smaps = Path("/proc/self/smaps")
    if not smaps.exists():
        pytest.skip("no /proc/self/smaps on this platform")
    return smaps.read_text()


class TestMappedBlobsClose:
    def test_close_is_idempotent_and_flags(self, artifact):
        blobs = MappedBlobs(artifact / "blobs.bin")
        assert not blobs.closed
        blobs.close()
        assert blobs.closed
        blobs.close()  # second close is a no-op, not an error

    def test_closed_mapping_refuses_slicing(self, artifact):
        blobs = MappedBlobs(artifact / "blobs.bin")
        assert len(blobs[0:4]) == 4
        blobs.close()
        with pytest.raises(ValueError, match="closed"):
            blobs[0:4]

    def test_context_manager(self, artifact):
        with MappedBlobs(artifact / "blobs.bin") as blobs:
            assert blobs.nbytes > 0
        assert blobs.closed

    def test_live_views_surface_buffer_error(self, artifact):
        """A mapping with exported buffers must refuse to close loudly
        (after one GC attempt) rather than leak silently."""
        blobs = MappedBlobs(artifact / "blobs.bin")
        view = blobs[0:16]  # keep a live export
        with pytest.raises(BufferError):
            blobs.close()
        assert not blobs.closed
        view.release()
        blobs.close()
        assert blobs.closed


class TestSessionClose:
    def test_close_unmaps_blobs_file(self, artifact):
        """The smaps check: the artifact's blobs.bin appears in this
        process's mappings while the session is open and is gone right
        after close() — no GC required."""
        session = Session.load(artifact, mmap=True)
        session.run(session.synthetic_batch(1, input_hw=(32, 32)))
        blob_path = str((artifact / "blobs.bin").resolve())
        assert blob_path in _mapped_paths()
        session.close()
        assert blob_path not in _mapped_paths()

    def test_close_releases_network_and_plan(self, artifact):
        session = Session.load(artifact, mmap=True)
        ref = weakref.ref(session.network)
        session.close()
        gc.collect()
        assert ref() is None
        assert session.closed
        assert session.mapped_blobs is None

    @pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
    def test_closed_session_refuses_work(self, artifact, tmp_path, entry):
        session = Session.load(artifact, mmap=True)
        _ENTRY_POINTS[entry](session, tmp_path)  # works while open
        session.close()
        with pytest.raises(RuntimeError, match="session is closed"):
            _ENTRY_POINTS[entry](session, tmp_path)

    def test_every_public_entry_point_is_covered(self):
        public = {name for name in dir(Session) if not name.startswith("_")}
        # close is idempotent, closed and load need no open session, and
        # healthcheck reports instead of raising.
        assert public - {"close", "closed", "load", "healthcheck"} == set(_ENTRY_POINTS)

    def test_closed_session_healthcheck_reports_the_error(self, artifact):
        session = Session.load(artifact)
        assert session.healthcheck()["ok"] is True
        session.close()
        report = session.healthcheck()
        assert report["ok"] is False
        assert report["error"] == "RuntimeError: session is closed"

    def test_close_is_idempotent(self, artifact):
        session = Session.load(artifact, mmap=True)
        session.close()
        session.close()
        assert session.closed

    def test_context_manager(self, artifact):
        with Session.load(artifact, mmap=True) as session:
            out = session.run(session.synthetic_batch(2, input_hw=(32, 32)))
            assert out.shape[0] == 2
        assert session.closed

    def test_heap_loaded_session_close_is_safe(self, artifact):
        """Without mmap there is no mapping to release; close() still
        transitions the session and drops the plan."""
        session = Session.load(artifact)
        assert session.mapped_blobs is None
        session.close()
        assert session.closed
