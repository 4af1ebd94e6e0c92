"""Zero-copy artifact loading: ``load_artifact(mmap=True)`` must map
``blobs.bin`` read-only instead of copying it into the heap.

Three properties are enforced:

* **No copy** — the Python-heap allocation delta of an mmap load is a
  small fraction of the blob file (tracemalloc), while a plain load
  pays at least one full blob copy.  Weight arrays come back as
  read-only views of the mapping and reject writes.
* **Integrity still holds** — CRC mismatches and truncation surface as
  the same typed :class:`ArtifactError` through the mapped view as
  through the heap path, and the loaded network is bit-identical.
* **Pages are shared** — the mapping is file-backed with zero
  ``Private_Dirty`` bytes, and across a 4-worker pool the
  proportional-set-size of the blob mapping sums to ~one copy of the
  weights (the "1 x weights + N x arenas" memory model), not N copies.

The smaps-based tests are Linux-only and skip elsewhere.
"""

import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.inference.testing import integer_network_from_spec
from repro.models.model_zoo import mobilenet_v1_spec
from repro.runtime import PoolOptions, Session, WorkerPool
from repro.runtime.artifact import (
    BLOBS_NAME,
    ArtifactError,
    MappedBlobs,
    load_artifact,
)

_SMALL = mobilenet_v1_spec(32, 0.25, num_classes=5)
# Wider net for the memory-accounting tests: enough blob bytes that a
# stray full copy is orders of magnitude above the measurement noise.
_WIDE = mobilenet_v1_spec(32, 1.0, num_classes=50)

_HAS_SMAPS = Path("/proc/self/smaps").exists()


def _saved(spec, tmp_path, seed=7, **net_kwargs):
    net = integer_network_from_spec(spec, np.random.default_rng(seed), **net_kwargs)
    session = Session(net, input_hw=(32, 32))
    return session, session.save(tmp_path / "artifact")


def _smaps_for(pid, path):
    """Aggregate smaps fields (bytes) for every mapping of ``path`` in
    process ``pid``.  Returns None when the file isn't mapped."""
    text = Path(f"/proc/{pid}/smaps").read_text()
    totals = {}
    in_section = False
    for line in text.splitlines():
        if "-" in line.split(" ", 1)[0] and " " in line:  # header line
            in_section = line.rstrip().endswith(str(path))
        elif in_section and line.endswith("kB"):
            field, value = line.split(":", 1)
            totals[field.strip()] = (
                totals.get(field.strip(), 0) + int(value.split()[0]) * 1024
            )
    return totals or None


class TestNoCopy:
    def test_mmap_load_allocates_a_fraction_of_the_blob(self, tmp_path):
        _, path = _saved(_WIDE, tmp_path)
        blob_bytes = (path / BLOBS_NAME).stat().st_size
        assert blob_bytes > 1_000_000  # the measurement needs headroom

        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            network, *_ = load_artifact(path, mmap=True)
            now, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        mmap_delta = now - base
        # Requant params, python objects and small per-layer arrays are
        # allowed; another copy of the weights is not.
        assert mmap_delta < blob_bytes / 4, (
            f"mmap load allocated {mmap_delta} B against a "
            f"{blob_bytes} B blob — weights were copied"
        )
        assert network.conv_layers  # mapping stays alive via the arrays

    def test_plain_load_pays_at_least_one_blob_copy(self, tmp_path):
        """The control for the assertion above: without mmap the loader
        must allocate at least the blob once, proving the tracemalloc
        harness actually sees blob-sized traffic."""
        _, path = _saved(_WIDE, tmp_path)
        blob_bytes = (path / BLOBS_NAME).stat().st_size
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            network, *_ = load_artifact(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - base >= blob_bytes
        assert network.conv_layers

    def test_mapped_weights_are_readonly_and_reject_writes(self, tmp_path):
        _, path = _saved(_SMALL, tmp_path)
        network, *_ = load_artifact(path, mmap=True)
        arrays = [layer.params.weights_q for layer in network.conv_layers]
        arrays.append(network.classifier.weights_q)
        assert arrays
        for arr in arrays:
            assert arr.flags.writeable is False
            with pytest.raises(ValueError):
                arr[...] = 0

    def test_mapped_blobs_getitem_is_zero_copy_view(self, tmp_path):
        _, path = _saved(_SMALL, tmp_path)
        blobs = MappedBlobs(path / BLOBS_NAME)
        view = blobs[4:64]
        assert isinstance(view, memoryview)
        assert view.readonly
        assert len(blobs) == (path / BLOBS_NAME).stat().st_size


class TestIntegrityThroughTheMapping:
    def test_mmap_load_is_bit_identical(self, tmp_path):
        session, path = _saved(_SMALL, tmp_path)
        restored = Session.load(path, mmap=True)
        x = np.random.default_rng(9).uniform(0, 1, size=(4, 3, 32, 32))
        assert np.array_equal(session.run(x), restored.run(x))

    def test_mmap_load_is_bit_identical_with_subbyte_weights(self, tmp_path):
        """Sub-byte codes go through the unpack path on top of the
        mapped bytes — the widened codes are private copies, but the
        results must not change."""
        session, path = _saved(_SMALL, tmp_path, w_bits=4, act_bits=4)
        restored = Session.load(path, mmap=True)
        x = np.random.default_rng(10).uniform(0, 1, size=(4, 3, 32, 32))
        assert np.array_equal(session.run(x), restored.run(x))

    def test_crc_corruption_rejected_through_mmap(self, tmp_path):
        _, path = _saved(_SMALL, tmp_path)
        blob_path = path / BLOBS_NAME
        raw = bytearray(blob_path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        blob_path.write_bytes(bytes(raw))
        with pytest.raises(ArtifactError, match="CRC32"):
            load_artifact(path, mmap=True)

    def test_truncation_rejected_through_mmap(self, tmp_path):
        _, path = _saved(_SMALL, tmp_path)
        blob_path = path / BLOBS_NAME
        blob_path.write_bytes(blob_path.read_bytes()[:-64])
        with pytest.raises(ArtifactError, match="truncated|CRC32|corrupt"):
            load_artifact(path, mmap=True)

    def test_empty_blob_file_rejected_through_mmap(self, tmp_path):
        """A zero-length blobs.bin cannot be mmapped at all; the typed
        error must still come out, not a bare OSError."""
        _, path = _saved(_SMALL, tmp_path)
        (path / BLOBS_NAME).write_bytes(b"")
        with pytest.raises(ArtifactError):
            load_artifact(path, mmap=True)


@pytest.mark.skipif(not _HAS_SMAPS, reason="/proc/self/smaps not available")
class TestPageSharing:
    def test_mapping_is_file_backed_with_no_dirty_pages(self, tmp_path):
        _, path = _saved(_SMALL, tmp_path)
        network, *_ = load_artifact(path, mmap=True)
        stats = _smaps_for(os.getpid(), path / BLOBS_NAME)
        assert stats is not None, "blobs.bin not mapped"
        assert stats.get("Private_Dirty", 0) == 0
        assert network.conv_layers  # keep the mapping alive until read

    def test_four_worker_pool_shares_one_copy_of_the_weights(self, tmp_path):
        """The scale-out memory model, measured: each worker maps
        blobs.bin read-only (zero private-dirty bytes, so no worker owns
        a CoW copy), and the proportional set size of the mapping summed
        across all four workers is ~one file's worth — the kernel is
        charging the weights once, not four times.

        Interpreter/numpy baselines and per-worker arenas are private by
        design and deliberately not bounded here; the weights are the
        part the mmap design promises to share.
        """
        _, path = _saved(_WIDE, tmp_path)
        blob_path = path / BLOBS_NAME
        blob_bytes = blob_path.stat().st_size
        with WorkerPool(path, PoolOptions(workers=4)) as pool:
            # Touch every worker so all four have faulted the pages in.
            x = np.random.default_rng(12).uniform(0, 1, size=(8, 3, 32, 32))
            pool.run_batched(x, batch_size=2)
            pids = pool.worker_pids()
            assert len(pids) == 4
            per_worker = [_smaps_for(pid, blob_path) for pid in pids]
        assert all(stats is not None for stats in per_worker), (
            "every worker must keep blobs.bin mapped"
        )
        for stats in per_worker:
            assert stats.get("Private_Dirty", 0) == 0
        total_pss = sum(stats.get("Pss", 0) for stats in per_worker)
        # One shared copy plus generous page-rounding slack — a private
        # copy per worker would put this at ~4x the blob.
        assert total_pss <= blob_bytes + 512 * 1024, (
            f"Pss across 4 workers is {total_pss} B for a "
            f"{blob_bytes} B blob — weights are not being shared"
        )
