"""Round-trippable session artifacts: JSON manifest + CRC-checked blobs.

A saved artifact is a directory with exactly two files::

    <artifact>/
        manifest.json   # structure, session geometry, scalar parameters, blob table
        blobs.bin       # concatenated binary tensors (weights + requant arrays)

The manifest is the :func:`repro.inference.export.export_network` dict
with every numpy array hoisted into ``blobs.bin`` and replaced by a
``{"$blob": <name>}`` reference; the blob table records each tensor's
offset, byte length, dtype, shape and CRC32.  Loading verifies every
blob's CRC (and re-runs :func:`~repro.inference.export.validate_export`
on the reassembled dict, which re-checks the packed weight blobs against
their recorded checksums and byte budgets) before a single kernel runs —
the host-side equivalent of a firmware loader's integrity pass — then
rebuilds the network via
:func:`~repro.inference.export.import_network`.  No reference to the
originating :class:`~repro.inference.engine.IntegerNetwork` survives in
the artifact; rehydration is bit-identical by construction and by test.

Robustness contract (the serving tier builds on both halves):

* **Atomic save** — :func:`save_artifact` stages the directory under a
  hidden sibling name and swaps it into place with ``os.replace``-style
  renames, so a crash mid-write leaves either the previous artifact or
  nothing, never a half-written directory a loader could pick up.
* **Typed load failures** — every corruption class (missing files,
  truncated/bit-flipped blobs, CRC mismatches, bad manifests, failed
  integrity passes) raises :class:`~repro.runtime.errors.ArtifactError`
  (missing paths the :class:`~repro.runtime.errors.ArtifactNotFoundError`
  refinement), never a raw traceback from ``json`` or ``numpy``.
"""

from __future__ import annotations

import json
import mmap as _mmap
import os
import shutil
import uuid
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

from repro.inference.export import export_network, import_network, validate_export
from repro.nn.functional import conv_output_size
from repro.runtime.errors import ArtifactError, ArtifactNotFoundError, InvalidInputError

ARTIFACT_FORMAT = "repro/session-artifact"
ARTIFACT_VERSION = 1
MANIFEST_NAME = "manifest.json"
BLOBS_NAME = "blobs.bin"


def normalize_hw(value: Any) -> Optional[Tuple[int, int]]:
    """``value`` as a positive ``(height, width)`` int pair; ``None``
    stays ``None`` and anything else is a ``ValueError``."""
    if value is None:
        return None
    try:
        h, w = (int(d) for d in value)
    except (TypeError, ValueError):
        raise ValueError(
            f"input_hw must be a (height, width) pair, got {value!r}") from None
    if h < 1 or w < 1:
        raise ValueError(f"input_hw must be positive, got {(h, w)}")
    return (h, w)


def _session_input_hw(manifest: Dict) -> Optional[Tuple[int, int]]:
    """The session geometry a manifest records: ``session_options``'
    ``input_hw``, else the legacy ``compile_options``' one.  The retired
    ``batch_size``, ``validate`` and ``workers`` session keys are
    ignored; any other key is a ``ValueError``."""
    section = manifest.get("session_options", {})
    unknown = set(section) - {"input_hw", "batch_size", "validate", "workers"}
    if unknown:
        raise ValueError(f"unknown session option(s) {sorted(unknown)}")
    hw = section.get("input_hw")
    if hw is None:
        hw = manifest.get("compile_options", {}).get("input_hw")
    return normalize_hw(hw)


def manifest_input_hw(manifest: Dict) -> Optional[Tuple[int, int]]:
    """The largest input geometry an artifact is sized for: its arena
    section's (what the export planned), else the session geometry
    :func:`load_artifact` reads, the legacy ``compile_options`` key
    included; None when it records neither."""
    hw = (manifest.get("network", {}).get("arena") or {}).get("input_hw")
    return normalize_hw(hw) if hw is not None else _session_input_hw(manifest)


@dataclass(frozen=True)
class InputSpec:
    """The batches a model accepts, read from its compiled plan (a
    :class:`~repro.runtime.Session`'s) or its manifest (a fleet entry's):
    the first conv layer's input ``channels`` (None without one), each
    conv layer's ``(name, kh, kw, stride, padding)``, and the native
    geometry ``max_hw`` a manifest records (None for a plan)."""

    channels: Optional[int]
    layers: Tuple[Tuple[str, int, int, int, int], ...]
    max_hw: Optional[Tuple[int, int]] = None

    @classmethod
    def from_plan(cls, plan) -> "InputSpec":
        layers = plan.layers
        return cls(
            layers[0].in_channels if layers else None,
            tuple((l.name, l.kh, l.kw, l.stride, l.padding) for l in layers),
        )

    @classmethod
    def from_manifest(cls, manifest: Dict) -> "InputSpec":
        """The spec a manifest records: its ``network.conv_layers``
        (a depthwise first layer has ``weight_shape[0]`` input channels,
        any other ``weight_shape[1]``) and :func:`manifest_input_hw`.
        A layer entry it cannot read is an :class:`ArtifactError`."""
        convs = manifest.get("network", {}).get("conv_layers") or []
        try:
            channels = None
            if convs:
                shape = convs[0]["weight_shape"]
                channels = int(shape[0] if convs[0]["kind"] == "dw" else shape[1])
            layers = tuple(
                (str(c["name"]), int(c["weight_shape"][2]), int(c["weight_shape"][3]),
                 int(c["stride"]), int(c["padding"]))
                for c in convs
            )
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise ArtifactError(
                f"unreadable network.conv_layers entry: {exc!r}") from exc
        return cls(channels, layers, manifest_input_hw(manifest))

    def check(self, x, codes: bool = False) -> np.ndarray:
        """``x`` as an array, or :class:`InvalidInputError` (a client
        error; the serving tier answers 400): not array-like, not a real
        numeric dtype (for ``codes``, not integer or bool), not NCHW,
        another channel count, larger than ``max_hw``, a geometry some
        layer shrinks below 1x1, or (real input) a NaN or Inf."""
        try:
            arr = np.asarray(x)
        except Exception as exc:
            raise InvalidInputError(f"input is not array-like: {exc}") from exc
        integral = (np.issubdtype(arr.dtype, np.integer)
                    or np.issubdtype(arr.dtype, np.bool_))
        if codes and not integral:
            raise InvalidInputError(
                f"input codes dtype {arr.dtype} is not an integer type"
            )
        if arr.dtype == object or not (
                integral or np.issubdtype(arr.dtype, np.floating)):
            raise InvalidInputError(
                f"input dtype {arr.dtype} is not a real numeric type"
            )
        if arr.ndim != 4:
            raise InvalidInputError(
                f"input must be an NCHW batch (4 dims), got shape {arr.shape}"
            )
        c, h, w = (int(d) for d in arr.shape[1:])
        if self.channels is not None and c != self.channels:
            raise InvalidInputError(
                f"input has {c} channel(s), the network expects {self.channels}"
            )
        if self.max_hw is not None and (h > self.max_hw[0] or w > self.max_hw[1]):
            raise InvalidInputError(
                f"input geometry {h}x{w} exceeds the model's max geometry "
                f"{self.max_hw[0]}x{self.max_hw[1]}"
            )
        oh, ow = h, w
        for name, kh, kw, stride, padding in self.layers:
            oh = conv_output_size(oh, kh, stride, padding)
            ow = conv_output_size(ow, kw, stride, padding)
            if oh < 1 or ow < 1:
                raise InvalidInputError(
                    f"input geometry {h}x{w} collapses below 1x1 at layer {name!r}"
                )
        if (not codes and arr.size and np.issubdtype(arr.dtype, np.floating)
                and not np.isfinite(arr).all()):
            raise InvalidInputError("input contains non-finite values (NaN/Inf)")
        return arr


class _BlobWriter:
    """Accumulates named tensors into one byte stream + a manifest table."""

    def __init__(self):
        self.chunks = []
        self.table: Dict[str, Dict] = {}
        self.offset = 0

    def add(self, name: str, array: np.ndarray) -> Dict:
        if name in self.table:
            raise ValueError(f"duplicate blob name {name!r}")
        arr = np.ascontiguousarray(array)
        raw = arr.tobytes()
        self.table[name] = {
            "offset": self.offset,
            "nbytes": len(raw),
            "dtype": arr.dtype.str,  # endian-explicit, e.g. "<i8" / "|u1"
            "shape": list(arr.shape),
            "crc32": zlib.crc32(raw),
        }
        self.chunks.append(raw)
        self.offset += len(raw)
        return {"$blob": name}

    def payload(self) -> bytes:
        return b"".join(self.chunks)


def _jsonable(value):
    """Recursively convert an export dict to plain JSON types (arrays
    must already have been replaced by blob references)."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        raise TypeError("array leaked into the manifest without a blob ref")
    return value


def _externalize(node, writer: _BlobWriter, prefix: str):
    """Replace every numpy array under ``node`` with a blob reference."""
    if isinstance(node, np.ndarray):
        return writer.add(prefix, node)
    if isinstance(node, dict):
        return {k: _externalize(v, writer, f"{prefix}/{k}") for k, v in node.items()}
    if isinstance(node, (list, tuple)):
        return [_externalize(v, writer, f"{prefix}[{i}]") for i, v in enumerate(node)]
    return node


class MappedBlobs:
    """Read-only ``mmap`` view of an artifact's ``blobs.bin``.

    Slicing returns zero-copy :class:`memoryview` windows into the
    mapping, so CRC verification (``zlib.crc32`` accepts any buffer) and
    ``np.frombuffer`` both run directly against the page cache — no blob
    bytes are ever duplicated into the Python heap, and because the file
    is mapped ``ACCESS_READ`` every resulting array is read-only and its
    pages are *shared* between all processes that map the same artifact.
    Arrays keep the mapping alive through their ``.base`` chain; the
    file descriptor is closed immediately (POSIX keeps a mapping valid
    after its fd closes).

    Lifetime: without an explicit :meth:`close` the mapping (and its
    page-cache pin) survives until the garbage collector reaps the last
    array view — unbounded on a busy server.  ``Session.close()`` drops
    its views and calls :meth:`close`, which is what the fleet registry
    relies on to actually return memory on LRU eviction.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        with open(self.path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            if size:
                self._map = _mmap.mmap(fh.fileno(), 0, access=_mmap.ACCESS_READ)
                self._view = memoryview(self._map)
            else:  # a zero-blob artifact: mmap refuses empty files
                self._map = None
                self._view = memoryview(b"")
        self.nbytes = size
        self._closed = False

    def __len__(self) -> int:
        return self.nbytes

    def __getitem__(self, key) -> memoryview:
        # memoryview slicing is zero-copy (mmap's own __getitem__ copies
        # to bytes, which is exactly what this class exists to avoid).
        if self._closed:
            raise ValueError(f"{self.path}: mapping is closed")
        return self._view[key]

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Unmap ``blobs.bin`` now instead of at GC time.

        Requires every array view into the mapping to be dead; if any
        survive, one garbage-collection pass is attempted (views that
        died in a reference cycle are common after a plan teardown)
        before the ``BufferError`` propagates to the caller — silently
        leaking the mapping would defeat the point of eviction.
        Idempotent; subsequent slicing raises ``ValueError``.
        """
        if self._closed:
            return
        try:
            self._release()
        except BufferError:
            import gc

            gc.collect()
            self._release()
        self._closed = True

    def _release(self) -> None:
        self._view.release()
        if self._map is not None:
            self._map.close()

    def __enter__(self) -> "MappedBlobs":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _internalize(node, blobs, table: Dict[str, Dict], path: Path):
    """Inverse of :func:`_externalize`: resolve blob refs, CRC-checked.

    ``blobs`` is the whole file as a memoryview over one heap buffer, or
    a :class:`MappedBlobs` whose slices are zero-copy memoryviews into
    the mapping; either way every array is a view of it (read-only and
    backed by shared pages in the mmap case).
    """
    if isinstance(node, dict):
        if set(node) == {"$blob"}:
            name = node["$blob"]
            meta = table.get(name)
            if meta is None:
                raise ArtifactError(
                    f"{path}: manifest references unknown blob {name!r}"
                )
            start, nbytes = int(meta["offset"]), int(meta["nbytes"])
            raw = blobs[start:start + nbytes]
            if len(raw) != nbytes:
                raise ArtifactError(
                    f"{path}: blob {name!r} is truncated "
                    f"({len(raw)} of {nbytes} bytes present)"
                )
            crc = zlib.crc32(raw)
            if crc != int(meta["crc32"]):
                raise ArtifactError(
                    f"{path}: blob {name!r} checksum {crc:#010x} does not "
                    f"match the recorded CRC32 {int(meta['crc32']):#010x}"
                )
            arr = np.frombuffer(raw, dtype=np.dtype(meta["dtype"]))
            return arr.reshape(tuple(meta["shape"]))
        return {k: _internalize(v, blobs, table, path) for k, v in node.items()}
    if isinstance(node, list):
        return [_internalize(v, blobs, table, path) for v in node]
    return node


def save_artifact(
    path: Union[str, Path],
    network,
    input_hw: Optional[Tuple[int, int]] = None,
    plan=None,
) -> Path:
    """Serialise ``network`` (+ its session geometry) into an artifact directory.

    ``input_hw`` is recorded as the session's geometry and additionally
    embeds the activation-arena plan (Eq. 7 RW peak and container-width
    physical bytes) for it, so a loader can assert device fit without
    rebuilding the plan; ``plan`` is ``network``'s compiled plan to read
    it from (compiled here when absent).  Returns the artifact directory
    path.
    """
    input_hw = normalize_hw(input_hw)
    exported = export_network(network, input_hw=input_hw, plan=plan)
    writer = _BlobWriter()
    manifest = {
        "format": ARTIFACT_FORMAT,
        "version": ARTIFACT_VERSION,
        "session_options": {"input_hw": None if input_hw is None else list(input_hw)},
        "network": _jsonable(_externalize(exported, writer, "net")),
    }
    manifest["blobs"] = writer.table
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    if out.exists() and not _replaceable(out):
        raise ArtifactError(
            f"{out} exists and is not a session artifact directory; "
            f"refusing to overwrite it"
        )
    # Stage under a hidden sibling, fsync, then swap into place: a crash
    # at any point leaves either the previous artifact or nothing — a
    # loader can never observe a half-written directory.
    stamp = f"{os.getpid():d}-{uuid.uuid4().hex[:8]}"
    tmp = out.parent / f".{out.name}.tmp-{stamp}"
    tmp.mkdir()
    try:
        _write_synced(tmp / BLOBS_NAME, writer.payload())
        _write_synced(
            tmp / MANIFEST_NAME,
            (json.dumps(manifest, indent=2) + "\n").encode("ascii"),
        )
        if out.exists():
            old = out.parent / f".{out.name}.old-{stamp}"
            os.replace(out, old)
            os.replace(tmp, out)
            shutil.rmtree(old)
        else:
            os.replace(tmp, out)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    return out


def _replaceable(target: Path) -> bool:
    """Whether an existing save target may be atomically swapped away:
    only prior artifacts (manifest present) and empty directories — an
    arbitrary populated directory is refused rather than clobbered."""
    if not target.is_dir():
        return False
    entries = {p.name for p in target.iterdir()}
    return not entries or MANIFEST_NAME in entries


def _write_synced(path: Path, payload: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(payload)
        fh.flush()
        os.fsync(fh.fileno())


def read_manifest(path: Union[str, Path]) -> Dict:
    """Parse and structurally check an artifact's manifest (no blobs)."""
    root = Path(path)
    manifest_path = root / MANIFEST_NAME
    if not root.exists():
        raise ArtifactNotFoundError(f"no session artifact at {root}")
    if not manifest_path.is_file():
        raise ArtifactNotFoundError(
            f"{root} is not a session artifact (missing {MANIFEST_NAME})"
        )
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError, OSError) as exc:
        raise ArtifactError(f"{manifest_path}: unreadable manifest: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ArtifactError(f"{manifest_path}: manifest is not a JSON object")
    if manifest.get("format") != ARTIFACT_FORMAT:
        raise ArtifactError(
            f"{manifest_path}: unrecognised artifact format "
            f"{manifest.get('format')!r} (expected {ARTIFACT_FORMAT!r})"
        )
    if int(manifest.get("version", 0)) > ARTIFACT_VERSION:
        raise ArtifactError(
            f"{manifest_path}: artifact version {manifest.get('version')} is "
            f"newer than this runtime understands ({ARTIFACT_VERSION})"
        )
    # Readers look keys up in these sections (the legacy one included).
    for section in ("session_options", "compile_options"):
        if not isinstance(manifest.get(section, {}), dict):
            raise ArtifactError(
                f"{manifest_path}: {section!r} is not a JSON object"
            )
    return manifest


def load_artifact(path: Union[str, Path], *, mmap: bool = False):
    """Load an artifact back into ``(network, input_hw, manifest)``.

    Every blob is CRC-verified against the manifest table, the
    reassembled export dict passes the deployment-side
    :func:`validate_export` integrity pass (packed-weight byte budgets +
    checksums + container dtypes), and the network is rebuilt with
    :func:`import_network` — all without the original
    ``IntegerNetwork``.

    Every tensor is a view of the blob file's bytes.  By default the
    file is read into one heap buffer; with ``mmap=True`` it is
    memory-mapped read-only instead: every weight tensor becomes a
    read-only view of the mapping (CRC still verified against the mapped
    bytes), and because the pages are file-backed and read-only the OS
    shares them between every process that loads the same artifact —
    the memory model behind :class:`repro.runtime.pool.WorkerPool`.

    ``input_hw`` is the session geometry the manifest records, or None.
    An older manifest may carry a ``compile_options`` section.  Only its
    legacy ``input_hw`` is read, when ``session_options`` records no
    geometry.  Every other key there selected a plan with bit-identical
    answers, so it is ignored, as are per-layer ``gemm_backend`` labels
    and the retired session keys.
    """
    root = Path(path)
    manifest = read_manifest(root)
    blobs_path = root / BLOBS_NAME
    if not blobs_path.is_file():
        raise ArtifactNotFoundError(
            f"{root} is a partially-written artifact (missing {BLOBS_NAME})"
        )
    if mmap:
        try:
            blobs = MappedBlobs(blobs_path)
        except (OSError, ValueError) as exc:
            raise ArtifactError(f"{root}: cannot mmap {BLOBS_NAME}: {exc}") from exc
    else:
        blobs = _read_blobs(blobs_path)
    try:
        exported = _internalize(
            manifest["network"], blobs, manifest.get("blobs", {}), root,
        )
        validate_export(exported)
        network = import_network(exported)
        input_hw = _session_input_hw(manifest)
    except ArtifactError:
        if mmap:
            _close_quietly(blobs)
        raise
    except (ValueError, TypeError, KeyError) as exc:
        # Manifest/blob contents that parse but cannot be rebuilt into a
        # network (bad shapes, failed integrity pass, unknown options)
        # are corruption too — surface them under the one typed error.
        if mmap:
            _close_quietly(blobs)
        raise ArtifactError(f"{root}: corrupt artifact: {exc}") from exc
    if mmap:
        # Hand the mapping's lifetime to the caller: Session picks this
        # up so Session.close() can unmap deterministically (the fleet
        # registry's eviction path) instead of waiting for GC.
        network.mapped_blobs = blobs
    return network, input_hw, manifest


def _read_blobs(path: Path) -> memoryview:
    """``blobs.bin`` read into one heap buffer, which every loaded array
    then views: the heap holds the file once."""
    with open(path, "rb") as fh:
        buf = bytearray(os.fstat(fh.fileno()).st_size)
        n = fh.readinto(buf)
    return memoryview(buf)[:n]


def _close_quietly(blobs) -> None:
    try:
        blobs.close()
    except BufferError:
        pass  # partially-built views survive; GC reaps the mapping later
