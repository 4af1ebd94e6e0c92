"""Host fingerprint and process memory, attached to every run record."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
from pathlib import Path
from typing import Optional

#: Environment every process the benchmark launches runs under: BLAS on
#: one thread.  OpenBLAS otherwise starts one thread per vCPU, which on
#: a 2-vCPU host competes with the server's event-loop and executor
#: threads.
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def vm_hwm_kb(pid: str = "self") -> int:
    """Peak resident set (VmHWM) of a process, in KiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM not reported by /proc")


def _openblas() -> Optional[ctypes.CDLL]:
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        if os.path.isfile(path):
            return ctypes.CDLL(path)
    return None


def blas_info() -> dict:
    """OpenBLAS version and thread count as the loaded library reports
    them (``None`` when numpy links another BLAS)."""
    import numpy as np

    np.dot(np.ones((2, 2)), np.ones((2, 2)))  # make sure BLAS is loaded
    info = {"threads": None, "config": None}
    lib = _openblas()
    if lib is None:
        return info
    for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
        threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
        if threads is None:
            continue
        threads.restype = ctypes.c_int
        info["threads"] = int(threads())
        config = getattr(lib, f"{prefix}_get_config{suffix}", None)
        if config is not None:
            config.restype = ctypes.c_char_p
            info["config"] = config().decode()
        break
    return info


def src_digest(root: Path) -> str:
    """SHA-256 over the program's Python sources: identifies the code
    under test where no git metadata exists."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha(root: Path) -> Optional[str]:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def fingerprint(root: Path, blas: dict) -> dict:
    import numpy as np

    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(line.split(":", 1)[1].strip() for line in fh
                         if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": model,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{build.get('name')} {build.get('version')}",
        "blas_runtime": blas.get("config"),
        "blas_threads": blas.get("threads"),
        "git_sha": git_sha(root),
        "src_sha256": src_digest(root),
    }
