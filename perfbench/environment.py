"""The environment a benchmark result was measured in."""
from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path

import numpy as np


def _git(root: Path, *args) -> str | None:
    # only a checkout's own .git: never let git search the parent directories
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(root), *args], capture_output=True,
                              text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout


def _library(dependencies: dict, key: str) -> dict:
    entry = dependencies.get(key, {})
    return {"name": entry.get("name"), "version": entry.get("version")}


def environment(root: Path) -> dict:
    """Python, NumPy, BLAS/LAPACK, processor count and source revision."""
    dependencies = np.show_config(mode="dicts").get("Build Dependencies", {})
    sha = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _library(dependencies, "blas"),
        "lapack": _library(dependencies, "lapack"),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_sha": sha.strip() if sha else None,
        "git_dirty": bool(status.strip()) if status is not None else None,
    }
