"""What the numbers were measured on: machine, interpreter, backends,
code size.  Printed with every full run and stored beside the metrics so
two result files can be told apart before they are compared."""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from typing import Any, Dict

import numpy

from repro.decoder.backends import numba_available, resolve_backend


def _git_sha(root: str) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _python_lines(directory: str) -> int:
    total = 0
    for base, _dirs, files in os.walk(directory):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    total += sum(1 for _ in fh)
    return total


def describe(root: str, seed: int) -> Dict[str, Any]:
    try:
        affinity = sorted(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        affinity = list(range(os.cpu_count() or 1))
    numba_version = "not installed"
    if numba_available():
        import numba

        numba_version = numba.__version__
    resolved = resolve_backend("auto").name
    return {
        "cores": os.cpu_count(),
        "affinity": affinity,
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "numba": numba_version,
        "kernel_backend": resolved,
        # Only the resolved backend runs; the other is never a silent copy.
        "backends_measured": {
            name: ("measured" if name == resolved else "not measured")
            for name in ("numpy", "numba")
        },
        "git_sha": _git_sha(root),
        "lines": {
            d: _python_lines(os.path.join(root, d))
            for d in ("src", "tests", "benchmarks")
        },
        "seed": seed,
    }
