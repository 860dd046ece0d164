#!/usr/bin/env python
"""Run the invariant linter from the repo root (CI entry point).

Equivalent to ``repro lint``; exists so CI and pre-commit hooks can run
the linter without installing the package (only ``src`` on the path).

Usage:
    python tools/run_analysis.py                    # lint the tree
    python tools/run_analysis.py --format json      # machine-readable
    python tools/run_analysis.py --update-version-guard

See docs/INVARIANTS.md for the rule catalogue and suppression protocol.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.engine import main  # noqa: E402


if __name__ == "__main__":
    sys.exit(main(["--root", str(REPO_ROOT), *sys.argv[1:]]))
