#!/usr/bin/env python
"""Documentation gate (run by the CI docs job).

Four checks:

1. **Link check** -- every relative markdown link in the repo-root
   ``*.md`` files and ``docs/`` must point at an existing file (external
   ``http(s)``/``mailto`` links and pure anchors are skipped; anchors on
   relative links are stripped before the existence check).
2. **Path check** -- every backticked repo path in ``README.md`` and
   ``docs/*.md`` (``src/...``, ``tests/...``, ``benchmarks/...``,
   ``tools/...``, ``examples/...``, ``docs/...``, or a bare ``bench_*.py``;
   globs allowed, a ``::test`` suffix ignored) must name a file that
   exists, so prose cannot keep citing a bench or test that was deleted.
3. **pydoc-importability** -- every module under the public ``repro``
   package must import cleanly and render under :mod:`pydoc`, so
   ``python -m pydoc repro.<anything>`` always works and no module grows
   an import-time dependency on test/bench state.
4. **Numbers from records** -- when the tree holds ``BENCH_<n>.json``
   records, ``README.md``'s end-to-end table must be exactly what
   ``python tools/perf_report.py --readme-table`` renders from the newest
   one, so the headline numbers cannot drift from the measurements.

Exits non-zero with a per-failure report.
"""

from __future__ import annotations

import argparse
import glob
import importlib
import importlib.util
import os
import pkgutil
import pydoc
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_LINK = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)\)")
_BADGE = re.compile(r"\!\[[^\]]*\]\(([^)\s]+)\)")


def check_markdown_links(root: str = REPO_ROOT) -> list:
    failures = []
    pages = sorted(
        glob.glob(os.path.join(root, "*.md"))
        + glob.glob(os.path.join(root, "docs", "**", "*.md"),
                    recursive=True)
    )
    for page in pages:
        with open(page, encoding="utf-8") as fh:
            text = fh.read()
        base = os.path.dirname(page)
        for match in _LINK.finditer(text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            path = os.path.normpath(
                os.path.join(base, target.split("#", 1)[0])
            )
            if not os.path.exists(path):
                failures.append(
                    f"{os.path.relpath(page, root)}: broken link "
                    f"-> {target}"
                )
        # Badges referencing workflow files inside the repo should resolve
        # too (the CI badge uses ../../ which leaves the tree; skip those).
        for match in _BADGE.finditer(text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "../")):
                continue
            path = os.path.normpath(
                os.path.join(base, target.split("#", 1)[0])
            )
            if not os.path.exists(path):
                failures.append(
                    f"{os.path.relpath(page, root)}: broken image "
                    f"-> {target}"
                )
    print(f"[docs] link check: {len(pages)} pages scanned")
    return failures


_REPO_PATH = re.compile(
    r"`((?:(?:benchmarks|tools|tests|examples|src|docs)/[\w./*-]+|bench_[\w*]+)"
    r"\.(?:py|md|json|yml|toml))(?:::[^`]*)?`"
)


def check_repo_paths(root: str = REPO_ROOT) -> list:
    failures = []
    # Not the other root pages: CHANGES.md and ROADMAP.md are history and
    # rightly name files that no longer exist.
    pages = glob.glob(os.path.join(root, "README.md")) + sorted(
        glob.glob(os.path.join(root, "docs", "*.md"))
    )
    paths = 0
    for page in pages:
        with open(page, encoding="utf-8") as fh:
            targets = sorted(set(_REPO_PATH.findall(fh.read())))
        paths += len(targets)
        for target in targets:
            # A bare ``bench_*.py`` is a file of ``benchmarks/``.
            where = target if "/" in target else os.path.join("benchmarks", target)
            if not glob.glob(os.path.join(root, where)):
                failures.append(
                    f"{os.path.relpath(page, root)}: no such file -> {target}"
                )
    print(f"[docs] path check: {paths} repo paths cited")
    return failures


def _perf_report():
    spec = importlib.util.spec_from_file_location(
        "perf_report", os.path.join(os.path.dirname(os.path.abspath(__file__)), "perf_report.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def check_e2e_table(root: str = REPO_ROOT) -> list:
    perf_report = _perf_report()
    records, _ = perf_report.load_records(root)
    if not records:
        print("[docs] e2e table check: no BENCH_<n>.json record, skipped")
        return []
    want = perf_report.readme_table(records[-1])
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    print(f"[docs] e2e table check: against BENCH_{records[-1].get('pr')}.json")
    if perf_report.TABLE_BEGIN not in lines or perf_report.TABLE_END not in lines:
        return ["README.md: no e2e table block; paste in "
                "`python tools/perf_report.py --readme-table`"]
    begin = lines.index(perf_report.TABLE_BEGIN)
    have = lines[begin: lines.index(perf_report.TABLE_END, begin) + 1]
    if have == want:
        return []
    got, expected = next(((g, w) for g, w in zip(have, want) if g != w),
                         (f"{len(have)} lines", f"{len(want)} lines"))
    return [f"README.md: e2e table differs from the record: {got!r}, rendered {expected!r}"]


def check_pydoc_importability() -> list:
    failures = []
    import repro

    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        names.append(info.name)
    for name in sorted(names):
        try:
            module = importlib.import_module(name)
            pydoc.plaintext.document(module)
        except Exception as exc:  # report every broken module, then fail
            failures.append(f"{name}: {type(exc).__name__}: {exc}")
        else:
            doc = module.__doc__
            if not doc or not doc.strip():
                failures.append(f"{name}: missing module docstring")
    print(f"[docs] pydoc check: {len(names)} modules rendered")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=REPO_ROOT,
                        help="tree whose markdown is link- and path-checked "
                             "(default: this repo)")
    parser.add_argument("--skip-pydoc", action="store_true",
                        help="run only the link and path checks (used by "
                             "tests over fixture trees)")
    options = parser.parse_args(argv)

    failures = check_markdown_links(options.root)
    failures += check_repo_paths(options.root)
    failures += check_e2e_table(options.root)
    if not options.skip_pydoc:
        failures += check_pydoc_importability()
    for failure in failures:
        print(f"[docs] FAIL {failure}")
    if failures:
        print(f"[docs] {len(failures)} failure(s)")
        return 1
    print("[docs] all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
