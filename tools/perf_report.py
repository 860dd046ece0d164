#!/usr/bin/env python
"""Render the committed ``BENCH_<n>.json`` records (CI's bench-smoke job).

A record is what a PR that touches ``src/`` commits at the repo root:
interleaved parent/change runs of ``benchmarks/e2e/run.py`` as judged by
``benchmarks/e2e/compare.py``.  This tool measures and judges nothing:
``python tools/perf_report.py [DIRECTORY]`` prints, per record, the PR, the
machine, the line counts and, per workload x end-to-end metric, parent
median -> change median, ratio and verdict as recorded -- to
``$GITHUB_STEP_SUMMARY`` when set, to stdout otherwise.  An unreadable file
is named and skipped, no record at all is a note; the exit code is zero.
"""

import glob
import json
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_records(root: str = REPO_ROOT):
    """``(records, notes)``: records under ``root`` in PR order, a note per unreadable file."""
    records, notes = [], []
    paths = glob.glob(os.path.join(root, "BENCH_[0-9]*.json"))
    for path in sorted(paths, key=lambda p: int(re.findall(r"\d+", p)[-1])):
        try:
            with open(path) as handle:
                records.append(json.load(handle))
        except (OSError, ValueError):
            notes.append(f"_{os.path.basename(path)}: unreadable, skipped._")
    return records, notes


def _num(value, spec: str = "") -> str:
    if not isinstance(value, (int, float)):
        return "--"
    return format(value, spec or (",.0f" if value >= 100 else ".3g"))


def render(record: dict) -> list:
    """Markdown lines of one record; a field it lacks reads ``--``."""
    machine = record.get("descriptor", {})
    counts, tier1 = machine.get("lines", {}), machine.get("tier1", {})
    facts = [f"{key} {machine.get(key, '--')}" for key in (
        "cores", "platform", "python", "numpy", "numba", "kernel_backend")]
    facts += [f"{d} {counts.get(d, '--')} lines" for d in ("src", "tests", "benchmarks")]
    facts.append(f"tier-1 {tier1.get('passed', '--')} passed / "
                 f"{tier1.get('skipped', '--')} skipped in {tier1.get('wall_s', '--')} s")
    out = [f"## PR {record.get('pr', '--')}", "", ", ".join(facts), "",
           "| workload | metric | parent | change | change/parent | verdict |",
           "|---|---|---:|---:|---:|---|"]
    for workload, metrics in sorted(record.get("end_to_end", {}).items()):
        for metric, row in metrics.items():
            parent, change = (row.get(s, {}).get("median") for s in ("parent", "change"))
            out.append(f"| {workload} | {metric} | {_num(parent)} | {_num(change)} "
                       f"| {_num(row.get('ratio'), '.3f')} | {row.get('verdict', '--')} |")
    return out + [""]


def main(root: str = REPO_ROOT) -> int:
    records, notes = load_records(root)
    if not records:
        notes.append(f"_No BENCH_<n>.json record under {root}._")
    lines = ["# Benchmark records (`benchmarks/e2e`, as committed)", ""]
    for record in records:
        lines += render(record)
    text = "\n".join(lines + notes) + "\n"
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a") as handle:
            handle.write(text)
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:2]))
