#!/usr/bin/env python
"""Render the committed ``BENCH_<n>.json`` records (CI's bench-smoke job).

A record is what a PR that touches ``src/`` commits at the repo root:
interleaved parent/change runs of ``benchmarks/e2e/run.py`` as judged by
``benchmarks/e2e/compare.py``.  This tool measures and judges nothing:
``python tools/perf_report.py [DIRECTORY]`` prints, per record, the PR, the
machine, the line counts and, per workload x end-to-end metric, parent
median -> change median, ratio and verdict as recorded -- to
``$GITHUB_STEP_SUMMARY`` when set, to stdout otherwise.  A record taken on a
different platform from the record before it is marked, since medians
compare only within one record.  An unreadable file is named and skipped,
no record at all is a note; the exit code is zero.

``python tools/perf_report.py --readme-table`` prints README's end-to-end
table instead: the newest record's change-side medians, captioned with the
record, its PR and its platform.  ``tools/check_docs.py`` fails when
README's copy differs from it.
"""

import argparse
import glob
import json
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: README's end-to-end table sits between these two lines.
TABLE_BEGIN = "<!-- e2e table: python tools/perf_report.py --readme-table -->"
TABLE_END = "<!-- end of e2e table -->"

#: README's rows, in order: workload and what it runs.
README_WORKLOADS = (
    ("search_wide_server", "50 k states, 8 × 1500 tokens"),
    ("long_stream_server", "600-frame streams, commits"),
    ("short_sessions_tier", "24-frame sessions, 2 workers"),
    ("audio_burst_tier", "raw audio → words, 2 workers"),
    ("audio_paced_tier", "open loop, ~25 real-time streams: frames/s is the offered load"),
    ("accel_sweep", "24-point cache grid"),
)


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


def _platform(record: dict) -> str:
    return record.get("descriptor", {}).get("platform", "--")


def render(record: dict, previous: dict | None = None) -> list:
    """Markdown lines of one record; a field it lacks reads ``--``.

    ``previous`` is the record before it: a platform change is marked.
    """
    machine = record.get("descriptor", {})
    counts, tier1 = machine.get("lines", {}), machine.get("tier1", {})
    facts = [f"{key} {machine.get(key, '--')}" for key in (
        "cores", "platform", "python", "numpy", "numba", "kernel_backend")]
    facts += [f"{d} {counts.get(d, '--')} lines" for d in ("src", "tests", "benchmarks")]
    facts.append(f"tier-1 {tier1.get('passed', '--')} passed / "
                 f"{tier1.get('skipped', '--')} skipped in {tier1.get('wall_s', '--')} s")
    out = [f"## PR {record.get('pr', '--')}", "", ", ".join(facts), ""]
    if previous is not None and _platform(previous) != _platform(record):
        out += [f"**Platform changed** from {_platform(previous)} (PR "
                f"{previous.get('pr', '--')}): compare these medians with each "
                "other, not with earlier records.", ""]
    out += ["| workload | metric | parent | change | change/parent | verdict |",
            "|---|---|---:|---:|---:|---|"]
    for workload, metrics in sorted(record.get("end_to_end", {}).items()):
        for metric, row in metrics.items():
            parent, change = (row.get(s, {}).get("median") for s in ("parent", "change"))
            out.append(f"| {workload} | {metric} | {_num(parent)} | {_num(change)} "
                       f"| {_num(row.get('ratio'), '.3f')} | {row.get('verdict', '--')} |")
    return out + [""]


def readme_table(record: dict) -> list:
    """README's end-to-end table: ``record``'s change-side medians."""
    pr, e2e = record.get("pr", "--"), record.get("end_to_end", {})
    machine = record.get("descriptor", {})
    out = [TABLE_BEGIN,
           f"Change-side medians of `BENCH_{pr}.json` (PR {pr}, "
           f"{len(record.get('pairs', []))} interleaved parent/change pairs; "
           f"{_platform(record)}, {machine.get('cores', '--')} cores, "
           f"{machine.get('kernel_backend', '--')} backend):", "",
           "| workload | frames/s | peak RSS |", "| --- | ---: | ---: |"]
    for name, what in README_WORKLOADS:
        fps, rss = (e2e.get(name, {}).get(metric, {}).get("change", {}).get("median")
                    for metric in ("frames_per_s", "peak_rss_mb"))
        out.append(f"| `{name}` ({what}) | {_num(fps, ',.0f')} | {_num(rss, ',.0f')} MiB |")
    return out + [TABLE_END]


def main(root: str = REPO_ROOT) -> int:
    records, notes = load_records(root)
    if not records:
        notes.append(f"_No BENCH_<n>.json record under {root}._")
    lines = ["# Benchmark records (`benchmarks/e2e`, as committed)", ""]
    for previous, record in zip([None] + records, records):
        lines += render(record, previous)
    text = "\n".join(lines + notes) + "\n"
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a") as handle:
            handle.write(text)
    else:
        print(text)
    return 0


def cli(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("directory", nargs="?", default=REPO_ROOT,
                        help="where the BENCH_<n>.json records are (default: this repo)")
    parser.add_argument("--readme-table", action="store_true",
                        help="print README's end-to-end table from the newest record")
    options = parser.parse_args(argv)
    if not options.readme_table:
        return main(options.directory)
    records, _ = load_records(options.directory)
    if not records:
        print(f"no BENCH_<n>.json record under {options.directory}", file=sys.stderr)
        return 1
    print("\n".join(readme_table(records[-1])))
    return 0


if __name__ == "__main__":
    sys.exit(cli())
