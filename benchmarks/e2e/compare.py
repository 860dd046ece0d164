"""Compare two sets of benchmark runs: ``compare.py A B``.

``A`` (the base) and ``B`` are each a result file written by
``run.py --out``, or a directory of such files -- one file per run, at
least five per side for a verdict worth reading.  For every (metric,
workload) row it prints both medians with their quartiles, the ratio
B/A, and a verdict:

* end-to-end metrics, against the bound fixed in ``metrics.END_TO_END``:
  ``worse`` when B's median is worse than A's by more than the bound;
  ``better`` when it is better by more than the distance between A's own
  quartiles; ``unresolved`` when A's run-to-run spread is wider than the
  bound (unless every run of B reads better than every run of A);
  ``same`` otherwise;
* per-layer metrics have no bound: ``exact`` when every run of both
  sides reads the same value (counts, simulated statistics), otherwise
  just the ratio.

Exit code 1 when any end-to-end row is ``worse``.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List, Optional, Sequence, Tuple

if __package__ in (None, ""):
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)
    ))))

from benchmarks.e2e.run import bootstrap
from benchmarks.e2e.stats import quartile_spread

Samples = Dict[Tuple[str, str], List[float]]  #: (workload, metric) -> values


def load(path: str) -> Samples:
    """Every run under ``path`` (a file or a directory of files)."""
    files = [path]
    if os.path.isdir(path):
        files = sorted(
            os.path.join(path, n) for n in os.listdir(path) if n.endswith(".json")
        )
    samples: Samples = {}
    for name in files:
        with open(name) as fh:
            record = json.load(fh)
        for workload, result in record.get("workloads", {}).items():
            for metric, value in result.get("metrics", {}).items():
                samples.setdefault((workload, metric), []).append(float(value))
    return samples


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    return quartile_spread(values)[:3]


def verdict(
    base: Sequence[float], change: Sequence[float], better: str,
    bound: Optional[float],
) -> str:
    if bound is None:
        exact = len(set(base) | set(change)) == 1
        return "exact" if exact else ""
    q1, a, q3 = quartiles(base)
    _, b, _ = quartiles(change)
    if a == 0:
        return "same" if b == 0 else "unresolved"
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (b - a) / abs(a)
    if gain < -bound:
        return "worse"
    if gain > 0 and abs(b - a) > (q3 - q1):
        return "better"
    spread = (q3 - q1) / abs(a)
    if spread > bound:
        if better == "higher":
            all_better = min(change) > max(base)
        else:
            all_better = max(change) < min(base)
        return "better" if all_better else "unresolved"
    return "same"


def compare(base: Samples, change: Samples) -> Tuple[List[str], bool]:
    from benchmarks.e2e.metrics import END_TO_END, PER_LAYER, UNITS

    bounds = {name: (better, bound) for name, _, better, bound in END_TO_END}
    directions = {name: better for name, _, better in PER_LAYER}
    lines = [
        f"{'workload':<22}{'metric':<36}{'A median [q1, q3]':>36}"
        f"{'B median [q1, q3]':>36}{'B/A':>9}  verdict"
    ]
    any_worse = False
    for key in sorted(base, key=lambda k: (k[0], k[1] not in bounds, k[1])):
        if key not in change:
            continue
        workload, metric = key
        better, bound = bounds.get(metric, (directions.get(metric, "lower"), None))
        a, b = base[key], change[key]
        if bound is None and not any(a) and not any(b):
            continue  # a layer this workload does not exercise
        aq1, am, aq3 = quartiles(a)
        bq1, bm, bq3 = quartiles(b)
        ratio = f"{bm / am:9.4f}" if am else f"{'-':>9}"
        word = verdict(a, b, better, bound)
        any_worse |= word == "worse"
        unit = UNITS.get(metric, "")
        lines.append(
            f"{workload:<22}{metric + ' (' + unit + ')':<36}"
            f"{f'{am:.6g} [{aq1:.6g}, {aq3:.6g}]':>36}"
            f"{f'{bm:.6g} [{bq1:.6g}, {bq3:.6g}]':>36}{ratio}  {word}"
            + (f" (bound {bound:g}, base A, A's spread {(aq3 - aq1) / am:.3f}, "
               f"n={len(a)}/{len(b)})" if bound else "")
        )
    return lines, any_worse


def main(argv: Optional[List[str]] = None) -> int:
    bootstrap()
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        sys.stderr.write(__doc__.split("\n\n")[0] + "\n")
        return 2
    lines, any_worse = compare(load(args[0]), load(args[1]))
    print("\n".join(lines))
    return 1 if any_worse else 0


if __name__ == "__main__":
    raise SystemExit(main())
