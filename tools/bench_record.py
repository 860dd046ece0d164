#!/usr/bin/env python
"""Record a ``BENCH_<n>.json``: interleaved parent/change runs of the e2e harness.

``python tools/bench_record.py PARENT_TREE CHANGE_TREE --pr N`` runs
``benchmarks/e2e/run.py --seed s --out F`` in the two checkouts for seeds
1-10, one pair per seed, the parent first on odd seeds and the change
first on even ones, and writes the record (``BENCH_<N>.json`` at the repo
root unless ``--out`` says otherwise): the harness's descriptor, every
pair's end-to-end metrics, failed and attempted operations, the runs that
were not valid and correct, and per set and pooled, each workload x
end-to-end metric row with both sides' median and quartiles, the ratio,
the parent's spread, the bound and the verdict.

* ``--second-set`` appends seeds 11-20 to an existing record and re-pools,
  first finishing set 1 if that recording was cut short.
* ``--held-out`` adds one pair on the harness's held-out seed, change
  first.
* ``--claim WORKLOAD:METRIC`` reads the claimed row on set 1: the ratio of
  every pair, how many pairs the change leads, the parent's quartile
  distance and the verdict (and the held-out pair's ratio once recorded).

The prose fields (``what``, ``claim.asked``, notes) are the author's, written
into the record by hand: every field of an existing record that this tool
does not compute is kept as it is.  The record is rewritten
after every pair, and a seed it already holds is not run again, so an
interrupted recording resumes where it stopped.  Verdicts and quartiles
are ``benchmarks/e2e/compare.py``'s own ``verdict`` and ``quartiles``;
the output ends with every row that does not read ``same``, with its
parent spread against the bound, so a row that needs a second set of
pairs reads off it.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from typing import Callable, Dict, List, Optional, Sequence

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if REPO_ROOT not in sys.path:
    sys.path.insert(0, REPO_ROOT)

from benchmarks.e2e.run import bootstrap  # noqa: E402

bootstrap()

from benchmarks.e2e import compare, metrics  # noqa: E402
from benchmarks.e2e.workloads import HELD_OUT_SEED, WORKLOADS  # noqa: E402

#: Seeds of each set of ten pairs.
SETS = {1: range(1, 11), 2: range(11, 21)}

#: End-to-end metric -> (unit, better, bound), as ``compare.py`` judges it.
RULES = {name: (unit, better, bound)
         for name, unit, better, bound in metrics.END_TO_END}

#: Where the computed fields sit in a record; the author's fields follow.
FIELD_ORDER = ("pr", "what", "claim", "descriptor", "failed_operations",
               "attempted_operations", "every_workload_correct_on_every_run",
               "invalid_runs", "end_to_end", "end_to_end_by_set", "pairs",
               f"held_out_seed_{HELD_OUT_SEED}")

Runner = Callable[[str, int], dict]  #: (tree, seed) -> one ``--out`` record


def row(base: Sequence[float], change: Sequence[float], better: str,
        bound: float) -> dict:
    """One workload x metric row of a record, judged by ``compare.py``."""
    q1, median, q3 = compare.quartiles(base)
    c1, change_median, c3 = compare.quartiles(change)
    return {
        "parent": {"median": median, "q1": q1, "q3": q3},
        "change": {"median": change_median, "q1": c1, "q3": c3},
        "ratio": change_median / median,
        "parent_spread": (q3 - q1) / median,
        "bound": bound,
        "verdict": compare.verdict(base, change, better, bound),
        "n": [len(base), len(change)],
    }


def end_to_end_block(pairs: Sequence[dict]) -> Dict[str, Dict[str, dict]]:
    """Every workload x end-to-end metric row over ``pairs``."""
    return {
        workload: {
            name: row([p["parent"][workload][name] for p in pairs],
                      [p["change"][workload][name] for p in pairs],
                      better, bound)
            for name, (_, better, bound) in RULES.items()
        }
        for workload in pairs[0]["parent"]
    }


def blocks_by_set(pairs: Sequence[dict]) -> Dict[str, Dict[str, Dict[str, dict]]]:
    """``end_to_end_by_set``: one block per set the pairs belong to."""
    numbers = sorted({p["set"] for p in pairs})
    return {f"set_{n}": end_to_end_block([p for p in pairs if p["set"] == n])
            for n in numbers}


def claim_block(record: dict, workload: str, metric: str) -> dict:
    """The claimed row read on set 1, as ``--claim`` asks."""
    unit, better, bound = RULES[metric]
    first_set = [p for p in record["pairs"] if p["set"] == 1]
    base = [p["parent"][workload][metric] for p in first_set]
    change = [p["change"][workload][metric] for p in first_set]
    judged = row(base, change, better, bound)
    ratios = [c / b for b, c in zip(base, change)]
    ahead = sum((r > 1.0) if better == "higher" else (r < 1.0) for r in ratios)
    parent = judged["parent"]
    claim = {
        "metric": metric,
        "workload": workload,
        "asked": record.get("claim", {}).get("asked", ""),
        "unit": unit,
        "median_ratio": judged["ratio"],
        "pair_ratios": ratios,
        "change_ahead_in_pairs": ahead,
        "parent_iqr": parent["q3"] - parent["q1"],
        "median_gain": abs(judged["change"]["median"] - parent["median"]),
    }
    held_out = record.get(f"held_out_seed_{HELD_OUT_SEED}")
    if held_out is not None:
        claim["held_out_ratio"] = (held_out["change"][workload][metric]
                                   / held_out["parent"][workload][metric])
    claim["verdict"] = judged["verdict"]
    return claim


# ----------------------------------------------------------------------
# Running the harness
# ----------------------------------------------------------------------
def run_harness(tree: str, seed: int) -> dict:
    """One full ``run.py --seed seed`` in ``tree``; its ``--out`` record."""
    with tempfile.TemporaryDirectory(prefix="bench-record-") as scratch:
        out = os.path.join(scratch, "run.json")
        subprocess.run(
            [sys.executable, os.path.join(tree, "benchmarks", "e2e", "run.py"),
             "--seed", str(seed), "--out", out],
            cwd=tree, stdout=subprocess.DEVNULL, check=False,
        )
        if not os.path.exists(out):
            raise SystemExit(f"bench_record: run.py --seed {seed} in {tree} "
                             f"wrote no result")
        with open(out) as handle:
            return json.load(handle)


def side_metrics(run: dict) -> Dict[str, Dict[str, float]]:
    """The end-to-end metrics of every workload of one run."""
    return {workload: {name: result["metrics"][name] for name in RULES}
            for workload, result in run["workloads"].items()}


def tally(record: dict, side: str, seed: int, run: dict) -> None:
    """Add one run's operations, and its invalid workloads, to the record."""
    for key in ("failed_operations", "attempted_operations"):
        record.setdefault(key, {"parent": 0, "change": 0})
    record.setdefault("invalid_runs", [])
    for workload, result in run["workloads"].items():
        record["attempted_operations"][side] += int(result["attempted"])
        record["failed_operations"][side] += int(result["failed"])
        if not result["correct"]:
            problems = "; ".join(result.get("problems", [])) or "not correct"
            record["invalid_runs"].append(
                f"{side} seed {seed} {workload}: {problems}")
    record["every_workload_correct_on_every_run"] = not record["invalid_runs"]


def run_pair(record: dict, trees: Dict[str, str], seed: int,
             first: str, runner: Runner) -> dict:
    """Both sides on ``seed``, ``first`` first; the pair's metrics."""
    pair: dict = {"seed": seed, "first": first}
    second = "change" if first == "parent" else "parent"
    for side in (first, second):
        run = runner(trees[side], seed)
        tally(record, side, seed, run)
        pair[side] = side_metrics(run)
        descriptor = record.setdefault("descriptor", {})
        if side == "change":
            descriptor.update(run["descriptor"])
            descriptor.pop("seed", None)
        else:
            descriptor["lines_parent"] = run["descriptor"]["lines"]
            descriptor["parent_sha"] = run["descriptor"]["git_sha"]
    return pair


def record_set(record: dict, trees: Dict[str, str], number: int,
               runner: Runner, save: Callable[[dict], None]) -> None:
    """Every pair of set ``number`` the record lacks, saved one by one."""
    done = {p["seed"] for p in record.setdefault("pairs", [])}
    for seed in SETS[number]:
        if seed in done:
            continue
        first = "parent" if seed % 2 else "change"
        pair = run_pair(record, trees, seed, first, runner)
        record["pairs"].append({"set": number, **pair})
        repool(record)
        save(record)
        print(f"bench_record: set {number} seed {seed} ({first} first) done",
              flush=True)


def record_held_out(record: dict, trees: Dict[str, str], runner: Runner,
                    save: Callable[[dict], None]) -> None:
    key = f"held_out_seed_{HELD_OUT_SEED}"
    if key in record:
        return
    pair = run_pair(record, trees, HELD_OUT_SEED, "change", runner)
    record[key] = {"parent": pair["parent"], "change": pair["change"]}
    repool(record)
    save(record)


def repool(record: dict) -> None:
    """Recompute every derived block from the record's pairs."""
    record["end_to_end"] = end_to_end_block(record["pairs"])
    record["end_to_end_by_set"] = blocks_by_set(record["pairs"])
    claim = record.get("claim")
    if claim and claim.get("workload") and any(
            p["set"] == 1 for p in record["pairs"]):
        record["claim"] = claim_block(record, claim["workload"], claim["metric"])


def summary(record: dict) -> List[str]:
    """Every pooled and per-set row that does not read ``same``."""
    lines = []
    blocks = [("pooled", record["end_to_end"])]
    blocks += sorted(record["end_to_end_by_set"].items())
    for name, block in blocks:
        for workload, rows in block.items():
            for metric, judged in rows.items():
                if judged["verdict"] == "same":
                    continue
                lines.append(
                    f"{name} {workload} {metric}: {judged['verdict']} "
                    f"(ratio {judged['ratio']:.3f}, parent spread "
                    f"{judged['parent_spread']:.3f} against bound "
                    f"{judged['bound']:g}, n={judged['n'][0]})")
    claim = record.get("claim")
    if claim and "verdict" in claim:
        lines.append(
            f"claim {claim['workload']} {claim['metric']}: {claim['verdict']}, "
            f"median ratio {claim['median_ratio']:.3f}, change ahead in "
            f"{claim['change_ahead_in_pairs']} of {len(claim['pair_ratios'])} pairs")
    return lines


def save_to(path: str) -> Callable[[dict], None]:
    def save(record: dict) -> None:
        ordered = {key: record[key] for key in FIELD_ORDER if key in record}
        ordered.update(record)
        partial = path + ".partial"
        with open(partial, "w") as handle:
            json.dump(ordered, handle, indent=1)
            handle.write("\n")
        os.replace(partial, path)
    return save


def main(argv: Optional[List[str]] = None, runner: Runner = run_harness) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_tree")
    parser.add_argument("change_tree")
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--out", help="record path (default BENCH_<PR>.json "
                                      "at the repo root)")
    parser.add_argument("--second-set", action="store_true",
                        help="append seeds 11-20 to the record")
    parser.add_argument("--held-out", action="store_true",
                        help=f"add one pair on seed {HELD_OUT_SEED}, change first")
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC")
    args = parser.parse_args(argv)
    if args.claim:
        workload, _, metric = args.claim.partition(":")
        if workload not in {w.name for w in WORKLOADS} or metric not in RULES:
            parser.error(f"--claim {args.claim!r} is not WORKLOAD:METRIC with "
                         f"a workload of benchmarks/e2e and one of "
                         f"{', '.join(RULES)}")

    path = args.out or os.path.join(REPO_ROOT, f"BENCH_{args.pr}.json")
    record: dict = {"pr": args.pr}
    if os.path.exists(path):
        with open(path) as handle:
            record = json.load(handle)
    elif args.second_set:
        parser.error(f"--second-set appends to a record; {path} does not exist")
    if args.claim:
        record["claim"] = {**record.get("claim", {}),
                           "workload": workload, "metric": metric}

    trees = {"parent": os.path.abspath(args.parent_tree),
             "change": os.path.abspath(args.change_tree)}
    save = save_to(path)
    for number in range(1, (2 if args.second_set else 1) + 1):
        record_set(record, trees, number, runner, save)
    if args.held_out:
        record_held_out(record, trees, runner, save)
    repool(record)
    save(record)
    print("\n".join(summary(record)) or "every row reads same")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
