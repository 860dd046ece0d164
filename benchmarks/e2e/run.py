"""The benchmark's one command.

``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1``
runs one workload and prints the result object as the last line (the
BENCHMARK.json contract).  Without ``--workload`` it runs all six, prints
every metric by name with its unit, and stores the run under
``benchmarks/e2e/results/`` for ``compare.py``.

Each workload runs in a child process of its own, in its own process
group, under a hard deadline: when the deadline passes the group is
killed and the workload is reported as failed, so a hung tier costs a
bounded time and leaves nothing behind.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RESULTS = os.path.join(HERE, "results")

DEFAULT_SECONDS = 10.0
SMOKE_SECONDS = 0.6
#: Hard limit on one workload's child process, set-up included.
DEADLINE_S = 150.0


def bootstrap() -> None:
    """Make ``repro`` and ``benchmarks.e2e`` importable from a checkout;
    the benchmark measures the program in ``src/`` and cannot run without
    it."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        sys.stderr.write(
            f"benchmarks/e2e: no program to measure ({src}/repro is missing)\n"
        )
        raise SystemExit(2)
    if sys.path and os.path.abspath(sys.path[0]) == HERE:
        del sys.path[0]  # sibling modules are imported as benchmarks.e2e.*
    for path in (src, ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)


def parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this workload only (default: all six)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"length of the timed region (default {DEFAULT_SECONDS:g})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the separate traced pass, per-layer metrics")
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at about a tenth of its size")
    parser.add_argument("--out", help="also write the full result to this file")
    parser.add_argument("--child", metavar="RESULT", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    args.traced = args.traced or bool(args.trace)
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else DEFAULT_SECONDS
    return args


# ----------------------------------------------------------------------
# Child: one workload in this process
# ----------------------------------------------------------------------
def child(args: argparse.Namespace) -> int:
    from benchmarks.e2e import harness

    run_dir = os.path.dirname(os.path.abspath(args.child))
    result = harness.run(
        args.workload, args.seed, args.seconds, args.traced, run_dir,
        smoke=args.smoke,
        log=lambda line: print(line, flush=True),
    )
    tracer = result.pop("tracer", None)
    if tracer is not None:
        tracer.write(os.path.join(run_dir, f"{args.workload}.trace.json"))
    with open(args.child, "w") as fh:
        json.dump(result, fh)
    return 0


# ----------------------------------------------------------------------
# Parent: supervise the child, check nothing leaked
# ----------------------------------------------------------------------
def _shm_segments() -> set:
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except OSError:
        return set()


def supervise(name: str, args: argparse.Namespace) -> Dict[str, Any]:
    """Run one workload in its own process group under the deadline."""
    run_dir = os.path.join(RESULTS, f"run-{os.getpid()}-{name}")
    os.makedirs(run_dir)
    result_path = os.path.join(run_dir, "result.json")
    command = [
        sys.executable, os.path.abspath(__file__), "--child", result_path,
        "--workload", name, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(int(args.traced)),
    ] + (["--smoke"] if args.smoke else [])
    shm_before = _shm_segments()
    problems: List[str] = []
    started = time.monotonic()
    process = subprocess.Popen(
        command, cwd=ROOT, start_new_session=True,
        env={**os.environ, "TMPDIR": run_dir},
    )
    try:
        code = process.wait(timeout=DEADLINE_S)
        if code != 0:
            problems.append(f"child exited with code {code}")
    except subprocess.TimeoutExpired:
        problems.append(f"deadline of {DEADLINE_S:g} s passed; process group killed")
    finally:
        # The child's tier workers share its group: nothing it started
        # outlives this call, finished or not.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        process.wait()

    result: Dict[str, Any] = {"attempted": 1, "failed": 1, "metrics": {}, "valid": False}
    if not problems:
        with open(result_path) as fh:
            result = json.load(fh)
    # The child's TMPDIR is the run directory, so a tier that made its own
    # graph directory made it there.
    leaked = sorted(_shm_segments() - shm_before) + sorted(
        n for n in os.listdir(run_dir) if n.startswith("repro-tier-graph-")
    )
    if leaked:
        problems.append(f"left behind: {', '.join(leaked)}")
        for segment in leaked:
            if segment.startswith("psm_"):
                try:
                    os.unlink(os.path.join("/dev/shm", segment))
                except OSError:
                    pass
    for trace in (n for n in os.listdir(run_dir) if n.endswith(".trace.json")):
        os.replace(os.path.join(run_dir, trace), os.path.join(RESULTS, trace))
    shutil.rmtree(run_dir, ignore_errors=True)
    result["problems"] = problems
    result["correct"] = bool(
        not problems and result["failed"] == 0 and result.get("valid", False)
    )
    result["elapsed_s"] = time.monotonic() - started
    return result


def contract_line(result: Dict[str, Any]) -> str:
    from benchmarks.e2e.metrics import with_units

    return json.dumps({
        "correct": result["correct"],
        "attempted": max(1, int(result["attempted"])),
        "failed": int(result["failed"]),
        "metrics": with_units(result["metrics"]),
    })


def report(name: str, result: Dict[str, Any]) -> None:
    from benchmarks.e2e.metrics import UNITS

    status = "correct" if result["correct"] else "INCORRECT"
    print(f"\n== {name}: {result['attempted']} operations attempted, "
          f"{result['failed']} failed, {status}, {result['elapsed_s']:.1f} s")
    for problem in result["problems"]:
        print(f"   problem: {problem}")
    for metric, value in result["metrics"].items():
        print(f"   {metric:<40}{value:>16.6g} {UNITS[metric]}")


def main(argv: Optional[List[str]] = None) -> int:
    bootstrap()
    args = parse(argv)
    if args.child:
        return child(args)

    from benchmarks.e2e.descriptor import describe
    from benchmarks.e2e.workloads import BY_NAME, HELD_OUT_SEED, WORKLOADS

    if args.workload is not None and args.workload not in BY_NAME:
        sys.stderr.write(
            f"unknown workload {args.workload!r}; choose from {', '.join(BY_NAME)}\n"
        )
        return 2
    os.makedirs(RESULTS, exist_ok=True)
    if args.workload is not None:
        result = supervise(args.workload, args)
        for problem in result["problems"]:
            print(f"{args.workload}: problem: {problem}")
        print(contract_line(result), flush=True)
        return 0 if result["correct"] else 1

    descriptor = describe(ROOT, args.seed)
    print(json.dumps(descriptor, indent=2))
    if args.seed == HELD_OUT_SEED:
        print(f"note: seed {HELD_OUT_SEED} is the held-out seed; use it to "
              f"confirm a finished change, not while developing one")
    results = {}
    for workload in WORKLOADS:
        results[workload.name] = supervise(workload.name, args)
        report(workload.name, results[workload.name])
    record = {
        "descriptor": descriptor, "seconds": args.seconds,
        "traced": args.traced, "smoke": args.smoke, "workloads": results,
    }
    for path in filter(None, (os.path.join(RESULTS, "latest.json"), args.out)):
        with open(path, "w") as fh:
            json.dump(record, fh, indent=2)
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
