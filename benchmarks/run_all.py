#!/usr/bin/env python
"""Run every figure/table benchmark without pytest and print the reports.

Equivalent to ``pytest benchmarks/ --benchmark-only`` but with the
paper-vs-measured tables on stdout, for quick inspection:

    python benchmarks/run_all.py [--fast | --quick]

``--fast`` skips the expensive sweeps (Figures 4/5, ablations) and runs
only the benches that share the cached standard comparison.

``--quick`` is the CI smoke gate: tiny configurations that finish in
seconds, a decoder-consistency check across every platform, the batch
vs reference engine benchmark, the continuous-batching streaming
session benchmark, the kernel-observer lattice benchmark and the long-stream
traceback-memory gate (flat windowed growth, faster partials, output
identical to one-shot).  Results land in
``benchmarks/results/quick_summary.json`` (uploaded as a CI artifact) plus a normalized ``benchmarks/results/trajectory.json`` --
one frames/s + speedup (and, for the traceback bench, peak-memory +
partial-latency) point per bench -- that CI's perf-report step diffs
against the previous main-branch run; the process exits non-zero on
any crash or decoder mismatch.
"""

from __future__ import annotations

import argparse
import sys
import time
import traceback

_REPO_ROOT = __file__.rsplit("/", 2)[0]
sys.path[:0] = [_REPO_ROOT, _REPO_ROOT + "/src"]

from benchmarks import common
from repro.system import run_platform_comparison


class _NullBenchmark:
    """Stand-in for pytest-benchmark's fixture."""

    def pedantic(self, func, args=(), kwargs=None, rounds=1, iterations=1):
        return func(*args, **(kwargs or {}))


def run_quick() -> int:
    """CI smoke gate: small, fast, and strict about consistency."""
    from benchmarks import bench_acoustic_scoring as bench_acoustic
    from benchmarks import bench_batch_throughput as bench_batch
    from benchmarks import bench_graph_compile as bench_graph
    from benchmarks import bench_kernel_backends as bench_backends
    from benchmarks import bench_lattice_throughput as bench_lattice
    from benchmarks import bench_streaming_sessions as bench_stream
    from benchmarks import bench_traceback_memory as bench_traceback
    from repro.datasets import SyntheticGraphConfig
    from repro.system import make_memory_workload

    summary: dict = {"mode": "quick", "steps": {}}
    failed = False

    def step(name, func):
        nonlocal failed
        t0 = time.time()
        try:
            payload = func()
            summary["steps"][name] = {
                "status": "ok",
                "seconds": round(time.time() - t0, 3),
                **({"result": payload} if payload is not None else {}),
            }
            print(f"[quick] {name}: ok ({time.time() - t0:.1f}s)")
        except Exception as exc:  # the gate reports, then fails the job
            failed = True
            summary["steps"][name] = {
                "status": "failed",
                "seconds": round(time.time() - t0, 3),
                "error": f"{type(exc).__name__}: {exc}",
            }
            print(f"[quick] {name}: FAILED ({exc})")
            traceback.print_exc()

    def platform_consistency():
        """All six platforms on a tiny workload; raises on any decoder
        mismatch (``check_consistency=True``)."""
        workload = make_memory_workload(
            num_utterances=1,
            frames_per_utterance=10,
            beam=8.0,
            max_active=400,
            seed=3,
            graph_config=SyntheticGraphConfig(
                num_states=3000, num_phones=40, seed=3
            ),
        )
        comparison = run_platform_comparison(
            workload, base_config=common.base_config(), check_consistency=True
        )
        return {
            name: {"decode_seconds": run.decode_seconds,
                   "energy_j": run.energy_j}
            for name, run in comparison.runs.items()
        }

    def batch_throughput():
        result = bench_batch.run_batch_throughput(quick=True)
        bench_batch._report(result)
        if result["speedup"] < bench_batch.QUICK_SPEEDUP_TARGET:
            raise AssertionError(
                f"batch speedup {result['speedup']:.2f}x below the "
                f"{bench_batch.QUICK_SPEEDUP_TARGET:.0f}x gate"
            )
        return result

    def streaming_sessions():
        result = bench_stream.run_streaming_sessions(quick=True)
        bench_stream._report(result)
        if result["speedup"] < bench_stream.SPEEDUP_TARGET:
            raise AssertionError(
                f"continuous-batching speedup {result['speedup']:.2f}x "
                f"below the {bench_stream.SPEEDUP_TARGET:.2f}x gate"
            )
        return result

    def acoustic_scoring():
        result = bench_acoustic.run_acoustic_scoring(quick=True)
        bench_acoustic._report(result)
        if result["speedup"] < result["speedup_target"]:
            gate = "parallel" if result["parallel_gate"] else "single-core"
            raise AssertionError(
                f"batched-scoring speedup {result['speedup']:.2f}x below "
                f"the {result['speedup_target']:.2f}x {gate} gate"
            )
        if result["ipc_bytes_per_frame"] >= result["ipc_bytes_per_frame_max"]:
            raise AssertionError(
                f"score transport costs {result['ipc_bytes_per_frame']:.1f} "
                f"pipe bytes/frame (gate < "
                f"{result['ipc_bytes_per_frame_max']:.0f}); descriptors "
                f"only, the rows belong in shared memory"
            )
        return result

    def lattice_throughput():
        result = bench_lattice.run_lattice_throughput(quick=True)
        bench_lattice._report(result)
        if result["speedup"] < bench_lattice.QUICK_SPEEDUP_TARGET:
            raise AssertionError(
                f"lattice speedup {result['speedup']:.2f}x below the "
                f"{bench_lattice.QUICK_SPEEDUP_TARGET:.1f}x gate"
            )
        return result

    def graph_compile():
        result = bench_graph.run_graph_compile(quick=True)
        bench_graph._report(result)
        if not result["bit_identical"]:
            raise AssertionError(
                "artifact-cache load is not bit-identical to a fresh "
                "compile"
            )
        if result["speedup"] < bench_graph.QUICK_SPEEDUP_TARGET:
            raise AssertionError(
                f"warm graph load {result['speedup']:.2f}x below the "
                f"{bench_graph.QUICK_SPEEDUP_TARGET:.0f}x gate"
            )
        return result

    def kernel_backends():
        result = bench_backends.run_kernel_backends(quick=True)
        bench_backends._report(result)
        if result["numba_available"] and (
            result["speedup"] < result["speedup_target"]
        ):
            gate = "parallel" if result["parallel_gate"] else "single-core"
            raise AssertionError(
                f"compiled-backend speedup {result['speedup']:.2f}x below "
                f"the {result['speedup_target']:.2f}x {gate} gate"
            )
        return result

    def traceback_memory():
        result = bench_traceback.run_traceback_memory(quick=True)
        bench_traceback._report(result)
        bench_traceback._assert_gates(result)
        return result

    step("platform_consistency", platform_consistency)
    step("graph_compile_quick", graph_compile)
    step("batch_throughput_quick", batch_throughput)
    step("streaming_sessions_quick", streaming_sessions)
    step("acoustic_scoring_quick", acoustic_scoring)
    step("kernel_backends_quick", kernel_backends)
    step("lattice_throughput_quick", lattice_throughput)
    step("traceback_memory_quick", traceback_memory)

    summary["status"] = "failed" if failed else "ok"
    path = common.write_json("quick_summary", summary)
    trajectory = _trajectory(summary)
    tpath = common.write_json("trajectory", trajectory)
    print(f"[quick] summary written to {path}: {summary['status']}")
    print(f"[quick] perf trajectory ({len(trajectory['benches'])} benches) "
          f"written to {tpath}")
    return 1 if failed else 0


#: Which result key is each quick bench's headline frames/s.  Benches not
#: listed fall back to the first ``*_frames_per_second`` key they report
#: (or contribute speedup only, like the graph-compile warm-load gate).
_TRAJECTORY_FPS_KEYS = {
    "batch_throughput_quick": "batch_frames_per_second",
    "streaming_sessions_quick": "concurrent_frames_per_second",
    "acoustic_scoring_quick": "scored_frames_per_second",
    "kernel_backends_quick": "fused_frames_per_second",
    "lattice_throughput_quick": "kernel_frames_per_second",
}


def _trajectory(summary: dict) -> dict:
    """Normalize the quick-gate step payloads into one perf point.

    The shape is deliberately flat and stable -- ``benches.<name>`` holds
    at most ``frames_per_second``, ``speedup``, and (for the traceback
    bench) ``peak_trace_kib`` + ``partial_latency_ms`` -- so CI can diff
    today's run against a cached previous run without knowing any
    bench's internals (see ``tools/perf_report.py``, which knows which
    metrics are lower-is-better).
    """
    benches: dict = {}
    for name, step_data in summary["steps"].items():
        result = step_data.get("result")
        if not isinstance(result, dict):
            continue
        entry: dict = {}
        key = _TRAJECTORY_FPS_KEYS.get(name)
        if key is None:
            key = next(
                (k for k in sorted(result) if k.endswith("_frames_per_second")),
                None,
            )
        if key is not None and isinstance(result.get(key), (int, float)):
            entry["frames_per_second"] = round(float(result[key]), 3)
        if isinstance(result.get("speedup"), (int, float)):
            entry["speedup"] = round(float(result["speedup"]), 4)
        elif isinstance(result.get("partial_speedup"), (int, float)):
            entry["speedup"] = round(float(result["partial_speedup"]), 4)
        if isinstance(result.get("windowed_peak_bytes"), (int, float)):
            entry["peak_trace_kib"] = round(
                float(result["windowed_peak_bytes"]) / 1024, 1
            )
        if isinstance(result.get("ipc_bytes_per_frame"), (int, float)):
            entry["ipc_bytes_per_frame"] = round(
                float(result["ipc_bytes_per_frame"]), 2
            )
        if (isinstance(result.get("windowed_partial_seconds"), (int, float))
                and result.get("partials")):
            entry["partial_latency_ms"] = round(
                1e3 * float(result["windowed_partial_seconds"])
                / float(result["partials"]), 4
            )
        if entry:
            benches[name] = entry
    return {"schema": 1, "mode": summary.get("mode", "quick"),
            "benches": benches}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--fast", action="store_true",
                        help="skip the slow parameter sweeps")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke gate: tiny configs, JSON summary, "
                             "non-zero exit on mismatch or crash")
    options = parser.parse_args()
    if options.quick:
        return run_quick()

    t0 = time.time()
    print("Building the standard workload and running all six platforms ...")
    std_workload = common.standard_workload()
    std_comparison = run_platform_comparison(
        std_workload, base_config=common.base_config()
    )
    swp_workload = None if options.fast else common.sweep_workload()
    print(f"  done in {time.time() - t0:.1f}s")

    from benchmarks import (
        bench_acoustic_scoring as acoustic_tp,
        bench_batch_throughput as batch_tp,
        bench_graph_compile as graph_tp,
        bench_lattice_throughput as lattice_tp,
        bench_serving_tier as tier_tp,
        bench_streaming_sessions as stream_tp,
        bench_traceback_memory as traceback_tp,
        bench_fig01_pipeline_breakdown as fig01,
        bench_fig04_cache_miss_ratio as fig04,
        bench_fig05_hash_entries as fig05,
        bench_fig07_state_arcs_cdf as fig07,
        bench_fig09_decode_time as fig09,
        bench_fig10_speedup as fig10,
        bench_fig11_energy_reduction as fig11,
        bench_fig12_power as fig12,
        bench_fig13_mem_traffic as fig13,
        bench_fig14_energy_vs_time as fig14,
        bench_intext_area as area,
        bench_intext_full_pipeline as pipeline,
        bench_intext_ideal_components as ideal,
        bench_intext_prefetch as prefetch,
        bench_tables_config as tables,
        bench_ablation_beam as abl_beam,
        bench_ablation_epsilon_removal as abl_eps,
        bench_ablation_memory_latency as abl_latency,
        bench_ablation_prefetch_depth as abl_depth,
        bench_ablation_state_direct_n as abl_n,
    )

    bench = _NullBenchmark()
    tables.test_tables_1_2_3(bench)
    fig01.test_fig01_pipeline_breakdown(bench, std_comparison)
    fig07.test_fig07_state_arcs_cdf(bench, std_comparison)
    fig09.test_fig09_decode_time(bench, std_comparison)
    fig10.test_fig10_speedup_vs_gpu(bench, std_comparison)
    fig11.test_fig11_energy_reduction(bench, std_comparison)
    fig12.test_fig12_power(bench, std_comparison)
    fig13.test_fig13_mem_traffic(bench, std_comparison)
    fig14.test_fig14_energy_vs_time(bench, std_comparison)
    area.test_intext_area_and_overheads(bench)
    pipeline.test_intext_full_pipeline(bench, std_comparison)
    batch_tp.test_batch_throughput(bench)
    graph_tp.test_graph_compile(bench)
    lattice_tp.test_lattice_throughput(bench)
    stream_tp.test_streaming_sessions(bench)
    tier_tp.test_serving_tier(bench)
    acoustic_tp.test_acoustic_scoring(bench)
    traceback_tp.test_traceback_memory(bench)

    if not options.fast:
        fig04.test_fig04_cache_miss_ratio(bench, std_workload)
        fig05.test_fig05_hash_entries(bench, swp_workload)
        ideal.test_intext_ideal_components(bench, swp_workload)
        prefetch.test_intext_prefetch(bench, swp_workload)
        abl_depth.test_ablation_prefetch_depth(bench, swp_workload)
        abl_latency.test_ablation_memory_latency(bench, swp_workload)
        abl_n.test_ablation_state_direct_n(bench, swp_workload)
        from repro.datasets import TaskConfig, generate_task
        eps_task = generate_task(
            TaskConfig(vocab_size=150, corpus_sentences=700,
                       num_utterances=3, seed=41)
        )
        abl_eps.test_ablation_epsilon_removal(bench, eps_task)
        beam_task = generate_task(
            TaskConfig(vocab_size=200, corpus_sentences=900,
                       num_utterances=4, score_separation=3.0,
                       score_noise=1.6, seed=51)
        )
        abl_beam.test_ablation_beam(bench, beam_task)

    print(f"\nAll benchmarks done in {time.time() - t0:.1f}s; reports in "
          f"{common.RESULTS_DIR}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
