#!/usr/bin/env python
"""Run every figure/table benchmark without pytest and print the reports.

The paper reproduction's runner: the same ``test_*`` functions pytest
collects from the ``bench_fig*`` / ``bench_intext_*`` / ``bench_tables_*``
/ ``bench_ablation_*`` files, with the paper-vs-measured tables on stdout
and under ``benchmarks/results/``:

    python benchmarks/run_all.py [--fast]

``--fast`` skips the expensive sweeps (Figures 4/5, ablations) and runs
only the benches that share the cached standard comparison.

Speed and memory of the software stack are not measured here:
``python3 benchmarks/e2e/run.py`` is the repo's benchmark (audio to words
through the serving path, oracle-checked, judged on interleaved pairs by
``benchmarks/e2e/compare.py``), its per-PR records are the
``BENCH_<n>.json`` files at the repo root, and ``tools/perf_report.py``
renders them.
"""

from __future__ import annotations

import argparse
import sys
import time

_REPO_ROOT = __file__.rsplit("/", 2)[0]
sys.path[:0] = [_REPO_ROOT, _REPO_ROOT + "/src"]

from benchmarks import common
from repro.system import run_platform_comparison


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--fast", action="store_true",
                        help="skip the slow parameter sweeps")
    options = parser.parse_args()

    t0 = time.time()
    print("Building the standard workload and running all six platforms ...")
    std_workload = common.standard_workload()
    std_comparison = run_platform_comparison(common.sweep_runner(std_workload))
    swp_workload = None if options.fast else common.sweep_workload()
    print(f"  done in {time.time() - t0:.1f}s")

    from benchmarks import (
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

    tables.test_tables_1_2_3()
    fig01.test_fig01_pipeline_breakdown(std_comparison)
    fig07.test_fig07_state_arcs_cdf(std_comparison)
    fig09.test_fig09_decode_time(std_comparison)
    fig10.test_fig10_speedup_vs_gpu(std_comparison)
    fig11.test_fig11_energy_reduction(std_comparison)
    fig12.test_fig12_power(std_comparison)
    fig13.test_fig13_mem_traffic(std_comparison)
    fig14.test_fig14_energy_vs_time(std_comparison)
    area.test_intext_area_and_overheads()
    pipeline.test_intext_full_pipeline(std_comparison)

    if not options.fast:
        fig04.test_fig04_cache_miss_ratio(std_workload)
        fig05.test_fig05_hash_entries(swp_workload)
        ideal.test_intext_ideal_components(swp_workload)
        prefetch.test_intext_prefetch(swp_workload)
        abl_depth.test_ablation_prefetch_depth(swp_workload)
        abl_latency.test_ablation_memory_latency(swp_workload)
        abl_n.test_ablation_state_direct_n(swp_workload)
        from repro.datasets import TaskConfig, generate_task
        eps_task = generate_task(
            TaskConfig(vocab_size=150, corpus_sentences=700,
                       num_utterances=3, seed=41)
        )
        abl_eps.test_ablation_epsilon_removal(eps_task)
        beam_task = generate_task(
            TaskConfig(vocab_size=200, corpus_sentences=900,
                       num_utterances=4, score_separation=3.0,
                       score_noise=1.6, seed=51)
        )
        abl_beam.test_ablation_beam(beam_task)

    print(f"\nAll benchmarks done in {time.time() - t0:.1f}s; reports in "
          f"{common.RESULTS_DIR}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
