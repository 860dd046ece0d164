#!/usr/bin/env python
"""Dictation on a battery: CPU vs GPU vs accelerator energy budget.

The paper's motivating scenario is continuous speech recognition on a
mobile power budget.  This example decodes a dictation-style workload
(large vocabulary, long utterances) on all six platforms and translates
the results into battery terms: how many hours of continuous dictation a
10 Wh phone battery would sustain on each platform.

Run:  python examples/dictation_energy.py
"""

from repro.datasets import SyntheticGraphConfig
from repro.explore import SweepRunner
from repro.system import make_memory_workload, run_platform_comparison

BATTERY_WH = 10.0
PLATFORMS = ("CPU", "GPU", "ASIC", "ASIC+State", "ASIC+Arc", "ASIC+State&Arc")


def main() -> None:
    print("Generating a dictation workload (60k-state graph, 40 s of speech) ...")
    workload = make_memory_workload(
        num_utterances=2,
        frames_per_utterance=20,
        beam=8.0,
        max_active=2000,
        seed=21,
        graph_config=SyntheticGraphConfig(
            num_states=60_000, num_phones=50, seed=21
        ),
    )

    comparison = run_platform_comparison(SweepRunner(workload))

    print(f"\n{'platform':16s} {'s per speech-s':>14s} {'power':>9s} "
          f"{'J per speech-s':>14s} {'dictation on 10 Wh':>20s}")
    battery_j = BATTERY_WH * 3600.0
    for name in PLATFORMS:
        r = comparison.runs[name]
        hours = battery_j / r.energy_per_speech_second / 3600.0
        print(
            f"{name:16s} {r.decode_time_per_speech_second:14.4f} "
            f"{r.avg_power_w:8.3f}W {r.energy_per_speech_second:14.5f} "
            f"{hours:17.1f} h"
        )

    gpu = comparison.energy_reduction_vs("GPU")
    cpu = comparison.energy_reduction_vs("CPU")
    print(
        f"\nASIC+State&Arc uses {gpu['ASIC+State&Arc']:.0f}x less energy than "
        f"the GPU and {cpu['ASIC+State&Arc']:.0f}x less than the CPU "
        f"(paper: 287x and 1185x)."
    )


if __name__ == "__main__":
    main()
