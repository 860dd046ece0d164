#!/usr/bin/env python
"""Architecture design-space exploration with the shared sweep runner.

Sweeps the knobs an architect would turn -- Arc-cache capacity, prefetch
FIFO depth, and hash-table size -- on a large-vocabulary workload, and
reports cycles per arc, miss ratios, power and energy for each point.
This reproduces the style of analysis behind the paper's Figures 4 and 5
and shows how the two Section IV techniques move the design across the
performance/power space.

The whole exploration runs the functional beam search exactly *once*:
every configuration is priced by replaying the recorded trace
(`repro.explore.SweepRunner`; sorted-layout points replay it
relabelled), so adding sweep points costs milliseconds, not full
simulations.

Run:  python examples/design_space.py
"""

from repro.datasets import SyntheticGraphConfig
from repro.explore import SweepRunner
from repro.system import make_memory_workload


def show(result):
    for point in result.points:
        stats = point.stats
        arcs = stats.arcs_processed + stats.epsilon_arcs_processed
        print(
            f"  {point.label:34s} {stats.cycles / arcs:6.2f} cyc/arc  "
            f"arc-miss {100 * stats.arc_cache.miss_ratio:5.1f}%  "
            f"hash {stats.hash.avg_cycles_per_request:5.2f} cyc/req  "
            f"{point.avg_power_w * 1e3:6.0f} mW  "
            f"{point.energy_j * 1e3:7.3f} mJ"
        )


def main() -> None:
    print("Generating a 40k-state large-vocabulary workload ...")
    workload = make_memory_workload(
        num_utterances=1,
        frames_per_utterance=15,
        beam=8.0,
        max_active=1500,
        seed=11,
        graph_config=SyntheticGraphConfig(
            num_states=40_000, num_phones=50, seed=11
        ),
    )
    runner = SweepRunner(workload)

    print("\nArc cache capacity (base design):")
    show(runner.run(
        [{"arc_cache.size_bytes": kb * 1024} for kb in (256, 512, 1024, 2048)],
        labels=[f"arc cache {kb} KB" for kb in (256, 512, 1024, 2048)],
    ))

    print("\nPrefetch FIFO depth (ASIC+Arc):")
    depths = (8, 16, 32, 64, 128)
    show(runner.run(
        [
            {"prefetch_enabled": True, "prefetch_fifo_entries": d}
            for d in depths
        ],
        labels=[f"Arc FIFO {d} entries" for d in depths],
    ))

    print("\nHash table entries (base design):")
    entry_counts = (4096, 8192, 16384, 32768)
    show(runner.run(
        [{"hash_table.num_entries": e} for e in entry_counts],
        labels=[f"hash {e // 1024}K entries" for e in entry_counts],
    ))

    print("\nThe paper's four configurations:")
    show(runner.run(
        [
            {},
            {"state_direct_enabled": True},
            {"prefetch_enabled": True},
            {"state_direct_enabled": True, "prefetch_enabled": True},
        ],
        labels=["ASIC (base)", "ASIC+State", "ASIC+Arc", "ASIC+State&Arc"],
    ))


if __name__ == "__main__":
    main()
