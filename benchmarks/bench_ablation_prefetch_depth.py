"""Ablation: prefetch decoupling depth (Section V picks 64 entries).

The paper chooses 64 entries for the Arc FIFO / Request FIFO / Reorder
Buffer "in order to hide most of the memory latency".  This ablation sweeps
the depth through the shared runner and shows the saturation: with a
50-cycle DRAM and a 32-deep memory controller, depths beyond ~32-64 buy
nothing -- exactly why the paper's choice is where it is.
"""

from benchmarks.common import format_table, report, sweep_runner

DEPTHS = (4, 8, 16, 32, 64, 128, 256)


def run(workload):
    result = sweep_runner(workload).run(
        [
            {"prefetch_enabled": True, "prefetch_fifo_entries": depth}
            for depth in DEPTHS
        ]
    )
    base_cycles = result.points[0].cycles
    return [
        [depth, point.cycles, base_cycles / point.cycles]
        for depth, point in zip(DEPTHS, result.points)
    ]


def test_ablation_prefetch_depth(swp_workload):
    rows = run(swp_workload)
    text = format_table(
        "Ablation -- prefetch FIFO/ROB depth (paper: 64 entries)",
        ["entries", "cycles", "speedup vs 4"],
        rows,
    )
    report("ablation_prefetch_depth", text)

    speedups = {r[0]: r[2] for r in rows}
    # Deeper decoupling helps up to the memory-system limits...
    assert speedups[64] > speedups[4]
    # ...and saturates: 256 entries add <2% over the paper's 64.
    assert speedups[256] / speedups[64] < 1.02
