"""Ablation: DRAM latency sensitivity with and without prefetching.

The paper's Section IV argues the design is latency-bound (2.11x from
perfect caches) and that the prefetching architecture exists to tolerate
that latency.  This ablation sweeps the DRAM latency around the modelled
50 cycles as one 8-point grid (latency x prefetch) on the shared runner:
the base design degrades steeply while the prefetching design stays
nearly flat -- the latency-tolerance claim in one table.
"""

from benchmarks.common import format_table, report, sweep_runner
from repro.explore import ParameterGrid

LATENCIES = (25, 50, 100, 200)


def run(workload):
    grid = ParameterGrid(
        [
            ("mem_latency_cycles", LATENCIES),
            ("prefetch_enabled", (False, True)),
        ]
    )
    result = sweep_runner(workload).run(grid)
    cycles = {
        (p.overrides["mem_latency_cycles"], p.overrides["prefetch_enabled"]):
            p.cycles
        for p in result.points
    }
    return [
        [
            latency,
            cycles[(latency, False)],
            cycles[(latency, True)],
            cycles[(latency, False)] / cycles[(latency, True)],
        ]
        for latency in LATENCIES
    ]


def test_ablation_memory_latency(swp_workload):
    rows = run(swp_workload)
    text = format_table(
        "Ablation -- DRAM latency sensitivity (Table I models 50 cycles)",
        ["latency (cycles)", "base cycles", "prefetch cycles",
         "prefetch speedup"],
        rows,
    )
    report("ablation_memory_latency", text)

    base = [r[1] for r in rows]
    pref = [r[2] for r in rows]
    gain = [r[3] for r in rows]
    # The base design degrades with latency...
    assert base[-1] > 1.5 * base[0]
    # ...the prefetching design degrades far less...
    assert (pref[-1] / pref[0]) < (base[-1] / base[0])
    # ...so the prefetch advantage grows with latency.
    assert gain[-1] > gain[0]
