"""Figure 5: hash-table behaviour vs number of entries.

Paper: average cycles per hash request falls toward 1.0 as the table grows
from 8K to 64K entries, and overall speedup saturates by 32K entries --
which is why Table I picks 32K.  One recorded trace prices all seven
table sizes through the shared sweep runner.
"""

from benchmarks.common import format_table, report, sweep_runner

ENTRY_COUNTS = (1024, 2 * 1024, 4 * 1024, 8 * 1024, 16 * 1024, 32 * 1024, 64 * 1024)


def run_sweep(workload):
    result = sweep_runner(workload).run(
        [{"hash_table.num_entries": entries} for entries in ENTRY_COUNTS]
    )
    base_cycles = result.points[0].cycles
    return [
        [
            f"{entries // 1024}K",
            point.stats.hash.avg_cycles_per_request,
            base_cycles / point.cycles,
        ]
        for entries, point in zip(ENTRY_COUNTS, result.points)
    ]


def test_fig05_hash_entries(swp_workload):
    rows = run_sweep(swp_workload)
    text = format_table(
        "Figure 5 -- avg cycles per hash request and speedup vs entries "
        "(paper: ~1.0 cycles and saturation at 32K)",
        ["entries", "avg cycles/request", "speedup vs 1K"],
        rows,
    )
    report("fig05_hash_entries", text)

    avg = [r[1] for r in rows]
    speedup = [r[2] for r in rows]
    # Shape: collisions fall monotonically with table size...
    assert avg[0] >= avg[-1]
    # ...approach the 1-cycle ideal at 32K+ entries...
    assert avg[-2] < 1.3
    # ...and the speedup saturates: 64K adds almost nothing over 32K.
    assert abs(speedup[-1] - speedup[-2]) < 0.05
