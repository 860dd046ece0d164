"""Ablation: the N parameter of the bandwidth-saving technique.

Section IV-B picks N = 16 comparators: with the paper's out-degree
distribution this covers >95% of static states and >97% of dynamic
fetches.  This ablation sweeps N (``state_direct_max_arcs``) through the
shared runner (each N walks its own sorted layout, replaying the one
baseline trace relabelled) and
reports static coverage, dynamic direct-lookup rate, and the off-chip
traffic saving -- showing the diminishing returns past N = 16 that
justify the paper's choice.
"""

from benchmarks.common import format_table, report, sweep_runner

N_VALUES = (2, 4, 8, 16, 32)


def run(workload):
    runner = sweep_runner(workload)
    points = [{}]  # baseline traffic without the technique
    for n in N_VALUES:
        points.append({"state_direct_enabled": True, "state_direct_max_arcs": n})
    result = runner.run(points)
    base_traffic = result.points[0].stats.traffic.total_bytes()

    rows = []
    for n, point in zip(N_VALUES, result.points[1:]):
        stats = point.stats
        direct_rate = stats.states_direct / max(
            stats.states_direct + stats.states_fetched, 1
        )
        saving = 1.0 - stats.traffic.total_bytes() / base_traffic
        rows.append(
            [
                n,
                100.0 * workload.graph.sorted_layout(n).covered_state_fraction(),
                100.0 * direct_rate,
                100.0 * saving,
            ]
        )
    return rows


def test_ablation_state_direct_n(swp_workload):
    rows = run(swp_workload)
    text = format_table(
        "Ablation -- comparator count N for direct state lookup "
        "(paper: N = 16 covers >95% static / >97% dynamic)",
        ["N", "static coverage %", "dynamic direct %", "traffic saving %"],
        rows,
    )
    report("ablation_state_direct_n", text)

    by_n = {r[0]: r for r in rows}
    # Coverage grows with N and is already near-total at the paper's 16.
    assert by_n[16][1] > 90.0
    assert by_n[16][2] > 90.0
    # Diminishing returns: going 16 -> 32 adds little coverage.
    assert by_n[32][1] - by_n[16][1] < 5.0
    # The traffic saving is double-digit at N = 16.
    assert by_n[16][3] > 5.0
