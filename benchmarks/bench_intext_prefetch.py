"""In-text results (Sections IV-A and VI): the prefetching architecture.

Paper: the decoupled access/execute prefetcher gives 1.87x over the base
design (1.94x together with the state technique) and reaches 97% of the
performance of a perfect Arc cache.  Because its addresses are computed,
it issues no useless prefetches -- DRAM traffic is unchanged.  The three
variants replay one recorded trace through the shared sweep runner.
"""

from benchmarks.common import format_table, report, sweep_runner

PAPER_PREFETCH_SPEEDUP = 1.87
PAPER_PCT_OF_PERFECT = 97.0


def run(workload):
    result = sweep_runner(workload).run(
        [{}, {"prefetch_enabled": True}, {"arc_cache.perfect": True}],
        labels=["baseline", "prefetch", "perfect Arc cache"],
    )
    return {
        p.label: (p.cycles, p.stats.traffic.total_bytes())
        for p in result.points
    }


def test_intext_prefetch(swp_workload):
    results = run(swp_workload)
    base_cycles, base_traffic = results["baseline"]
    pref_cycles, pref_traffic = results["prefetch"]
    perf_cycles, _ = results["perfect Arc cache"]

    speedup = base_cycles / pref_cycles
    perfect_speedup = base_cycles / perf_cycles
    pct_of_perfect = 100.0 * perfect_cycles_ratio(pref_cycles, perf_cycles)

    text = format_table(
        "In-text (Sec. IV-A / VI) -- prefetching architecture",
        ["metric", "paper", "measured"],
        [
            ["speedup over base", PAPER_PREFETCH_SPEEDUP, speedup],
            ["perfect-Arc-cache speedup", "(bound)", perfect_speedup],
            ["% of perfect Arc cache", PAPER_PCT_OF_PERFECT, pct_of_perfect],
            ["extra DRAM traffic (bytes)", 0, pref_traffic - base_traffic],
        ],
    )
    report("intext_prefetch", text)

    # Shape: a large speedup, close to the perfect-cache bound, for free
    # in bandwidth.
    assert speedup > 1.4
    assert pct_of_perfect > 80.0
    assert pref_traffic == base_traffic


def perfect_cycles_ratio(pref_cycles, perf_cycles):
    """Prefetch performance as a fraction of the perfect-cache bound."""
    return perf_cycles / pref_cycles
