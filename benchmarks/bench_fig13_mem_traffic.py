"""Figure 13: off-chip memory traffic breakdown and the Section IV-B saving.

Paper: states account for 23% of the base design's DRAM traffic; the
sorted-layout State Issuer removes most state fetches, cutting total
off-chip accesses by 20%.  (Prefetching does not appear here because
computed-address prefetches never add traffic.)
"""

from benchmarks.common import format_table, report

PAPER_STATE_SHARE_PCT = 23.0
PAPER_TOTAL_REDUCTION_PCT = 20.0

REGIONS = ("states", "arcs", "tokens", "overflow")


def compute(comparison):
    base = comparison.runs["ASIC"].sim_stats.traffic
    opt = comparison.runs["ASIC+State"].sim_stats.traffic

    rows = []
    for region in REGIONS:
        rows.append(
            [
                region,
                base.region_bytes(region) / 2**20,
                opt.region_bytes(region) / 2**20,
            ]
        )
    rows.append(
        ["TOTAL", base.total_bytes() / 2**20, opt.total_bytes() / 2**20]
    )
    state_share = 100.0 * base.region_bytes("states") / base.total_bytes()
    reduction = 100.0 * (1.0 - opt.total_bytes() / base.total_bytes())
    return rows, state_share, reduction


def test_fig13_mem_traffic(std_comparison):
    rows, state_share, reduction = compute(std_comparison)
    text = format_table(
        "Figure 13 -- off-chip traffic (MB) per data type: "
        f"state share {state_share:.1f}% (paper {PAPER_STATE_SHARE_PCT}%), "
        f"total reduction {reduction:.1f}% (paper {PAPER_TOTAL_REDUCTION_PCT}%)",
        ["region", "ASIC (MB)", "ASIC+State (MB)"],
        rows,
    )
    report("fig13_mem_traffic", text)

    by_region = {r[0]: (r[1], r[2]) for r in rows}
    # Shape: the optimisation removes most state traffic...
    assert by_region["states"][1] < 0.2 * by_region["states"][0]
    # ...leaves arcs and tokens essentially unchanged...
    assert abs(by_region["arcs"][1] - by_region["arcs"][0]) < 0.15 * by_region["arcs"][0]
    # ...and saves a double-digit share of total traffic.
    assert reduction > 10.0
