"""Figure 4: cache miss ratio vs capacity for the three caches.

Paper: even 1-2 MB caches show large miss ratios for States and Arcs
(sparse, low-locality accesses over a huge dataset), while the Token cache
is comfortable at 256-512 KB thanks to its sequential writes.  We sweep
the three cache capacities together, scaled around the Table I operating
point, and report per-cache miss ratios (one recorded trace, one replay
per capacity point -- the sweep runner's trace-once/replay-many split).
"""

from benchmarks.common import base_config, format_table, report, sweep_runner
from repro.common.ascii_plot import line_chart

#: Capacity scale factors relative to Table I (state 512K / arc 1M / token
#: 512K) -- spanning the paper's 256K..4M x-axis.
SCALES = (0.25, 0.5, 1.0, 2.0, 4.0)


def run_sweep(workload):
    cfg = base_config()
    points = [
        {
            "state_cache.size_bytes": int(cfg.state_cache.size_bytes * scale),
            "arc_cache.size_bytes": int(cfg.arc_cache.size_bytes * scale),
            "token_cache.size_bytes": int(cfg.token_cache.size_bytes * scale),
        }
        for scale in SCALES
    ]
    result = sweep_runner(workload).run(points)
    rows = []
    for scale, point in zip(SCALES, result.points):
        stats = point.stats
        rows.append(
            [
                f"{int(512 * scale)}K/{int(1024 * scale)}K/{int(512 * scale)}K",
                100.0 * stats.state_cache.miss_ratio,
                100.0 * stats.arc_cache.miss_ratio,
                100.0 * stats.token_cache.miss_ratio,
            ]
        )
    return rows


def test_fig04_cache_miss_ratio(std_workload):
    rows = run_sweep(std_workload)
    text = format_table(
        "Figure 4 -- miss ratio (%) vs cache capacity "
        "(paper at Table I sizes: State ~28%, Arc ~40%, Token ~10%)",
        ["state/arc/token size", "state miss %", "arc miss %", "token miss %"],
        rows,
    )
    chart = line_chart(
        list(SCALES),
        [
            ("state", [r[1] for r in rows]),
            ("arc", [r[2] for r in rows]),
            ("token", [r[3] for r in rows]),
        ],
    )
    report("fig04_cache_miss_ratio", text + "\n\n" + chart)

    state = [r[1] for r in rows]
    arc = [r[2] for r in rows]
    token = [r[3] for r in rows]
    # Shape: miss ratios decrease with capacity...
    assert state[0] > state[-1]
    assert arc[0] > arc[-1]
    # ...and the Token cache is the least capacity-hungry at small sizes.
    assert token[0] < state[0]
    assert token[0] < arc[0]
    # Significant misses persist at the operating point (index 1).
    assert arc[1] > 10.0
    assert state[1] > 10.0
