"""In-text results (Sections IV and IV-A): idealised-component speedups.

Paper: perfect caches speed the baseline up by 2.11x, while a perfect
(collision-free) hash adds only 2.8% -- which is why the memory system,
not the hash, is where the optimisation effort goes.  Per cache: a perfect
Arc cache is worth 1.95x, State 1.09x, Token 1.02x.  All six variants
replay one recorded trace through the shared sweep runner.
"""

from benchmarks.common import format_table, report, sweep_runner

PAPER = {
    "perfect caches": 2.11,
    "perfect hash": 1.028,
    "perfect Arc cache": 1.95,
    "perfect State cache": 1.09,
    "perfect Token cache": 1.02,
}

VARIANTS = {
    "baseline": {},
    "perfect caches": {
        "state_cache.perfect": True,
        "arc_cache.perfect": True,
        "token_cache.perfect": True,
    },
    "perfect hash": {"hash_table.perfect": True},
    "perfect Arc cache": {"arc_cache.perfect": True},
    "perfect State cache": {"state_cache.perfect": True},
    "perfect Token cache": {"token_cache.perfect": True},
}


def run_all(workload):
    result = sweep_runner(workload).run(
        list(VARIANTS.values()), labels=list(VARIANTS)
    )
    base = result.point("baseline").cycles
    return [
        [name, PAPER[name], base / result.point(name).cycles]
        for name in PAPER
    ]


def test_intext_ideal_components(swp_workload):
    rows = run_all(swp_workload)
    text = format_table(
        "In-text (Sec. IV) -- speedup from idealised components",
        ["idealisation", "paper (x)", "measured (x)"],
        rows,
    )
    report("intext_ideal_components", text)

    measured = {r[0]: r[2] for r in rows}
    # Shape: caches matter a lot, the hash barely.
    assert measured["perfect caches"] > 1.5
    assert measured["perfect hash"] < 1.15
    # The Arc cache is by far the most important individual cache.
    assert measured["perfect Arc cache"] > measured["perfect State cache"]
    assert measured["perfect Arc cache"] > measured["perfect Token cache"]
