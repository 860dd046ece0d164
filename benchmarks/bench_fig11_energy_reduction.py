"""Figure 11: energy reduction vs the GPU.

Paper: the base ASIC uses 171x less energy than the GPU; with both
memory-system techniques the reduction grows to 287x (the abstract's
headline number).
"""

from benchmarks.common import format_table, report

PAPER_REDUCTION = {
    "ASIC": 171.0,
    "ASIC+State": 179.0,
    "ASIC+Arc": 273.0,
    "ASIC+State&Arc": 287.0,
}


def compute(comparison):
    reductions = comparison.energy_reduction_vs("GPU")
    return [
        [name, PAPER_REDUCTION[name], reductions[name]]
        for name in PAPER_REDUCTION
    ]


def test_fig11_energy_reduction(std_comparison):
    rows = compute(std_comparison)
    text = format_table(
        "Figure 11 -- energy reduction vs the GPU",
        ["configuration", "paper (x)", "measured (x)"],
        rows,
    )
    report("fig11_energy_reduction", text)

    measured = {r[0]: r[2] for r in rows}
    # Shape: two orders of magnitude for every configuration...
    assert all(v > 50.0 for v in measured.values())
    # ...with the combined techniques the most efficient.
    assert measured["ASIC+State&Arc"] > measured["ASIC"]
