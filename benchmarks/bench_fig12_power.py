"""Figure 12: average power dissipation of every platform.

Paper: CPU 32.2 W, GPU 76.4 W, accelerator between 389 mW and 462 mW
depending on configuration -- with the prefetching configurations at the
top of the range because they finish sooner (dynamic power concentrates).
"""

from benchmarks.common import PLATFORM_ORDER, format_table, report
from repro.common.ascii_plot import bar_chart

PAPER_POWER_W = {
    "CPU": 32.2,
    "GPU": 76.4,
    "ASIC": 0.389,
    "ASIC+State": 0.393,
    "ASIC+Arc": 0.455,
    "ASIC+State&Arc": 0.462,
}


def compute(comparison):
    rows = []
    for name in PLATFORM_ORDER:
        rows.append(
            [name, PAPER_POWER_W[name], comparison.runs[name].avg_power_w]
        )
    return rows


def test_fig12_power(std_comparison):
    rows = compute(std_comparison)
    text = format_table(
        "Figure 12 -- average power dissipation (W)",
        ["platform", "paper (W)", "measured (W)"],
        rows,
    )
    chart = bar_chart(
        [(r[0], round(r[2], 4)) for r in rows], log_scale=True, unit=" W"
    )
    report("fig12_power", text + "\n\n" + chart)

    measured = {r[0]: r[2] for r in rows}
    # Shape: the accelerator dissipates under a watt, two orders of
    # magnitude below the GPU.
    for name in ("ASIC", "ASIC+State", "ASIC+Arc", "ASIC+State&Arc"):
        assert measured[name] < 1.0
    assert measured["GPU"] / measured["ASIC"] > 50.0
    # The prefetching configurations dissipate more than the base design.
    assert measured["ASIC+Arc"] > measured["ASIC"]
