"""Figure 10: speedup of each accelerator configuration over the GPU.

Paper: ASIC 0.88x, ASIC+State 0.90x, ASIC+Arc 1.64x, ASIC+State&Arc 1.70x.
The crossover -- the base design slightly behind the GPU, the prefetching
designs ahead -- is the headline performance claim.
"""

from benchmarks.common import format_table, report
from repro.common.ascii_plot import bar_chart

PAPER_SPEEDUP = {
    "CPU": 0.102,
    "GPU": 1.0,
    "ASIC": 0.88,
    "ASIC+State": 0.90,
    "ASIC+Arc": 1.64,
    "ASIC+State&Arc": 1.70,
}


def compute(comparison):
    speedups = comparison.speedup_vs("GPU")
    return [
        [name, PAPER_SPEEDUP[name], speedups[name]]
        for name in PAPER_SPEEDUP
    ]


def test_fig10_speedup_vs_gpu(std_comparison):
    rows = compute(std_comparison)
    text = format_table(
        "Figure 10 -- speedup over the GPU",
        ["platform", "paper (x)", "measured (x)"],
        rows,
    )
    chart = bar_chart([(r[0], round(r[2], 3)) for r in rows])
    report("fig10_speedup", text + "\n\n" + chart)

    measured = {r[0]: r[2] for r in rows}
    # Shape checks:
    # the CPU is ~10x slower than the GPU;
    assert measured["CPU"] < 0.2
    # the prefetching configurations beat the GPU;
    assert measured["ASIC+Arc"] > 1.0
    assert measured["ASIC+State&Arc"] > 1.0
    # and they beat the non-prefetching configurations decisively.
    assert measured["ASIC+Arc"] > 1.4 * measured["ASIC"]
    # The state technique alone is roughly performance-neutral.
    assert abs(measured["ASIC+State"] - measured["ASIC"]) < 0.35 * measured["ASIC"]
