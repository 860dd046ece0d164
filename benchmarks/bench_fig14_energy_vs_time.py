"""Figure 14: energy vs decode time per second of speech (the scatter that
summarises the evaluation).

Paper anchors: the GPU is 9.8x faster than the CPU and uses 4.2x less
energy; the final accelerator configuration is 16.7x faster than the CPU
with 1185x less energy, and 1.7x faster than the GPU with 287x less
energy.
"""

from benchmarks.common import PLATFORM_ORDER, format_table, report

PAPER_ANCHORS = {
    ("GPU", "CPU"): (9.8, 4.2),
    ("ASIC+State&Arc", "CPU"): (16.7, 1185.0),
    ("ASIC+State&Arc", "GPU"): (1.7, 287.0),
}


def compute(comparison):
    runs = comparison.runs
    rows = [
        [
            name,
            runs[name].decode_time_per_speech_second,
            runs[name].energy_per_speech_second,
        ]
        for name in PLATFORM_ORDER
    ]
    anchors = []
    for (a, b), (paper_speed, paper_energy) in PAPER_ANCHORS.items():
        speed = comparison.speedup_vs(b)[a]
        energy = comparison.energy_reduction_vs(b)[a]
        anchors.append([f"{a} vs {b}", paper_speed, speed, paper_energy, energy])
    return rows, anchors


def test_fig14_energy_vs_time(std_comparison):
    rows, anchors = compute(std_comparison)
    scatter = format_table(
        "Figure 14 -- energy vs decode time per second of speech",
        ["platform", "time (s/s)", "energy (J/s)"],
        rows,
    )
    anchor_table = format_table(
        "Figure 14 anchors -- pairwise speedup / energy reduction",
        ["pair", "paper speedup", "measured", "paper energy red.", "measured"],
        anchors,
    )
    report("fig14_energy_vs_time", scatter + "\n\n" + anchor_table)

    data = {r[0]: (r[1], r[2]) for r in rows}
    # Shape: the CPU sits in the worst corner (slowest, most energy)...
    assert all(data["CPU"][0] >= data[p][0] for p in data)
    assert all(data["CPU"][1] >= data[p][1] for p in data)
    # ...and the full accelerator dominates every platform on both axes.
    best = data["ASIC+State&Arc"]
    assert all(best[1] <= data[p][1] for p in data)
