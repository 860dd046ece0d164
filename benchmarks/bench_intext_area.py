"""In-text results (Section VI): die area and technique power overheads.

Paper: the base accelerator occupies 24.06 mm2 (16.53x smaller than the
GTX 980's 398 mm2); adding both techniques brings it to 24.09 mm2
(prefetch hardware +0.05%, State Issuer hardware +0.02%).  The prefetch
FIFOs/ROB dissipate 4.83 mW (1.07% of total power) and the comparator
bank 0.15 mW (0.03%).
"""

from benchmarks.common import format_table, report
from repro.accel import AcceleratorConfig
from repro.energy import AcceleratorAreaModel, AcceleratorEnergyModel
from repro.gpu import GTX980
from repro.system.experiment import accelerator_configs


def compute():
    area = AcceleratorAreaModel()
    energy = AcceleratorEnergyModel()
    variants = accelerator_configs(AcceleratorConfig())
    base = variants["ASIC"]
    pref = variants["ASIC+Arc"]
    state = variants["ASIC+State"]

    base_area = area.total_mm2(base)
    both_area = area.total_mm2(variants["ASIC+State&Arc"])
    pref_pct = 100.0 * (area.total_mm2(pref) - base_area) / base_area
    state_pct = 100.0 * (area.total_mm2(state) - base_area) / base_area
    pref_mw = 1e3 * (
        energy.static_power_w(pref) - energy.static_power_w(base)
    )
    state_mw = 1e3 * (
        energy.static_power_w(state) - energy.static_power_w(base)
    )
    return [
        ["base area (mm2)", 24.06, base_area],
        ["area with both techniques (mm2)", 24.09, both_area],
        ["GTX 980 area ratio (x)", 16.53, GTX980.die_area_mm2 / base_area],
        ["prefetch area overhead (%)", 0.05, pref_pct],
        ["state-issuer area overhead (%)", 0.02, state_pct],
        ["prefetch power (mW)", 4.83, pref_mw],
        ["state-issuer power (mW)", 0.15, state_mw],
    ]


def test_intext_area_and_overheads():
    rows = compute()
    text = format_table(
        "In-text (Sec. VI) -- area and technique overheads",
        ["metric", "paper", "measured"],
        rows,
    )
    report("intext_area", text)

    by_name = {r[0]: (r[1], r[2]) for r in rows}
    assert by_name["base area (mm2)"][1] == __import__("pytest").approx(
        24.06, rel=0.01
    )
    assert by_name["prefetch area overhead (%)"][1] < 0.2
    assert by_name["state-issuer area overhead (%)"][1] < 0.1
    assert by_name["prefetch power (mW)"][1] == __import__("pytest").approx(
        4.83, rel=0.05
    )
