"""Tests for area / power / energy models against the paper's figures."""

import pytest

from repro.accel import AcceleratorConfig
from repro.accel.prefetch import PrefetchHardware
from repro.accel.stats import SimStats
from repro.energy import (
    AcceleratorAreaModel,
    AcceleratorEnergyModel,
    CpuTimingModel,
    INTEL_I7_6700K,
    SramMacroModel,
)
from repro.decoder.result import SearchStats
from repro.system.experiment import accelerator_configs

VARIANTS = accelerator_configs(AcceleratorConfig())


class TestSramModel:
    def test_area_scales_linearly(self):
        m = SramMacroModel()
        one = m.area_mm2(2**20) - m.area_fixed_mm2
        two = m.area_mm2(2 * 2**20) - m.area_fixed_mm2
        assert two == pytest.approx(2 * one)

    def test_energy_scales_sqrt(self):
        m = SramMacroModel()
        assert m.access_energy_pj(4 * 64 * 1024) == pytest.approx(
            2 * m.access_energy_pj(64 * 1024)
        )

    def test_zero_size(self):
        assert SramMacroModel().access_energy_pj(0) == 0.0


class TestAreaCalibration:
    def test_base_area_near_paper(self):
        """Paper: 24.06 mm2 for the base design."""
        area = AcceleratorAreaModel().total_mm2(AcceleratorConfig())
        assert area == pytest.approx(24.06, rel=0.02)

    def test_prefetch_area_increase_tiny(self):
        """Paper: prefetching adds 0.05% to total area."""
        model = AcceleratorAreaModel()
        base = model.total_mm2(AcceleratorConfig())
        pref = model.total_mm2(VARIANTS["ASIC+Arc"])
        assert 0.0 < (pref - base) / base < 0.005

    def test_state_direct_area_increase_tiny(self):
        """Paper: the State Issuer hardware adds 0.02%."""
        model = AcceleratorAreaModel()
        base = model.total_mm2(AcceleratorConfig())
        direct = model.total_mm2(VARIANTS["ASIC+State"])
        assert 0.0 < (direct - base) / base < 0.001

    def test_both_near_2409(self):
        """Paper: 24.09 mm2 with both techniques."""
        area = AcceleratorAreaModel().total_mm2(VARIANTS["ASIC+State&Arc"])
        assert area == pytest.approx(24.09, rel=0.02)

    def test_area_16x_smaller_than_gtx980(self):
        """Paper: 16.53x reduction vs the 398 mm2 GTX 980 die."""
        from repro.gpu import GTX980

        area = AcceleratorAreaModel().total_mm2(AcceleratorConfig())
        assert GTX980.die_area_mm2 / area == pytest.approx(16.5, rel=0.05)


class TestPrefetchHardware:
    def test_storage_is_kilobytes(self):
        hw = PrefetchHardware()
        assert hw.total_bytes < 8 * 1024  # negligible vs 3.7 MB of SRAM
        assert hw.request_fifo_bytes == 64 * 4
        assert hw.reorder_buffer_bytes == 64 * 64


class TestPowerModel:
    def _stats(self, cycles=600_000):
        stats = SimStats(cycles=cycles, frames=100)
        stats.arc_cache.accesses = 200_000
        stats.state_cache.accesses = 80_000
        stats.token_cache.accesses = 100_000
        stats.hash.total_cycles = 250_000
        stats.acoustic_lookups = 200_000
        stats.fp_adds = 400_000
        stats.fp_compares = 400_000
        stats.traffic.add("arcs", 2_000_000, write=False)
        return stats

    def test_static_power_dominates(self):
        model = AcceleratorEnergyModel()
        config = AcceleratorConfig()
        breakdown = model.energy(config, self._stats())
        assert breakdown.static_j > 0.3 * breakdown.total_j

    def test_average_power_in_paper_range(self):
        """Paper: 389 mW to 462 mW across configurations."""
        model = AcceleratorEnergyModel()
        power = model.avg_power_w(AcceleratorConfig(), self._stats())
        assert 0.25 < power < 0.75

    def test_prefetch_power_adder_matches_paper(self):
        """Paper: FIFOs + ROB dissipate 4.83 mW."""
        model = AcceleratorEnergyModel()
        base = model.static_power_w(AcceleratorConfig())
        pref = model.static_power_w(VARIANTS["ASIC+Arc"])
        assert pref - base == pytest.approx(4.83e-3, rel=0.05)

    def test_state_direct_power_adder_matches_paper(self):
        """Paper: comparators + offset table dissipate 0.15 mW."""
        model = AcceleratorEnergyModel()
        base = model.static_power_w(AcceleratorConfig())
        direct = model.static_power_w(VARIANTS["ASIC+State"])
        assert direct - base == pytest.approx(0.15e-3, rel=0.05)

    def test_energy_zero_time(self):
        model = AcceleratorEnergyModel()
        assert model.avg_power_w(AcceleratorConfig(), SimStats()) == 0.0


class TestCpuModel:
    def test_table2_spec(self):
        assert INTEL_I7_6700K.num_cores == 4
        assert INTEL_I7_6700K.frequency_hz == pytest.approx(4.2e9)
        assert INTEL_I7_6700K.technology_nm == 14
        assert INTEL_I7_6700K.avg_power_w == pytest.approx(32.2)

    def test_search_time_linear_in_arcs(self):
        model = CpuTimingModel()
        small = SearchStats(arcs_processed=1000)
        big = SearchStats(arcs_processed=100_000)
        assert model.search_seconds(big) > 50 * model.search_seconds(small)

    def test_energy_is_power_times_time(self):
        model = CpuTimingModel()
        stats = SearchStats(arcs_processed=50_000, frames=10)
        assert model.search_energy_j(stats) == pytest.approx(
            model.search_seconds(stats) * 32.2
        )

    def test_dnn_negative_flops_rejected(self):
        from repro.common.errors import ConfigError

        with pytest.raises(ConfigError):
            CpuTimingModel().dnn_seconds(-1.0)
