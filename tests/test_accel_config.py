"""Tests for the accelerator configuration (Table I fidelity)."""

import pytest

from repro.common.errors import ConfigError
from repro.accel import AcceleratorConfig
from repro.accel.config import CacheConfig, HashConfig


class TestTable1Defaults:
    """Every row of the paper's Table I."""

    def test_technology_and_frequency(self, table1_config):
        assert table1_config.technology_nm == 28
        assert table1_config.frequency_hz == pytest.approx(600e6)

    def test_state_cache(self, table1_config):
        c = table1_config.state_cache
        assert (c.size_bytes, c.assoc, c.line_bytes) == (512 * 1024, 4, 64)

    def test_arc_cache(self, table1_config):
        c = table1_config.arc_cache
        assert (c.size_bytes, c.assoc, c.line_bytes) == (1024 * 1024, 4, 64)

    def test_token_cache(self, table1_config):
        c = table1_config.token_cache
        assert (c.size_bytes, c.assoc, c.line_bytes) == (512 * 1024, 2, 64)

    def test_acoustic_buffer(self, table1_config):
        assert table1_config.acoustic_buffer_bytes == 64 * 1024

    def test_hash_table(self, table1_config):
        h = table1_config.hash_table
        assert h.num_entries == 32 * 1024
        assert h.size_bytes == 768 * 1024  # 24 bytes/entry

    def test_memory_controller(self, table1_config):
        assert table1_config.mem_max_inflight == 32
        assert table1_config.mem_latency_cycles == 50  # 83 ns at 600 MHz

    def test_issuer_inflight_limits(self, table1_config):
        assert table1_config.state_issuer_inflight == 8
        assert table1_config.arc_issuer_inflight == 8
        assert table1_config.token_issuer_inflight == 32
        assert table1_config.acoustic_issuer_inflight == 1

    def test_likelihood_evaluation_unit(self, table1_config):
        assert table1_config.fp_adders == 4
        assert table1_config.fp_comparators == 2

    def test_memory_latency_in_ns(self, table1_config):
        ns = table1_config.mem_latency_cycles / table1_config.frequency_hz * 1e9
        assert ns == pytest.approx(83.3, abs=0.5)


class TestTechniqueToggles:
    def test_base_has_no_techniques(self, table1_config):
        assert not table1_config.prefetch_enabled
        assert not table1_config.state_direct_enabled

    def test_with_prefetch(self, table1_config):
        c = table1_config.with_prefetch()
        assert c.prefetch_enabled and not c.state_direct_enabled
        assert c.arc_issue_window == 64

    def test_with_state_direct(self, table1_config):
        c = table1_config.with_state_direct()
        assert c.state_direct_enabled and not c.prefetch_enabled
        assert c.state_direct_max_arcs == 16  # paper, Section IV-B

    def test_with_both(self, table1_config):
        c = table1_config.with_both()
        assert c.prefetch_enabled and c.state_direct_enabled

    def test_base_arc_window_is_issuer_depth(self, table1_config):
        assert table1_config.arc_issue_window == 8


class TestScaling:
    def test_scaled_shrinks_caches(self, table1_config):
        s = table1_config.scaled(1 / 8)
        assert s.arc_cache.size_bytes == 128 * 1024
        assert s.state_cache.size_bytes == 64 * 1024

    def test_scaled_preserves_geometry(self, table1_config):
        s = table1_config.scaled(1 / 8)
        assert s.arc_cache.num_sets > 0  # divisibility maintained

    def test_invalid_scale_rejected(self, table1_config):
        with pytest.raises(ConfigError):
            table1_config.scaled(0)


class TestValidation:
    def test_bad_cache_rejected(self):
        with pytest.raises(ConfigError):
            CacheConfig(size_bytes=-1, assoc=1)

    def test_zero_cache_size_rejected(self):
        with pytest.raises(ConfigError):
            CacheConfig(size_bytes=0, assoc=1)

    def test_bad_hash_rejected(self):
        with pytest.raises(ConfigError):
            HashConfig(num_entries=0)

    def test_bad_hash_entry_bytes_rejected(self):
        with pytest.raises(ConfigError):
            HashConfig(entry_bytes=0)

    def test_bad_frequency_rejected(self):
        with pytest.raises(ConfigError):
            AcceleratorConfig(frequency_hz=0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"technology_nm": 0},
            {"acoustic_buffer_bytes": 0},
            {"acoustic_buffer_bytes": -1},
            {"mem_latency_cycles": 0},
            {"mem_max_inflight": 0},
            {"state_issuer_inflight": 0},
            {"arc_issuer_inflight": -1},
            {"token_issuer_inflight": 0},
            {"acoustic_issuer_inflight": 0},
            {"fp_adders": 0},
            {"fp_comparators": 0},
            {"prefetch_fifo_entries": 0},
            {"state_direct_max_arcs": 0},
            {"state_direct_max_arcs": -3},
            {"frame_overhead_cycles": -1},
            {"traceback_window_frames": -1},
        ],
    )
    def test_out_of_range_fields_rejected(self, kwargs):
        """Every knob raises a clear ConfigError at construction (no
        silently broken simulator), mirroring the StreamConfig fix."""
        with pytest.raises(ConfigError):
            AcceleratorConfig(**kwargs)

    def test_error_messages_name_the_problem(self):
        with pytest.raises(ConfigError, match="comparator"):
            AcceleratorConfig(state_direct_max_arcs=0)
        with pytest.raises(ConfigError, match="in-flight"):
            AcceleratorConfig(mem_max_inflight=0)
        with pytest.raises(ConfigError, match="Acoustic"):
            AcceleratorConfig(acoustic_buffer_bytes=-5)
