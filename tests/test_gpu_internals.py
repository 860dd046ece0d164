"""Unit tests for GPU decoder internals and harness helpers."""

import numpy as np
import pytest

from repro.accel.stats import SimStats
from repro.decoder.backends.numpy_backend import csr_gather
from repro.decoder.result import SearchStats
from repro.gpu.decoder import GpuWorkload
from repro.system.experiment import accelerator_configs
from repro.accel import AcceleratorConfig


class TestBulkArcGather:
    """The kernel's CSR arc gather (the CUDA-gather primitive the GPU
    expansion kernel models, and the bulk gather of every vectorized
    engine)."""

    @pytest.fixture(scope="class")
    def flat(self, small_graph):
        return small_graph.flat()

    def test_empty_state_set(self):
        arcs, src = csr_gather(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        )
        assert len(arcs) == 0 and len(src) == 0

    def test_counts_match_state_records(self, flat, small_graph):
        states = np.arange(min(20, small_graph.num_states), dtype=np.int64)
        arcs, src = csr_gather(
            flat.first_arc[states], flat.num_non_eps[states]
        )
        expected = int(flat.num_non_eps[states].sum())
        assert len(arcs) == expected
        assert len(src) == expected

    def test_arcs_fall_in_state_ranges(self, flat, small_graph):
        states = np.arange(min(20, small_graph.num_states), dtype=np.int64)
        arcs, src = csr_gather(
            flat.first_arc[states], flat.num_non_eps[states]
        )
        for a, row in zip(arcs, src):
            first, n_non_eps, _ = small_graph.arc_range(int(states[row]))
            assert first <= a < first + n_non_eps


class TestStatsMerge:
    def test_search_stats_merge(self):
        a = SearchStats(frames=2, arcs_processed=10,
                        active_tokens_per_frame=[1, 2])
        a.count_degrees(np.array([1, 1, 4]))
        b = SearchStats(frames=3, arcs_processed=5,
                        active_tokens_per_frame=[3])
        b.count_degrees(np.array([0, 1]))
        merged = SearchStats.merge([a, b])
        assert merged.frames == 5
        assert merged.arcs_processed == 15
        assert merged.active_tokens_per_frame == [1, 2, 3]
        # Histograms of unequal length add; the inputs are left alone.
        assert merged.degree_histogram.tolist() == [1, 3, 0, 0, 1]
        assert a.degree_histogram.tolist() == [0, 2, 0, 0, 1]
        assert b.degree_histogram.tolist() == [1, 1]

    def test_sim_stats_merge(self):
        a = SimStats(cycles=100, frames=1)
        a.arc_cache.accesses = 10
        a.arc_cache.misses = 4
        a.traffic.add("arcs", 128, write=False)
        b = SimStats(cycles=50, frames=2)
        b.arc_cache.accesses = 6
        b.traffic.add("arcs", 64, write=True)
        merged = SimStats.merge([a, b])
        assert merged.cycles == 150
        assert merged.arc_cache.accesses == 16
        assert merged.arc_cache.miss_ratio == pytest.approx(0.25)
        assert merged.traffic.region_bytes("arcs") == 192

    def test_merge_empty(self):
        assert SimStats.merge([]).cycles == 0
        assert SearchStats.merge([]).frames == 0


class TestHarnessHelpers:
    def test_accelerator_configs_cover_paper(self):
        configs = accelerator_configs(AcceleratorConfig())
        assert set(configs) == {
            "ASIC", "ASIC+State", "ASIC+Arc", "ASIC+State&Arc",
        }
        assert not configs["ASIC"].prefetch_enabled
        assert configs["ASIC+Arc"].prefetch_enabled
        assert configs["ASIC+State"].state_direct_enabled
        both = configs["ASIC+State&Arc"]
        assert both.prefetch_enabled and both.state_direct_enabled

    def test_gpu_workload_defaults_zero(self):
        work = GpuWorkload()
        assert work.arcs_expanded == 0
        assert work.kernel_launches == 0


class TestEnergyBreakdown:
    def test_breakdown_covers_all_components(self, small_task):
        from repro.accel import AcceleratorSimulator
        from repro.energy import AcceleratorEnergyModel

        sim = AcceleratorSimulator(small_task.graph, beam=14.0)
        result = sim.decode(small_task.utterances[0].scores)
        model = AcceleratorEnergyModel()
        breakdown = model.energy(AcceleratorConfig(), result.stats)
        expected_keys = {
            "state_cache", "arc_cache", "token_cache", "hash",
            "acoustic_buffer", "fp_units", "dram",
        }
        assert set(breakdown.dynamic_j) == expected_keys
        assert breakdown.static_j > 0
        assert breakdown.total_j == pytest.approx(
            breakdown.static_j + sum(breakdown.dynamic_j.values())
        )
