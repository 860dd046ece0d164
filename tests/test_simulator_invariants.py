"""Cross-cutting invariants of the cycle-accurate simulator.

These tests pin down conservation and monotonicity properties that any
correct memory-system model must satisfy, independent of calibration.
"""

from dataclasses import replace

import pytest

from repro.accel import AcceleratorConfig, AcceleratorSimulator
from repro.system.experiment import accelerator_configs


@pytest.fixture(scope="module")
def utterance(small_task):
    return small_task.utterances[0].scores


class TestDeterminism:
    def test_identical_runs_identical_stats(self, small_task, utterance):
        a = AcceleratorSimulator(small_task.graph, beam=14.0).decode(utterance)
        b = AcceleratorSimulator(small_task.graph, beam=14.0).decode(utterance)
        assert a.stats.cycles == b.stats.cycles
        assert a.stats.traffic.breakdown() == b.stats.traffic.breakdown()
        assert a.words == b.words


class TestTrafficConservation:
    def test_read_traffic_equals_misses_times_line(self, small_task, utterance):
        """Every byte read from DRAM through a cache is a missed line."""
        result = AcceleratorSimulator(small_task.graph, beam=14.0).decode(
            utterance
        )
        s = result.stats
        line = 64
        assert s.traffic.read_bytes.get("arcs", 0) == s.arc_cache.misses * line
        assert (
            s.traffic.read_bytes.get("states", 0)
            == s.state_cache.misses * line
        )
        assert (
            s.traffic.read_bytes.get("tokens", 0)
            == s.token_cache.misses * line
        )

    def test_token_writes_equal_writebacks(self, small_task, utterance):
        result = AcceleratorSimulator(small_task.graph, beam=14.0).decode(
            utterance
        )
        s = result.stats
        assert (
            s.traffic.write_bytes.get("tokens", 0)
            == s.token_cache.writebacks * 64
        )

    def test_functional_counters_independent_of_config(
        self, small_task, utterance
    ):
        """Cache/hash sizing must never change what is decoded."""
        base = AcceleratorSimulator(small_task.graph, beam=14.0).decode(
            utterance
        )
        tiny_cfg = AcceleratorConfig().scaled(1 / 8)
        tiny = AcceleratorSimulator(
            small_task.graph, tiny_cfg, beam=14.0
        ).decode(utterance)
        assert tiny.words == base.words
        assert tiny.search.arcs_processed == base.search.arcs_processed
        assert tiny.stats.tokens_written == base.stats.tokens_written


class TestMonotonicity:
    def test_cycles_monotone_in_dram_latency(self, small_task, utterance):
        cycles = []
        for latency in (10, 50, 150):
            cfg = replace(AcceleratorConfig(), mem_latency_cycles=latency)
            sim = AcceleratorSimulator(small_task.graph, cfg, beam=14.0)
            cycles.append(sim.decode(utterance).stats.cycles)
        assert cycles[0] <= cycles[1] <= cycles[2]

    def test_smaller_caches_never_faster(self, small_task, utterance):
        big = AcceleratorSimulator(
            small_task.graph, AcceleratorConfig(), beam=14.0
        ).decode(utterance)
        small = AcceleratorSimulator(
            small_task.graph, AcceleratorConfig().scaled(1 / 16), beam=14.0
        ).decode(utterance)
        assert small.stats.cycles >= big.stats.cycles

    def test_wider_beam_more_work(self, small_task, utterance):
        narrow = AcceleratorSimulator(
            small_task.graph, beam=6.0
        ).decode(utterance)
        wide = AcceleratorSimulator(
            small_task.graph, beam=18.0
        ).decode(utterance)
        assert (
            wide.search.arcs_processed >= narrow.search.arcs_processed
        )

    def test_prefetch_never_slower(self, small_task, utterance):
        base = AcceleratorSimulator(
            small_task.graph, AcceleratorConfig(), beam=14.0
        ).decode(utterance)
        pref = AcceleratorSimulator(
            small_task.graph,
            accelerator_configs(AcceleratorConfig())["ASIC+Arc"],
            beam=14.0,
        ).decode(utterance)
        assert pref.stats.cycles <= base.stats.cycles


class TestCycleAccounting:
    def test_frame_cycles_sum_below_total(self, small_task, utterance):
        result = AcceleratorSimulator(small_task.graph, beam=14.0).decode(
            utterance
        )
        assert sum(result.stats.frame_cycles) <= result.stats.cycles

    def test_fp_ops_track_arcs(self, small_task, utterance):
        result = AcceleratorSimulator(small_task.graph, beam=14.0).decode(
            utterance
        )
        s = result.stats
        # Two adds per emitting arc, one per epsilon arc.
        assert s.fp_adds == (
            2 * s.arcs_processed + s.epsilon_arcs_processed
        )
        assert s.acoustic_lookups == s.arcs_processed

    def test_tokens_written_matches_search(self, small_task, utterance):
        result = AcceleratorSimulator(small_task.graph, beam=14.0).decode(
            utterance
        )
        assert result.stats.tokens_written == (
            result.search.tokens_created + result.search.tokens_updated
        )
