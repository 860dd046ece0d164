"""Tests for the cycle-accurate accelerator simulator.

The central invariant: every accelerator configuration decodes to exactly
the same best path as the software reference decoder.
"""

import pytest

from repro.common.errors import ConfigError, DecodeError
from repro.accel import AcceleratorConfig, AcceleratorSimulator
from repro.decoder import DecoderConfig, ViterbiDecoder
from repro.system.experiment import accelerator_configs

VARIANTS = accelerator_configs(AcceleratorConfig())


class TestFunctionalEquivalence:
    @pytest.mark.parametrize(
        "name", ["ASIC", "ASIC+State", "ASIC+Arc", "ASIC+State&Arc"]
    )
    def test_words_match_reference(self, small_task, name):
        ref = ViterbiDecoder(small_task.graph, DecoderConfig(beam=14.0))
        sim = AcceleratorSimulator(small_task.graph, VARIANTS[name], beam=14.0)
        for utt in small_task.utterances:
            r = ref.decode(utt.scores)
            a = sim.decode(utt.scores)
            assert a.words == r.words
            assert a.log_likelihood == pytest.approx(r.log_likelihood)
            assert a.reached_final == r.reached_final

    def test_max_active_matches_reference(self, small_task):
        ref = ViterbiDecoder(
            small_task.graph, DecoderConfig(beam=14.0, max_active=25)
        )
        sim = AcceleratorSimulator(
            small_task.graph, AcceleratorConfig(), beam=14.0, max_active=25
        )
        for utt in small_task.utterances:
            assert (
                sim.decode(utt.scores).log_likelihood
                == pytest.approx(ref.decode(utt.scores).log_likelihood)
            )

    def test_search_counters_match_reference(self, small_task):
        ref = ViterbiDecoder(small_task.graph, DecoderConfig(beam=14.0))
        sim = AcceleratorSimulator(small_task.graph, beam=14.0)
        utt = small_task.utterances[0]
        r = ref.decode(utt.scores)
        a = sim.decode(utt.scores)
        assert a.search.arcs_processed == r.stats.arcs_processed
        assert a.search.states_expanded == r.stats.states_expanded
        assert a.search.tokens_created == r.stats.tokens_created


class TestTiming:
    def test_cycles_positive_and_frames_accounted(self, small_task):
        sim = AcceleratorSimulator(small_task.graph, beam=14.0)
        result = sim.decode(small_task.utterances[0].scores)
        assert result.stats.cycles > 0
        assert result.stats.frames == small_task.utterances[0].num_frames
        assert len(result.stats.frame_cycles) == result.stats.frames

    def test_cycles_at_least_one_per_arc(self, small_task):
        """The pipeline processes at most one arc per cycle."""
        sim = AcceleratorSimulator(small_task.graph, beam=14.0)
        result = sim.decode(small_task.utterances[0].scores)
        total_arcs = (
            result.stats.arcs_processed + result.stats.epsilon_arcs_processed
        )
        assert result.stats.cycles >= total_arcs

    def test_perfect_caches_never_slower(self, small_task):
        from dataclasses import replace

        base = AcceleratorConfig()
        perfect = replace(
            base,
            state_cache=replace(base.state_cache, perfect=True),
            arc_cache=replace(base.arc_cache, perfect=True),
            token_cache=replace(base.token_cache, perfect=True),
        )
        scores = small_task.utterances[0].scores
        real = AcceleratorSimulator(small_task.graph, base, beam=14.0)
        ideal = AcceleratorSimulator(small_task.graph, perfect, beam=14.0)
        assert ideal.decode(scores).stats.cycles <= real.decode(scores).stats.cycles

    def test_decode_seconds(self, small_task):
        sim = AcceleratorSimulator(small_task.graph, beam=14.0)
        result = sim.decode(small_task.utterances[0].scores)
        assert result.decode_seconds(600e6) == pytest.approx(
            result.stats.cycles / 600e6
        )


class TestMemoryBehaviour:
    def test_traffic_regions_present(self, small_task):
        sim = AcceleratorSimulator(small_task.graph, beam=14.0)
        result = sim.decode(small_task.utterances[0].scores)
        breakdown = result.stats.traffic.breakdown()
        assert breakdown.get("arcs", 0) > 0
        assert breakdown.get("states", 0) > 0
        assert breakdown.get("tokens", 0) > 0

    def test_state_direct_removes_state_traffic(self, small_task):
        """Section IV-B: most state fetches disappear."""
        scores = small_task.utterances[0].scores
        base = AcceleratorSimulator(small_task.graph, beam=14.0)
        direct = AcceleratorSimulator(
            small_task.graph, VARIANTS["ASIC+State"], beam=14.0
        )
        t_base = base.decode(scores).stats.traffic
        t_direct = direct.decode(scores).stats.traffic
        assert t_direct.region_bytes("states") < 0.25 * t_base.region_bytes(
            "states"
        )

    def test_state_direct_counts_direct_lookups(self, small_task):
        sim = AcceleratorSimulator(
            small_task.graph, VARIANTS["ASIC+State"], beam=14.0
        )
        result = sim.decode(small_task.utterances[0].scores)
        assert result.stats.states_direct > 0
        assert result.stats.states_direct > result.stats.states_fetched

    def test_prefetch_does_not_change_traffic(self, small_task):
        """Computed-address prefetching generates no useless fetches, so
        DRAM traffic is identical to the baseline (Section VI)."""
        scores = small_task.utterances[0].scores
        base = AcceleratorSimulator(small_task.graph, beam=14.0)
        pref = AcceleratorSimulator(
            small_task.graph, VARIANTS["ASIC+Arc"], beam=14.0
        )
        assert (
            base.decode(scores).stats.traffic.total_bytes()
            == pref.decode(scores).stats.traffic.total_bytes()
        )


class TestErrors:
    def test_empty_scores_rejected(self, small_graph):
        import numpy as np

        from repro.acoustic.scorer import AcousticScores

        sim = AcceleratorSimulator(small_graph, beam=10.0)
        with pytest.raises(DecodeError):
            sim.decode(AcousticScores(np.zeros((0, 4))))

    def test_invalid_beam_rejected(self, small_graph):
        with pytest.raises(ConfigError):
            AcceleratorSimulator(small_graph, beam=-1.0)

    def test_acoustic_buffer_capacity_enforced(self, small_task):
        """Both double-buffered frames of scores must fit on chip."""
        from dataclasses import replace

        tiny = replace(AcceleratorConfig(), acoustic_buffer_bytes=64)
        sim = AcceleratorSimulator(small_task.graph, tiny, beam=14.0)
        with pytest.raises(ConfigError):
            sim.decode(small_task.utterances[0].scores)

    def test_acoustic_buffer_fits_paper_senone_count(self):
        """Table I's 64 KB buffer holds two frames of 3.5k senone scores
        with room to spare -- the paper's own operating point."""
        config = AcceleratorConfig()
        assert 2 * 3500 * 4 <= config.acoustic_buffer_bytes
