"""Tests for the reference Viterbi beam-search decoder.

Includes a hand-built two-word recognition network in the spirit of the
paper's Figure 2 ("low" vs "less"), with likelihoods verified against
Equation 1 by hand.
"""

import math

import numpy as np
import pytest

from repro.common.errors import ConfigError, DecodeError
from repro.acoustic.scorer import AcousticScores
from repro.decoder import DecoderConfig, ViterbiDecoder
from repro.wfst import CompiledWfst, EPSILON, Fst

# Phone ids.
L, OW, EH, S = 1, 2, 3, 4
# Word ids.
LOW, LESS = 1, 2


def figure2_graph():
    """A two-word WFST: low = [l, ow], less = [l, eh, s]."""
    fst = Fst()
    s0, s1, s2, s3, s4, s5 = fst.add_states(6)
    fst.set_start(s0)
    fst.add_arc(s0, L, LOW, math.log(0.6), s1)
    fst.add_arc(s1, OW, EPSILON, 0.0, s2)
    fst.set_final(s2, 0.0)
    fst.add_arc(s0, L, LESS, math.log(0.4), s3)
    fst.add_arc(s3, EH, EPSILON, 0.0, s4)
    fst.add_arc(s4, S, EPSILON, 0.0, s5)
    fst.set_final(s5, 0.0)
    return CompiledWfst.from_fst(fst)


def scores_for(rows):
    """Score matrix from rows of per-phone linear probabilities."""
    matrix = np.full((len(rows), 5), -1e9)
    for f, row in enumerate(rows):
        for phone, prob in row.items():
            matrix[f, phone] = math.log(prob)
    return AcousticScores(matrix)


class TestFigure2Example:
    def test_low_wins_two_frames(self):
        graph = figure2_graph()
        scores = scores_for([{L: 0.9, OW: 0.05, EH: 0.05, S: 0.05},
                             {L: 0.05, OW: 0.7, EH: 0.3, S: 0.05}])
        result = ViterbiDecoder(graph, DecoderConfig(beam=20.0)).decode(scores)
        assert result.words == (LOW,)
        # Equation 1 by hand: 1.0 * 0.6 * 0.9 * 1.0 * 0.7.
        assert result.log_likelihood == pytest.approx(
            math.log(1.0 * 0.6 * 0.9 * 0.7)
        )
        assert result.reached_final

    def test_less_wins_three_frames(self):
        graph = figure2_graph()
        scores = scores_for([
            {L: 0.9, OW: 0.05, EH: 0.05, S: 0.05},
            {L: 0.05, OW: 0.1, EH: 0.8, S: 0.05},
            {L: 0.05, OW: 0.1, EH: 0.05, S: 0.8},
        ])
        result = ViterbiDecoder(graph, DecoderConfig(beam=20.0)).decode(scores)
        assert result.words == (LESS,)
        assert result.log_likelihood == pytest.approx(
            math.log(0.4 * 0.9 * 0.8 * 0.8)
        )

    def test_beam_prunes_weak_branch(self):
        """With a tight beam the 'less' branch dies at frame 2."""
        graph = figure2_graph()
        scores = scores_for([{L: 0.9, OW: 0.05, EH: 0.05, S: 0.05},
                             {L: 0.05, OW: 0.9, EH: 0.01, S: 0.05}])
        # At frame 2 the branches differ by log(0.6/0.4) = 0.405, so a
        # 0.3-wide beam prunes the "less" token (cf. the paper's frame-2
        # pruning of tokens 1 and 4).
        tight = ViterbiDecoder(graph, DecoderConfig(beam=0.3)).decode(scores)
        assert tight.words == (LOW,)
        assert tight.stats.tokens_pruned > 0

    def test_best_predecessor_selected(self):
        """Multiple arcs into one state: the max survives (Equation 1)."""
        fst = Fst()
        s0, s1, s2 = fst.add_states(3)
        fst.set_start(s0)
        fst.add_arc(s0, L, LOW, math.log(0.9), s1)
        fst.add_arc(s0, L, LESS, math.log(0.1), s1)
        fst.add_arc(s1, OW, EPSILON, 0.0, s2)
        fst.set_final(s2)
        graph = CompiledWfst.from_fst(fst)
        scores = scores_for([{L: 0.5}, {OW: 0.5}])
        result = ViterbiDecoder(graph, DecoderConfig(beam=30.0)).decode(scores)
        assert result.words == (LOW,)


class TestEpsilonHandling:
    def test_epsilon_arcs_consume_no_frame(self):
        # 0 --a--> 1 --eps--> 2 --b--> 3 : decodes in exactly two frames.
        fst = Fst()
        s0, s1, s2, s3 = fst.add_states(4)
        fst.set_start(s0)
        fst.add_arc(s0, L, LOW, 0.0, s1)
        fst.add_arc(s1, EPSILON, EPSILON, math.log(0.5), s2)
        fst.add_arc(s2, OW, EPSILON, 0.0, s3)
        fst.set_final(s3)
        graph = CompiledWfst.from_fst(fst)
        scores = scores_for([{L: 0.8}, {OW: 0.8}])
        result = ViterbiDecoder(graph, DecoderConfig(beam=30.0)).decode(scores)
        assert result.words == (LOW,)
        assert result.log_likelihood == pytest.approx(math.log(0.8 * 0.5 * 0.8))
        assert result.stats.epsilon_arcs_processed >= 1

    def test_epsilon_chain_propagates_transitively(self):
        fst = Fst()
        states = fst.add_states(5)
        fst.set_start(states[0])
        fst.add_arc(states[0], L, 0, 0.0, states[1])
        fst.add_arc(states[1], EPSILON, 0, -0.1, states[2])
        fst.add_arc(states[2], EPSILON, 0, -0.1, states[3])
        fst.add_arc(states[3], OW, 0, 0.0, states[4])
        fst.set_final(states[4])
        graph = CompiledWfst.from_fst(fst)
        scores = scores_for([{L: 0.9}, {OW: 0.9}])
        result = ViterbiDecoder(graph, DecoderConfig(beam=30.0)).decode(scores)
        assert result.reached_final


class TestPruning:
    def test_max_active_caps_tokens(self, small_task):
        capped = ViterbiDecoder(
            small_task.graph, DecoderConfig(beam=14.0, max_active=20)
        )
        result = capped.decode(small_task.utterances[0].scores)
        assert max(result.stats.active_tokens_per_frame) <= 20

    def test_wider_beam_keeps_more_tokens(self, small_task):
        scores = small_task.utterances[0].scores
        narrow = ViterbiDecoder(small_task.graph, DecoderConfig(beam=4.0))
        wide = ViterbiDecoder(small_task.graph, DecoderConfig(beam=16.0))
        n = narrow.decode(scores).stats.mean_active_tokens
        w = wide.decode(scores).stats.mean_active_tokens
        assert w >= n

    def test_wider_beam_never_worse_likelihood(self, small_task):
        scores = small_task.utterances[0].scores
        narrow = ViterbiDecoder(small_task.graph, DecoderConfig(beam=6.0))
        wide = ViterbiDecoder(small_task.graph, DecoderConfig(beam=18.0))
        assert (
            wide.decode(scores).log_likelihood
            >= narrow.decode(scores).log_likelihood - 1e-9
        )


class TestErrors:
    def test_empty_scores_rejected(self, small_graph):
        decoder = ViterbiDecoder(small_graph)
        with pytest.raises(DecodeError):
            decoder.decode(AcousticScores(np.zeros((0, 5))))

    def test_invalid_beam_rejected(self):
        with pytest.raises(ConfigError):
            DecoderConfig(beam=0.0)
        with pytest.raises(ConfigError):
            DecoderConfig(beam=5.0, max_active=-1)


class TestStats:
    def test_counters_consistent(self, small_task):
        decoder = ViterbiDecoder(small_task.graph, DecoderConfig(beam=14.0))
        result = decoder.decode(small_task.utterances[0].scores)
        st = result.stats
        assert st.frames == small_task.utterances[0].num_frames
        assert st.states_expanded == st.degree_histogram.sum()
        assert st.arcs_processed > 0
        assert st.total_token_writes == st.tokens_created + st.tokens_updated
        assert len(st.active_tokens_per_frame) == st.frames
