"""Tests for the vectorized batch decoding engine.

The contract under test: :class:`BatchDecoder` produces the same word
sequences as :class:`ViterbiDecoder` -- across beams, ``max_active``
caps, epsilon-heavy graphs and ragged multi-utterance batches -- with
bit-identical path likelihoods (the vectorized arithmetic associates
per-path additions in the same order as the scalar decoder).
"""

import math

import numpy as np
import pytest

from repro.common.errors import DecodeError
from repro.acoustic.scorer import AcousticScores
from repro.decoder import BatchDecoder, DecoderConfig, ViterbiDecoder
from repro.wfst import CompiledWfst, EPSILON, Fst

L, OW, EH, S = 1, 2, 3, 4
LOW, LESS, MORE = 1, 2, 3


def assert_equivalent(graph, config, scores_list):
    """Both engines agree on every utterance; returns both result lists."""
    reference = ViterbiDecoder(graph, config)
    batch = BatchDecoder(graph, config)
    ref_results = [reference.decode(s) for s in scores_list]
    batch_results = batch.decode_batch(scores_list)
    for ref, got in zip(ref_results, batch_results):
        assert got.words == ref.words
        assert got.log_likelihood == pytest.approx(
            ref.log_likelihood, abs=1e-12
        )
        assert got.reached_final == ref.reached_final
    return ref_results, batch_results


def scores_for(rows, num_phones=4):
    matrix = np.full((len(rows), num_phones + 1), -1e9)
    for f, row in enumerate(rows):
        for phone, prob in row.items():
            matrix[f, phone] = math.log(prob)
    return AcousticScores(matrix)


def epsilon_heavy_graph():
    """Competing epsilon paths, chains and word-emitting epsilons.

    ``s1`` reaches ``s3`` through two epsilon routes of different length
    and weight (the merge must pick the likelier one) and the longer route
    emits a word on an epsilon arc; a depth-3 epsilon chain then leads to
    the final state.
    """
    fst = Fst()
    s0, s1, s2, s3, s4, s5, s6, s7 = fst.add_states(8)
    fst.set_start(s0)
    fst.add_arc(s0, L, LOW, 0.0, s1)
    # Route A: one hop, cheap.
    fst.add_arc(s1, EPSILON, EPSILON, math.log(0.3), s3)
    # Route B: two hops through s2, jointly likelier, emits MORE.
    fst.add_arc(s1, EPSILON, MORE, math.log(0.8), s2)
    fst.add_arc(s2, EPSILON, EPSILON, math.log(0.9), s3)
    fst.add_arc(s3, OW, LESS, 0.0, s4)
    # Depth-3 epsilon chain to the final state.
    fst.add_arc(s4, EPSILON, EPSILON, math.log(0.9), s5)
    fst.add_arc(s5, EPSILON, EPSILON, math.log(0.9), s6)
    fst.add_arc(s6, EPSILON, EPSILON, math.log(0.9), s7)
    fst.set_final(s7, 0.0)
    return CompiledWfst.from_fst(fst)


class TestHandBuiltGraphs:
    def test_epsilon_merge_picks_likelier_route(self):
        graph = epsilon_heavy_graph()
        scores = scores_for([{L: 0.9}, {OW: 0.9}])
        result = BatchDecoder(graph, DecoderConfig(beam=30.0)).decode(scores)
        # Route B (0.8 * 0.9 = 0.72) beats route A (0.3) and emits MORE.
        assert result.words == (LOW, MORE, LESS)
        assert result.log_likelihood == pytest.approx(
            math.log(0.9 * 0.8 * 0.9 * 0.9 * 0.9 * 0.9 * 0.9)
        )
        assert result.reached_final

    def test_epsilon_heavy_equivalence(self):
        graph = epsilon_heavy_graph()
        scores = scores_for([{L: 0.9, OW: 0.2}, {OW: 0.7, L: 0.1}])
        assert_equivalent(graph, DecoderConfig(beam=30.0), [scores])

    def test_multiple_arcs_one_destination(self):
        """The segment-max merge keeps the best incoming arc."""
        fst = Fst()
        s0, s1, s2 = fst.add_states(3)
        fst.set_start(s0)
        fst.add_arc(s0, L, LOW, math.log(0.9), s1)
        fst.add_arc(s0, L, LESS, math.log(0.1), s1)
        fst.add_arc(s1, OW, EPSILON, 0.0, s2)
        fst.set_final(s2)
        graph = CompiledWfst.from_fst(fst)
        scores = scores_for([{L: 0.5}, {OW: 0.5}])
        result = BatchDecoder(graph, DecoderConfig(beam=30.0)).decode(scores)
        assert result.words == (LOW,)

    def test_no_final_token_fallback(self):
        """Dead-end graphs fall back to the best live token, like scalar."""
        fst = Fst()
        s0, s1, s2 = fst.add_states(3)
        fst.set_start(s0)
        fst.add_arc(s0, L, LOW, 0.0, s1)
        fst.add_arc(s1, OW, LESS, 0.0, s2)
        fst.set_final(s2)
        graph = CompiledWfst.from_fst(fst)
        # One frame only: the final state is unreachable.
        scores = scores_for([{L: 0.8}])
        assert_equivalent(graph, DecoderConfig(beam=30.0), [scores])
        result = BatchDecoder(graph, DecoderConfig(beam=30.0)).decode(scores)
        assert not result.reached_final

    def test_multi_round_epsilon_improvement(self):
        """An improvement must propagate through several closure rounds.

        The direct epsilon arc from ``s1`` to each chain state is beaten by
        the chain route discovered on a later round, so the closure's
        "improved last round" frontier must be re-relaxed repeatedly; both
        engines agree round for round.
        """
        cheap, step = math.log(0.1), math.log(0.95)
        fst = Fst()
        s0, s1, c1, c2, c3, s5 = fst.add_states(6)
        fst.set_start(s0)
        fst.add_arc(s0, L, LOW, 0.0, s1)
        # Direct (weak) epsilon shortcuts to every chain state...
        fst.add_arc(s1, EPSILON, EPSILON, 3 * cheap, c3)
        fst.add_arc(s1, EPSILON, EPSILON, 2 * cheap, c2)
        fst.add_arc(s1, EPSILON, EPSILON, cheap, c1)
        # ...all beaten by the chain, one extra round at a time.
        fst.add_arc(c1, EPSILON, MORE, step, c2)
        fst.add_arc(c2, EPSILON, EPSILON, step, c3)
        fst.add_arc(c3, OW, LESS, 0.0, s5)
        fst.set_final(s5, 0.0)
        graph = CompiledWfst.from_fst(fst)
        scores = scores_for([{L: 0.9}, {OW: 0.9}])
        config = DecoderConfig(beam=50.0)
        assert_equivalent(graph, config, [scores])
        result = BatchDecoder(graph, config).decode(scores)
        # The winning path runs through the whole chain (emitting MORE).
        assert result.words == (LOW, MORE, LESS)
        assert result.log_likelihood == pytest.approx(
            math.log(0.9) + cheap + 2 * step + math.log(0.9)
        )

    def test_frontier_empties_on_epsilon_only_survivors(self):
        """Survivors with only epsilon arcs empty the next frontier (the
        empty-gather path); both engines then fail the same way."""
        fst = Fst()
        s0, s1, s2 = fst.add_states(3)
        fst.set_start(s0)
        fst.add_arc(s0, L, LOW, 0.0, s1)
        fst.add_arc(s1, EPSILON, EPSILON, math.log(0.9), s2)
        fst.set_final(s2, 0.0)
        graph = CompiledWfst.from_fst(fst)
        # Frame 1 finds only epsilon arcs out of {s1, s2}: no token can
        # consume it.
        scores = scores_for([{L: 0.8}, {L: 0.8}])
        config = DecoderConfig(beam=30.0)
        with pytest.raises(DecodeError):
            ViterbiDecoder(graph, config).decode(scores)
        with pytest.raises(DecodeError):
            BatchDecoder(graph, config).decode(scores)
        # One frame decodes fine (and reaches the final state via epsilon).
        one = scores_for([{L: 0.8}])
        assert_equivalent(graph, config, [one])
        # A streaming session hits the same wall mid-stream: the frame
        # that finds only epsilon arcs empties the frontier silently, and
        # the next push raises.
        session = BatchDecoder(graph, config).open_session()
        session.push_frame(one.matrix[0])
        assert session.alive
        session.push_frame(one.matrix[0])
        assert not session.alive
        with pytest.raises(DecodeError):
            session.push_frame(one.matrix[0])

    def test_mixed_epsilon_only_and_productive_survivors(self):
        """A frontier mixing zero-non-epsilon states with productive ones
        exercises the partially-empty gather; engines stay equivalent."""
        fst = Fst()
        s0, s1, s2, s3 = fst.add_states(4)
        fst.set_start(s0)
        fst.add_arc(s0, L, LOW, math.log(0.5), s1)   # s1: only eps out
        fst.add_arc(s0, L, LESS, math.log(0.5), s3)  # s3: productive
        fst.add_arc(s1, EPSILON, EPSILON, math.log(0.9), s2)
        fst.add_arc(s3, OW, MORE, 0.0, s2)
        fst.set_final(s2, 0.0)
        graph = CompiledWfst.from_fst(fst)
        scores = scores_for([{L: 0.8}, {OW: 0.8}])
        assert_equivalent(graph, DecoderConfig(beam=30.0), [scores])


class TestTaskEquivalence:
    @pytest.mark.parametrize("beam", [4.0, 8.0, 14.0, 20.0])
    def test_beam_sweep(self, small_task, beam):
        assert_equivalent(
            small_task.graph,
            DecoderConfig(beam=beam),
            [u.scores for u in small_task.utterances],
        )

    @pytest.mark.parametrize("max_active", [10, 25, 100])
    def test_max_active_sweep(self, small_task, max_active):
        assert_equivalent(
            small_task.graph,
            DecoderConfig(beam=14.0, max_active=max_active),
            [u.scores for u in small_task.utterances],
        )

    def test_epsilon_rich_task(self):
        """High silence probability densifies the epsilon subgraph."""
        from repro.datasets import TaskConfig, generate_task

        task = generate_task(
            TaskConfig(vocab_size=40, corpus_sentences=200,
                       num_utterances=3, silence_prob=0.6, seed=19)
        )
        assert task.graph.epsilon_fraction() > 0.05
        assert_equivalent(
            task.graph,
            DecoderConfig(beam=12.0),
            [u.scores for u in task.utterances],
        )

    def test_core_counters_match_reference(self, small_task):
        """Same frontier per frame => same pruning/expansion counters."""
        config = DecoderConfig(beam=12.0, max_active=50)
        ref_results, batch_results = assert_equivalent(
            small_task.graph,
            config,
            [u.scores for u in small_task.utterances],
        )
        for ref, got in zip(ref_results, batch_results):
            assert got.stats.frames == ref.stats.frames
            assert (
                got.stats.active_tokens_per_frame
                == ref.stats.active_tokens_per_frame
            )
            assert got.stats.states_expanded == ref.stats.states_expanded
            assert got.stats.arcs_processed == ref.stats.arcs_processed
            assert got.stats.tokens_pruned == ref.stats.tokens_pruned
            assert np.array_equal(
                got.stats.degree_histogram, ref.stats.degree_histogram
            )
            assert got.stats.degree_histogram.sum() == got.stats.states_expanded


class TestRaggedBatches:
    def test_ragged_batch_matches_singles(self, small_task):
        """Mixed-length batch == decoding each utterance alone."""
        base = small_task.utterances[0].scores
        ragged = [
            AcousticScores(base.matrix[:k])
            for k in (3, base.num_frames, 7, 1)
        ] + [u.scores for u in small_task.utterances]
        decoder = BatchDecoder(small_task.graph, DecoderConfig(beam=14.0))
        together = decoder.decode_batch(ragged)
        alone = [decoder.decode(s) for s in ragged]
        for one, many in zip(alone, together):
            assert many.words == one.words
            assert many.log_likelihood == one.log_likelihood
        assert_equivalent(
            small_task.graph, DecoderConfig(beam=14.0), ragged
        )

    def test_empty_batch(self, small_graph):
        assert BatchDecoder(small_graph).decode_batch([]) == []

    def test_empty_scores_rejected(self, small_graph):
        decoder = BatchDecoder(small_graph)
        with pytest.raises(DecodeError):
            decoder.decode(AcousticScores(np.zeros((0, 5))))
        with pytest.raises(DecodeError):
            decoder.decode_batch(
                [AcousticScores(np.full((2, 5), -1.0)),
                 AcousticScores(np.zeros((0, 5)))]
            )

    def test_decoder_reusable_across_batches(self, small_task):
        """One decoder instance serves many decode_batch calls."""
        decoder = BatchDecoder(small_task.graph, DecoderConfig(beam=14.0))
        scores = [u.scores for u in small_task.utterances]
        first = decoder.decode_batch(scores)
        second = decoder.decode_batch(scores)
        for a, b in zip(first, second):
            assert a.words == b.words
            assert a.log_likelihood == b.log_likelihood
