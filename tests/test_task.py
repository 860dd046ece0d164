"""End-to-end tests for generated ASR tasks."""

import pytest

from repro.common.errors import ConfigError
from repro.datasets import TaskConfig, generate_task
from repro.decoder import DecoderConfig, ViterbiDecoder, word_error_rate


class TestTaskStructure:
    def test_graph_is_nonempty(self, small_task):
        assert small_task.graph.num_states > small_task.config.vocab_size
        assert small_task.graph.num_arcs > small_task.graph.num_states

    def test_epsilon_fraction_positive_but_minor(self, small_task):
        frac = small_task.graph.epsilon_fraction()
        assert 0.0 < frac < 0.5

    def test_utterance_count(self, small_task):
        assert len(small_task.utterances) == small_task.config.num_utterances

    def test_scores_align_with_frames(self, small_task):
        for utt in small_task.utterances:
            assert utt.scores.num_frames == utt.alignment.total_frames
            assert utt.duration_seconds == pytest.approx(
                utt.num_frames * 0.01
            )

    def test_transcripts_resolve(self, small_task):
        words = small_task.transcript(small_task.utterances[0])
        assert all(isinstance(w, str) for w in words)

    def test_deterministic(self):
        cfg = TaskConfig(vocab_size=30, corpus_sentences=100, num_utterances=2, seed=5)
        a, b = generate_task(cfg), generate_task(cfg)
        assert (a.graph.states_packed == b.graph.states_packed).all()
        assert a.utterances[0].words == b.utterances[0].words

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            TaskConfig(vocab_size=1)
        with pytest.raises(ConfigError):
            TaskConfig(num_utterances=0)


class TestDecodability:
    def test_low_wer_on_generated_utterances(self, small_task):
        """The synthetic task must be accurately decodable -- this is the
        functional sanity check of the whole front-to-back pipeline."""
        decoder = ViterbiDecoder(small_task.graph, DecoderConfig(beam=14.0))
        total = 0.0
        for utt in small_task.utterances:
            result = decoder.decode(utt.scores)
            total += word_error_rate(utt.words, result.words)
        assert total / len(small_task.utterances) < 0.25

    def test_results_reach_final_states(self, small_task):
        decoder = ViterbiDecoder(small_task.graph, DecoderConfig(beam=14.0))
        result = decoder.decode(small_task.utterances[0].scores)
        assert result.reached_final
