"""Tests for lattice decoding and N-best extraction."""

import pytest

from repro.common.errors import ConfigError
from repro.decoder import DecoderConfig, ViterbiDecoder, word_error_rate
from repro.decoder.lattice import LatticeDecoder


@pytest.fixture(scope="module")
def lattice_task():
    from repro.datasets import TaskConfig, generate_task

    # Short utterances keep the lattice (and Yen's algorithm) small.
    return generate_task(
        TaskConfig(vocab_size=40, corpus_sentences=200, num_utterances=2,
                   utterance_words=2, mean_frames_per_phone=4, seed=17)
    )


@pytest.fixture(scope="module")
def decoded(lattice_task):
    config = DecoderConfig(beam=12.0)
    lattice_decoder = LatticeDecoder(
        lattice_task.graph, config, lattice_beam=6.0
    )
    viterbi = ViterbiDecoder(lattice_task.graph, config)
    utt = lattice_task.utterances[0]
    return (
        lattice_decoder.decode(utt.scores),
        viterbi.decode(utt.scores),
        utt,
    )


class TestLattice:
    def test_best_path_matches_viterbi(self, decoded):
        lattice, viterbi_result, _utt = decoded
        best = lattice.best_path()
        assert best.words == viterbi_result.words
        assert best.log_likelihood == pytest.approx(
            viterbi_result.log_likelihood
        )

    def test_nbest_scores_non_increasing(self, decoded):
        lattice, _vit, _utt = decoded
        entries = lattice.nbest(5)
        assert len(entries) >= 1
        scores = [e.log_likelihood for e in entries]
        assert scores == sorted(scores, reverse=True)

    def test_nbest_hypotheses_distinct(self, decoded):
        lattice, _vit, _utt = decoded
        entries = lattice.nbest(5)
        words = [e.words for e in entries]
        assert len(set(words)) == len(words)

    @pytest.mark.slow
    def test_oracle_wer_at_most_onebest(self, decoded):
        lattice, viterbi_result, utt = decoded
        onebest = word_error_rate(utt.words, viterbi_result.words)
        assert lattice.oracle_wer(utt.words, k=10) <= onebest + 1e-9

    def test_lattice_has_nodes_and_edges(self, decoded):
        lattice, _vit, _utt = decoded
        assert lattice.num_nodes > 0
        assert lattice.num_edges > lattice.num_nodes  # alternatives exist

    def test_wider_lattice_beam_keeps_more(self, lattice_task):
        utt = lattice_task.utterances[1]
        config = DecoderConfig(beam=12.0)
        narrow = LatticeDecoder(lattice_task.graph, config, lattice_beam=2.0)
        wide = LatticeDecoder(lattice_task.graph, config, lattice_beam=10.0)
        n = narrow.decode(utt.scores)
        w = wide.decode(utt.scores)
        assert w.num_nodes >= n.num_nodes

    def test_invalid_params_rejected(self, small_graph):
        with pytest.raises(ConfigError):
            LatticeDecoder(small_graph, lattice_beam=0.0)

    def test_nbest_max_paths_validated(self, decoded):
        lattice, _vit, _utt = decoded
        for bad in (0, -1):
            with pytest.raises(ConfigError):
                lattice.nbest(1, max_paths=bad)
        # Valid explicit caps still work (1 path => at most 1 hypothesis).
        assert len(lattice.nbest(5, max_paths=1)) <= 1

    def test_no_final_token_falls_back_like_viterbi(self):
        """A dead-end search yields the reference decoders' best-live-token
        hypothesis instead of raising."""
        import math

        import numpy as np

        from repro.acoustic.scorer import AcousticScores
        from repro.wfst import CompiledWfst, Fst

        fst = Fst()
        s0, s1, s2 = fst.add_states(3)
        fst.set_start(s0)
        fst.add_arc(s0, 1, 1, 0.0, s1)
        fst.add_arc(s1, 2, 2, 0.0, s2)
        fst.set_final(s2)
        graph = CompiledWfst.from_fst(fst)
        # One frame only: the final state is unreachable.
        matrix = np.full((1, 3), -1e9)
        matrix[0, 1] = math.log(0.8)
        scores = AcousticScores(matrix)

        config = DecoderConfig(beam=30.0)
        reference = ViterbiDecoder(graph, config).decode(scores)
        assert not reference.reached_final
        lattice = LatticeDecoder(graph, config).decode(scores)
        best = lattice.best_path()
        assert best.words == reference.words
        assert best.log_likelihood == pytest.approx(
            reference.log_likelihood
        )
