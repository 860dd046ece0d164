"""Tests for the trigram LM and its three-level grammar transducer."""

import math

import pytest

from repro.common.errors import ConfigError
from repro.common.logmath import to_prob
from repro.datasets import TaskConfig, generate_task
from repro.decoder import DecoderConfig, ViterbiDecoder, word_error_rate
from repro.lexicon import build_lexicon_fst
from repro.lm import build_trigram_fst, train_trigram
from repro.lm.ngram import BOS, EOS
from repro.wfst import CompiledWfst, compose
from repro.wfst.ops import check_epsilon_acyclic


@pytest.fixture(scope="module")
def model():
    corpus = [[1, 2, 3], [1, 2, 4], [2, 3, 1], [1, 2, 3], [3, 1, 2]] * 4
    return train_trigram(corpus, vocab_size=4)


class TestTrigramModel:
    def test_observed_trigram_beats_backoff(self, model):
        # (1, 2, 3) occurs twice as often as (1, 2, 4).
        assert model.logprob(3, 1, 2) > model.logprob(4, 1, 2)

    def test_unseen_context_backs_off_to_bigram(self, model):
        # (4, 4) never occurs as a history: falls through to bigram(·|4).
        assert model.logprob(1, 4, 4) == pytest.approx(
            model.bigram.logprob(1, prev=4)
        )

    def test_conditional_sums_to_at_most_one(self, model):
        for history in [(BOS, BOS), (1, 2), (2, 3), (4, 4)]:
            total = sum(
                to_prob(model.logprob(w, *history)) for w in range(1, 5)
            ) + to_prob(model.logprob(EOS, *history))
            assert total <= 1.0 + 1e-9

    def test_mass_conservation_per_history(self, model):
        """Discounted trigram mass + backoff weight == 1."""
        for history in model.backoff_logweight:
            observed = sum(
                math.exp(lp)
                for (a, b, _w), lp in model.trigram_logprob.items()
                if (a, b) == history
            )
            backoff = math.exp(model.backoff_logweight[history])
            assert observed + backoff == pytest.approx(1.0, abs=1e-9)

    def test_sentence_logprob_prefers_training_patterns(self, model):
        assert model.sentence_logprob([1, 2, 3]) > model.sentence_logprob(
            [4, 4, 4]
        )

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ConfigError):
            train_trigram([[1]], vocab_size=1, discount=2.0)
        with pytest.raises(ConfigError):
            train_trigram([[9]], vocab_size=2)


class TestTrigramFst:
    def test_epsilon_acyclic(self, model):
        check_epsilon_acyclic(build_trigram_fst(model))

    def test_acceptor(self, model):
        g = build_trigram_fst(model)
        for s in g.states():
            for arc in g.arcs(s):
                assert arc.ilabel == arc.olabel

    def test_path_weight_matches_model(self, model):
        """Following the best labelled path for a training sentence must
        accumulate exactly the model's sentence log probability."""
        g = build_trigram_fst(model)
        sentence = [1, 2, 3]

        # Viterbi over the acceptor: tokens = (state, score); epsilon arcs
        # are free to traverse (they carry the backoff weights).
        def eps_closure(tokens):
            changed = True
            while changed:
                changed = False
                for state, score in list(tokens.items()):
                    for arc in g.arcs(state):
                        if arc.is_epsilon:
                            new = score + arc.weight
                            if new > tokens.get(arc.dest, -1e30):
                                tokens[arc.dest] = new
                                changed = True
            return tokens

        tokens = eps_closure({g.start: 0.0})
        for word in sentence:
            next_tokens = {}
            for state, score in tokens.items():
                for arc in g.arcs(state):
                    if arc.ilabel == word:
                        new = score + arc.weight
                        if new > next_tokens.get(arc.dest, -1e30):
                            next_tokens[arc.dest] = new
            tokens = eps_closure(next_tokens)

        best = max(
            score + g.final_weight(state)
            for state, score in tokens.items()
            if g.is_final(state)
        )
        assert best == pytest.approx(model.sentence_logprob(sentence))


class TestTrigramDecoding:
    def test_trigram_graph_decodes_with_unchanged_decoder(self):
        """The paper's flexibility claim: swap the LM, keep the decoder."""
        task = generate_task(
            TaskConfig(vocab_size=40, corpus_sentences=250,
                       num_utterances=3, seed=13)
        )
        corpus_words = [list(u.words) for u in task.utterances] * 10
        trigram = train_trigram(corpus_words, task.config.vocab_size)
        graph = CompiledWfst.from_fst(
            compose(
                build_lexicon_fst(task.lexicon),
                build_trigram_fst(trigram),
            )
        )
        decoder = ViterbiDecoder(graph, DecoderConfig(beam=14.0))
        total = 0.0
        for utt in task.utterances:
            result = decoder.decode(utt.scores)
            total += word_error_rate(utt.words, result.words)
        assert total / len(task.utterances) < 0.3
