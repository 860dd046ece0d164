"""Tests for weighted epsilon removal, validated against brute force."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import DecodeError, GraphError
from repro.datasets import TaskConfig, generate_task
from repro.decoder import DecoderConfig, ViterbiDecoder
from repro.decoder.brute_force import brute_force_best_path
from repro.wfst import CompiledWfst, EPSILON, Fst
from repro.wfst.epsilon_removal import count_epsilon_arcs, remove_epsilons
from tests.test_brute_force_equivalence import make_random_fst, make_scores


def fst_of(graph_or_fst):
    return graph_or_fst


class TestBasics:
    def test_simple_chain_folds(self):
        # 0 --a--> 1 --eps--> 2 --b--> 3 becomes 0 --a--> 1 --b--> 3.
        fst = Fst()
        s0, s1, s2, s3 = fst.add_states(4)
        fst.set_start(s0)
        fst.add_arc(s0, 1, 0, -0.1, s1)
        fst.add_arc(s1, EPSILON, 0, -0.2, s2)
        fst.add_arc(s2, 2, 0, -0.3, s3)
        fst.set_final(s3)
        out = remove_epsilons(fst)
        assert out.num_epsilon_arcs() == 0
        # The folded arc carries the epsilon weight.
        state = out.start
        arc_a = out.arcs(state)[0]
        arc_b = out.arcs(arc_a.dest)[0]
        assert arc_b.weight == pytest.approx(-0.5)

    def test_final_weight_folds_through_epsilon(self):
        fst = Fst()
        s0, s1 = fst.add_states(2)
        fst.set_start(s0)
        fst.add_arc(s0, 1, 0, -0.1, s1)
        end = fst.add_state()
        fst.add_arc(s1, EPSILON, 0, -0.2, end)
        fst.set_final(end, -0.3)
        out = remove_epsilons(fst)
        finals = [s for s in out.states() if out.is_final(s)]
        assert any(
            out.final_weight(s) == pytest.approx(-0.5) for s in finals
        )

    def test_output_carrying_epsilons_kept(self):
        fst = Fst()
        s0, s1, s2 = fst.add_states(3)
        fst.set_start(s0)
        fst.add_arc(s0, 1, 0, 0.0, s1)
        fst.add_arc(s1, EPSILON, 7, -0.1, s2)  # emits word 7
        fst.set_final(s2)
        out = remove_epsilons(fst)
        free, carrying = count_epsilon_arcs(out)
        assert free == 0
        assert carrying == 1

    def test_epsilon_cycle_rejected(self):
        fst = Fst()
        s0 = fst.add_state()
        fst.set_start(s0)
        fst.set_final(s0)
        fst.add_arc(s0, EPSILON, 0, -0.1, s0)
        with pytest.raises(GraphError):
            remove_epsilons(fst)


class TestEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), frames=st.integers(1, 4))
    def test_best_path_preserved(self, seed, frames):
        """Removal must not change the best-path likelihood (brute force)."""
        rng = np.random.default_rng(seed)
        graph = make_random_fst(rng)
        scores = make_scores(rng, frames)

        mutable = graph.to_fst()
        removed = CompiledWfst.from_fst(remove_epsilons(mutable))

        try:
            _w1, before = brute_force_best_path(graph, scores)
        except DecodeError:
            before = None
        try:
            _w2, after = brute_force_best_path(removed, scores)
        except DecodeError:
            after = None

        if before is None:
            assert after is None
        else:
            assert after == pytest.approx(before, abs=1e-6)

    def test_task_graph_decodes_identically(self):
        task = generate_task(
            TaskConfig(vocab_size=30, corpus_sentences=150,
                       num_utterances=2, seed=23)
        )
        removed = CompiledWfst.from_fst(
            remove_epsilons(task.graph.to_fst())
        )
        assert removed.epsilon_fraction() == 0.0
        original = ViterbiDecoder(task.graph, DecoderConfig(beam=16.0))
        epsfree = ViterbiDecoder(removed, DecoderConfig(beam=16.0))
        for utt in task.utterances:
            a = original.decode(utt.scores)
            b = epsfree.decode(utt.scores)
            assert b.log_likelihood == pytest.approx(
                a.log_likelihood, abs=1e-6
            )
            assert b.words == a.words

