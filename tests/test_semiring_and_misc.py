"""Tests for semirings, the error hierarchy, and assorted edge cases."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.common.errors import (
    ConfigError,
    DecodeError,
    GraphError,
    ReproError,
    SimulationError,
)
from repro.wfst import LogProbSemiring, TropicalSemiring

logs = st.floats(min_value=-50.0, max_value=0.0)
costs = st.floats(min_value=0.0, max_value=50.0)


class TestLogProbSemiring:
    def test_identities(self):
        s = LogProbSemiring
        assert s.times(s.one, -2.0) == -2.0
        assert s.plus(s.zero, -2.0) == -2.0

    def test_zero_annihilates_times(self):
        s = LogProbSemiring
        assert s.is_zero(s.times(s.zero, -1.0))

    @given(logs, logs)
    def test_plus_is_max(self, a, b):
        assert LogProbSemiring.plus(a, b) == max(a, b)

    @given(logs, logs, logs)
    def test_times_distributes_over_plus(self, a, b, c):
        s = LogProbSemiring
        left = s.times(a, s.plus(b, c))
        right = s.plus(s.times(a, b), s.times(a, c))
        assert left == pytest.approx(right, abs=1e-9)

    @given(logs, logs)
    def test_better_is_strict_order(self, a, b):
        s = LogProbSemiring
        if a != b:
            assert s.better(a, b) != s.better(b, a)
        else:
            assert not s.better(a, b)


class TestTropicalSemiring:
    def test_identities(self):
        t = TropicalSemiring
        assert t.times(t.one, 3.0) == 3.0
        assert t.plus(t.zero, 3.0) == 3.0
        assert t.is_zero(t.zero)

    @given(costs, costs)
    def test_plus_is_min(self, a, b):
        assert TropicalSemiring.plus(a, b) == min(a, b)

    @given(costs, costs)
    def test_duality_with_logprob(self, a, b):
        """Tropical over costs == log-prob semiring under negation."""
        t, s = TropicalSemiring, LogProbSemiring
        assert t.plus(a, b) == -s.plus(-a, -b)
        assert t.times(a, b) == pytest.approx(-s.times(-a, -b))


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc", [ConfigError, GraphError, DecodeError, SimulationError]
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)
        with pytest.raises(ReproError):
            raise exc("boom")

    def test_catching_base_does_not_catch_unrelated(self):
        with pytest.raises(ValueError):
            try:
                raise ValueError("not ours")
            except ReproError:  # pragma: no cover - must not trigger
                pytest.fail("ReproError must not catch ValueError")


class TestIoVersioning:
    def test_version_mismatch_rejected(self, tmp_path, small_graph):
        """A ``meta.json`` that parses but states no version at all."""
        from repro.wfst import load_graph_mmap, save_graph_mmap

        path = tmp_path / "g.mmap"
        save_graph_mmap(small_graph, path)
        for unversioned in ("{}", "[]", "null"):
            (path / "meta.json").write_text(unversioned)
            with pytest.raises(GraphError):
                load_graph_mmap(path)


class TestSortedLayoutEdgeCases:
    def test_empty_degree_groups_keep_linear_map(self):
        """A graph missing some out-degrees must still map correctly."""
        from repro.wfst import CompiledWfst, Fst, sort_states_by_arc_count

        fst = Fst()
        states = fst.add_states(6)
        fst.set_start(states[0])
        fst.set_final(states[5])
        # Only degrees 1 and 3 occur (2 is an empty group).
        for s in states[:3]:
            fst.add_arc(s, 1, 0, -0.1, states[5])
        for s in states[3:5]:
            for k in range(3):
                fst.add_arc(s, k + 1, 0, -0.1, states[5])
        graph = CompiledWfst.from_fst(fst)
        sorted_graph = sort_states_by_arc_count(graph, max_direct_arcs=4)
        end = sorted_graph.tables.boundaries[-1]
        for s in range(end):
            direct = sorted_graph.direct_lookup(s)
            record = sorted_graph.graph.state_record(s)
            assert direct.first_arc == record.first_arc
            assert direct.num_arcs == record.num_arcs


class TestScorerScale:
    def test_acoustic_scale_scales_loglik(self):
        from repro.acoustic import Dnn, DnnConfig, DnnScorer

        dnn = Dnn(DnnConfig(4, (8,), 3), seed=1)
        priors = DnnScorer.priors_from_labels(np.array([0, 1, 2]), 3)
        x = np.random.default_rng(0).normal(size=(5, 4))
        one = DnnScorer(dnn, priors, acoustic_scale=1.0).score(x)
        half = DnnScorer(dnn, priors, acoustic_scale=0.5).score(x)
        assert np.allclose(half.matrix[:, 1:], 0.5 * one.matrix[:, 1:])


class TestMemoryWorkloadProperties:
    def test_deterministic(self):
        from repro.datasets import SyntheticGraphConfig
        from repro.system import make_memory_workload

        gc = SyntheticGraphConfig(num_states=2000, num_phones=20, seed=9)
        a = make_memory_workload(num_utterances=1, frames_per_utterance=5,
                                 seed=9, graph_config=gc)
        b = make_memory_workload(num_utterances=1, frames_per_utterance=5,
                                 seed=9, graph_config=gc)
        assert np.array_equal(a.scores[0].matrix, b.scores[0].matrix)
        assert a.speech_seconds == b.speech_seconds == 0.05

    def test_scores_are_valid_log_likelihoods(self):
        from repro.datasets import SyntheticGraphConfig
        from repro.system import make_memory_workload

        wl = make_memory_workload(
            num_utterances=2, frames_per_utterance=4, seed=1,
            graph_config=SyntheticGraphConfig(
                num_states=2000, num_phones=20, seed=1
            ),
        )
        for scores in wl.scores:
            assert (scores.matrix[:, 1:] <= 0).all()
            assert (scores.matrix[:, 0] < -1e8).all()
