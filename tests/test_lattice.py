"""Tests for lattice decoding and N-best extraction.

``Lattice.nbest`` is a best-first walk with a bound and a de-duplication
rule; the plain version it must agree with lives here (the
``test_sag.py`` idiom: the reference is the test's, not the program's):
enumerate every source-to-sink path, keep the best alignment of each
word sequence, sort.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.common.errors import ConfigError
from repro.decoder import DecoderConfig, ViterbiDecoder, word_error_rate
from repro.decoder.lattice import Lattice, LatticeDecoder


# ----------------------------------------------------------------------
# The naive version
# ----------------------------------------------------------------------
def exhaustive_nbest(lattice):
    """Every hypothesis as ``(words, log_likelihood)``, best first."""
    start, dest, cost, word = (
        a.tolist() for a in (lattice.edge_start, lattice.edge_dest,
                             lattice.edge_cost, lattice.edge_word)
    )
    sink = len(lattice.cost_to_sink) - 1
    best = {}

    def walk(node, so_far, words):
        if node == sink:
            best[words] = min(so_far, best.get(words, math.inf))
        for e in range(start[node], start[node + 1]):
            walk(dest[e], so_far + cost[e],
                 words + (word[e],) if word[e] else words)

    walk(0, 0.0, ())
    return sorted(((w, -c) for w, c in best.items()), key=lambda h: -h[1])


def assert_nbest_matches_exhaustive(lattice, k, tol=0.0):
    """``nbest(k)`` is the first k of the exhaustive list.

    Hypotheses of equal score may come in either order (and either side
    of the cut at k), so: the score lists agree, every entry carries the
    best-alignment score of its words, and no words repeat.  With
    distinct scores that is list equality.  ``tol`` admits the last-digit
    differences of sums taken in another order.
    """
    want = exhaustive_nbest(lattice)
    got = lattice.nbest(k)
    scores = [e.log_likelihood for e in got]
    assert scores == sorted(scores, reverse=True)
    assert scores == pytest.approx([s for _w, s in want[:k]], rel=tol, abs=tol)
    best = dict(want)
    for entry in got:
        assert entry.log_likelihood == pytest.approx(
            best[entry.words], rel=tol, abs=tol
        )
    assert len({e.words for e in got}) == len(got)
    assert lattice.nbest(k) == got  # ties resolve the same way every run


def lattice_from_edges(num_nodes, edges):
    """A :class:`Lattice` from ``(src, dest, cost, word)`` tuples.

    Node 0 is the source, ``num_nodes - 1`` the sink, ``src < dest`` on
    every edge -- so one pass over the edges in descending order finds
    each node's cost to the sink.
    """
    src, dest, cost, word = (np.array(c) for c in zip(*sorted(edges)))
    cost_to_sink = np.full(num_nodes, np.inf)
    cost_to_sink[-1] = 0.0
    for s, d, c in zip(src[::-1], dest[::-1], cost[::-1]):
        cost_to_sink[s] = min(cost_to_sink[s], c + cost_to_sink[d])
    return Lattice(
        np.searchsorted(src, np.arange(num_nodes + 1)), dest,
        cost.astype(np.float64), word, cost_to_sink, num_frames=0,
    )


#: Few distinct values, all exact in binary: ties everywhere, and sums
#: that do not depend on the order they are taken in.
TIED_COSTS = st.sampled_from([0.0, 0.5, 1.0, 1.5, 4.0])
#: Tenths: sums that tie on paper and land an ulp apart depending on the
#: order they are taken in (0.1 + 0.2 + 0.3 != 0.3 + 0.2 + 0.1).
NEARLY_TIED_COSTS = st.sampled_from([0.1, 0.2, 0.3, 0.6, 0.7])

#: A case of it: the hypotheses scoring -1.5 and -1.5000000000000002
#: reach the sink in that order.
ULP_INVERSION = lattice_from_edges(11, [
    (0, 1, 0.7, 0), (0, 2, 0.2, 2), (0, 3, 0.1, 0), (1, 4, 0.1, 0),
    (1, 5, 0.2, 0), (3, 4, 0.1, 0), (3, 5, 0.3, 2), (5, 6, 0.7, 0),
    (5, 7, 0.1, 1), (6, 8, 0.7, 2), (6, 9, 0.1, 2), (7, 9, 0.7, 0),
    (8, 10, 0.2, 2), (9, 10, 0.3, 0),
])


@st.composite
def layered_dags(draw, costs):
    """Small layered DAGs: source, 1-4 layers of 1-3 nodes, sink.

    Edges run from one layer to the next (at most one per node pair,
    like a decoded lattice); a node may be left without a way on.
    """
    widths = [1] + draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    layers, first = [], 0
    for width in widths:
        layers.append(range(first, first + width))
        first += width
    layers.append(range(first, first + 1))
    edges = [
        (u, v, draw(costs), draw(st.integers(0, 2)))
        for above, below in zip(layers[:-1], layers[1:])
        for u in above for v in below
        if draw(st.booleans())
    ]
    # The source and the sink always have an edge.
    edges.append((0, 1, draw(costs), 0))
    edges.append((first - 1, first, draw(costs), 0))
    return lattice_from_edges(first + 1, list({e[:2]: e for e in edges}.values()))


# ----------------------------------------------------------------------
# Decoded lattices
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def lattice_task():
    from repro.datasets import TaskConfig, generate_task

    return generate_task(
        TaskConfig(vocab_size=40, corpus_sentences=200, num_utterances=2,
                   utterance_words=2, mean_frames_per_phone=4, seed=17)
    )


@pytest.fixture(scope="module")
def decoded(lattice_task):
    # Wide beams: at the defaults this lattice holds one word sequence.
    config = DecoderConfig(beam=20.0)
    lattice_decoder = LatticeDecoder(
        lattice_task.graph, config, lattice_beam=20.0
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
        assert len(entries) == 5
        scores = [e.log_likelihood for e in entries]
        assert scores == sorted(scores, reverse=True)

    def test_nbest_hypotheses_distinct(self, decoded):
        lattice, _vit, _utt = decoded
        words = [e.words for e in lattice.nbest(5)]
        assert len(set(words)) == 5

    def test_oracle_wer_at_most_onebest(self, decoded):
        lattice, viterbi_result, utt = decoded
        onebest = word_error_rate(utt.words, viterbi_result.words)
        assert lattice.oracle_wer(utt.words, k=10) <= onebest + 1e-9

    def test_nbest_is_the_exhaustive_list(self, lattice_task):
        # The short utterance, at a lattice beam that leaves 243,397
        # paths to enumerate (the fixture's lattice has 1.4e20).
        lattice = LatticeDecoder(
            lattice_task.graph, DecoderConfig(beam=20.0), lattice_beam=15.0
        ).decode(lattice_task.utterances[1].scores)
        assert len(exhaustive_nbest(lattice)) == 4
        assert_nbest_matches_exhaustive(lattice, 10)
        assert_nbest_matches_exhaustive(lattice, 2)

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

    def test_nbest_k_validated(self, decoded):
        lattice, _vit, _utt = decoded
        for bad in (0, -1):
            with pytest.raises(ConfigError):
                lattice.nbest(bad)

    def test_no_final_token_falls_back_like_viterbi(self):
        """A dead-end search yields the reference decoders' best-live-token
        hypothesis instead of raising."""
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


# ----------------------------------------------------------------------
# Hand-built lattices
# ----------------------------------------------------------------------
class TestNBestWalk:
    def test_two_alignments_of_one_sequence_are_one_hypothesis(self):
        # Word 7 through node 1 (cost 3) or node 2 (cost 2), word 9
        # through node 3 (cost 2.5): two hypotheses, not three, and word
        # 7 carries its likelier alignment's score.
        lattice = lattice_from_edges(5, [
            (0, 1, 1.0, 7), (0, 2, 0.5, 7), (0, 3, 1.5, 9),
            (1, 4, 2.0, 0), (2, 4, 1.5, 0), (3, 4, 1.0, 0),
        ])
        entries = lattice.nbest(5)
        assert [(e.words, e.log_likelihood) for e in entries] == [
            ((7,), -2.0), ((9,), -2.5),
        ]
        assert_nbest_matches_exhaustive(lattice, 5)
        assert lattice.best_path() == entries[0]

    @settings(max_examples=200, deadline=None)
    @given(layered_dags(TIED_COSTS), st.integers(1, 6))
    def test_matches_exhaustive_with_ties(self, lattice, k):
        assert_nbest_matches_exhaustive(lattice, k)

    @settings(max_examples=200, deadline=None)
    @given(layered_dags(NEARLY_TIED_COSTS), st.integers(1, 6))
    @example(ULP_INVERSION, 5)
    def test_scores_non_increasing_whatever_the_rounding(self, lattice, k):
        # The bound adds a prefix to a suffix summed from the sink, the
        # score sums the path from the source: equal up to rounding, so
        # near-ties can leave the heap an ulp out of order.
        assert_nbest_matches_exhaustive(lattice, k, tol=1e-12)


def test_numpy_is_the_only_runtime_dependency():
    """The package, its decoders and the CLI import without networkx
    (the lattice was its one user; ``pyproject.toml`` no longer lists it)."""
    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro, repro.decoder, repro.cli; "
         "assert 'networkx' not in sys.modules"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
