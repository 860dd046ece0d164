"""Property-based validation of the entire decoder stack.

Random tiny WFSTs and random score matrices are decoded by four
independent implementations -- the exhaustive brute-force oracle, the
reference beam decoder (with an effectively-infinite beam), the GPU
data-parallel decoder, and the cycle-accurate accelerator simulator --
which must all find the same best-path likelihood.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.accel import AcceleratorConfig, AcceleratorSimulator
from repro.acoustic.scorer import AcousticScores
from repro.common.errors import DecodeError
from repro.decoder import DecoderConfig, ViterbiDecoder
from repro.decoder.brute_force import brute_force_best_path
from repro.gpu import GpuViterbiDecoder
from repro.wfst import CompiledWfst, EPSILON, Fst

WIDE_BEAM = DecoderConfig(beam=1e6)
NUM_PHONES = 4


def make_random_fst(rng: np.random.Generator) -> CompiledWfst:
    """A small random epsilon-acyclic WFST that reaches a final state."""
    n_states = int(rng.integers(3, 7))
    fst = Fst()
    states = fst.add_states(n_states)
    fst.set_start(states[0])
    fst.set_final(states[-1], float(-rng.uniform(0, 1)))
    # A guaranteed backbone of non-epsilon arcs keeps the FST decodable.
    for i in range(n_states - 1):
        fst.add_arc(
            states[i],
            int(rng.integers(1, NUM_PHONES + 1)),
            int(rng.integers(0, 3)),
            float(-rng.uniform(0, 2)),
            states[i + 1],
        )
    # Random extra arcs; epsilon arcs always point forward (acyclicity).
    for _ in range(int(rng.integers(2, 10))):
        src = int(rng.integers(0, n_states))
        dst = int(rng.integers(0, n_states))
        if rng.random() < 0.25 and src < n_states - 1:
            dst = int(rng.integers(src + 1, n_states))
            fst.add_arc(src, EPSILON, int(rng.integers(0, 3)),
                        float(-rng.uniform(0, 2)), dst)
        else:
            fst.add_arc(src, int(rng.integers(1, NUM_PHONES + 1)),
                        int(rng.integers(0, 3)),
                        float(-rng.uniform(0, 2)), dst)
    return CompiledWfst.from_fst(fst)


def make_scores(rng: np.random.Generator, frames: int) -> AcousticScores:
    matrix = -rng.uniform(0.1, 5.0, size=(frames, NUM_PHONES + 1))
    matrix[:, 0] = -1e9
    return AcousticScores(matrix)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), frames=st.integers(1, 5))
def test_all_decoders_agree_with_brute_force(seed, frames):
    rng = np.random.default_rng(seed)
    graph = make_random_fst(rng)
    scores = make_scores(rng, frames)

    try:
        words, score = brute_force_best_path(graph, scores)
    except DecodeError:
        # No complete path for this frame count: the beam decoders must
        # also fail to reach a final state.
        ref = _try_reference(graph, scores)
        assert ref is None or not ref.reached_final
        return

    ref = ViterbiDecoder(graph, WIDE_BEAM).decode(scores)
    assert ref.reached_final
    assert ref.log_likelihood == pytest.approx(score, abs=1e-6)

    gpu, _work = GpuViterbiDecoder(graph, beam=1e6).decode(scores)
    assert gpu.log_likelihood == pytest.approx(score, abs=1e-6)

    sim = AcceleratorSimulator(graph, AcceleratorConfig(), beam=1e6)
    accel = sim.decode(scores)
    assert accel.log_likelihood == pytest.approx(score, abs=1e-6)

    # Word sequences agree wherever the best path is unique; likelihood
    # equality above is the hard guarantee.
    assert ref.words == accel.words


def _try_reference(graph, scores):
    try:
        return ViterbiDecoder(graph, WIDE_BEAM).decode(scores)
    except DecodeError:
        return None


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_beam_search_is_admissible_when_wide(seed):
    """A wide beam must find the optimum; a narrow beam never a better one."""
    rng = np.random.default_rng(seed)
    graph = make_random_fst(rng)
    scores = make_scores(rng, 3)
    try:
        _words, best = brute_force_best_path(graph, scores)
    except DecodeError:
        return
    wide = ViterbiDecoder(graph, WIDE_BEAM).decode(scores)
    assert wide.log_likelihood == pytest.approx(best, abs=1e-6)
    try:
        narrow = ViterbiDecoder(graph, DecoderConfig(beam=1.0)).decode(
            scores
        )
    except DecodeError:
        return  # aggressive pruning may legally kill the search entirely
    if narrow.reached_final:
        # A final-state path found under pruning can never beat the optimum.
        assert narrow.log_likelihood <= best + 1e-9
