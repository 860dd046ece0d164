"""The kernel's backend seam: resolution, and decodes against the oracle.

The kernel's six array ops live behind
:class:`~repro.decoder.backends.KernelBackend`, implemented once in
numpy; ``tests/test_kernel_primitives.py`` checks each op against a
naive loop.  This suite checks what is left around them:

* resolution -- ``"auto"`` and ``"numpy"`` name the one numpy backend;
  any other name, ``"numba"`` included, is a :class:`ConfigError`;
* the vectorized kernel's prune/expand event stream against the scalar
  :class:`ReferenceKernel` oracle, normalized, on a composed and a
  synthetic graph.
"""

import numpy as np
import pytest

from repro.common.errors import ConfigError
from repro.acoustic.scorer import AcousticScores
from repro.datasets import SyntheticGraphConfig
from repro.decoder import (
    BatchDecoder,
    DecoderConfig,
    ExpandEvent,
    KernelObserver,
    PruneEvent,
    ReferenceKernel,
    SearchKernel,
    numba_available,
    resolve_backend,
)
from repro.decoder.backends import KERNEL_BACKENDS, KernelBackend
from repro.decoder.backends.numpy_backend import NumpyBackend
from repro.graph import GraphCompiler, GraphRecipe

#: Graph axes: composed (lexicon o LM) and synthetic (Kaldi statistics).
RECIPES = {
    "composed": GraphRecipe.composed(
        vocab_size=60, corpus_sentences=300, seed=11
    ),
    "synthetic": GraphRecipe.synthetic_graph(
        SyntheticGraphConfig(num_states=900, num_phones=30, seed=21)
    ),
}


@pytest.fixture(scope="module", params=sorted(RECIPES))
def graph(request):
    return GraphCompiler().compile(RECIPES[request.param]).graph


def _scores_fleet(graph, seed, frame_counts):
    """A ragged fleet of random utterances sized for ``graph``."""
    width = BatchDecoder(graph).min_score_width
    rng = np.random.default_rng(seed)
    return [
        AcousticScores(rng.normal(loc=-2.0, scale=2.0, size=(frames, width)))
        for frames in frame_counts
    ]


# ----------------------------------------------------------------------
# Resolution
# ----------------------------------------------------------------------
class TestDispatch:
    def test_registry_and_default(self):
        assert KERNEL_BACKENDS == ("auto", "numpy")
        backend = resolve_backend("numpy")
        assert isinstance(backend, NumpyBackend) and backend.name == "numpy"
        assert not numba_available()

    def test_auto_without_env_is_numpy(self):
        assert resolve_backend("auto") is resolve_backend("numpy")
        assert resolve_backend() is resolve_backend("numpy")

    def test_unknown_names_raise(self):
        for name in ("numba", "fortran", ""):
            with pytest.raises(ConfigError, match="unknown kernel backend"):
                resolve_backend(name)

    def test_config_flows_to_engines(self):
        """Every engine's kernel runs the one numpy backend."""
        compiled = GraphCompiler().compile(RECIPES["synthetic"]).graph
        numpy_backend = resolve_backend("numpy")
        config = DecoderConfig()
        assert BatchDecoder(compiled, config).kernel.backend is numpy_backend
        assert SearchKernel(compiled, config).backend is numpy_backend

    def test_abstract_backend_is_abstract(self):
        backend = KernelBackend()
        empty = np.empty(0, dtype=np.int64)
        with pytest.raises(NotImplementedError):
            backend.csr_gather(empty, empty)
        with pytest.raises(NotImplementedError):
            backend.segment_best(empty, np.empty(0))


# ----------------------------------------------------------------------
# Observer event streams
# ----------------------------------------------------------------------
class _Recorder(KernelObserver):
    """Records the prune/expand stream, normalized for the oracle
    comparison: survivor *sets*, thresholds, pruned counts and the
    expanded arc *sets*, per frame."""

    def __init__(self):
        self.events = []

    def on_prune(self, event: PruneEvent) -> None:
        self.events.append((
            "prune", event.frame, tuple(sorted(event.survivor_states)),
            event.threshold, event.beam_pruned, event.cap_pruned,
        ))

    def on_expand(self, event: ExpandEvent) -> None:
        self.events.append((
            "expand", event.frame, tuple(sorted(event.arc_idx)),
        ))


def _kernel_events(graph, config, scores, backend):
    kernel = SearchKernel(graph, config)
    kernel.backend = backend
    recorder = _Recorder()
    frontier = kernel.init_frontier([recorder])
    for frame, row in enumerate(scores.matrix):
        kernel.step_frame(frontier, frame, row)
        frontier.num_frames += 1
    kernel.finalize(frontier)
    return recorder.events


@pytest.mark.parametrize("backend", ["numpy"])
def test_prune_expand_summaries_match_reference(graph, backend):
    """The vectorized kernel on ``backend`` vs the scalar oracle,
    normalized.

    Closure events and the epsilon arc sets are discipline
    approximations (FIFO passes vs relaxation rounds), so the oracle
    comparison covers the prune/expand stream only: survivor *sets*,
    thresholds, pruned counts, and the expanded arc *sets*.  Beam-only
    pruning keeps survivor sets unambiguous (no cap ties).
    """
    scores = _scores_fleet(graph, seed=41, frame_counts=(6,))[0]
    config = DecoderConfig(beam=6.0)

    vec = _kernel_events(graph, config, scores, resolve_backend(backend))
    oracle = _Recorder()
    ReferenceKernel(graph, config).decode(scores, [oracle])
    assert vec == oracle.events
