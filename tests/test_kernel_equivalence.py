"""Cross-engine equivalence over the shared frame-recurrence kernel.

Every decode engine -- scalar reference, vectorized batch, chunked
streaming sessions, the GPU workload model and the accelerator trace
recorder -- runs on :mod:`repro.decoder.kernel`.  This
suite asserts the kernel contract over randomized
:class:`~repro.datasets.SyntheticGraphConfig` workloads and all three
pruning strategies (fixed beam, beam + histogram cap, adaptive beam):
word-identical output everywhere, and identical order-independent
functional counters (``tokens_pruned``, ``arcs_processed``,
``states_expanded``, ``tokens_created``, ``active_tokens_per_frame``).
"""

import pytest

from repro.accel import TraceRecorder
from repro.common.errors import ConfigError
from repro.datasets import SyntheticGraphConfig
from repro.decoder import (
    AdaptiveBeamPruning,
    BatchDecoder,
    DecoderConfig,
    ViterbiDecoder,
)
from repro.gpu import GpuViterbiDecoder
from repro.system import make_memory_workload

#: The three pruning strategies of the kernel's strategy layer.
CONFIGS = {
    "beam": DecoderConfig(beam=6.0),
    "histogram": DecoderConfig(beam=8.0, max_active=60),
    "adaptive": DecoderConfig(
        beam=5.0, pruning="adaptive", target_active=50, min_beam=2.0
    ),
}

#: Randomized workload shapes: (num_states, num_phones, frames, seed).
SHAPES = [
    (900, 30, 7, 21),
    (1500, 40, 6, 22),
    (600, 25, 9, 23),
]


def _workload(shape):
    num_states, num_phones, frames, seed = shape
    return make_memory_workload(
        num_utterances=2,
        frames_per_utterance=frames,
        beam=8.0,
        max_active=0,
        seed=seed,
        graph_config=SyntheticGraphConfig(
            num_states=num_states, num_phones=num_phones, seed=seed
        ),
    )


def _core_counters(stats):
    return (
        stats.frames,
        stats.tokens_pruned,
        stats.states_expanded,
        stats.arcs_processed,
        stats.tokens_created,
        tuple(stats.active_tokens_per_frame),
        tuple(stats.degree_histogram.tolist()),
    )


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"states{s[0]}")
@pytest.mark.parametrize("strategy", sorted(CONFIGS))
class TestAllEnginesAgree:
    def test_words_scores_and_counters(self, shape, strategy):
        workload = _workload(shape)
        graph = workload.graph
        config = CONFIGS[strategy]

        reference = ViterbiDecoder(graph, config)
        batch = BatchDecoder(graph, config)
        gpu = GpuViterbiDecoder(graph, config=config)
        recorder = TraceRecorder(graph, config=config)

        batch_results = batch.decode_batch(workload.scores)
        for scores, batched in zip(workload.scores, batch_results):
            ref = reference.decode(scores)

            # Vectorized batch engine: bit-identical scores.
            assert batched.words == ref.words
            assert batched.log_likelihood == ref.log_likelihood
            assert _core_counters(batched.stats) == _core_counters(ref.stats)

            # Chunked streaming session == one-shot decode.
            session = batch.open_session()
            matrix = scores.matrix
            session.push(matrix[:2])
            session.push(matrix[2:])
            streamed = session.finalize()
            assert streamed.words == ref.words
            assert streamed.log_likelihood == ref.log_likelihood
            assert _core_counters(streamed.stats) == _core_counters(ref.stats)

            # GPU workload model: same kernel, plus work counts that
            # stay consistent with the functional counters.
            gpu_result, work = gpu.decode(scores)
            assert gpu_result.words == ref.words
            assert gpu_result.log_likelihood == ref.log_likelihood
            assert _core_counters(gpu_result.stats) == _core_counters(
                ref.stats
            )
            assert work.arcs_expanded == ref.stats.arcs_processed

            # Trace recorder: the reference kernel observed, so *every*
            # counter (order-dependent ones included) matches the oracle.
            trace = recorder.record(scores)
            assert trace.words == ref.words
            assert trace.log_likelihood == ref.log_likelihood
            assert trace.search == ref.stats
            assert trace.pruning == config.pruning


class TestAdaptiveBeam:
    def test_tracks_target_active(self):
        """A smaller target must yield a smaller mean active set."""
        workload = _workload((1500, 40, 12, 31))
        scores = workload.scores[0]

        def mean_active(target):
            config = DecoderConfig(
                beam=8.0, pruning="adaptive", target_active=target,
                min_beam=0.5, max_beam=40.0,
            )
            return ViterbiDecoder(
                workload.graph, config
            ).decode(scores).stats.mean_active_tokens

        small, big = mean_active(15), mean_active(400)
        assert small < big

    def test_widens_up_to_clamp(self):
        """With an unreachably large target the beam rides max_beam."""
        config = DecoderConfig(
            beam=4.0, pruning="adaptive", target_active=10_000,
            min_beam=1.0, max_beam=9.0, adapt_rate=1.0,
        )
        pruner = config.make_pruner()
        assert isinstance(pruner, AdaptiveBeamPruning)
        for _ in range(8):
            pruner.observe(5)
        assert pruner.current_beam == pytest.approx(9.0)
        for _ in range(8):
            pruner.observe(10_000_000)
        assert pruner.current_beam == pytest.approx(1.0)

    def test_update_is_multiplicative(self):
        config = DecoderConfig(
            beam=8.0, pruning="adaptive", target_active=100,
            min_beam=0.1, max_beam=100.0, adapt_rate=0.5,
        )
        pruner = config.make_pruner()
        pruner.observe(400)  # 4x over target -> beam *= 0.25 ** 0.5
        assert pruner.current_beam == pytest.approx(8.0 * 0.5)

    def test_threshold_uses_current_beam(self):
        config = DecoderConfig(
            beam=8.0, pruning="adaptive", target_active=100,
        )
        pruner = config.make_pruner()
        assert pruner.threshold(0.0) == pytest.approx(-8.0)
        pruner.observe(10_000)
        assert pruner.threshold(0.0) > -8.0


class TestDecoderConfigValidation:
    def test_adaptive_requires_target(self):
        with pytest.raises(ConfigError):
            DecoderConfig(pruning="adaptive")

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigError):
            DecoderConfig(pruning="telepathy")

    def test_clamp_range_validated(self):
        with pytest.raises(ConfigError):
            DecoderConfig(
                pruning="adaptive", target_active=10, min_beam=20.0
            )
        with pytest.raises(ConfigError):
            DecoderConfig(
                pruning="adaptive", target_active=10, beam=8.0, max_beam=4.0
            )
        with pytest.raises(ConfigError):
            DecoderConfig(
                pruning="adaptive", target_active=10, adapt_rate=0.0
            )

    def test_max_beam_defaults_to_4x(self):
        config = DecoderConfig(
            beam=6.0, pruning="adaptive", target_active=10
        )
        assert config.resolved_max_beam == pytest.approx(24.0)
