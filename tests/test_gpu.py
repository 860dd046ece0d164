"""Tests for the GPU decoder and its timing model."""

import pytest

from repro.decoder import DecoderConfig, ViterbiDecoder
from repro.gpu import GTX980, GpuDnnModel, GpuTimingModel, GpuViterbiDecoder
from repro.gpu.decoder import GpuWorkload
from repro.gpu.model import dnn_flops_per_frame
from repro.system import make_memory_workload


@pytest.fixture(scope="module")
def memory_workload():
    """A small Kaldi-like search whose cap truncates some frames."""
    return make_memory_workload(
        num_states=3000, num_utterances=1, frames_per_utterance=12,
        max_active=200, seed=3,
    )


@pytest.fixture(scope="module")
def capped_decode(memory_workload):
    """``(result, work)`` of the GPU model on ``memory_workload``."""
    gpu = GpuViterbiDecoder(
        memory_workload.graph,
        beam=memory_workload.beam,
        max_active=memory_workload.max_active,
    )
    return gpu.decode(memory_workload.scores[0])


class TestGpuDecoderEquivalence:
    def test_likelihoods_match_reference(self, small_task):
        """The data-parallel decoder must find the same best-path score."""
        ref = ViterbiDecoder(small_task.graph, DecoderConfig(beam=14.0))
        gpu = GpuViterbiDecoder(small_task.graph, beam=14.0)
        for utt in small_task.utterances:
            r = ref.decode(utt.scores)
            g, _work = gpu.decode(utt.scores)
            assert g.log_likelihood == pytest.approx(r.log_likelihood)
            assert g.words == r.words

    def test_arc_counts_match_reference(self, small_task):
        ref = ViterbiDecoder(small_task.graph, DecoderConfig(beam=14.0))
        gpu = GpuViterbiDecoder(small_task.graph, beam=14.0)
        utt = small_task.utterances[0]
        r = ref.decode(utt.scores)
        g, work = gpu.decode(utt.scores)
        assert work.arcs_expanded == r.stats.arcs_processed

    def test_max_active_respected(self, small_task):
        gpu = GpuViterbiDecoder(small_task.graph, beam=14.0, max_active=15)
        g, _ = gpu.decode(small_task.utterances[0].scores)
        assert max(g.stats.active_tokens_per_frame) <= 15


class TestGpuWorkloadCounters:
    def test_kernel_launches_scale_with_frames(self, small_task):
        gpu = GpuViterbiDecoder(small_task.graph, beam=14.0)
        _g, work = gpu.decode(small_task.utterances[0].scores)
        frames = small_task.utterances[0].num_frames
        assert work.kernel_launches >= 3 * frames
        assert work.frames == frames
        assert work.atomic_updates >= work.arcs_expanded

    @pytest.mark.parametrize("which", ["small_task", "memory_workload"])
    def test_uncapped_counts_are_the_kernel_counters(self, which, request):
        """Without a cap: a reduction, a compaction and an expansion
        launch per frame, one launch per closure round, and arc and
        token counts equal to the kernel's own."""
        task = request.getfixturevalue(which)
        if which == "small_task":
            graph, scores = task.graph, task.utterances[0].scores
        else:
            graph, scores = task.graph, task.scores[0]
        result, work = GpuViterbiDecoder(graph, beam=14.0).decode(scores)
        stats = result.stats
        frames = scores.num_frames
        assert work.kernel_launches == 3 * frames + work.epsilon_iterations
        assert work.arcs_expanded == stats.arcs_processed
        assert work.epsilon_arcs_expanded == stats.epsilon_arcs_processed
        assert work.tokens_compacted == sum(stats.active_tokens_per_frame)

    def test_capped_launches_add_one_per_truncating_frame(
        self, memory_workload, capped_decode
    ):
        """The k-selection launch runs only on frames the cap truncates,
        and a truncated frame keeps exactly ``max_active`` tokens."""
        result, work = capped_decode
        cap = memory_workload.max_active
        extra = work.kernel_launches - 3 * work.frames - work.epsilon_iterations
        at_cap = sum(
            1 for n in result.stats.active_tokens_per_frame if n == cap
        )
        assert at_cap > 0
        assert 0 <= extra <= at_cap

    def test_golden_capped_workload(self, capped_decode):
        """Every counter of one fixed capped search, the per-arc epsilon
        atomics (improvements over the round's starting scores) among
        them: 3880 atomics = 2921 expansion arcs + 959 epsilon arcs."""
        _result, work = capped_decode
        assert work == GpuWorkload(
            frames=12,
            kernel_launches=66,
            arcs_expanded=2921,
            epsilon_arcs_expanded=1074,
            atomic_updates=3880,
            tokens_compacted=937,
            epsilon_iterations=26,
        )


class TestGpuTimingModel:
    def test_time_increases_with_work(self):
        model = GpuTimingModel()
        small = GpuWorkload(kernel_launches=10, arcs_expanded=100)
        big = GpuWorkload(kernel_launches=10, arcs_expanded=100_000)
        assert model.search_seconds(big) > model.search_seconds(small)

    def test_launch_overhead_dominates_tiny_work(self):
        model = GpuTimingModel()
        work = GpuWorkload(kernel_launches=100, arcs_expanded=10)
        total = model.search_seconds(work)
        assert total == pytest.approx(
            100 * model.kernel_launch_s, rel=0.05
        )

    def test_energy_uses_measured_power(self):
        model = GpuTimingModel()
        work = GpuWorkload(kernel_launches=10, arcs_expanded=1000)
        assert model.search_energy_j(work) == pytest.approx(
            model.search_seconds(work) * 76.4
        )

    def test_table3_spec(self):
        assert GTX980.num_sms == 16
        assert GTX980.threads_per_sm == 2048
        assert GTX980.frequency_hz == pytest.approx(1.28e9)
        assert GTX980.technology_nm == 28
        assert GTX980.avg_power_w == pytest.approx(76.4)


class TestGpuDnnModel:
    def test_flops_per_frame(self):
        flops = dnn_flops_per_frame(10, (20,), 5)
        assert flops == 2 * (10 * 20 + 20 * 5)

    def test_seconds_linear_in_flops(self):
        model = GpuDnnModel()
        assert model.seconds(2e9) == pytest.approx(2 * model.seconds(1e9))

    def test_dnn_26x_faster_than_cpu(self):
        """Paper, Section I: the GPU speeds up the DNN by 26x vs the CPU."""
        from repro.energy import CpuTimingModel

        flops = dnn_flops_per_frame(440, (2048,) * 6, 3500)
        gpu_s = GpuDnnModel().seconds(flops)
        cpu_s = CpuTimingModel().dnn_seconds(flops)
        assert cpu_s / gpu_s == pytest.approx(26.0, rel=0.05)
