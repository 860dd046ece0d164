"""Tests for the GPU decoder and its timing model."""

import pytest

from repro.decoder import DecoderConfig, ViterbiDecoder
from repro.gpu import GTX980, GpuDnnModel, GpuTimingModel, GpuViterbiDecoder
from repro.gpu.decoder import GpuWorkload
from repro.gpu.model import dnn_flops_per_frame


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
