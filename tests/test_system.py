"""Tests for the whole-pipeline system model and the experiment harness."""

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.common.errors import ConfigError
from repro.datasets import SyntheticGraphConfig
from repro.energy.report import EnergyReport, PlatformResult
from repro.system import (
    PipelineConfig,
    StageCost,
    hybrid_speedup,
    keeps_up,
    make_memory_workload,
    max_realtime_streams,
    run_platform_comparison,
    score_transfer,
    simulate_stream,
)


def offline(batch_frames=100, dnn=0.0, search=0.0, transfer=0.0):
    """One stream, all audio present: per-frame stage costs in seconds."""
    return PipelineConfig(
        batch_frames=batch_frames,
        frame_period_s=0.0,
        dnn=StageCost(per_session_s=dnn),
        transfer=StageCost(per_session_s=transfer),
        search=StageCost(per_session_s=search),
    )


class TestAsrSystemModel:
    """The Sec. III-A system read off the pipeline timeline: the offline
    makespan, the GPU-only serial sum and the in-text speedup."""

    def test_hybrid_throughput_is_bottleneck_stage(self):
        report = simulate_stream(offline(dnn=2e-4, search=1e-4), 1000)
        # Every step advances at the DNN's pace; the last search drains.
        assert report.makespan_s == pytest.approx(10 * 100 * 2e-4 + 100 * 1e-4)

    def test_gpu_only_is_sum_of_stages(self):
        # One batch overlaps nothing: the hybrid takes 500 * (1e-4 + 3e-4),
        # and GPU-only takes 500 * (1e-4 + its own search cost).
        config = offline(batch_frames=500, dnn=1e-4, search=3e-4)
        assert hybrid_speedup(config, 500, 3e-4) == pytest.approx(1.0)
        assert hybrid_speedup(config, 500, 7e-4) == pytest.approx(2.0)

    def test_hybrid_speedup_improves_on_serial(self):
        config = offline(dnn=1e-4, search=3.5e-4)
        assert hybrid_speedup(config, 2000, 6e-4) > 1.5

    def test_transfer_hidden_by_double_buffer(self):
        """The score transfer overlaps the previous batch's search, so of
        ten batches only the first one's transfer reaches the makespan."""
        per_frame = score_transfer(3500).per_session_s  # 14 KB over PCIe
        slow = simulate_stream(offline(dnn=2e-4, search=1e-4), 1000)
        with_dma = simulate_stream(
            offline(dnn=2e-4, search=1e-4, transfer=per_frame), 1000
        )
        assert with_dma.makespan_s == pytest.approx(
            slow.makespan_s + 100 * per_frame
        )

    def test_invalid_inputs_rejected(self):
        config = offline(dnn=1e-4, search=1e-4)
        with pytest.raises(ConfigError):
            simulate_stream(config, 0)
        with pytest.raises(ConfigError):
            hybrid_speedup(config, 100, -1e-4)
        with pytest.raises(ConfigError):
            StageCost(per_session_s=-1.0)
        with pytest.raises(ConfigError):
            score_transfer(-1)


# Stage costs and frame periods in whole microseconds: a stage that keeps
# pace and one that does not then sit at least 1 us per frame slot apart.
stage_us = st.tuples(st.integers(0, 40), st.integers(0, 10))


def config_us(batch_frames, period_us, stages):
    """A config from (fixed, per-session) microsecond pairs."""
    dnn, transfer, search = (StageCost(f * 1e-6, p * 1e-6) for f, p in stages)
    return PipelineConfig(batch_frames, period_us * 1e-6, dnn, transfer, search)


def hybrid_seconds(total_frames, batch_frames, dnn_s, search_s):
    """Oracle: the closed-form two-stage makespan the timeline replaced."""
    full, rem = divmod(total_frames, batch_frames)
    chunks = [batch_frames] * full + ([rem] if rem else [])
    time = chunks[0] * dnn_s
    for prev, cur in zip(chunks, chunks[1:]):
        time += max(cur * dnn_s, prev * search_s)
    return time + chunks[-1] * search_s


class TestPipelineProperties:
    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 20), st.integers(2, 8), st.integers(1, 100),
        st.lists(stage_us, min_size=3, max_size=3), st.integers(1, 12),
    )
    def test_keeps_up_iff_latency_stays_flat(
        self, batch_frames, batches, period_us, stages, streams
    ):
        # At a tie the float sum decides, not the model.
        assume(all(f + p * streams != period_us for f, p in stages))
        config = config_us(batch_frames, period_us, stages)
        report = simulate_stream(config, batches * batch_frames, streams)
        latency = [b.latency_s for b in report.batches]
        if keeps_up(config, streams):
            assert latency == pytest.approx([latency[0]] * batches, abs=1e-9)
        else:
            # The slowest stage loses >= 1 us on each of the batch's slots.
            step = 0.5e-6 * batch_frames
            assert all(b - a > step for a, b in zip(latency, latency[1:]))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10_000), st.lists(stage_us, min_size=3, max_size=3))
    def test_max_realtime_streams_is_the_last_count_that_keeps_up(
        self, period_us, stages
    ):
        assume(any(p for _, p in stages))
        config = config_us(1, period_us, stages)
        n = max_realtime_streams(config)
        assert n == 0 or keeps_up(config, n)
        assert not keeps_up(config, n + 1)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 500), st.integers(1, 60),
        st.integers(0, 400), st.integers(0, 400),
    )
    def test_zero_transfer_makespan_is_the_closed_form(
        self, total_frames, batch_frames, dnn_us, search_us
    ):
        config = PipelineConfig(
            batch_frames, 0.0,
            dnn=StageCost(fixed_s=dnn_us * 1e-6),
            search=StageCost(per_session_s=search_us * 1e-6),
        )
        makespan = simulate_stream(config, total_frames).makespan_s
        assert makespan == pytest.approx(
            hybrid_seconds(
                total_frames, batch_frames, dnn_us * 1e-6, search_us * 1e-6
            ),
            rel=1e-12, abs=1e-15,
        )


class TestEnergyReport:
    def _report(self):
        return EnergyReport(
            [
                PlatformResult("GPU", decode_seconds=2.0, energy_j=100.0, speech_seconds=10.0),
                PlatformResult("ASIC", decode_seconds=1.0, energy_j=0.5, speech_seconds=10.0),
            ]
        )

    def test_speedup(self):
        rep = self._report()
        assert rep.speedup_vs("GPU")["ASIC"] == pytest.approx(2.0)

    def test_energy_reduction(self):
        rep = self._report()
        assert rep.energy_reduction_vs("GPU")["ASIC"] == pytest.approx(200.0)

    def test_realtime_flag(self):
        rep = self._report()
        rows = {r["platform"]: r for r in rep.rows()}
        assert rows["ASIC"]["realtime"]

    def test_metrics_per_speech_second(self):
        result = PlatformResult("X", 2.0, 100.0, 10.0)
        assert result.decode_time_per_speech_second == pytest.approx(0.2)
        assert result.energy_per_speech_second == pytest.approx(10.0)
        assert result.avg_power_w == pytest.approx(50.0)


class TestExperimentHarness:
    @pytest.fixture(scope="class")
    def workload(self):
        return make_memory_workload(
            num_utterances=1,
            frames_per_utterance=10,
            beam=6.0,
            max_active=300,
            seed=2,
            graph_config=SyntheticGraphConfig(
                num_states=3000, num_phones=50, seed=2
            ),
        )

    def test_all_platforms_present(self, workload):
        cmp = run_platform_comparison(workload)
        assert set(cmp.runs) == {
            "CPU", "GPU", "ASIC", "ASIC+State", "ASIC+Arc", "ASIC+State&Arc",
        }
        # The CPU and every accelerator variant share one search.
        for name in ("ASIC", "ASIC+State", "ASIC+Arc", "ASIC+State&Arc"):
            assert cmp.runs[name].search == cmp.runs["CPU"].search

    def test_subset_selection(self, workload):
        cmp = run_platform_comparison(workload, include=["CPU", "ASIC"])
        assert set(cmp.runs) == {"CPU", "ASIC"}

    def test_unknown_platform_names_are_rejected(self, workload):
        with pytest.raises(ConfigError) as info:
            run_platform_comparison(workload, include=["asic", "CPU", "TPU"])
        message = str(info.value)
        assert "'asic'" in message and "'TPU'" in message
        for name in (
            "CPU", "GPU", "ASIC", "ASIC+State", "ASIC+Arc", "ASIC+State&Arc",
        ):
            assert repr(name) in message

    def test_energies_positive(self, workload):
        cmp = run_platform_comparison(workload, include=["CPU", "GPU", "ASIC"])
        for run in cmp.runs.values():
            assert run.energy_j > 0
            assert run.decode_seconds > 0

    def test_workload_stable_active_set(self, workload):
        cmp = run_platform_comparison(workload, include=["CPU"])
        active = cmp.runs["CPU"].search.active_tokens_per_frame
        assert max(active) <= 300
