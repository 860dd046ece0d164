"""Tests for the whole-pipeline system model and the experiment harness."""

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.accel import AcceleratorConfig, AcceleratorSimulator
from repro.accel.stats import SimStats
from repro.common.errors import ConfigError
from repro.datasets import SyntheticGraphConfig
from repro.decoder.result import SearchStats
from repro.explore import SweepRunner, TraceCache
from repro.system import (
    ComparisonResult,
    PlatformRun,
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
from repro.system.experiment import accelerator_configs


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
    """The derived metrics of the comparison result."""

    def _report(self):
        return ComparisonResult(
            {
                "GPU": PlatformRun("GPU", 2.0, 100.0, 10.0, SearchStats()),
                "ASIC": PlatformRun("ASIC", 1.0, 0.5, 10.0, SearchStats()),
            },
            speech_seconds=10.0,
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
        result = PlatformRun("X", 2.0, 100.0, 10.0, SearchStats())
        assert result.decode_time_per_speech_second == pytest.approx(0.2)
        assert result.energy_per_speech_second == pytest.approx(10.0)
        assert result.avg_power_w == pytest.approx(50.0)


#: Every row of the comparison on ``TestExperimentHarness``'s workload at
#: Table I: (decode seconds, energy J, accelerator cycles).  Fixed numbers,
#: so a change to how the rows are priced cannot move a figure unnoticed.
GOLDEN_ROWS = {
    "CPU": (0.00042610900000000004, 0.013720709800000003, None),
    "GPU": (0.00015605460000000002, 0.011922571440000003, None),
    "ASIC": (2.9188333333333333e-05, 1.2645703458604432e-05, 17513),
    "ASIC+State": (2.8408333333333334e-05, 1.1597135949060519e-05, 17045),
    "ASIC+Arc": (1.623e-05, 9.294541858604433e-06, 9738),
    "ASIC+State&Arc": (1.1916666666666667e-05, 7.28753519906052e-06, 7150),
}


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

    @pytest.fixture(scope="class")
    def cmp(self, workload):
        return run_platform_comparison(SweepRunner(workload))

    def test_all_platforms_present(self, cmp):
        assert list(cmp.runs) == [
            "CPU", "GPU", "ASIC", "ASIC+State", "ASIC+Arc", "ASIC+State&Arc",
        ]
        # The CPU and every accelerator variant share one search.
        for name in ("ASIC", "ASIC+State", "ASIC+Arc", "ASIC+State&Arc"):
            assert cmp.runs[name].search == cmp.runs["CPU"].search

    def test_every_row_matches_the_golden(self, cmp):
        for name, (seconds, energy, cycles) in GOLDEN_ROWS.items():
            run = cmp.runs[name]
            assert run.decode_seconds == pytest.approx(seconds, rel=1e-12)
            assert run.energy_j == pytest.approx(energy, rel=1e-12)
            got = run.sim_stats.cycles if run.sim_stats else None
            assert got == cycles, name

    def test_energies_positive(self, cmp):
        for run in cmp.runs.values():
            assert run.energy_j > 0
            assert run.decode_seconds > 0

    def test_workload_stable_active_set(self, cmp):
        active = cmp.runs["CPU"].search.active_tokens_per_frame
        assert max(active) <= 300

    def test_comparator_count_prices_its_own_layout(self, workload):
        """With N = 4 the state-direct rows walk the N = 4 layout, as the
        monolithic simulator does, not the default N = 16 one."""
        base = AcceleratorConfig(state_direct_max_arcs=4)
        cmp = run_platform_comparison(SweepRunner(workload, base_config=base))
        for name in ("ASIC+State", "ASIC+State&Arc"):
            got = cmp.runs[name].sim_stats
            sim = AcceleratorSimulator(
                workload.graph, accelerator_configs(base)[name],
                beam=workload.beam, max_active=workload.max_active,
            )
            expected = SimStats.merge(
                [sim.decode(s).stats for s in workload.scores]
            )
            assert got.cycles == expected.cycles
            assert got.states_direct == expected.states_direct
        state = cmp.runs["ASIC+State"].sim_stats
        assert (state.cycles, state.states_direct) == (17112, 1242)

    def test_comparison_and_a_cache_sweep_share_one_recording(self, workload):
        """Figs. 9-14 and a Fig.-4-style capacity sweep of the same
        workload, through one trace cache: one functional search."""
        cache = TraceCache()
        run_platform_comparison(SweepRunner(workload, trace_cache=cache))
        sweep = SweepRunner(workload, trace_cache=cache).run(
            [{"arc_cache.size_bytes": kib * 1024} for kib in (256, 1024)]
        )
        assert cache.recordings == 1
        assert sweep.trace_recordings == 0
