"""Tests for the streaming pipeline model (`repro.system.pipeline`)."""

import pytest

from repro.common.errors import ConfigError
from repro.system import (
    PipelineConfig,
    StageCost,
    keeps_up,
    max_realtime_streams,
    simulate_stream,
)


def stream(dnn=4e-5, transfer=2e-6, search=3e-5):
    """Real-time streams in 50-frame batches; stage costs in seconds per
    frame of each stream."""
    return PipelineConfig(
        dnn=StageCost(per_session_s=dnn),
        transfer=StageCost(per_session_s=transfer),
        search=StageCost(per_session_s=search),
    )


def batched(search=3e-5):
    """A shared engine: the DNN and the search each cost three quarters of
    their one-stream cost per frame slot, plus a quarter per stream."""
    return PipelineConfig(
        dnn=StageCost(3e-5, 1e-5),
        transfer=StageCost(per_session_s=2e-6),
        search=StageCost(0.75 * search, 0.25 * search),
    )


class TestStreaming:
    def test_sustains_realtime_when_stages_fast(self):
        config = stream(dnn=2e-3, search=1e-3)
        report = simulate_stream(config, 1000)
        assert keeps_up(config, 1)
        assert report.max_latency_s < 1.0

    def test_latency_grows_when_search_too_slow(self):
        config = stream(dnn=2e-3, search=25e-3)  # 2.5x slower than real time
        report = simulate_stream(config, 2000)
        assert not keeps_up(config, 1)
        assert report.batches[-1].latency_s > report.batches[0].latency_s

    def test_short_stream_that_falls_behind_does_not_keep_up(self):
        """Three batches are enough to tell: a search 100x slower than real
        time falls behind on every batch."""
        config = stream(dnn=0.0, transfer=0.0, search=1.0)
        report = simulate_stream(config, 150)
        assert [b.latency_s for b in report.batches] == pytest.approx(
            [50.0, 99.5, 149.0]
        )
        assert not keeps_up(config, 1)

    def test_batch_timeline_ordered(self):
        report = simulate_stream(stream(), 325)
        assert len(report.batches) == 7  # 6 full + 1 remainder
        for b in report.batches:
            assert b.audio_complete_s <= b.dnn_done_s
            assert b.dnn_done_s <= b.transfer_done_s
            assert b.transfer_done_s <= b.search_done_s

    def test_latency_positive(self):
        report = simulate_stream(stream(), 100)
        assert report.mean_latency_s > 0
        assert report.max_latency_s >= report.mean_latency_s

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig(batch_frames=0)
        with pytest.raises(ConfigError):
            PipelineConfig(dnn=4e-5)  # a bare number is not a StageCost
        with pytest.raises(ConfigError):
            simulate_stream(stream(), 0)

    def test_negative_times_rejected(self):
        """The frame period and both terms of every stage cost are
        validated."""
        with pytest.raises(ConfigError):
            PipelineConfig(frame_period_s=-0.01)
        with pytest.raises(ConfigError):
            StageCost(fixed_s=-1e-5)
        with pytest.raises(ConfigError):
            StageCost(per_session_s=-1e-5)


class TestBatchedStreaming:
    def test_one_stream_matches_single_stream_model(self):
        """At one stream a cost's fixed and per-session terms are one cost."""
        split = simulate_stream(batched(), 1000, streams=1)
        whole = simulate_stream(stream(), 1000)
        assert split.mean_latency_s == pytest.approx(whole.mean_latency_s)
        assert split.max_latency_s == pytest.approx(whole.max_latency_s)

    def test_more_streams_cost_more_latency(self):
        few = simulate_stream(batched(), 1000, streams=2)
        many = simulate_stream(batched(), 1000, streams=64)
        assert many.mean_latency_s >= few.mean_latency_s

    def test_per_session_zero_makes_streams_free(self):
        config = PipelineConfig(
            dnn=StageCost(fixed_s=4e-5),
            transfer=StageCost(fixed_s=2e-6),
            search=StageCost(fixed_s=3e-5),
        )
        for stage in config.stages:
            assert stage.seconds(100) == stage.seconds(1)
        one = simulate_stream(config, 1000, streams=1)
        hundred = simulate_stream(config, 1000, streams=100)
        assert hundred.batches == one.batches

    def test_max_realtime_streams_monotonic_in_engine_speed(self):
        slow = batched(search=3e-3)
        fast = batched(search=3e-5)
        assert max_realtime_streams(fast) >= max_realtime_streams(slow)

    def test_max_realtime_streams_keeps_up(self):
        config = batched(search=1e-3)
        capacity = max_realtime_streams(config)
        assert capacity >= 1
        assert keeps_up(config, capacity)
        assert not keeps_up(config, capacity + 1)
        report = simulate_stream(config, 2000, streams=capacity)
        first = report.batches[0].latency_s
        assert report.max_latency_s == pytest.approx(first)

    def test_transfer_grows_with_streams_and_bounds_capacity(self):
        """The score link carries every stream's scores, so its time per
        batch grows with the count and it can be the bottleneck."""
        config = stream(dnn=1e-4, transfer=1e-3, search=1e-4)

        def transfer_s(streams):
            first = simulate_stream(config, 50, streams).batches[0]
            return first.transfer_done_s - first.dnn_done_s

        assert transfer_s(4) == pytest.approx(4 * transfer_s(1))
        assert max_realtime_streams(config) == 10  # 10 ms / 1 ms per stream
        assert not keeps_up(config, 11)
        ten_s_per_batch = stream(dnn=0.0, transfer=0.2, search=0.0)
        assert max_realtime_streams(ten_s_per_batch) == 0
        assert not keeps_up(ten_s_per_batch, 1)

    def test_no_per_session_cost_raises_config_error(self):
        """No stage grows with the count, so every count keeps up and there
        is no largest one to report."""
        config = PipelineConfig(
            dnn=StageCost(fixed_s=4e-5), search=StageCost(fixed_s=3e-5)
        )
        assert keeps_up(config, 1_000_000)
        with pytest.raises(ConfigError, match="per-session"):
            max_realtime_streams(config)

    def test_invalid_batched_config_rejected(self):
        with pytest.raises(ConfigError):
            simulate_stream(batched(), 100, streams=0)
        with pytest.raises(ConfigError):
            keeps_up(batched(), 0)
