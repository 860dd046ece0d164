"""The harness's own arithmetic: schedules, percentiles, lags, spans."""

import pytest

from benchmarks.e2e.drivers import Outcome, build_schedule, final_lags
from benchmarks.e2e.stats import (
    faster_half_mean,
    highest_supported_percentile,
    order_matched_lags,
    percentile,
    quartile_spread,
    sliced_rates,
)
from benchmarks.e2e.tracing import Tracer, layer_table

FRAMES = [90, 120, 150, 101]


def test_schedule_is_a_pure_function_of_the_seed():
    a = build_schedule(7, FRAMES, streams=12, measure_s=3.0, chunk_frames=10)
    b = build_schedule(7, FRAMES, streams=12, measure_s=3.0, chunk_frames=10)
    c = build_schedule(8, FRAMES, streams=12, measure_s=3.0, chunk_frames=10)
    assert a == b
    assert a.arrival != c.arrival


def test_every_seed_offers_the_same_load():
    a = build_schedule(1, FRAMES, streams=12, measure_s=3.0, chunk_frames=10)
    b = build_schedule(2, FRAMES, streams=12, measure_s=3.0, chunk_frames=10)
    assert sum(a.measured) == sum(b.measured)
    assert len(a.arrival) == len(b.arrival)
    # 12 streams of 1.1525 s mean length: 10.41 arrivals/s over 3 s.
    assert sum(a.measured) == 31


def test_schedule_chunks_are_due_when_their_speech_has_been_heard():
    s = build_schedule(3, FRAMES, streams=4, measure_s=2.0, chunk_frames=10)
    by_session = {}
    for due, session, first, end in s.events:
        assert due == pytest.approx(s.arrival[session] + 0.01 * end)
        assert first == by_session.get(session, 0)
        by_session[session] = end
    assert list(s.events) == sorted(s.events)
    for session, end in by_session.items():
        if s.eos[session] <= s.stop:
            assert end == FRAMES[s.utterance[session]]


def test_highest_percentile_with_ten_samples_beyond():
    assert highest_supported_percentile(19) == 50.0
    assert highest_supported_percentile(20) == 50.0
    assert highest_supported_percentile(99) == 75.0
    assert highest_supported_percentile(100) == 90.0
    assert highest_supported_percentile(190) == 90.0
    assert highest_supported_percentile(200) == 95.0
    assert highest_supported_percentile(1000) == 99.0
    assert highest_supported_percentile(10000) == 99.9


def test_percentile_interpolates():
    assert percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.5
    assert percentile([5.0], 90.0) == 5.0
    with pytest.raises(ValueError):
        percentile([], 50.0)


def test_order_matched_lag_pairs_kth_arrival_with_kth_start():
    starts = [3.0, 1.0, 2.0]
    arrivals = [2.5, 1.5, 3.25]
    assert order_matched_lags(starts, arrivals) == [0.5, 0.5, 0.25]
    # A start whose record has not arrived is left out.
    assert order_matched_lags([1.0, 2.0, 3.0], [1.5]) == [0.5]


def test_final_lags_keep_only_measured_sessions():
    out = Outcome(
        eos=[1.0, 2.0, 3.0], session=[0, 1, 2], arrivals=[1.1, 2.3, 3.2],
        measured=[False, True, True],
    )
    assert final_lags(out) == pytest.approx([0.3, 0.2])
    out.measured = None
    assert final_lags(out) == pytest.approx([0.1, 0.3, 0.2])


def test_sliced_rates_credit_each_completion_to_its_slice():
    # 100 units complete every 0.1 s for 5 s, except that nothing at all
    # completes during the second second.
    times = [0.1 * k + 0.05 for k in range(50) if not 10 <= k < 20]
    rates = sliced_rates(times, [100.0] * len(times), 0.0, 5.0)
    assert rates == pytest.approx([1000.0, 0.0, 1000.0, 1000.0, 1000.0])
    # The faster half does not see the stalled second; the total does.
    assert faster_half_mean(rates) == pytest.approx(1000.0)
    assert 100.0 * len(times) / 5.0 == pytest.approx(800.0)
    # Completions outside the window are not credited to it.
    assert sliced_rates([-0.5, 0.5, 1.5, 2.5, 3.5], [9.0, 1.0, 1.0, 1.0, 9.0], 0.0, 3.0) == [
        1.0, 1.0, 1.0,
    ]
    # The window is cut into equal slices of about a second.
    assert sliced_rates([0.5, 1.7, 2.9], [7.0, 7.0, 7.0], 0.0, 3.6) == pytest.approx(
        [7.0 / 1.2] * 3
    )
    # Too short to slice: the caller falls back on the total.
    assert sliced_rates([0.5], [1.0], 0.0, 2.9) == []


def test_faster_half_mean_keeps_the_middle_one_of_an_odd_count():
    assert faster_half_mean([10.0, 30.0, 20.0, 40.0]) == 35.0
    assert faster_half_mean([10.0, 30.0, 20.0, 40.0, 50.0]) == 40.0
    assert faster_half_mean([3.0, 1.0, 2.0], faster="lower") == 1.5
    assert faster_half_mean([7.0]) == 7.0
    with pytest.raises(ValueError):
        faster_half_mean([])


def test_quartile_spread_matches_the_driver():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, median, q3, spread = quartile_spread(values)
    assert (q1, median, q3) == (11.75, 14.5, 17.25)
    assert spread == pytest.approx(5.5 / 14.5)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_span_self_time_and_residual():
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.span("round"):
        clock.now = 1.0                      # 1 s of the driver's own time
        with tracer.span("server.step"):
            clock.now = 2.0                  # 1 s of step before the sweep
            with tracer.span("kernel.sweep"):
                clock.now = 3.0
                with tracer.span("backend.expand_fused"):
                    clock.now = 6.0          # 3 s inside the op
                clock.now = 7.0
            clock.now = 8.0
        with tracer.span("unclaimed"):
            clock.now = 9.0
        clock.now = 10.0
    totals = tracer.totals()
    assert totals["round"] == (1, 10.0, 2.0)
    assert totals["server.step"] == (1, 7.0, 2.0)
    assert totals["kernel.sweep"] == (1, 5.0, 2.0)
    assert totals["backend.expand_fused"] == (1, 3.0, 3.0)
    assert tracer.inclusive_under("kernel.sweep", "server.step") == 5.0
    assert tracer.inclusive_under("kernel.sweep", "round") == 0.0

    rows, wall, residual = layer_table(
        tracer, "round",
        {"server.step": "server", "kernel.sweep": "kernel",
         "backend.expand_fused": "backend"},
    )
    assert wall == 10.0
    assert dict((name, self_s) for name, _, self_s in rows) == {
        "backend": 3.0, "server": 2.0, "kernel": 2.0,
    }
    # The round's own 2 s and the 1 s no layer claims.
    assert residual == pytest.approx(0.3)
    assert sum(self_s for _, _, self_s in rows) + residual * wall == pytest.approx(wall)
