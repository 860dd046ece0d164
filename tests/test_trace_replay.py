"""Equivalence suite for the trace-once/replay-many split.

The contract: for every accelerator configuration, replaying a recorded
:class:`~repro.accel.trace.DecodeTrace` must be *cycle-identical* (and
statistics-identical) to running the monolithic
:class:`~repro.accel.simulator.AcceleratorSimulator`, and word-identical
on the decoded output.  The grid below crosses the Table I operating
point with deliberately hostile variants: tiny caches (thrashing), tiny
hash tables with tiny backup buffers (collision chains + Overflow Buffer
spills), long-latency narrow memory controllers (queueing), deep and
shallow prefetch windows, perfect components and the Section IV-B sorted
layout at several comparator counts.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.common.errors import ConfigError, SimulationError
from repro.accel import (
    AcceleratorConfig,
    AcceleratorSimulator,
    CacheConfig,
    HashConfig,
    TraceRecorder,
    TraceReplayer,
)
from repro.accel.replay import MISS, _issue_order, lru_outcomes, timing_passes
from repro.accel.simulator import address_map
from repro.datasets import SyntheticGraphConfig
from repro.system import make_memory_workload
from repro.wfst import ARC_BYTES, STATE_BYTES, sort_states_by_arc_count

BASE = AcceleratorConfig()

#: The equivalence grid: >= 8 distinct configurations (acceptance
#: criterion), spanning every timing knob the sweeps turn.
CONFIGS = {
    "table1": BASE,
    "prefetch": BASE.with_prefetch(),
    "prefetch-shallow": replace(
        BASE, prefetch_enabled=True, prefetch_fifo_entries=4
    ),
    "state-direct": BASE.with_state_direct(),
    "both": BASE.with_both(),
    "tiny-caches": replace(
        BASE,
        state_cache=CacheConfig(2 * 1024, 2),
        arc_cache=CacheConfig(4 * 1024, 2),
        token_cache=CacheConfig(1024, 1, line_bytes=32),
    ),
    "tiny-hash-overflow": replace(
        BASE, hash_table=HashConfig(num_entries=32, backup_entries=4)
    ),
    "collisions-no-overflow": replace(
        BASE, hash_table=HashConfig(num_entries=64, backup_entries=1 << 20)
    ),
    "slow-narrow-memory": replace(
        BASE, mem_latency_cycles=200, mem_max_inflight=2
    ),
    "perfect-everything": replace(
        BASE,
        state_cache=replace(BASE.state_cache, perfect=True),
        arc_cache=replace(BASE.arc_cache, perfect=True),
        token_cache=replace(BASE.token_cache, perfect=True),
        hash_table=replace(BASE.hash_table, perfect=True),
    ),
    "zero-overhead": replace(BASE, frame_overhead_cycles=0),
    "hostile-combo": replace(
        BASE.with_prefetch(),
        arc_cache=CacheConfig(2 * 1024, 1),
        hash_table=HashConfig(num_entries=16, backup_entries=2),
        mem_latency_cycles=120,
        mem_max_inflight=4,
        prefetch_fifo_entries=16,
    ),
}


@pytest.fixture(scope="module")
def workload():
    return make_memory_workload(
        num_utterances=2,
        frames_per_utterance=8,
        beam=8.0,
        max_active=150,
        seed=9,
        graph_config=SyntheticGraphConfig(
            num_states=1500, num_phones=30, seed=9
        ),
    )


def fresh_recorder(workload, graph=None):
    return TraceRecorder(
        graph if graph is not None else workload.graph,
        beam=workload.beam, max_active=workload.max_active,
    )


@pytest.fixture(scope="module")
def traces(workload):
    recorder = fresh_recorder(workload)
    return [recorder.record(s) for s in workload.scores]


@pytest.fixture(scope="module")
def sorted_traces(workload):
    recorder = fresh_recorder(workload, workload.sorted_graph.graph)
    return [recorder.record(s) for s in workload.scores]


def assert_results_identical(sim_result, replay_result):
    assert replay_result.words == sim_result.words
    assert replay_result.log_likelihood == sim_result.log_likelihood
    assert replay_result.reached_final == sim_result.reached_final
    # Cycle-identical, frame by frame.
    assert replay_result.stats.cycles == sim_result.stats.cycles
    assert replay_result.stats.frame_cycles == sim_result.stats.frame_cycles
    # The full statistics dataclasses match field for field.
    assert replay_result.stats == sim_result.stats
    assert replay_result.search == sim_result.search


class TestCycleEquivalence:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_replay_matches_simulator(
        self, workload, traces, sorted_traces, name
    ):
        config = CONFIGS[name]
        sorted_graph = (
            workload.sorted_graph if config.state_direct_enabled else None
        )
        sim = AcceleratorSimulator(
            workload.graph, config, beam=workload.beam,
            sorted_graph=sorted_graph, max_active=workload.max_active,
        )
        replayer = TraceReplayer(
            workload.graph, config, sorted_graph=sorted_graph
        )
        layout_traces = (
            sorted_traces if config.state_direct_enabled else traces
        )
        for scores, trace in zip(workload.scores, layout_traces):
            assert_results_identical(sim.decode(scores), replayer.replay(trace))

    @pytest.mark.parametrize("n", [2, 8, 16])
    def test_sorted_layouts_by_comparator_count(self, workload, n):
        """Each Section IV-B comparator count N is its own layout+trace."""
        sorted_graph = sort_states_by_arc_count(
            workload.graph, max_direct_arcs=n
        )
        config = replace(
            BASE, state_direct_enabled=True, state_direct_max_arcs=n
        )
        recorder = TraceRecorder(
            sorted_graph.graph, beam=workload.beam,
            max_active=workload.max_active,
        )
        sim = AcceleratorSimulator(
            workload.graph, config, beam=workload.beam,
            sorted_graph=sorted_graph, max_active=workload.max_active,
        )
        replayer = TraceReplayer(
            workload.graph, config, sorted_graph=sorted_graph
        )
        scores = workload.scores[0]
        assert_results_identical(
            sim.decode(scores), replayer.replay(recorder.record(scores))
        )

    def test_no_max_active_and_wide_beam(self, workload):
        """Unlimited active set exercises the unpruned read walk."""
        recorder = TraceRecorder(workload.graph, beam=20.0, max_active=0)
        sim = AcceleratorSimulator(workload.graph, BASE, beam=20.0)
        replayer = TraceReplayer(workload.graph, BASE)
        scores = workload.scores[0]
        assert_results_identical(
            sim.decode(scores), replayer.replay(recorder.record(scores))
        )

    def test_overflow_reads_priced(self, workload, traces):
        """A spilled hash table charges DRAM trips in the next token walk."""
        config = CONFIGS["tiny-hash-overflow"]
        replayer = TraceReplayer(workload.graph, config)
        result = replayer.replay(traces[0])
        assert result.stats.hash.overflows > 0
        assert result.stats.traffic.region_bytes("overflow") > 0


class TestTraceContract:
    def test_trace_records_functional_result(self, workload, traces):
        sim = AcceleratorSimulator(
            workload.graph, BASE, beam=workload.beam,
            max_active=workload.max_active,
        )
        for scores, trace in zip(workload.scores, traces):
            result = sim.decode(scores)
            assert trace.words == result.words
            assert trace.log_likelihood == result.log_likelihood
            assert trace.search == result.search

    def test_trace_is_compact(self, traces):
        """The event arrays stay within a small multiple of the arc count."""
        t = traces[0]
        assert t.nbytes < 64 * t.num_events + 4096

    def test_layout_mismatch_rejected(self, workload, sorted_traces):
        replayer = TraceReplayer(workload.graph, BASE)
        with pytest.raises(SimulationError):
            replayer.replay(sorted_traces[0])

    def test_state_direct_requires_sorted_graph(self, workload):
        with pytest.raises(ConfigError):
            TraceReplayer(workload.graph, BASE.with_state_direct())

    def test_acoustic_buffer_capacity_enforced(self, workload, traces):
        tiny = replace(BASE, acoustic_buffer_bytes=64)
        replayer = TraceReplayer(workload.graph, tiny)
        with pytest.raises(ConfigError):
            replayer.replay(traces[0])

    def test_save_load_roundtrip(self, tmp_path, workload, traces):
        path = str(tmp_path / "trace.npz")
        traces[0].save(path)
        from repro.accel import DecodeTrace

        loaded = DecodeTrace.load(path)
        replayer = TraceReplayer(workload.graph, BASE)
        assert_results_identical(
            replayer.replay(traces[0]), replayer.replay(loaded)
        )

    def test_load_rejects_wrong_version(self, tmp_path, traces, monkeypatch):
        import repro.accel.trace as trace_mod

        path = str(tmp_path / "trace.npz")
        traces[0].save(path)
        monkeypatch.setattr(trace_mod, "TRACE_FORMAT_VERSION", 999)
        from repro.accel import DecodeTrace

        with pytest.raises(SimulationError):
            DecodeTrace.load(path)


def distinct_behaviours(workload, trace, configs):
    """How many timing passes pricing ``configs`` on ``trace`` needs,
    from the tag stores alone: one per distinct (Arc miss stream, State
    miss stream, configuration without cache geometry).  A unit's line
    stream is fixed by the trace, so its miss flags name its codes.
    Flat layout, non-perfect caches and one Token cache only."""
    states_base, arcs_base, _ = address_map(workload.graph)
    _, _, states, arc_idx, _ = _issue_order(trace)

    def misses(addresses, cache):
        lines = addresses // cache.line_bytes
        src = lru_outcomes(lines, cache.num_sets, cache.assoc).src
        return (src == MISS).tobytes()

    assert len({c.token_cache for c in configs}) == 1
    return len({
        (
            misses(arcs_base + arc_idx * ARC_BYTES, c.arc_cache),
            misses(states_base + states * STATE_BYTES, c.state_cache),
            replace(c, arc_cache=BASE.arc_cache, state_cache=BASE.state_cache),
        )
        for c in configs
    })


class TestSharedTraceMemo:
    """Everything the replayer memoises on a trace is keyed by all of its
    inputs (REP003): a trace priced under many configurations, in any
    order, prices each exactly as a freshly recorded trace would, and
    runs one timing pass per distinct cache behaviour."""

    #: Shaped like ``benchmarks/e2e``'s ``ACCEL_GRID`` (6 Arc-cache sizes
    #: x prefetch off/on x 2 State-cache sizes), scaled to this graph.
    GRID = [
        replace(
            BASE,
            arc_cache=CacheConfig(arc_kib * 1024, 4),
            prefetch_enabled=prefetch,
            state_cache=CacheConfig(state_kib * 1024, 4),
        )
        for arc_kib in (1, 2, 4, 8, 16, 32)
        for prefetch in (False, True)
        for state_kib in (1, 4)
    ]
    #: Branches the grid does not reach, kept covered on the shared trace.
    EXTRAS = [
        replace(BASE, arc_cache=replace(BASE.arc_cache, perfect=True)),
        CONFIGS["tiny-hash-overflow"],
    ]

    @pytest.fixture(scope="class")
    def alone(self, workload):
        """Every point priced alone, on a trace nothing else touched."""
        recorder = fresh_recorder(workload)
        return [
            TraceReplayer(workload.graph, config).replay(
                recorder.record(workload.scores[0])
            )
            for config in self.GRID + self.EXTRAS
        ]

    @pytest.mark.parametrize("order", ["forward", "reversed", "shuffled"])
    def test_pricing_order_does_not_matter(self, workload, alone, order):
        configs = self.GRID + self.EXTRAS
        indices = list(range(len(configs)))
        if order == "reversed":
            indices.reverse()
        elif order == "shuffled":
            np.random.default_rng(16).shuffle(indices)
        shared = fresh_recorder(workload).record(workload.scores[0])
        for index in indices:
            result = TraceReplayer(workload.graph, configs[index]).replay(shared)
            # SimStats equality covers frame_cycles, every traffic region
            # and token_cache.writebacks.
            assert_results_identical(alone[index], result)
        # The perfect Arc cache and the small hash table time apart from
        # every grid point.
        assert timing_passes(shared) == distinct_behaviours(
            workload, shared, self.GRID
        ) + len(self.EXTRAS)

    def test_priced_alone_matches_the_simulator(self, workload, alone):
        configs = self.GRID + self.EXTRAS
        for index in range(len(configs)):
            sim = AcceleratorSimulator(
                workload.graph, configs[index], beam=workload.beam,
                max_active=workload.max_active,
            )
            assert_results_identical(
                sim.decode(workload.scores[0]), alone[index]
            )
        overflowing = alone[-1].stats
        assert overflowing.hash.overflows > 0
        assert overflowing.traffic.region_bytes("overflow") > 0

    def test_one_timing_pass_per_distinct_behaviour(self, workload):
        """The Arc caches that hold the trace's working set miss once per
        line, all in the same order: they share every timing pass, and
        the grid runs fewer passes than it has points."""
        trace = fresh_recorder(workload).record(workload.scores[0])
        results = [
            TraceReplayer(workload.graph, config).replay(trace)
            for config in self.GRID
        ]
        lines = len(np.unique(
            (address_map(workload.graph)[1] + _issue_order(trace)[3]
             * ARC_BYTES) // 64
        ))
        holding = {
            config.arc_cache.size_bytes
            for config, result in zip(self.GRID, results)
            if result.stats.arc_cache.misses == lines
        }
        assert len(holding) >= 2
        expected = distinct_behaviours(workload, trace, self.GRID)
        assert timing_passes(trace) == expected < len(self.GRID)

    @pytest.mark.parametrize("change", [
        {"mem_latency_cycles": 80},
        {"prefetch_enabled": True},
        {"frame_overhead_cycles": 0},
        {"traceback_window_frames": 3},
    ])
    def test_a_timing_field_never_shares_a_pass(self, workload, change):
        """Equal caches, one timing field apart: two passes, and the
        second point prices as it would alone and in the simulator (which
        prices only the append-only traceback buffer)."""
        config = replace(BASE, **change)
        recorder = fresh_recorder(workload)
        shared = recorder.record(workload.scores[0])
        TraceReplayer(workload.graph, BASE).replay(shared)
        result = TraceReplayer(workload.graph, config).replay(shared)
        assert timing_passes(shared) == 2
        assert_results_identical(
            TraceReplayer(workload.graph, config).replay(
                recorder.record(workload.scores[0])
            ),
            result,
        )
        if not config.traceback_window_frames:
            sim = AcceleratorSimulator(
                workload.graph, config, beam=workload.beam,
                max_active=workload.max_active,
            )
            assert_results_identical(sim.decode(workload.scores[0]), result)

    def test_equal_sets_and_lines_but_different_ways(self, workload):
        """32 sets of 64-byte lines, 2 against 4 ways: the outcome memo
        must tell them apart."""
        two_way = replace(BASE, arc_cache=CacheConfig(4 * 1024, 2))
        four_way = replace(BASE, arc_cache=CacheConfig(8 * 1024, 4))
        assert two_way.arc_cache.num_sets == four_way.arc_cache.num_sets
        recorder = fresh_recorder(workload)
        shared = recorder.record(workload.scores[0])
        results = []
        for config in (two_way, four_way):
            replayer = TraceReplayer(workload.graph, config)
            results.append(replayer.replay(shared))
            assert_results_identical(
                replayer.replay(recorder.record(workload.scores[0])),
                results[-1],
            )
        assert (
            results[0].stats.arc_cache.misses
            > results[1].stats.arc_cache.misses
        )

    def test_flat_and_direct_lookup_state_cache_share_a_trace(self, workload):
        """One sorted-layout trace priced with every state fetched and
        with the Section IV-B boundary: different State-cache streams."""
        sorted_graph = workload.sorted_graph
        recorder = fresh_recorder(workload, sorted_graph.graph)
        flat = TraceReplayer(sorted_graph.graph, BASE)
        direct = TraceReplayer(
            workload.graph, BASE.with_state_direct(), sorted_graph=sorted_graph
        )
        shared = recorder.record(workload.scores[0])
        for replayer in (flat, direct, flat):
            assert_results_identical(
                replayer.replay(recorder.record(workload.scores[0])),
                replayer.replay(shared),
            )
        assert flat.replay(shared).stats.states_direct == 0
        assert direct.replay(shared).stats.states_direct > 0
