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
layout at several comparator counts.  Every replayer takes baseline
traces: a Section IV-B configuration's replayer relabels them onto its
sorted layout, and a property holds that relabelling to a recording on
the sorted graph.
"""

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigError, DecodeError, SimulationError
from repro.acoustic.scorer import AcousticScores
from repro.accel import (
    AcceleratorConfig,
    AcceleratorSimulator,
    CacheConfig,
    DecodeTrace,
    HashConfig,
    TraceRecorder,
    TraceReplayer,
    derive_sorted_trace,
)
from repro.accel.replay import MISS, _issue_order, lru_outcomes, timing_passes
from repro.accel.simulator import address_map
from repro.datasets import SyntheticGraphConfig, generate_kaldi_like_graph
from repro.decoder import DecoderConfig
from repro.system import make_memory_workload
from repro.system.experiment import accelerator_configs
from repro.wfst import ARC_BYTES, STATE_BYTES
from repro.wfst.fst import Fst
from repro.wfst.layout import CompiledWfst

BASE = AcceleratorConfig()
VARIANTS = accelerator_configs(BASE)

#: The equivalence grid: >= 8 distinct configurations (acceptance
#: criterion), spanning every timing knob the sweeps turn.
CONFIGS = {
    "table1": BASE,
    "prefetch": VARIANTS["ASIC+Arc"],
    "prefetch-shallow": replace(
        BASE, prefetch_enabled=True, prefetch_fifo_entries=4
    ),
    "state-direct": VARIANTS["ASIC+State"],
    "both": VARIANTS["ASIC+State&Arc"],
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
        VARIANTS["ASIC+Arc"],
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
    """Recordings on the N = 16 sorted layout, which no replayer takes."""
    recorder = fresh_recorder(workload, workload.graph.sorted_layout(16).graph)
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


def assert_traces_identical(got, want):
    """Every compared field of two traces equal, the event arrays byte
    for byte (dtype included): header, words, likelihood and
    ``SearchStats`` too."""
    for f in fields(DecodeTrace):
        if not f.compare:
            continue
        a, b = getattr(got, f.name), getattr(want, f.name)
        if f.name in DecodeTrace._ARRAYS:
            assert a.dtype == b.dtype, f.name
            assert a.tobytes() == b.tobytes(), f.name
        else:
            assert a == b, f.name


class TestCycleEquivalence:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_replay_matches_simulator(self, workload, traces, name):
        config = CONFIGS[name]
        sim = AcceleratorSimulator(
            workload.graph, config, beam=workload.beam,
            max_active=workload.max_active,
        )
        replayer = TraceReplayer(workload.graph, config)
        for scores, trace in zip(workload.scores, traces):
            assert_results_identical(sim.decode(scores), replayer.replay(trace))

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
    def test_sorted_layouts_by_comparator_count(self, workload, n):
        """Each Section IV-B comparator count N walks its own layout; the
        simulator and the replayer both derive it from the config, and
        the replayer relabels the baseline trace onto it."""
        config = replace(
            BASE, state_direct_enabled=True, state_direct_max_arcs=n
        )
        sim = AcceleratorSimulator(
            workload.graph, config, beam=workload.beam,
            max_active=workload.max_active,
        )
        replayer = TraceReplayer(workload.graph, config)
        assert replayer.sorted_graph is workload.graph.sorted_layout(n)
        scores = workload.scores[0]
        trace = fresh_recorder(workload).record(scores)
        result = replayer.replay(trace)
        assert_results_identical(sim.decode(scores), result)
        assert result.stats.states_direct > 0

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


class TestPassesEndDrained:
    """A pipeline pass (a frame's emit pass or an epsilon pass) ends only
    once every State Issuer fetch has returned, so no pass inherits a
    request in flight and each can be priced on its own."""

    @staticmethod
    def eps_only_tail_graph():
        """Start state 8 reaches 9 (a self-loop) and 100, whose only arc is
        an epsilon arc to 16, whose only arc is an epsilon arc back to 9.
        In a two-set direct-mapped State cache, 16's record evicts 100's,
        so frame 1 walks 9 (resident), then 100 (a miss, and the frame's
        last survivor: nothing downstream waits for its record), then 16
        (pruned)."""
        fst = Fst()
        fst.add_states(101)
        fst.set_start(8)
        fst.add_arc(8, 1, 0, 0.0, 9)
        fst.add_arc(8, 1, 0, 0.0, 100)
        fst.add_arc(9, 1, 0, 0.0, 9)
        fst.add_arc(100, 0, 0, -50.0, 16)
        fst.add_arc(16, 0, 0, -50.0, 9)  # never improves state 9
        fst.set_final(9)
        return CompiledWfst.from_fst(fst, arcsort=False)

    def test_a_fetch_with_no_arcs_is_waited_for(self):
        graph = self.eps_only_tail_graph()
        scores = AcousticScores(np.array([[-1e9, -1.0]] * 3))
        config = replace(
            BASE, state_cache=CacheConfig(128, 1), mem_latency_cycles=500
        )
        sim = AcceleratorSimulator(graph, config, beam=10.0).decode(scores)
        assert sim.search.active_tokens_per_frame == [1, 2, 1]
        # State 100's fetch misses in frame 1's emit pass: the frame lasts
        # at least the DRAM round trip nothing else waited for.
        assert sim.stats.frame_cycles[1] > config.mem_latency_cycles
        trace = TraceRecorder(graph, beam=10.0).record(scores)
        assert_results_identical(
            sim, TraceReplayer(graph, config).replay(trace)
        )

    def test_a_pruned_tokens_overflow_read_is_waited_for(self):
        """One hash bucket and no backup entries: state 10's token chains
        behind state 9's and spills to the Overflow Buffer, so frame 1's
        walk reads it from DRAM -- last, and for a token the beam prunes,
        so nothing downstream waits for that read either."""
        fst = Fst()
        fst.add_states(11)
        fst.set_start(8)
        fst.add_arc(8, 1, 0, 0.0, 9)
        fst.add_arc(8, 1, 0, -50.0, 10)
        fst.add_arc(9, 1, 0, 0.0, 9)
        fst.set_final(9)
        graph = CompiledWfst.from_fst(fst, arcsort=False)
        scores = AcousticScores(np.array([[-1e9, -1.0]] * 3))
        config = replace(
            BASE, hash_table=HashConfig(num_entries=1, backup_entries=0),
            mem_latency_cycles=500,
        )
        sim = AcceleratorSimulator(graph, config, beam=10.0).decode(scores)
        assert sim.search.active_tokens_per_frame == [1, 1, 1]
        assert sim.stats.traffic.region_bytes("overflow") > 0
        assert sim.stats.frame_cycles[1] > config.mem_latency_cycles
        trace = TraceRecorder(graph, beam=10.0).record(scores)
        assert_results_identical(
            sim, TraceReplayer(graph, config).replay(trace)
        )


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
        num_events = (  # reads + state issues + arc fetches
            len(t.read_states)
            + len(t.emit_states) + len(t.emit_arc_idx)
            + len(t.eps_states) + len(t.eps_arc_idx)
        )
        assert t.nbytes < 64 * num_events + 4096

    def test_layout_mismatch_rejected(self, workload, sorted_traces):
        """A trace recorded on a sorted layout is refused by every
        replayer, the one walking that very layout included: replayers
        take baseline traces and relabel them themselves."""
        for config in CONFIGS.values():
            replayer = TraceReplayer(workload.graph, config)
            with pytest.raises(SimulationError, match="trace/layout"):
                replayer.replay(sorted_traces[0])

    def test_acoustic_buffer_capacity_enforced(self, workload, traces):
        tiny = replace(BASE, acoustic_buffer_bytes=64)
        replayer = TraceReplayer(workload.graph, tiny)
        with pytest.raises(ConfigError):
            replayer.replay(traces[0])

    def test_derive_rejects_a_trace_of_another_layout(
        self, workload, sorted_traces
    ):
        with pytest.raises(SimulationError):
            derive_sorted_trace(
                sorted_traces[0], workload.graph,
                workload.graph.sorted_layout(16),
            )


def check_derived_trace(
    graph_seed, num_states, mean_arcs, epsilon_fraction, n, quantum,
    max_active, pruning, frames, hash_entries,
):
    """Derive the sorted-layout trace of one random search and hold it to
    the plain reference: :class:`TraceRecorder` on the sorted graph (and,
    for a fixed beam, :class:`AcceleratorSimulator` on the sorted graph
    against a replay of the derived trace).  Returns what the case
    exercised, so a fixed-seed test can check the property's reach."""
    graph = generate_kaldi_like_graph(SyntheticGraphConfig(
        num_states=num_states, mean_arcs_per_state=mean_arcs,
        max_arcs_per_state=40, epsilon_fraction=epsilon_fraction,
        num_phones=6, seed=graph_seed,
    ))
    rng = np.random.default_rng(graph_seed)
    matrix = rng.normal(-2.0, 1.0, size=(frames, 7))
    if quantum:
        # Coarse score levels: relaxations tie, and ties are first-wins.
        matrix = np.round(matrix / quantum) * quantum
    matrix[:, 0] = -1e9
    scores = AcousticScores(matrix)
    config = DecoderConfig(
        beam=6.0, max_active=max_active, pruning=pruning,
        target_active=8 if pruning == "adaptive" else 0,
    )
    sorted_graph = graph.sorted_layout(n)
    try:
        base = TraceRecorder(graph, config=config).record(scores)
    except DecodeError:
        # The beam emptied the search: it does so on either layout.
        with pytest.raises(DecodeError):
            TraceRecorder(sorted_graph.graph, config=config).record(scores)
        return set()
    derived = derive_sorted_trace(base, graph, sorted_graph)
    assert_traces_identical(
        derived,
        TraceRecorder(sorted_graph.graph, config=config).record(scores),
    )
    reached = set()
    if np.any(base.eps_src >= 0):
        reached.add("epsilon chain")
    if max_active and max_active in base.search.active_tokens_per_frame:
        reached.add("cap")
    if pruning == "beam":
        hw = replace(
            BASE, state_direct_enabled=True, state_direct_max_arcs=n,
            hash_table=HashConfig(num_entries=hash_entries, backup_entries=2),
        )
        replayed = TraceReplayer(graph, hw).replay(base)
        sim = AcceleratorSimulator(
            graph, hw, beam=config.beam, max_active=max_active
        )
        assert_results_identical(sim.decode(scores), replayed)
        if replayed.stats.hash.overflows:
            reached.add("spill")
    return reached


class TestDerivedSortedTrace:
    """The Section IV-B layout relabels states stably and keeps every
    state's arcs in order, so its search is the baseline search
    relabelled: :func:`derive_sorted_trace` held against the plain
    reference, a recording on the sorted graph."""

    @settings(max_examples=100, deadline=None)
    @given(
        graph_seed=st.integers(0, 10_000),
        num_states=st.integers(20, 300),
        mean_arcs=st.sampled_from([1.5, 3.0, 6.0]),
        epsilon_fraction=st.sampled_from([0.0, 0.15, 0.45]),
        n=st.integers(1, 32),
        quantum=st.sampled_from([0.0, 0.5, 2.0]),
        max_active=st.sampled_from([0, 3, 20]),
        pruning=st.sampled_from(["beam", "adaptive"]),
        frames=st.integers(1, 6),
        hash_entries=st.sampled_from([2, 8]),
    )
    def test_derived_trace_equals_a_recording_on_the_sorted_graph(self, **case):
        check_derived_trace(**case)

    def test_the_property_reaches_chains_caps_and_spills(self):
        """Fixed cases in the property's range that reach an epsilon
        chain, a ``max_active`` cap and a spilled hash table, so a
        narrowed strategy cannot quietly stop covering them."""
        reached = set()
        for seed in range(4):
            reached |= check_derived_trace(
                graph_seed=seed, num_states=200, mean_arcs=3.0,
                epsilon_fraction=0.45, n=4, quantum=2.0, max_active=3,
                pruning="beam", frames=5, hash_entries=2,
            )
        assert reached == {"epsilon chain", "cap", "spill"}


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

    def test_passes_are_shared_and_price_as_inside_their_decode(
        self, workload
    ):
        """Points of the grid share pipeline passes even where their
        decodes time apart, and a pass priced on its own from cycle 0 is
        the pass the monolithic simulator runs back to back with the
        others: its frames are emit pass + epsilon pass."""
        shared = fresh_recorder(workload).record(workload.scores[0])
        for config in self.GRID:
            TraceReplayer(workload.graph, config).replay(shared)
        per_decode = 2 * shared.num_frames + 1
        assert len(shared._replay_memo["passes"]) < (
            timing_passes(shared) * per_decode
        )
        for config in (self.GRID[0], self.GRID[-1], self.EXTRAS[-1]):
            trace = fresh_recorder(workload).record(workload.scores[0])
            TraceReplayer(workload.graph, config).replay(trace)
            priced = trace._replay_memo["passes"]
            assert len(priced) == per_decode
            cost = {key[1]: value for key, value in priced.items()}
            stats = AcceleratorSimulator(
                workload.graph, config, beam=workload.beam,
                max_active=workload.max_active,
            ).decode(workload.scores[0]).stats
            assert stats.frame_cycles == [
                cost[2 * f + 1][0] + cost[2 * f + 2][0]
                for f in range(trace.num_frames)
            ]
            assert stats.cycles == cost[0][0] + sum(
                config.frame_overhead_cycles + c for c in stats.frame_cycles
            )
            assert stats.traffic.region_bytes("overflow") == sum(
                c[1] for c in cost.values()
            )

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
        with the Section IV-B boundary: different State-cache streams.
        The direct-lookup replayer reaches it through the baseline trace
        it relabelled; the flat replayer of the sorted graph takes it as
        it is."""
        sorted_graph = workload.graph.sorted_layout(16)
        scores = workload.scores[0]
        base = fresh_recorder(workload).record(scores)
        flat = TraceReplayer(sorted_graph.graph, BASE)
        direct = TraceReplayer(workload.graph, VARIANTS["ASIC+State"])
        direct.replay(base)
        shared = base._replay_memo["sorted"][16]
        for replayer, trace, graph in (
            (flat, shared, sorted_graph.graph),
            (direct, base, workload.graph),
            (flat, shared, sorted_graph.graph),
        ):
            assert_results_identical(
                replayer.replay(fresh_recorder(workload, graph).record(scores)),
                replayer.replay(trace),
            )
        assert flat.replay(shared).stats.states_direct == 0
        assert direct.replay(base).stats.states_direct > 0

    def test_a_derived_trace_never_shares_replay_memos(self, workload):
        """A flat point on the baseline trace, a direct-lookup point on
        the same trace (which it relabels), then the flat point again:
        each prices as it would on a freshly recorded trace, and
        ``timing_passes`` of the baseline trace counts the relabelled
        trace's pass beside its own."""
        scores = workload.scores[0]
        base = fresh_recorder(workload).record(scores)
        flat = TraceReplayer(workload.graph, BASE)
        direct = TraceReplayer(workload.graph, VARIANTS["ASIC+State"])
        for replayer in (flat, direct, flat):
            assert_results_identical(
                replayer.replay(fresh_recorder(workload).record(scores)),
                replayer.replay(base),
            )
        derived = base._replay_memo["sorted"][16]
        assert derived._replay_memo is not base._replay_memo
        assert_traces_identical(
            derived,
            derive_sorted_trace(base, workload.graph, direct.sorted_graph),
        )
        assert len(base._replay_memo["timing"]) == timing_passes(derived) == 1
        assert timing_passes(base) == 2
