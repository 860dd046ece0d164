"""Timed replay of recorded decode traces (the replay half of
trace-once/replay-many).

A :class:`~repro.accel.trace.DecodeTrace` fixes everything the beam search
decided -- which tokens were walked, which survived, which arcs were
fetched, which relaxations won.  :class:`TraceReplayer` re-prices that
event stream under an arbitrary
:class:`~repro.accel.config.AcceleratorConfig`: cache geometry, prefetch
decoupling depth, hash sizing, DRAM latency and the Section IV techniques
can all change without re-running the search.  The result is asserted
cycle-identical (and statistics-identical) to
:class:`~repro.accel.simulator.AcceleratorSimulator` in
``tests/test_trace_replay.py``.

Why it is fast: only the cycle an access is *issued* depends on the whole
configuration; what the access *does* depends on far less, and the trace
fixes the order of every unit's accesses.  The replay therefore runs in
three layers, each memoised on the trace under exactly the parameters
it reads (``DecodeTrace._replay_memo``; the key rule is
REP003's, see ``docs/INVARIANTS.md``):

* a **vectorized prologue** -- each unit's accesses merged into issue
  order (epsilon pass 0, frame 0, epsilon pass 1, ...), the traceback
  commit schedule and the full hash-table chain behaviour (positions,
  collisions, overflow points), computed with numpy.  The State Issuer's
  token walk collapses to arithmetic whenever the frame's hash table never
  spilled to the Overflow Buffer (the common case);
* one timing-free **outcome pass** per cache geometry
  (:func:`lru_outcomes`) -- an LRU cache's hits, misses and evictions
  depend on the order of its accesses, never on their cycles, so the tag
  stores are simulated once per ``(line_bytes, num_sets, assoc)`` (plus
  the Section IV-B direct boundary for the State cache, which decides
  which states reach it at all) and yield, per access, "miss" or the miss
  whose fill the hit waits on.  A cache no set of which ever sees more
  lines than it has ways is priced with numpy alone, and otherwise only
  the first access of each run to one line is simulated;
* a **timing core** that prices one **pipeline pass** at a time: epsilon
  pass 0, then each frame's emit pass and epsilon pass.  A pass ends only
  once the pipeline has drained (the two hash tables swap between frames;
  :func:`repro.accel.simulator._pass_end`), so no pass inherits a request
  in flight: a hit on a line filled before the pass is a plain hit, and
  the memory controller's window starts empty.  A pass's cycles, overflow
  bytes and extra hash cycles therefore depend only on the configuration
  without its caches, the pass index and the pass's three
  pass-relative code lists, and are memoised under exactly that key; a
  decode's cycles are its passes' sum plus frame overhead and traceback
  commits.

Grid points that differ only in prefetching, DRAM latency, issuer depths
or *another* cache's geometry share every outcome pass.  Points whose
caches behave identically (each unit's issue-order codes equal, e.g. Arc
caches that all hold the trace's working set) and whose configurations
differ in nothing but their caches share every pipeline pass, and points
that differ only in a cache still share each pass on which its codes
agree.  The 24-point Arc size x prefetch x State size grid
of ``benchmarks/e2e`` runs 6 + 2 + 1 LRU simulations per trace (5 of them
without an eviction) and 16 distinct behaviours (:func:`timing_passes`
counts them; its 1, 2 and 4 MiB Arc caches behave identically), which
look up 16 x 49 pipeline passes and price about 380-430 of them.  A
multi-point design-space sweep then costs one functional search, one
outcome pass per distinct cache geometry and one cheap timing pass per
distinct pipeline pass; :mod:`repro.explore` builds on this.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import replace
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.common.errors import ConfigError, SimulationError
from repro.accel.config import AcceleratorConfig, CacheConfig
from repro.accel.hashtable import HASH_MULTIPLIER, OVERFLOW_ENTRY_BYTES
from repro.accel.simulator import (
    AcceleratorResult,
    address_map,
    walked_layout,
)
from repro.accel.stats import SimStats
from repro.accel.trace import (
    DecodeTrace,
    derive_sorted_trace,
    layout_fingerprint,
)
from repro.decoder.result import SearchStats
from repro.decoder.traceback import TRACE_RECORD_BYTES
from repro.wfst.layout import ARC_BYTES, STATE_BYTES, CompiledWfst

#: Outcome code of an access that misses (its fill time is appended to the
#: pass's fill list; every non-negative code indexes that list).
MISS = -1
#: Outcome code of an issue slot that never reaches the cache: a Section
#: IV-B direct-lookup state, or an arc whose relaxation wrote no token.
_SKIP = -2
#: Outcome code of a hit on a line filled before the pass began, whose fill
#: has therefore landed: every access of a perfect cache.
_RESIDENT = -3


class LruOutcome(NamedTuple):
    """Timing-free behaviour of one LRU cache over one access stream."""

    #: Per access: :data:`MISS`, or the ordinal (0-based, in miss order) of
    #: the miss that filled the line this access hits.
    src: np.ndarray
    misses: int
    #: Lines replaced during the stream / still resident at its end; a
    #: write-allocate cache writes back one line for each of either.
    evictions: int
    resident: int


def lru_outcomes(lines: np.ndarray, num_sets: int, assoc: int) -> LruOutcome:
    """Simulate one set-associative LRU tag store, without time.

    ``lines`` is the cache's line-id stream in issue order.  Hits, misses
    and evictions of an LRU cache whose tags update at request time
    (:mod:`repro.accel.cache`) depend only on that order, so the result is
    valid under every timing configuration; all a timed replay still needs
    per hit is *which* miss filled the line (the hit waits for that fill).

    Two exact shortcuts: when no set ever receives more than ``assoc``
    distinct lines nothing is evicted, so first touches miss in
    first-touch order and every later access hits its line's fill; and
    otherwise only the head of each run of equal lines is simulated -- a
    repeat of the line just touched is a hit on its set's most recent way
    and changes nothing.
    """
    if not len(lines):
        return LruOutcome(np.zeros(0, dtype=np.int64), 0, 0, 0)
    uniq, first, inverse = np.unique(
        lines, return_index=True, return_inverse=True
    )
    if np.bincount(uniq % num_sets).max() <= assoc:
        fill = np.empty(len(uniq), dtype=np.int64)
        fill[np.argsort(first)] = np.arange(len(uniq))
        src = fill[inverse]
        src[first] = MISS
        return LruOutcome(src, len(uniq), 0, len(uniq))

    heads = np.flatnonzero(np.concatenate(([True], lines[1:] != lines[:-1])))
    head_lines = lines[heads]
    # Per set: line -> ordinal of the miss that filled it, in LRU order.
    sets: Dict[int, Dict[int, int]] = defaultdict(dict)
    head_src: List[int] = []
    append = head_src.append
    misses = evictions = 0
    for line, index in zip(head_lines.tolist(), (head_lines % num_sets).tolist()):
        ways = sets[index]
        fill = ways.pop(line, MISS)
        append(fill)
        if fill == MISS:
            if len(ways) >= assoc:
                del ways[next(iter(ways))]
                evictions += 1
            fill = misses
            misses += 1
        ways[line] = fill
    resident = sum(len(ways) for ways in sets.values())
    hits = np.array(head_src, dtype=np.int64)
    missed = hits == MISS
    # A run's repeats hit the fill its head hit or made.
    src = np.repeat(
        np.where(missed, np.cumsum(missed) - 1, hits),
        np.diff(np.append(heads, len(lines))),
    )
    src[heads] = hits
    return LruOutcome(src, misses, evictions, resident)


class _CachePricing(NamedTuple):
    """One cache's outcome pass, laid out the way the timing core reads it.

    ``passes`` holds one code list per pipeline pass (epsilon pass 0,
    frame 0, epsilon pass 1, ...), one code per slot of the pass's stream
    (states for the State cache, arcs for the Arc and Token caches):
    :data:`_SKIP`, :data:`MISS`, :data:`_RESIDENT` or the index of the
    pass's own fill the hit waits on.  ``keys`` holds the same codes as
    bytes, for the pass memo.
    """

    passes: List[List[int]]
    keys: List[bytes]
    accesses: int
    misses: int
    #: Lines evicted plus lines resident at the end: the write-backs of a
    #: cache whose every access is a write (the Token cache).
    writebacks: int
    #: Ordinal of the unit's issue-order code stream among its distinct
    #: streams on this trace: two geometries with equal codes share the
    #: pricing and the ordinal (:func:`timing_passes` counts with it).
    behaviour: int


class _Timing(NamedTuple):
    """What the timing core adds to the outcome passes' counters."""

    cycles: int
    frame_cycles: Tuple[int, ...]
    overflow_bytes: int
    hash_extra_cycles: int
    traceback_read_bytes: int
    traceback_write_bytes: int


#: :meth:`TraceReplayer._hash_schedule`'s result.
_HashSchedule = Tuple[
    List[int], List[int], List[int], List[Optional[Dict[int, int]]],
    int, int, int,
]


#: A cache in a timing key: its geometry and ``perfect`` act through the
#: outcome codes (a perfect cache's are all :data:`_RESIDENT`).
_ANY_CACHE = CacheConfig(64, 1)


def _issue_positions(
    frame_offsets: np.ndarray, pass_offsets: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Where the entries of a per-frame and a per-epsilon-pass stream land
    in issue order: pass 0, frame 0, pass 1, ..., frame F-1, pass F."""
    frames = len(frame_offsets) - 1
    emit_at = np.arange(frame_offsets[-1]) + np.repeat(
        pass_offsets[1:frames + 1], np.diff(frame_offsets)
    )
    eps_at = np.arange(pass_offsets[-1]) + np.repeat(
        frame_offsets, np.diff(pass_offsets)
    )
    return emit_at, eps_at


def _pass_bounds(
    frame_offsets: np.ndarray, pass_offsets: np.ndarray
) -> np.ndarray:
    """Issue-order offsets of the pipeline passes: pass ``2p`` is epsilon
    pass ``p``, pass ``2f + 1`` is frame ``f``'s emit pass."""
    bounds = np.empty(2 * len(frame_offsets), dtype=np.int64)
    bounds[0::2] = frame_offsets + pass_offsets[:-1]
    bounds[1::2] = frame_offsets + pass_offsets[1:]
    return bounds


def _issue_order(
    trace: DecodeTrace,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Merge the trace's emit and epsilon streams into issue order.

    Returns the pipeline-pass bounds of the state visits and of the arc
    fetches (see :func:`_pass_bounds`), and in issue order: every visited
    state, every fetched arc's index and whether its relaxation won (one
    token-record write).
    """
    def merged(offsets, emit_values, eps_values):
        emit_at, eps_at = _issue_positions(*offsets)
        out = np.empty(len(emit_values) + len(eps_values), emit_values.dtype)
        out[emit_at] = emit_values
        out[eps_at] = eps_values
        return out

    states = (trace.emit_offsets, trace.eps_offsets)
    arcs = (trace.emit_arc_offsets, trace.eps_arc_offsets)
    return (
        _pass_bounds(*states), _pass_bounds(*arcs),
        merged(states, trace.emit_states, trace.eps_states),
        merged(arcs, trace.emit_arc_idx, trace.eps_arc_idx),
        merged(arcs, trace.emit_improved, trace.eps_improved),
    )


def _split_passes(
    codes: np.ndarray, bounds: np.ndarray
) -> Tuple[List[List[int]], List[bytes]]:
    """Cut issue-order codes into pipeline passes, each made pass-relative.

    Every pass starts with the pipeline drained (see
    :func:`repro.accel.simulator._pass_end`), so a hit on an earlier
    pass's fill is a plain hit (:data:`_RESIDENT`) and a hit on the pass's
    own j-th fill waits on that fill: code ``j``.
    """
    missed = np.concatenate(([0], np.cumsum(codes == MISS)))
    first_fill = np.repeat(missed[bounds[:-1]], np.diff(bounds))
    relative = np.where(
        codes >= first_fill, codes - first_fill,
        np.where(codes >= 0, _RESIDENT, codes),
    )
    flat = relative.tolist()
    packed = relative.astype(np.int32)
    cuts = list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))
    return (
        [flat[a:b] for a, b in cuts],
        [packed[a:b].tobytes() for a, b in cuts],
    )


def _price_cache(
    cache: CacheConfig,
    addresses: np.ndarray,
    bounds: np.ndarray,
    behaviours: List[Tuple[np.ndarray, List[List[int]], List[bytes]]],
    active: Optional[np.ndarray] = None,
) -> _CachePricing:
    """Run the outcome pass of one cache and split it per pipeline pass.

    ``addresses`` are the byte addresses the cache sees, in issue order;
    ``bounds`` are the passes' issue-order offsets and ``active`` (issue
    order, all slots when ``None``) marks the slots that access the cache
    at all.  ``behaviours`` holds the unit's distinct code streams priced
    so far on this trace, as ``(codes, passes, keys)``; a new one is
    appended, an equal one is reused.
    """
    if cache.perfect:
        outcome = LruOutcome(
            np.full(len(addresses), _RESIDENT, dtype=np.int64), 0, 0, 0
        )
    else:
        outcome = lru_outcomes(
            addresses // cache.line_bytes, cache.num_sets, cache.assoc
        )
    if active is None:
        codes = outcome.src
    else:
        codes = np.full(len(active), _SKIP, dtype=np.int64)
        codes[active] = outcome.src
    for ordinal, (known, passes, keys) in enumerate(behaviours):
        if np.array_equal(known, codes):
            break
    else:
        ordinal = len(behaviours)
        passes, keys = _split_passes(codes, bounds)
        behaviours.append((codes, passes, keys))
    return _CachePricing(
        passes, keys, len(addresses),
        outcome.misses, outcome.evictions + outcome.resident, ordinal,
    )


def timing_passes(trace: DecodeTrace) -> int:
    """Timing passes :class:`TraceReplayer` has run on ``trace`` so far,
    its sorted-layout relabellings included: one per distinct (cache
    behaviours, timing configuration)."""
    memo = trace._replay_memo
    return len(memo.get("timing", ())) + sum(
        timing_passes(derived) for derived in memo.get("sorted", {}).values()
    )


class TraceReplayer:
    """Re-time a recorded decode under one accelerator configuration.

    Takes traces recorded on the baseline ``graph`` under every
    configuration.  Like :class:`~repro.accel.simulator.AcceleratorSimulator`,
    a configuration with ``state_direct_enabled`` walks the graph's
    Section IV-B sorted layout for its ``state_direct_max_arcs``; the
    replayer relabels the trace onto that layout itself
    (:func:`~repro.accel.trace.derive_sorted_trace`), once per trace and
    N, and keeps the result in the trace's memo.

    Args:
        graph: baseline compiled graph.
        config: the accelerator configuration to price the trace under.
    """

    def __init__(
        self,
        graph: CompiledWfst,
        config: AcceleratorConfig = AcceleratorConfig(),
    ) -> None:
        self._baseline = graph
        self.graph, self.sorted_graph = walked_layout(graph, config)
        self.config = config
        # Given the three units' outcome codes, a pass reads everything of
        # the configuration but the caches.
        self._timing_config = replace(
            config, arc_cache=_ANY_CACHE, state_cache=_ANY_CACHE,
            token_cache=_ANY_CACHE,
        )
        self._states_base, self._arcs_base, self._tokens_base = address_map(
            self.graph
        )
        self._layout_key = layout_fingerprint(graph)
        if self.sorted_graph is not None and self.sorted_graph.tables.boundaries:
            self._direct_boundary = self.sorted_graph.tables.boundaries[-1]
        else:
            self._direct_boundary = 0

    # ------------------------------------------------------------------
    def replay(self, trace: DecodeTrace) -> AcceleratorResult:
        """Price one recorded decode; cycle-identical to the simulator."""
        cfg = self.config
        graph = self._baseline
        if (
            trace.num_states != graph.num_states
            or trace.num_arcs != graph.num_arcs
            or trace.layout_key != self._layout_key
        ):
            raise SimulationError(
                "trace/layout mismatch: the trace was recorded on a "
                "different graph layout than the replayer's baseline graph "
                "(a Section IV-B configuration relabels the baseline trace "
                "itself)"
            )
        if self.sorted_graph is not None:
            derived = trace._replay_memo.setdefault("sorted", {})
            n = cfg.state_direct_max_arcs
            if n not in derived:
                derived[n] = derive_sorted_trace(trace, graph, self.sorted_graph)
            trace = derived[n]
        if 2 * trace.frame_bytes > cfg.acoustic_buffer_bytes:
            raise ConfigError(
                f"acoustic scores need 2 x {trace.frame_bytes} bytes but the "
                f"Acoustic Likelihood Buffer holds only "
                f"{cfg.acoustic_buffer_bytes}"
            )

        F = trace.num_frames
        ne = len(trace.emit_arc_idx)
        nz = len(trace.eps_arc_idx)

        # Vectorized prologue and outcome passes.  Every product is keyed
        # by all the parameters it depends on and memoized on the trace, so
        # a sweep that replays the trace under many configurations pays
        # each distinct precomputation once (e.g. the State cache's outcome
        # pass is shared by every point that only varies the Arc cache).
        memo = trace._replay_memo

        # --- issue order of each unit's accesses (config-independent) --
        cached = memo.get("issue-order")
        if cached is None:
            cached = memo["issue-order"] = _issue_order(trace)
        state_bounds, arc_bounds, states, arc_idx, improved = cached

        # --- cache outcome passes --------------------------------------
        acc, scc, tcc = cfg.arc_cache, cfg.state_cache, cfg.token_cache
        key = ("arc", acc.perfect, acc.line_bytes, acc.num_sets, acc.assoc)
        arc = memo.get(key)
        if arc is None:
            arc = memo[key] = _price_cache(
                acc, self._arcs_base + arc_idx * ARC_BYTES, arc_bounds,
                memo.setdefault("arc-behaviours", []),
            )
        # Section IV-B: states below the boundary are located by the
        # comparator tree and never reach the State cache.
        boundary = self._direct_boundary
        key = (
            "state", scc.perfect, scc.line_bytes, scc.num_sets, scc.assoc,
            boundary,
        )
        state = memo.get(key)
        if state is None:
            fetched = states >= boundary
            state = memo[key] = _price_cache(
                scc, self._states_base + states[fetched] * STATE_BYTES,
                state_bounds, memo.setdefault("state-behaviours", []), fetched,
            )
        # Token records are appended in improvement order: the j-th
        # backpointer write of the decode lands on record j.
        key = ("token", tcc.perfect, tcc.line_bytes, tcc.num_sets, tcc.assoc)
        token = memo.get(key)
        if token is None:
            n_improve = int(np.count_nonzero(improved))
            token = memo[key] = _price_cache(
                tcc,
                self._tokens_base
                + np.arange(n_improve, dtype=np.int64) * TRACE_RECORD_BYTES,
                arc_bounds, memo.setdefault("token-behaviours", []), improved,
            )

        # --- hash-table chain behaviour --------------------------------
        hcfg = cfg.hash_table
        key = ("hash", hcfg.num_entries, hcfg.backup_entries, hcfg.perfect)
        schedule = memo.get(key)
        if schedule is None:
            schedule = memo[key] = self._hash_schedule(trace)
        hash_collisions, hash_overflows, hash_base_cycles = schedule[4:]

        timing = self._timing(trace, state, arc, token, schedule)

        # --- assemble statistics ---------------------------------------
        stats = SimStats(frames=F)
        stats.cycles = timing.cycles
        stats.frame_cycles = list(timing.frame_cycles)
        n_reads = len(trace.read_states)
        stats.tokens_read = n_reads
        stats.tokens_written = token.accesses
        stats.arcs_processed = ne
        stats.epsilon_arcs_processed = nz
        stats.states_fetched = state.accesses
        stats.states_direct = len(states) - state.accesses
        stats.fp_adds = 2 * ne + nz
        stats.fp_compares = n_reads + ne + nz
        stats.acoustic_lookups = ne
        stats.state_cache.accesses = state.accesses
        stats.state_cache.misses = state.misses
        stats.arc_cache.accesses = ne + nz
        stats.arc_cache.misses = arc.misses
        stats.token_cache.accesses = token.accesses
        stats.token_cache.misses = token.misses
        # Every token-record line is written, so each one evicted during
        # the decode or flushed at its end (the CPU reads them to
        # backtrack) is one write-back.
        stats.token_cache.writebacks = token.writebacks
        stats.hash.requests = ne + nz
        stats.hash.total_cycles = hash_base_cycles + timing.hash_extra_cycles
        stats.hash.collisions = hash_collisions
        stats.hash.overflows = hash_overflows
        for region, nbytes in (
            ("states", state.misses * scc.line_bytes),
            ("arcs", arc.misses * acc.line_bytes),
            ("tokens", token.misses * tcc.line_bytes),
            ("overflow", timing.overflow_bytes),
            ("traceback", timing.traceback_read_bytes),
        ):
            if nbytes:
                stats.traffic.add(region, nbytes, write=False)
        if token.writebacks:
            stats.traffic.add(
                "tokens", token.writebacks * tcc.line_bytes, write=True
            )
        if timing.traceback_write_bytes:
            stats.traffic.add(
                "traceback", timing.traceback_write_bytes, write=True
            )

        return AcceleratorResult(
            words=trace.words,
            log_likelihood=trace.log_likelihood,
            reached_final=trace.reached_final,
            stats=stats,
            search=_copy_search(trace.search),
        )

    # ------------------------------------------------------------------
    def _timing(
        self,
        trace: DecodeTrace,
        state: _CachePricing,
        arc: _CachePricing,
        token: _CachePricing,
        schedule: _HashSchedule,
    ) -> _Timing:
        """Sum the decode's pipeline passes into its timeline.

        A pass starts with the pipeline drained, so its cycles, overflow
        bytes and extra hash cycles depend only on the timing
        configuration, the pass index and the pass's three code lists:
        the memo ``"passes"`` is keyed by exactly those, the
        configuration as a small per-trace ordinal.
        """
        cfg = self.config
        memo = trace._replay_memo
        F = trace.num_frames
        configs = memo.setdefault("timing-configs", {})
        config_id = configs.setdefault(self._timing_config, len(configs))
        memo.setdefault("timing", set()).add(
            (arc.behaviour, state.behaviour, token.behaviour, config_id)
        )
        priced = memo.setdefault("passes", {})
        passes: List[Tuple[int, int, int]] = []
        for q, codes in enumerate(zip(state.keys, arc.keys, token.keys)):
            key = (config_id, q, *codes)
            cost = priced.get(key)
            if cost is None:
                cost = priced[key] = self._price_pass(
                    trace, q, state.passes[q], arc.passes[q],
                    token.passes[q], schedule,
                )
            passes.append(cost)

        # --- traceback-buffer commit schedule --------------------------
        # Windowed-traceback pricing (the design axis of
        # repro.decoder.traceback): every ``traceback_window_frames``
        # frames the commit re-reads each backpointer record written
        # since the last commit plus the records the previous commit
        # retained, then rewrites the records still reachable from the
        # live tokens (approximated by the next frame's token-walk
        # count, which is exactly the live frontier the commit keeps).
        # Per-group write counts and per-frame walk counts are config-
        # independent, so one precomputation serves a whole sweep.
        tb_win = cfg.traceback_window_frames
        tb_cpr = cfg.traceback_cycles_per_record
        if tb_win > 0:
            cached = memo.get("traceback")
            if cached is None:
                eimp_cum = np.concatenate(
                    ([0], np.cumsum(trace.emit_improved, dtype=np.int64))
                )
                zimp_cum = np.concatenate(
                    ([0], np.cumsum(trace.eps_improved, dtype=np.int64))
                )
                eao = trace.emit_arc_offsets
                zao = trace.eps_arc_offsets
                group_writes = [int(zimp_cum[zao[1]] - zimp_cum[zao[0]])]
                for g in range(1, F + 1):
                    group_writes.append(
                        int(eimp_cum[eao[g]] - eimp_cum[eao[g - 1]])
                        + int(zimp_cum[zao[g + 1]] - zimp_cum[zao[g]])
                    )
                walk_counts = np.diff(trace.read_offsets).tolist()
                cached = (group_writes, walk_counts)
                memo["traceback"] = cached
            tb_group_writes, tb_walk_counts = cached

        # --- decode timeline -------------------------------------------
        frame_overhead = cfg.frame_overhead_cycles
        frame_cycles: List[int] = []
        r_traceback = w_traceback = 0
        tb_pending = tb_group_writes[0] if tb_win else 0
        tb_retained = 0
        cycle = passes[0][0]
        for f in range(F):
            spent = passes[2 * f + 1][0] + passes[2 * f + 2][0]
            if tb_win:
                tb_pending += tb_group_writes[f + 1]
                if (f + 1) % tb_win == 0:
                    # Commit stall lands inside this frame's latency: read
                    # everything written this window plus last commit's
                    # survivors, rewrite the live frontier's records.
                    reads = tb_retained + tb_pending
                    if f + 1 < F:
                        retained = tb_walk_counts[f + 1]
                    else:
                        retained = tb_walk_counts[F - 1] if F else 0
                    spent += (reads + retained) * tb_cpr
                    r_traceback += reads * TRACE_RECORD_BYTES
                    w_traceback += retained * TRACE_RECORD_BYTES
                    tb_pending = 0
                    tb_retained = retained
            frame_cycles.append(spent)
            cycle += frame_overhead + spent

        return _Timing(
            cycle, tuple(frame_cycles),
            sum(cost[1] for cost in passes), sum(cost[2] for cost in passes),
            r_traceback, w_traceback,
        )

    # ------------------------------------------------------------------
    def _price_pass(
        self,
        trace: DecodeTrace,
        q: int,
        scode: List[int],
        acode: List[int],
        tcode: List[int],
        schedule: _HashSchedule,
    ) -> Tuple[int, int, int]:
        """Run the pipeline timestamp recurrences over pipeline pass ``q``
        from cycle 0: returns its cycles, its Overflow Buffer bytes and its
        hash cycles beyond the chain walks.

        The outcome passes decided every hit and miss; what is left of a
        cache here is the list of the pass's own fills' completion cycles,
        in miss order.  A hit on one waits for ``fill[code]``, a
        :data:`_RESIDENT` hit only for itself; a miss issues its DRAM
        request and appends.
        """
        cfg = self.config
        memo = trace._replay_memo
        ehc, zhc, end_backup, posmaps = schedule[:4]

        # --- per-event payload lists (config-independent) --------------
        cached = memo.get("payload")
        if cached is None:
            cached = (
                trace.emit_offsets.tolist(),
                trace.eps_offsets.tolist(),
                trace.read_offsets.tolist(),
                trace.emit_arc_offsets.tolist(),
                trace.eps_arc_offsets.tolist(),
                trace.emit_n.tolist(),
                trace.emit_read_idx.tolist(),
                trace.eps_n.tolist(),
                trace.eps_src.tolist(),
            )
            memo["payload"] = cached
        (
            emit_offsets, eps_offsets, read_offsets, emit_arc_offsets,
            eps_arc_offsets, en, eridx, zn, zsrc,
        ) = cached

        sfill: List[int] = []
        afill: List[int] = []
        tfill: List[int] = []
        sfill_append = sfill.append
        afill_append = afill.append
        tfill_append = tfill.append

        # Issuer windows as zero-seeded bounded deques: RollingWindow.gate()
        # returns 0 until the window fills and completion times are never
        # negative, so a pre-filled window is indistinguishable from the
        # growing one while avoiding length checks; appending to a full
        # deque drops its oldest entry.
        sw = deque([0] * cfg.state_issuer_inflight, cfg.state_issuer_inflight)
        aw = deque([0] * cfg.arc_issue_window, cfg.arc_issue_window)
        tw = deque([0] * cfg.token_issuer_inflight, cfg.token_issuer_inflight)
        sw_append, aw_append, tw_append = sw.append, aw.append, tw.append

        lat = cfg.mem_latency_cycles
        # MemoryController.request's bounded in-flight window, seeded with
        # -inf sentinels the same way (the queueing condition
        # ``oldest + latency > t`` is always false for a sentinel).  The
        # previous pass left nothing in flight, so it starts empty.
        recent = deque([-(1 << 60)] * cfg.mem_max_inflight, cfg.mem_max_inflight)
        recent_append = recent.append
        r_overflow = 0
        hash_extra_cycles = 0

        def mem_req(t: int) -> int:
            # MemoryController.request: bounded in-flight queueing window.
            oldest = recent[0] + lat
            if oldest > t:
                t = oldest
            recent_append(t)
            return t + lat

        proc_time = 0
        hash_ready = 0
        arc_gate_last = -1
        k = 0
        f, emit = divmod(q, 2)
        if emit:
            # --- frame f: walk the table, issue survivors, stream arcs --
            s0, s1 = emit_offsets[f], emit_offsets[f + 1]
            hcs = ehc[emit_arc_offsets[f]:emit_arc_offsets[f + 1]]
            read_done = None
            walk_drain = 0
            if not cfg.hash_table.perfect and (
                end_backup[f] > cfg.hash_table.backup_entries
            ):
                # The frame's table spilled to the Overflow Buffer: walk
                # the token reads to issue the DRAM round trips.
                posmap = posmaps[f]
                read_done = {}
                walked = trace.read_states[
                    read_offsets[f]:read_offsets[f + 1]
                ].tolist()
                for i, s in enumerate(walked):
                    if posmap.get(s, 0) > 0:
                        r_overflow += OVERFLOW_ENTRY_BYTES
                        read_done[i] = walk_drain = mem_req(i)
            for ridx, code, n in zip(eridx[s0:s1], scode, en[s0:s1]):
                # The token walk hands over one token per cycle, later where
                # its hash read went to the Overflow Buffer.
                t = ridx + 1
                if read_done is not None:
                    t = read_done.get(ridx, t)
                if code == _SKIP:
                    state_done = t + 1
                else:
                    g = sw[0]
                    start = t if t > g else g
                    if code >= 0:
                        ft = sfill[code]
                        state_done = start + 1 if start + 1 > ft else ft
                    elif code == MISS:
                        state_done = mem_req(start)
                        sfill_append(state_done)
                    else:
                        state_done = start + 1
                    sw_append(state_done)
                k_end = k + n
                for k in range(k, k_end):
                    g = aw[0]
                    req = state_done if state_done > g else g
                    if arc_gate_last >= req:
                        req = arc_gate_last + 1
                    arc_gate_last = req
                    code = acode[k]
                    if code >= 0:
                        ft = afill[code]
                        arc_data = req + 1 if req + 1 > ft else ft
                    elif code == MISS:
                        # Inlined mem_req (hottest miss path).
                        issue = recent[0] + lat
                        if issue < req:
                            issue = req
                        recent_append(issue)
                        arc_data = issue + lat
                        afill_append(arc_data)
                    else:
                        arc_data = req + 1
                    aw_append(arc_data)
                    pt = proc_time + 1
                    ad = arc_data + 1
                    proc_time = pt if pt > ad else ad
                    hs = proc_time if proc_time > hash_ready else hash_ready
                    hc = hcs[k]
                    if hc > 0:
                        hash_ready = hs + hc
                    else:
                        r_overflow += OVERFLOW_ENTRY_BYTES
                        hash_ready = mem_req(hs)
                        hash_extra_cycles += hash_ready - hs
                    code = tcode[k]
                    if code != _SKIP:
                        g = tw[0]
                        wslot = hash_ready if hash_ready > g else g
                        if code >= 0:
                            ft = tfill[code]
                            tdone = wslot + 1 if wslot + 1 > ft else ft
                        elif code == MISS:
                            tdone = mem_req(wslot)
                            tfill_append(tdone)
                        else:
                            tdone = wslot + 1
                        tw_append(tdone)
                k = k_end
        else:
            # --- epsilon pass p: the closure's worklist -----------------
            p = f
            s0, s1 = eps_offsets[p], eps_offsets[p + 1]
            hcs = zhc[eps_arc_offsets[p]:eps_arc_offsets[p + 1]]
            walk_drain = 0
            issue_last = -1
            arc_avail: List[int] = []
            arc_avail_append = arc_avail.append
            for src, code, n in zip(zsrc[s0:s1], scode, zn[s0:s1]):
                avail = 0 if src < 0 else arc_avail[src]
                slot = avail if avail > issue_last else issue_last + 1
                issue_last = slot
                if code == _SKIP:
                    state_done = slot + 1
                else:
                    g = sw[0]
                    start = slot if slot > g else g
                    if code >= 0:
                        ft = sfill[code]
                        state_done = start + 1 if start + 1 > ft else ft
                    elif code == MISS:
                        state_done = mem_req(start)
                        sfill_append(state_done)
                    else:
                        state_done = start + 1
                    sw_append(state_done)
                k_end = k + n
                for k in range(k, k_end):
                    g = aw[0]
                    req = state_done if state_done > g else g
                    if arc_gate_last >= req:
                        req = arc_gate_last + 1
                    arc_gate_last = req
                    code = acode[k]
                    if code >= 0:
                        ft = afill[code]
                        arc_data = req + 1 if req + 1 > ft else ft
                    elif code == MISS:
                        arc_data = mem_req(req)
                        afill_append(arc_data)
                    else:
                        arc_data = req + 1
                    aw_append(arc_data)
                    pt = proc_time + 1
                    ad = arc_data + 1
                    proc_time = pt if pt > ad else ad
                    arc_avail_append(proc_time)
                    hs = proc_time if proc_time > hash_ready else hash_ready
                    hc = hcs[k]
                    if hc > 0:
                        hash_ready = hs + hc
                    else:
                        r_overflow += OVERFLOW_ENTRY_BYTES
                        hash_ready = mem_req(hs)
                        hash_extra_cycles += hash_ready - hs
                    code = tcode[k]
                    if code != _SKIP:
                        g = tw[0]
                        wslot = hash_ready if hash_ready > g else g
                        if code >= 0:
                            ft = tfill[code]
                            tdone = wslot + 1 if wslot + 1 > ft else ft
                        elif code == MISS:
                            tdone = mem_req(wslot)
                            tfill_append(tdone)
                        else:
                            tdone = wslot + 1
                        tw_append(tdone)
                k = k_end
        # The pass ends drained (repro.accel.simulator._pass_end).
        cycles = max(proc_time, hash_ready, max(sw), max(tw), walk_drain)
        return cycles, r_overflow, hash_extra_cycles

    # ------------------------------------------------------------------
    def _hash_schedule(self, trace: DecodeTrace) -> _HashSchedule:
        """Precompute the hash tables' chain behaviour for this config.

        The two per-frame tables alternate; "group" ``g`` is the insertion
        sequence one table receives before being read: group 0 is the
        initial epsilon closure, group ``g >= 1`` is frame ``g - 1``'s
        non-epsilon arcs followed by its in-frame epsilon closure.  The
        token walk of frame ``f`` reads group ``f``'s table.

        Returns per-arc hash-access costs in cycles for the emit and
        epsilon streams (-1 marks an access that spilled to the Overflow
        Buffer and must be priced with a DRAM round trip), each group's
        final backup-buffer occupancy, per-group ``state -> chain
        position`` maps (built only for groups that overflowed), and the
        aggregate collision / overflow / cycle counters.
        """
        hcfg = self.config.hash_table
        ne = len(trace.emit_arc_idx)
        nz = len(trace.eps_arc_idx)
        F = trace.num_frames
        if hcfg.perfect:
            return [1] * ne, [1] * nz, [0] * (F + 1), [None] * (F + 1), 0, 0, ne + nz

        entries = np.uint64(hcfg.num_entries)
        mult = np.uint64(HASH_MULTIPLIER)
        backup = hcfg.backup_entries
        ehc = np.ones(ne, dtype=np.int64)
        zhc = np.ones(nz, dtype=np.int64)
        eao = trace.emit_arc_offsets
        zao = trace.eps_arc_offsets
        ed = trace.emit_arc_dest
        zd = trace.eps_arc_dest
        end_backup = [0] * (F + 1)
        posmaps: List[Optional[Dict[int, int]]] = [None] * (F + 1)
        collisions = overflows = base_cycles = 0

        for g in range(F + 1):
            if g >= 1:
                emit_part = ed[eao[g - 1]:eao[g]]
                eps_part = zd[zao[g]:zao[g + 1]]
                accesses = np.concatenate((emit_part, eps_part))
                n_emit_part = len(emit_part)
            else:
                accesses = zd[zao[0]:zao[1]]
                n_emit_part = 0
            m = len(accesses)
            if m == 0:
                continue
            uniq, first_idx, inv = np.unique(
                accesses, return_index=True, return_inverse=True
            )
            nu = len(uniq)
            # Multiplicative hashing, exact in uint64 (state < 2**32).
            buckets = (uniq.astype(np.uint64) * mult) % entries
            order = np.lexsort((first_idx, buckets))
            b_sorted = buckets[order]
            run_start = np.empty(nu, dtype=bool)
            run_start[0] = True
            if nu > 1:
                run_start[1:] = b_sorted[1:] != b_sorted[:-1]
            idxs = np.arange(nu, dtype=np.int64)
            run_anchor = np.maximum.accumulate(np.where(run_start, idxs, 0))
            pos_u = np.empty(nu, dtype=np.int64)
            pos_u[order] = idxs - run_anchor
            collisions += int(np.count_nonzero(pos_u > 0))
            claim_inc = np.zeros(m, dtype=np.int64)
            claim_inc[first_idx[pos_u > 0]] = 1
            backup_after = np.cumsum(claim_inc)
            pos_acc = pos_u[inv]
            over = (pos_acc > 0) & (backup_after > backup)
            n_over = int(np.count_nonzero(over))
            overflows += n_over
            cost = 1 + pos_acc
            base_cycles += int(cost.sum())
            if n_over:
                base_cycles -= int(cost[over].sum())
                cost[over] = -1
            if n_emit_part:
                ehc[eao[g - 1]:eao[g]] = cost[:n_emit_part]
            zhc[zao[g]:zao[g + 1]] = cost[n_emit_part:]
            eb = int(backup_after[-1])
            end_backup[g] = eb
            if eb > backup and g < F:
                posmaps[g] = dict(zip(uniq.tolist(), pos_u.tolist()))

        return (
            ehc.tolist(), zhc.tolist(), end_backup, posmaps,
            collisions, overflows, base_cycles,
        )


def _copy_search(search: SearchStats) -> SearchStats:
    """Fresh SearchStats so replay results never alias the trace's own."""
    return replace(
        search,
        degree_histogram=search.degree_histogram.copy(),
        active_tokens_per_frame=list(search.active_tokens_per_frame),
    )
