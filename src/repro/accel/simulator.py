"""Top-level cycle-accurate simulator of the Viterbi-search accelerator.

The simulator is both *functional* and *timed*: it performs the exact beam
search of :class:`repro.decoder.ViterbiDecoder` (its word output is asserted
equal in the test suite) while accounting cycles per the hardware model:

* The State Issuer walks the current frame's hash table (one cycle per
  token, more if the entry overflowed), prunes against the frame's beam
  threshold, and fetches state records through the State Cache -- or, with
  the Section IV-B technique, computes arc indices directly for states with
  at most N arcs.
* The Arc Issuer streams arc records through the Arc Cache.  Fetches may
  run ahead of consumption by the issuer's in-flight window: 8 arcs in the
  base design, or the 64-entry Arc FIFO of the Section IV-A prefetching
  architecture (addresses are computed, so prefetches are never useless).
* The Acoustic Likelihood Issuer reads the on-chip double-buffered score
  scratchpad (never stalls).
* The Likelihood Evaluation unit adds source likelihood + arc weight +
  acoustic score (log-space, so additions only) and compares against the
  destination token.
* The Token Issuer inserts/updates tokens in the next frame's hash table
  (collisions serialise subsequent accesses) and writes backpointer records
  to main memory through the Token Cache.

Stalls arise *only* from cache misses and hash collisions, matching the
paper's characterisation (Section IV).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.common.errors import ConfigError, DecodeError
from repro.common.logmath import LOG_ZERO
from repro.acoustic.scorer import AcousticScores
from repro.accel.cache import Cache
from repro.accel.config import AcceleratorConfig
from repro.accel.hashtable import TokenHashTable
from repro.accel.memory import MemoryController, Region
from repro.accel.pipeline import RollingWindow, ThroughputGate
from repro.accel.stats import SimStats
from repro.decoder.result import SearchStats
from repro.decoder.traceback import TRACE_RECORD_BYTES
from repro.wfst.layout import ARC_BYTES, STATE_BYTES, CompiledWfst
from repro.wfst.sorted_layout import SortedWfst


def address_map(graph: CompiledWfst) -> Tuple[int, int, int]:
    """Base byte addresses of the states, arcs and token-trace regions.

    The accelerator's view of main memory: the states array at 0, the arcs
    array after it, then the token backpointer region, each 64-byte
    aligned.  Shared by the monolithic simulator and the trace replayer so
    both compute identical DRAM addresses.
    """
    states_base = 0
    arcs_base = _align(graph.states_size_bytes, 64)
    tokens_base = _align(arcs_base + graph.arcs_size_bytes, 64)
    return states_base, arcs_base, tokens_base


@dataclass(frozen=True)
class AcceleratorResult:
    """Output of one accelerator decode."""

    words: Tuple[int, ...]
    log_likelihood: float
    reached_final: bool
    stats: SimStats
    search: SearchStats

    def decode_seconds(self, frequency_hz: float) -> float:
        return self.stats.seconds(frequency_hz)


class AcceleratorSimulator:
    """Cycle-accurate accelerator simulator over a compiled graph."""

    def __init__(
        self,
        graph: CompiledWfst,
        config: AcceleratorConfig = AcceleratorConfig(),
        beam: float = 12.0,
        sorted_graph: Optional[SortedWfst] = None,
        max_active: int = 0,
    ) -> None:
        if config.state_direct_enabled and sorted_graph is None:
            raise ConfigError(
                "state_direct_enabled requires a sorted_graph "
                "(see repro.wfst.sort_states_by_arc_count)"
            )
        if beam <= 0:
            raise ConfigError("beam must be positive")
        if max_active < 0:
            raise ConfigError("max_active must be >= 0")
        # With the Section IV-B technique the accelerator walks the sorted
        # layout; otherwise the baseline layout.
        self.graph = sorted_graph.graph if config.state_direct_enabled else graph
        self.sorted_graph = sorted_graph if config.state_direct_enabled else None
        self.config = config
        self.beam = beam
        # Histogram pruning cap, as in Kaldi's decoder.  The hardware
        # realisation is an adaptive beam: the State Issuer tightens the
        # pruning threshold when the hash occupancy exceeds the cap, which
        # costs no extra cycles in the read/prune walk.
        self.max_active = max_active

        # Address map: states, then arcs, then the token trace region.
        self._states_base, self._arcs_base, self._tokens_base = address_map(
            self.graph
        )

    # ------------------------------------------------------------------
    def decode(self, scores: AcousticScores) -> AcceleratorResult:
        """Decode one utterance, returning words plus cycle-level stats."""
        if scores.num_frames == 0:
            raise DecodeError("no frames to decode")
        # The Acoustic Likelihood Buffer is double-buffered (current +
        # next frame); both frames of float32 scores must fit on chip.
        frame_bytes = scores.frame_bytes_on_chip
        if 2 * frame_bytes > self.config.acoustic_buffer_bytes:
            raise ConfigError(
                f"acoustic scores need 2 x {frame_bytes} bytes but the "
                f"Acoustic Likelihood Buffer holds only "
                f"{self.config.acoustic_buffer_bytes}"
            )

        stats = SimStats(frames=scores.num_frames)
        search = SearchStats(frames=scores.num_frames)
        memory = MemoryController(
            latency_cycles=self.config.mem_latency_cycles,
            max_inflight=self.config.mem_max_inflight,
            traffic=stats.traffic,
        )
        state_cache = Cache(
            self.config.state_cache, memory, Region.STATES, stats.state_cache
        )
        arc_cache = Cache(
            self.config.arc_cache, memory, Region.ARCS, stats.arc_cache
        )
        token_cache = Cache(
            self.config.token_cache, memory, Region.TOKENS, stats.token_cache
        )
        hash_current = TokenHashTable(self.config.hash_table, memory, stats.hash)
        hash_next = TokenHashTable(self.config.hash_table, memory, stats.hash)

        graph = self.graph
        trace_prev: List[int] = []
        trace_word: List[int] = []

        def trace_append(prev: int, word: int) -> int:
            trace_prev.append(prev)
            trace_word.append(word)
            return len(trace_prev) - 1

        # Live tokens: state -> (score, trace index).
        tokens: Dict[int, Tuple[float, int]] = {}
        tokens[graph.start] = (0.0, trace_append(-1, 0))

        cycle = 0
        # Initial epsilon closure (start state may have epsilon arcs).
        cycle = self._epsilon_pass(
            tokens, list(tokens.keys()), cycle, stats, search,
            state_cache, arc_cache, token_cache, hash_next,
            trace_append, memory,
        )

        for frame in range(scores.num_frames):
            frame_scores = scores.frame(frame)
            hash_current, hash_next = hash_next, hash_current
            # Rebuild the physical placement of the current tokens: they
            # were inserted into hash_next during the previous frame, which
            # is now hash_current; hash_next is recycled for this frame.
            hash_next.clear()

            cycle += self.config.frame_overhead_cycles
            frame_begin = cycle

            # --- State Issuer: walk + prune the current tokens ----------
            if not tokens:
                raise DecodeError(f"beam emptied the search at frame {frame}")
            best = max(score for score, _ in tokens.values())
            threshold = best - self.beam
            reader = ThroughputGate(1)
            reader_time = frame_begin
            # Return cycle of the walk's last Overflow Buffer read, pruned
            # tokens' included: the frame cannot end before it.
            walk_drain = frame_begin
            survivors: List[Tuple[int, float, int, int]] = []
            for state, (score, bp) in tokens.items():
                slot = reader.next_slot(reader_time)
                done, spilled = hash_current.read_cost(slot, state)
                if spilled and done > walk_drain:
                    walk_drain = done
                stats.tokens_read += 1
                stats.fp_compares += 1
                if score >= threshold:
                    survivors.append((state, score, bp, done))
                else:
                    search.tokens_pruned += 1
                reader_time = slot
            if self.max_active and len(survivors) > self.max_active:
                survivors.sort(key=lambda item: item[1], reverse=True)
                search.tokens_pruned += len(survivors) - self.max_active
                survivors = survivors[: self.max_active]

            next_tokens: Dict[int, Tuple[float, int]] = {}
            search.active_tokens_per_frame.append(len(survivors))

            # --- Issue states, stream arcs, evaluate, insert tokens -----
            cycle = self._emit_pass(
                survivors, next_tokens, frame_scores, cycle, walk_drain,
                stats, search, state_cache, arc_cache, token_cache,
                hash_next, trace_append, memory,
            )

            # --- Epsilon closure within the new frame --------------------
            eps_seeds = list(next_tokens.keys())
            cycle = self._epsilon_pass(
                next_tokens, eps_seeds, cycle, stats, search,
                state_cache, arc_cache, token_cache, hash_next,
                trace_append, memory,
            )

            tokens = next_tokens
            stats.frame_cycles.append(cycle - frame_begin)

        # Flush dirty token records (the CPU reads them for backtracking).
        token_cache.flush_dirty(cycle)
        stats.cycles = cycle

        words, likelihood, reached_final = self._finalize(
            tokens, trace_prev, trace_word
        )
        return AcceleratorResult(
            words=words,
            log_likelihood=likelihood,
            reached_final=reached_final,
            stats=stats,
            search=search,
        )

    # ------------------------------------------------------------------
    def _fetch_state(
        self,
        state: int,
        time: int,
        stats: SimStats,
        state_cache: Cache,
        state_window: RollingWindow,
    ) -> Tuple[int, int, int, int]:
        """Resolve a state's arc range; returns (first, n_non_eps, n_eps, done)."""
        if self.sorted_graph is not None:
            record = self.sorted_graph.direct_lookup(state)
            if record is not None:
                # Comparator bank + offset table: single cycle, no memory.
                stats.states_direct += 1
                first, n_non_eps, n_eps = self.graph.arc_range(state)
                return first, n_non_eps, n_eps, time + 1

        start = max(time, state_window.gate())
        addr = self._states_base + state * STATE_BYTES
        done, _hit = state_cache.access(start, addr)
        state_window.push(done)
        stats.states_fetched += 1
        first, n_non_eps, n_eps = self.graph.arc_range(state)
        return first, n_non_eps, n_eps, done

    def _emit_pass(
        self,
        survivors: List[Tuple[int, float, int, int]],
        next_tokens: Dict[int, Tuple[float, int]],
        frame_scores,
        cycle: int,
        walk_drain: int,
        stats: SimStats,
        search: SearchStats,
        state_cache: Cache,
        arc_cache: Cache,
        token_cache: Cache,
        hash_next: TokenHashTable,
        trace_append,
        memory: MemoryController,
    ) -> int:
        """Expand non-epsilon arcs of the surviving tokens.

        ``walk_drain`` is the return cycle of the token walk's last
        Overflow Buffer read (``cycle`` when nothing spilled).
        """
        graph = self.graph
        state_window = RollingWindow(self.config.state_issuer_inflight)
        arc_window = RollingWindow(self.config.arc_issue_window)
        token_window = RollingWindow(self.config.token_issuer_inflight)
        arc_gate = ThroughputGate(1)

        proc_time = cycle
        hash_ready = cycle
        degrees: List[int] = []

        for state, score, bp, token_ready in survivors:
            first, n_non_eps, n_eps, state_done = self._fetch_state(
                state, max(token_ready, cycle), stats, state_cache, state_window
            )
            search.states_expanded += 1
            degrees.append(n_non_eps + n_eps)

            for a in range(first, first + n_non_eps):
                # Arc Issuer: address generation + cache lookup, gated by
                # the decoupling window (8 base / 64 with prefetching).
                req = arc_gate.next_slot(max(state_done, arc_window.gate()))
                addr = self._arcs_base + a * ARC_BYTES
                arc_data, _hit = arc_cache.access(req, addr)
                arc_window.push(arc_data)

                # Acoustic Likelihood Issuer: on-chip buffer, 1 cycle.
                stats.acoustic_lookups += 1

                # Likelihood Evaluation: two adds + beam compare.
                proc_time = max(proc_time + 1, arc_data + 1)
                stats.arcs_processed += 1
                search.arcs_processed += 1
                stats.fp_adds += 2

                new_score = (
                    score
                    + float(graph.arc_weight[a])
                    + float(frame_scores[graph.arc_ilabel[a]])
                )
                dest = int(graph.arc_dest[a])

                # Token Issuer: hash access serialises on collisions.
                hash_start = max(proc_time, hash_ready)
                hash_done, _cyc = hash_next.access(hash_start, dest)
                hash_ready = hash_done
                stats.fp_compares += 1

                improved = self._relax(
                    next_tokens, dest, new_score,
                    bp, int(graph.arc_olabel[a]), search, trace_append,
                )
                if improved:
                    write_slot = max(hash_done, token_window.gate())
                    # Token record address: sequential in trace order, which
                    # is what gives the Token cache its good spatial locality.
                    rec_addr = (
                        self._tokens_base
                        + (search.tokens_created + search.tokens_updated - 1)
                        * TRACE_RECORD_BYTES
                    )
                    done, _hit = token_cache.access(
                        write_slot, rec_addr, write=True
                    )
                    token_window.push(done)
                    stats.tokens_written += 1

        search.count_degrees(np.array(degrees, dtype=np.int64))
        return _pass_end(
            walk_drain, proc_time, hash_ready, state_window, token_window
        )

    def _epsilon_pass(
        self,
        tokens: Dict[int, Tuple[float, int]],
        seeds: List[int],
        cycle: int,
        stats: SimStats,
        search: SearchStats,
        state_cache: Cache,
        arc_cache: Cache,
        token_cache: Cache,
        hash_table: TokenHashTable,
        trace_append,
        memory: MemoryController,
    ) -> int:
        """Traverse epsilon arcs transitively within the frame's tokens."""
        graph = self.graph
        state_window = RollingWindow(self.config.state_issuer_inflight)
        arc_window = RollingWindow(self.config.arc_issue_window)
        token_window = RollingWindow(self.config.token_issuer_inflight)
        arc_gate = ThroughputGate(1)

        proc_time = cycle
        hash_ready = cycle
        # Worklist entries carry the cycle at which the token became known
        # to the State Issuer: seed tokens stream out of the Token Issuer's
        # queue back-to-back, so their state fetches overlap; tokens
        # discovered by later relaxations become available when created.
        issue_gate = ThroughputGate(1)
        worklist: Deque[Tuple[int, int]] = deque(
            (s, cycle) for s in seeds
        )

        while worklist:
            state, available = worklist.popleft()
            score, bp = tokens[state]
            # The arc record that created this token carries a
            # "destination-has-epsilon-arcs" flag (a spare bit in the
            # 128-bit record), so tokens at epsilon-free states never
            # re-fetch their state record here.
            if graph.state_record(state).num_eps == 0:
                continue
            first, n_non_eps, n_eps, state_done = self._fetch_state(
                state, issue_gate.next_slot(available), stats,
                state_cache, state_window,
            )
            for a in range(first + n_non_eps, first + n_non_eps + n_eps):
                req = arc_gate.next_slot(max(state_done, arc_window.gate()))
                addr = self._arcs_base + a * ARC_BYTES
                arc_data, _hit = arc_cache.access(req, addr)
                arc_window.push(arc_data)

                proc_time = max(proc_time + 1, arc_data + 1)
                stats.epsilon_arcs_processed += 1
                search.epsilon_arcs_processed += 1
                stats.fp_adds += 1

                new_score = score + float(graph.arc_weight[a])
                dest = int(graph.arc_dest[a])

                hash_start = max(proc_time, hash_ready)
                hash_done, _cyc = hash_table.access(hash_start, dest)
                hash_ready = hash_done
                stats.fp_compares += 1

                improved = self._relax(
                    tokens, dest, new_score,
                    bp, int(graph.arc_olabel[a]), search, trace_append,
                )
                if improved:
                    worklist.append((dest, proc_time))
                    write_slot = max(hash_done, token_window.gate())
                    rec_addr = (
                        self._tokens_base
                        + (search.tokens_created + search.tokens_updated - 1)
                        * TRACE_RECORD_BYTES
                    )
                    done, _hit = token_cache.access(
                        write_slot, rec_addr, write=True
                    )
                    token_window.push(done)
                    stats.tokens_written += 1

        return _pass_end(
            cycle, proc_time, hash_ready, state_window, token_window
        )

    @staticmethod
    def _relax(
        tokens: Dict[int, Tuple[float, int]],
        dest: int,
        new_score: float,
        src_bp: int,
        word: int,
        search: SearchStats,
        trace_append,
    ) -> bool:
        existing = tokens.get(dest)
        if existing is not None and existing[0] >= new_score:
            return False
        bp = trace_append(src_bp, word)
        if existing is None:
            search.tokens_created += 1
        else:
            search.tokens_updated += 1
        tokens[dest] = (new_score, bp)
        return True

    def _finalize(
        self,
        tokens: Dict[int, Tuple[float, int]],
        trace_prev: List[int],
        trace_word: List[int],
    ) -> Tuple[Tuple[int, ...], float, bool]:
        """Pick the best final token; backtracking runs on the host CPU."""
        if not tokens:
            raise DecodeError("no active tokens at the end of the utterance")

        best: Optional[Tuple[float, int]] = None
        for state, (score, bp) in tokens.items():
            final_weight = self.graph.final_weight(state)
            if final_weight <= LOG_ZERO / 2:
                continue
            total = score + final_weight
            if best is None or total > best[0]:
                best = (total, bp)
        reached_final = best is not None
        if best is None:
            state = max(tokens, key=lambda s: tokens[s][0])
            best = tokens[state]

        score, bp = best
        words: List[int] = []
        index = bp
        while index >= 0:
            if trace_word[index] != 0:
                words.append(trace_word[index])
            index = trace_prev[index]
        words.reverse()
        return tuple(words), score, reached_final


def _pass_end(
    start: int,
    proc_time: int,
    hash_ready: int,
    state_window: RollingWindow,
    token_window: RollingWindow,
) -> int:
    """Cycle a pipeline pass (a frame's emit pass or an epsilon pass) ends.

    The two token hash tables swap between frames, so a pass ends only
    once the pipeline has drained: the last evaluation, the last hash
    access, every token-record write and every State Issuer fetch --
    including the fetch of a state with no arcs to issue, and the token
    walk's Overflow Buffer reads, whose last return an emit pass passes
    as ``start``.  Every DRAM request a pass issues has then returned, so
    no pass inherits anything in flight from the one before it.
    """
    return max(
        start, proc_time, hash_ready, state_window.drain(),
        token_window.drain(),
    )


def _align(value: int, alignment: int) -> int:
    return (value + alignment - 1) // alignment * alignment
