"""Word lattices and N-best extraction (beyond-paper extension of the
Section II search; built from the same token trace the accelerator's
Section III-B backpointer records encode).

The paper's accelerator emits a single best path (the token trace plus
backtracking), which is what its evaluation measures.  Production
recognisers usually also want alternatives; this module provides them on
the same search: a :class:`Lattice` is the DAG of all tokens that survived
the beam, with one node per (frame, state) and one edge per surviving arc
relaxation, from which N-best word sequences are read best first.

Everything is numpy arrays end to end.  The beam search runs on the
shared vectorized :class:`~repro.decoder.kernel.SearchKernel`;
lattice-arc capture is a :class:`~repro.decoder.kernel.KernelObserver`
(:class:`_LatticeBuilder`) that receives each frame's expansion and
epsilon-closure arc streams as arrays.  Lattice-beam pruning needs two
costs per node: the forward (source-to-node) costs are exactly the
kernel's token scores, the backward (node-to-sink) costs are swept
frame-by-frame with ``np.minimum.at`` relaxations.  Edges on paths within
``lattice_beam`` of the best become the lattice's edge arrays, and the
backward costs of their endpoints stay with it: they are the exact
remaining cost of every path prefix, which is all a best-first N-best
walk needs (:meth:`Lattice.nbest`).

The 1-best lattice path is exactly the Viterbi decoder's output (tested),
so the lattice is a strict generalisation of the trace the hardware writes
to main memory.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

import numpy as np

from repro.common.errors import ConfigError, DecodeError
from repro.common.logmath import LOG_ZERO
from repro.acoustic.scorer import AcousticScores
from repro.decoder.backends.numpy_backend import segment_best
from repro.decoder.kernel import (
    ClosureEvent,
    DecoderConfig,
    ExpandEvent,
    KernelObserver,
    SearchKernel,
)
from repro.decoder.result import SearchStats
from repro.wfst.layout import CompiledWfst, FlatLayout


@dataclass(frozen=True)
class NBestEntry:
    """One N-best hypothesis."""

    words: Tuple[int, ...]
    log_likelihood: float


@dataclass
class Lattice:
    """A pruned token DAG as parallel edge arrays.

    Nodes are dense ids: 0 is the source, the last is the sink, the
    (frame, state) nodes lie between in (frame, state) order.  Edges are
    grouped by source node: node ``n``'s edges are the slice
    ``edge_start[n]:edge_start[n + 1]`` of ``edge_dest`` / ``edge_cost``
    (negated log-likelihood) / ``edge_word`` (0 = no word), at most one
    edge per (source, destination) pair.
    """

    edge_start: np.ndarray
    edge_dest: np.ndarray
    edge_cost: np.ndarray
    edge_word: np.ndarray
    #: Cost of the best path from each node to the sink (0 at the sink).
    cost_to_sink: np.ndarray
    num_frames: int
    #: Functional counters of the underlying kernel search (shared
    #: semantics with every other engine); None for hand-built lattices.
    stats: Optional[SearchStats] = None
    #: Whether any token ended in a final state; False means the sink
    #: edges came from the shared best-live-token fallback policy.
    reached_final: bool = True

    @property
    def num_nodes(self) -> int:
        return len(self.cost_to_sink) - 2  # minus source/sink

    @property
    def num_edges(self) -> int:
        return len(self.edge_dest)

    def best_path(self) -> NBestEntry:
        """The Viterbi path through the lattice."""
        entries = self.nbest(1)
        if not entries:
            raise DecodeError("lattice contains no complete path")
        return entries[0]

    def nbest(self, k: int) -> List[NBestEntry]:
        """Up to ``k`` highest-likelihood distinct word sequences.

        A best-first walk over path prefixes, keyed on ``cost so far +
        cost_to_sink[node]``.  That bound is the cost of the prefix's best
        completion exactly, so complete paths leave the heap best first
        and each costs only its own length in pops.  Distinct paths can
        share a word sequence (the same words with a different time
        alignment); a prefix that reaches a (node, words so far) pair a
        second time is dropped -- the likelier alignment of those words
        got there first, and the two have the same completions -- so
        every arrival at the sink is a new word sequence carrying its
        best alignment's score.  Equal costs resolve by insertion order.
        """
        if k < 1:
            raise ConfigError("k must be >= 1")
        sink = len(self.cost_to_sink) - 1
        entries: List[NBestEntry] = []
        seen: Set[Tuple[int, Tuple[int, ...]]] = set()
        # (bound, insertion order, cost so far, node, words so far)
        heap = [(float(self.cost_to_sink[0]), 0, 0.0, 0, ())]
        pushed = 1
        while heap and len(entries) < k:
            _bound, _order, cost, node, words = heapq.heappop(heap)
            if (node, words) in seen:
                continue
            seen.add((node, words))
            if node == sink:
                entries.append(NBestEntry(words, -cost))
                continue
            edges = slice(self.edge_start[node], self.edge_start[node + 1])
            dests = self.edge_dest[edges]
            for dest, remaining, edge_cost, word in zip(
                dests.tolist(),
                self.cost_to_sink[dests].tolist(),
                self.edge_cost[edges].tolist(),
                self.edge_word[edges].tolist(),
            ):
                reached = cost + edge_cost
                heapq.heappush(heap, (
                    reached + remaining, pushed,
                    reached, dest, words + (word,) if word else words,
                ))
                pushed += 1
        # The bound sums right to left and a path left to right, so two
        # near-equal paths can leave the heap an ulp out of order.
        entries.sort(key=lambda entry: -entry.log_likelihood)
        return entries

    def oracle_wer(self, reference: Tuple[int, ...], k: int = 50) -> float:
        """Best WER achievable among the top-k hypotheses."""
        from repro.decoder.wer import word_error_rate

        entries = self.nbest(k)
        if not entries:
            return 1.0
        return min(word_error_rate(reference, e.words) for e in entries)


@dataclass
class _EdgeGroup:
    """One event's arc stream as parallel edge arrays.

    ``u_frame == v_frame`` marks an epsilon (within-frame) group.
    """

    u_frame: int
    v_frame: int
    srcs: np.ndarray
    dests: np.ndarray
    costs: np.ndarray
    words: np.ndarray


class _LatticeBuilder(KernelObserver):
    """Kernel observer that captures the surviving search space as edges.

    Each :class:`ExpandEvent` contributes one ``(frame, src) -> (frame+1,
    dest)`` edge per processed non-epsilon arc (cost ``-(arc weight +
    acoustic score)``, bit-identical to the scalar formulation); each
    :class:`ClosureEvent` round contributes ``(pass, src) -> (pass,
    dest)`` edges for its epsilon arcs.  Streams are kept as they come:
    re-relaxation rounds re-emit identical edges and a graph can hold
    parallel arcs between one (src, dest) pair, which the backward sweep
    does not mind and the edge assembly resolves once.
    """

    def __init__(self, flat: FlatLayout) -> None:
        self._flat = flat
        self.groups: List[_EdgeGroup] = []

    def _capture(self, u_frame: int, v_frame: int, event, costs) -> None:
        self.groups.append(_EdgeGroup(
            u_frame, v_frame,
            event.states[event.arc_src], event.arc_dest,
            costs, self._flat.arc_olabel[event.arc_idx],
        ))

    def on_expand(self, event: ExpandEvent) -> None:
        if len(event.arc_idx):
            flat, arc_idx = self._flat, event.arc_idx
            self._capture(event.frame, event.frame + 1, event, -(
                flat.arc_weight64[arc_idx]
                + event.frame_scores[flat.arc_ilabel[arc_idx]]
            ))

    def on_closure(self, event: ClosureEvent) -> None:
        if len(event.arc_idx):
            self._capture(
                event.pass_index, event.pass_index, event,
                -self._flat.arc_weight64[event.arc_idx],
            )


class LatticeDecoder:
    """Beam-search decoder that records the surviving search space.

    Runs the shared vectorized kernel with a lattice-capture observer;
    pruning strategies, emptied-beam policy and functional counters are
    therefore identical to every other engine.
    """

    def __init__(
        self,
        graph: CompiledWfst,
        config: DecoderConfig = DecoderConfig(),
        lattice_beam: float = 6.0,
    ) -> None:
        if lattice_beam <= 0:
            raise ConfigError("lattice_beam must be positive")
        self.graph = graph
        self.config = config
        self.lattice_beam = lattice_beam
        self.kernel = SearchKernel(graph, config)

    # ------------------------------------------------------------------
    def decode(self, scores: AcousticScores) -> Lattice:
        """Decode one utterance into a lattice."""
        if scores.num_frames == 0:
            raise DecodeError("no frames to decode")
        kernel = self.kernel
        builder = _LatticeBuilder(kernel.flat)
        frontier = kernel.init_frontier(observers=(builder,))
        # Forward costs are free: the frontier's token scores at each
        # frame boundary are exactly the best source-to-node path costs.
        boundaries = [(frontier.states.copy(), frontier.scores.copy())]
        for frame in range(scores.num_frames):
            kernel.step_frame(frontier, frame, scores.frame(frame))
            frontier.num_frames += 1
            frontier.stats.frames += 1
            boundaries.append((frontier.states.copy(), frontier.scores.copy()))

        lattice = self._build_pruned(
            builder.groups, boundaries, scores.num_frames
        )
        lattice.stats = frontier.stats
        return lattice

    # ------------------------------------------------------------------
    def _build_pruned(
        self,
        groups: List[_EdgeGroup],
        boundaries: List[Tuple[np.ndarray, np.ndarray]],
        num_frames: int,
    ) -> Lattice:
        """Lattice-beam pruning and edge-array assembly.

        A node survives when its best complete path cost ``fwd + bwd``
        is within ``lattice_beam`` of the best path; an edge survives
        when both endpoints do (the semantics of dropping the doomed
        nodes).  ``fwd`` comes from the recorded token scores; ``bwd``
        is swept backwards one frame boundary at a time -- non-epsilon
        edges in one vectorized relaxation, within-frame epsilon edges
        iterated to fixpoint (the epsilon subgraph is acyclic, so the
        iterations converge in at most its depth).  A surviving node's
        best path to the sink runs through survivors only, so its
        ``bwd`` is its ``cost_to_sink`` in the pruned lattice too.
        """
        flat = self.kernel.flat
        num_states = flat.num_states
        shape = (num_frames + 1, num_states)

        fwd = np.full(shape, np.inf)
        for f, (states, token_scores) in enumerate(boundaries):
            fwd[f, states] = -token_scores

        # Group the edge arrays by frame boundary.
        expand: List[Optional[_EdgeGroup]] = [None] * num_frames
        eps: List[List[_EdgeGroup]] = [[] for _ in range(num_frames + 1)]
        for group in groups:
            if group.u_frame == group.v_frame:
                eps[group.u_frame].append(group)
            else:
                expand[group.u_frame] = group

        # Terminal costs, per the shared finalize policy: final weights,
        # or -- when no token reached a final state -- the live tokens at
        # zero cost, so the 1-best lattice path is then the reference
        # decoders' best-live-token hypothesis.
        end_states, _ = boundaries[num_frames]
        finals = flat.final_weights[end_states]
        final_mask = finals > LOG_ZERO / 2
        reached_final = bool(final_mask.any())
        if reached_final:
            end_states, end_costs = end_states[final_mask], -finals[final_mask]
        else:
            end_costs = np.zeros(len(end_states))
        bwd = np.full(shape, np.inf)
        bwd[num_frames, end_states] = end_costs

        # Backward sweep: expand edges first, then the frame boundary's
        # epsilon edges (all closure rounds of the pass combined) to
        # fixpoint.
        for f in range(num_frames, -1, -1):
            row = bwd[f]
            if f < num_frames and expand[f] is not None:
                group = expand[f]
                np.minimum.at(
                    row, group.srcs, group.costs + bwd[f + 1][group.dests]
                )
            if eps[f]:
                srcs = np.concatenate([g.srcs for g in eps[f]])
                dests = np.concatenate([g.dests for g in eps[f]])
                costs = np.concatenate([g.costs for g in eps[f]])
                while True:
                    before = row[srcs]
                    np.minimum.at(row, srcs, costs + row[dests])
                    if not (row[srcs] < before).any():
                        break

        total = fwd + bwd
        best = total.min()
        if not np.isfinite(best):
            raise DecodeError("lattice has no source-to-sink path")
        keep = total <= best + self.lattice_beam

        # The surviving edges as (src key, dest key, cost, word) columns,
        # a node's key being frame * num_states + state; the source lies
        # below and the sink above every such key.
        start = self.graph.start
        ended = keep[num_frames, end_states]
        num_ended = int(ended.sum())
        edges = [
            (np.array([-1]), np.array([start]),
             np.zeros(1), np.zeros(1, dtype=np.int64)),
            (num_frames * num_states + end_states[ended],
             np.full(num_ended, (num_frames + 1) * num_states),
             end_costs[ended], np.zeros(num_ended, dtype=np.int64)),
        ]
        for group in groups:
            mask = keep[group.u_frame, group.srcs] & keep[
                group.v_frame, group.dests
            ]
            edges.append((
                group.u_frame * num_states + group.srcs[mask],
                group.v_frame * num_states + group.dests[mask],
                group.costs[mask],
                group.words[mask],
            ))
        src_key, dest_key, cost, word = (
            np.concatenate(column) for column in zip(*edges)
        )

        # Dense node ids in key order, then one edge per (src, dest)
        # pair in (src, dest) order: the likeliest of parallel arcs (the
        # cost the Viterbi recurrence itself uses), ties to the earlier
        # arc -- the kernel's own merge, keyed on the pair.
        keys, ids = np.unique(
            np.concatenate((src_key, dest_key)), return_inverse=True
        )
        src, dest = ids[:cost.size], ids[cost.size:]
        _pairs, order = segment_best(src * keys.size + dest, -cost)
        return Lattice(
            edge_start=np.searchsorted(src[order], np.arange(keys.size + 1)),
            edge_dest=dest[order],
            edge_cost=cost[order],
            edge_word=word[order],
            cost_to_sink=np.concatenate(
                ([bwd[0, start]], bwd.ravel()[keys[1:-1]], [0.0])
            ),
            num_frames=num_frames,
            reached_final=reached_final,
        )
