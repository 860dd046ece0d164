"""The portable numpy kernel backend (the dispatch default).

These are the vectorized sweeps of :class:`repro.decoder.kernel.
SearchKernel`, extracted behind the
:class:`~repro.decoder.backends.KernelBackend` protocol.  They define
the bit-level contract every other backend must reproduce: the gather
enumerates arcs in block order, the segment merge keeps, per key, the
best score and -- among candidates of equal score (``+0.0 == -0.0``) --
the earliest candidate position, and score accumulation associates as
``(token + arc_weight) + acoustic``.  The tie rule is part of the
contract; the mechanism that delivers it (here: one value-sort of a
packed ``(key, position)`` word, no comparison sort of pairs) is not.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.decoder.backends import KernelBackend


def csr_gather(
    first: np.ndarray, counts: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Flatten CSR arc blocks into ``(arc_indices, source_rows)``.

    ``first[i]`` / ``counts[i]`` describe a contiguous block of arcs; the
    result enumerates every arc of every block in block order, plus the row
    ``i`` each arc came from.
    """
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    src = np.repeat(np.arange(len(first), dtype=np.int64), counts)
    # Arc k of the output is block src[k]'s arc (k - block start).
    block_shift = first - (np.cumsum(counts) - counts)
    return block_shift[src] + np.arange(total, dtype=np.int64), src


def segment_best(
    dest: np.ndarray, score: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Per unique destination, the position of its best-scoring candidate.

    Returns ``(unique_dests_sorted, winner_positions)``.  Ties keep the
    earliest candidate (source-major, arc order), mirroring the reference
    discipline's first-wins relaxation.  ``dest`` holds non-negative
    keys and is non-empty; ``score`` holds no NaN.
    """
    n = dest.size
    bits = (n - 1).bit_length()
    if int(dest.max()) >> (63 - bits) == 0:
        # Like the accelerator's hash merge, no candidate pair is ever
        # compared: one value-sort of (key << bits) | position groups
        # equal keys and leaves each group in candidate order.
        packed = (dest << bits) | np.arange(n, dtype=np.int64)
        packed.sort()
        sorted_dest = packed >> bits
        order = packed & ((1 << bits) - 1)
    else:
        order = np.argsort(dest, kind="stable")
        sorted_dest = dest[order]
    first = np.empty(n, dtype=bool)
    first[0] = True
    np.not_equal(sorted_dest[1:], sorted_dest[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    winners = order[starts]
    if starts.size < n:
        # Only keys with several candidates need their scores compared
        # (a few percent of a wide frontier): per such run the maximum,
        # then the first candidate that attains it.
        contested = ~first
        contested[:-1] |= contested[1:]
        rows = np.flatnonzero(contested)
        run_first = first[rows]
        run_starts = np.flatnonzero(run_first)
        cand = order[rows]
        cand_score = score[cand]
        run_of = np.cumsum(run_first) - 1
        run_max = np.maximum.reduceat(cand_score, run_starts)
        hits = np.flatnonzero(cand_score == run_max[run_of])
        hit_run = run_of[hits]
        lead = np.empty(hits.size, dtype=bool)
        lead[0] = True
        np.not_equal(hit_run[1:], hit_run[:-1], out=lead[1:])
        winners[np.searchsorted(starts, rows[run_starts])] = cand[hits[lead]]
    return sorted_dest[starts], winners


class NumpyBackend(KernelBackend):
    """Pure-numpy implementation of the kernel's inner array operations."""

    name = "numpy"

    def csr_gather(
        self, first: np.ndarray, counts: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        return csr_gather(first, counts)

    def segment_best(
        self, keys: np.ndarray, scores: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        return segment_best(keys, scores)

    def expand_frame(
        self,
        first: np.ndarray,
        counts: np.ndarray,
        scores: np.ndarray,
        arc_dest: np.ndarray,
        arc_weight: np.ndarray,
        arc_ilabel: np.ndarray,
        frame_scores: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        arc_idx, src = csr_gather(first, counts)
        dest = arc_dest[arc_idx]
        if arc_idx.size == 0:
            return arc_idx, src, dest, np.empty(0, dtype=np.float64)
        cand = (
            scores[src]
            + arc_weight[arc_idx]
            + frame_scores[arc_ilabel[arc_idx]]
        )
        return arc_idx, src, dest, cand

    def expand_closure(
        self,
        first: np.ndarray,
        counts: np.ndarray,
        scores: np.ndarray,
        arc_dest: np.ndarray,
        arc_weight: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        arc_idx, src = csr_gather(first, counts)
        dest = arc_dest[arc_idx]
        if arc_idx.size == 0:
            return arc_idx, src, dest, np.empty(0, dtype=np.float64)
        cand = scores[src] + arc_weight[arc_idx]
        return arc_idx, src, dest, cand

    def expand_fused(
        self,
        first: np.ndarray,
        counts: np.ndarray,
        scores: np.ndarray,
        seg: np.ndarray,
        arc_dest: np.ndarray,
        arc_weight: np.ndarray,
        arc_ilabel: np.ndarray,
        frame_stack: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        arc_idx, src = csr_gather(first, counts)
        dest = arc_dest[arc_idx]
        if arc_idx.size == 0:
            return arc_idx, src, dest, np.empty(0, dtype=np.float64)
        cand = (
            scores[src]
            + arc_weight[arc_idx]
            + frame_stack[seg[src], arc_ilabel[arc_idx]]
        )
        return arc_idx, src, dest, cand

    def trace_reachable(
        self, prev: np.ndarray, size: int, bps: np.ndarray, anchor: int
    ) -> np.ndarray:
        from repro.decoder.traceback import trace_reachable_numpy

        return trace_reachable_numpy(prev, size, bps, anchor)
