"""Windowed token traceback with a committed-prefix protocol.

The accelerator does not keep unbounded per-utterance history: token
records live in a bounded buffer and hypotheses are recovered by
backtracking a *window* of backpointers.  This module is the software
analogue.  :class:`TokenTrace` stores one ``(predecessor index, word)``
record per token write -- the token array in main memory, at the
hardware's 8 bytes a record (two int32 arrays) -- and, when
constructed with a ``commit_interval``, periodically **commits** the
prefix every live hypothesis already agrees on and garbage-collects
every record the live frontier can no longer reach:

1. **Convergence** -- the lowest common ancestor of all live
   backpointers in the prev-tree is found by a vectorised climb
   (repeatedly replace every member but the lowest with its
   predecessor; parent indices are strictly smaller, so the climb
   terminates at the LCA).  Every live path passes through that
   anchor, so the words on the root-to-anchor path can never be
   retracted by any future frame.
2. **Emit** -- those words are appended to the committed prefix exactly
   once (:attr:`TokenTrace.committed`).
3. **Compact** -- records not reachable from the live frontier are
   dropped and the survivors renumbered in place; the anchor becomes the
   new root.  Peak trace memory is O(active tokens x window) instead of
   O(utterance length).

The reachability mark phase is the compaction's only array-heavy inner
loop, so it is one of the kernel's ops
(:meth:`~repro.decoder.backends.KernelBackend.trace_reachable`), timed
with the others when a proxy wraps them.

``commit_interval=0`` (the default) disables commits entirely and the
trace behaves exactly as the historical append-only buffer -- every
offline engine keeps its bit-identical output.  With commits enabled the
*concatenation* ``committed + backtrack(bp)`` still reproduces the full
path word for word (asserted in ``tests/test_traceback.py``), because
compaction preserves every record on every live path.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.common.errors import ConfigError, DecodeError
from repro.decoder.backends import KernelBackend

#: dtype of both record fields.  The accelerator's backpointer record
#: (Section III) is a 32-bit source-token index plus a 32-bit word id.
TRACE_FIELD_DTYPE = np.int32

#: Bytes per trace record (predecessor index, word) -- the one size both
#: the software trace and the cycle model's token region
#: (:mod:`repro.accel.simulator`) use.
TRACE_RECORD_BYTES = 2 * np.dtype(TRACE_FIELD_DTYPE).itemsize

#: Most records a trace may hold, so every predecessor index fits its
#: signed 32-bit field (word ids are held to the same bound when a
#: :class:`~repro.decoder.kernel.SearchKernel` is built).
MAX_TRACE_RECORDS = int(np.iinfo(TRACE_FIELD_DTYPE).max)

#: Smallest record capacity a trace allocates.
_MIN_CAPACITY = 64


def trace_reachable_numpy(
    prev: np.ndarray, size: int, bps: np.ndarray, anchor: int
) -> np.ndarray:
    """Reference keep-mask: records reachable from ``bps`` down to ``anchor``.

    Frontier marking: start from the unique live backpointers and follow
    predecessor links, stopping at records already marked (the anchor is
    pre-marked, and every live chain passes through it).  The result is a
    boolean mask over ``prev[:size]`` -- a pure function of its inputs.
    """
    keep = np.zeros(size, dtype=bool)
    keep[anchor] = True
    cur = np.unique(bps)
    while cur.size:
        cur = cur[~keep[cur]]
        if cur.size == 0:
            break
        keep[cur] = True
        cur = np.unique(prev[cur])
        cur = cur[cur >= 0]
    return keep


class TokenTrace:
    """Token trace with bulk appends and optional windowed compaction.

    With ``commit_interval=0`` this is the historical append-only
    buffer: records arrive a frame's worth at a time into a preallocated
    growing array, and backtracking is O(path length).  With
    ``commit_interval=K`` the owning session calls :meth:`commit` every
    K frames, which emits the converged word prefix into
    :attr:`committed` and compacts the buffer down to the records the
    live frontier still reaches (renumbering the caller's backpointers
    via the returned array).

    Args:
        commit_interval: frames between commits (0 = never commit).
        backend: kernel ops running the compaction's reachability
            mark; ``None`` calls :func:`trace_reachable_numpy` directly.
    """

    def __init__(
        self,
        commit_interval: int = 0,
        backend: Optional[KernelBackend] = None,
    ) -> None:
        if commit_interval < 0:
            raise ConfigError("commit_interval must be >= 0")
        self._prev = np.empty(_MIN_CAPACITY, dtype=TRACE_FIELD_DTYPE)
        self._word = np.empty(_MIN_CAPACITY, dtype=TRACE_FIELD_DTYPE)
        self._size = 0
        self.commit_interval = commit_interval
        self._backend = backend
        self._committed: List[int] = []
        self._committed_cache: Optional[Tuple[int, ...]] = None
        #: Completed commits (compaction passes) so far.
        self.commits = 0
        #: Frames consumed at the last commit (the window's left edge).
        self.committed_frames = 0
        #: High-water mark of buffer capacity, in bytes.
        self.peak_bytes = _MIN_CAPACITY * TRACE_RECORD_BYTES

    # ------------------------------------------------------------------
    # Append / backtrack (the historical append-only surface)
    # ------------------------------------------------------------------
    def append_bulk(self, prev: np.ndarray, word: np.ndarray) -> np.ndarray:
        """Append records; returns their trace indices (int64).

        Raises :class:`DecodeError` when the trace would pass
        :data:`MAX_TRACE_RECORDS`, rather than wrap an index.  Word ids
        are not checked here: :class:`~repro.decoder.kernel.SearchKernel`
        refuses a graph whose output labels do not fit the field.
        """
        new_size = self._size + len(prev)
        if new_size > MAX_TRACE_RECORDS:
            raise DecodeError(
                f"token trace full: {new_size} records exceed the "
                f"32-bit record limit of {MAX_TRACE_RECORDS}"
            )
        if new_size > len(self._prev):
            capacity = min(max(new_size, 2 * len(self._prev)), MAX_TRACE_RECORDS)
            # One preallocated resize per array: the live prefix is
            # copied exactly once into the new buffer.
            grown = np.empty(capacity, dtype=TRACE_FIELD_DTYPE)
            grown[: self._size] = self._prev[: self._size]
            self._prev = grown
            grown = np.empty(capacity, dtype=TRACE_FIELD_DTYPE)
            grown[: self._size] = self._word[: self._size]
            self._word = grown
            nbytes = capacity * TRACE_RECORD_BYTES
            if nbytes > self.peak_bytes:
                self.peak_bytes = nbytes
        indices = np.arange(self._size, new_size, dtype=np.int64)
        self._prev[self._size: new_size] = prev
        self._word[self._size: new_size] = word
        self._size = new_size
        return indices

    def backtrack(self, index: int) -> List[int]:
        """Words on the path from the buffer's root to ``index``.

        After commits this is the *tail* beyond :attr:`committed` (the
        compacted root carries no word); the full hypothesis is always
        ``committed + backtrack(bp)``.
        """
        prev, word = self._prev, self._word
        words: List[int] = []
        i = int(index)
        while i >= 0:
            w = int(word[i])
            if w != 0:
                words.append(w)
            i = int(prev[i])
        words.reverse()
        return words

    def __len__(self) -> int:
        return self._size

    # ------------------------------------------------------------------
    # Committed-prefix protocol
    # ------------------------------------------------------------------
    @property
    def committed(self) -> Tuple[int, ...]:
        """Words committed so far -- a stable prefix of every future
        hypothesis, emitted exactly once and never retracted."""
        if self._committed_cache is None:
            self._committed_cache = tuple(self._committed)
        return self._committed_cache

    @property
    def nbytes(self) -> int:
        """Current buffer capacity, in bytes."""
        return len(self._prev) * TRACE_RECORD_BYTES

    def should_commit(self, num_frames: int) -> bool:
        """True when ``num_frames`` crosses the next commit boundary."""
        return (
            self.commit_interval > 0
            and num_frames - self.committed_frames >= self.commit_interval
        )

    def commit(self, bps: np.ndarray, num_frames: int) -> np.ndarray:
        """Commit the converged prefix and compact; returns renumbered bps.

        ``bps`` are the live frontier's backpointers.  The records on the
        root-to-anchor path are emitted into :attr:`committed`; records
        unreachable from the frontier are dropped; survivors are
        renumbered with the anchor as the new root (index 0, no word).
        The returned array replaces the caller's ``bps`` in place --
        every subsequent :meth:`backtrack` of a renumbered index yields
        exactly the tail the dropped prefix used to contribute to.
        """
        anchor = self._lca(bps)
        if anchor < 0:
            # No convergence point inside the buffer: the live chains
            # climb past distinct roots, so there is no anchor to emit
            # or renumber to.  Kernel-built traces are single-rooted
            # (one start record) and never hit this; hand-built
            # multi-root traces get a safe no-op.
            return bps

        # Emit: words on the path root -> anchor, root exclusive of its
        # empty record, anchor inclusive.
        emitted = self.backtrack(anchor)
        if emitted:
            self._committed.extend(emitted)
            self._committed_cache = None

        # Mark: records the live frontier still reaches (anchor
        # pre-marked; every live chain stops there).
        prev = self._prev[: self._size]
        if self._backend is not None:
            keep = self._backend.trace_reachable(prev, self._size, bps, anchor)
        else:
            keep = trace_reachable_numpy(prev, self._size, bps, anchor)

        # Sweep: renumber survivors.  The anchor is the lowest kept index
        # (every kept record sits above it on some live chain), so it
        # renumbers to 0 -- the compacted buffer's root.
        idx_map = np.cumsum(keep) - 1
        new_size = int(idx_map[-1]) + 1 if self._size else 0
        capacity = _MIN_CAPACITY
        while capacity < new_size:
            capacity *= 2
        new_prev = np.empty(capacity, dtype=TRACE_FIELD_DTYPE)
        new_word = np.empty(capacity, dtype=TRACE_FIELD_DTYPE)
        old_prev = prev[keep]
        new_prev[:new_size] = idx_map[np.maximum(old_prev, 0)]
        new_word[:new_size] = self._word[: self._size][keep]
        new_prev[0] = -1
        new_word[0] = 0
        self._prev = new_prev
        self._word = new_word
        self._size = new_size
        nbytes = capacity * TRACE_RECORD_BYTES
        if nbytes > self.peak_bytes:
            self.peak_bytes = nbytes

        self.commits += 1
        self.committed_frames = num_frames
        return idx_map[bps]

    def _lca(self, bps: np.ndarray) -> int:
        """Lowest common ancestor of ``bps`` in the prev-tree, or ``-1``
        when their chains reach distinct roots.

        Each step keeps the lowest member and replaces every other one
        with its predecessor.  Predecessor indices are strictly smaller
        than their records' (append order), so the lowest member is never
        below the LCA and a member at the LCA is always the lowest: the
        set shrinks to the deepest record every live path shares -- at
        worst the root (index 0) -- in one vectorised step per level.
        """
        members = np.unique(bps)
        prev = self._prev
        while len(members) > 1:
            members = np.unique(
                np.concatenate((members[:1], prev[members[1:]]))
            )
        return int(members[0])
