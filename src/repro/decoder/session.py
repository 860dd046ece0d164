"""Resumable decode sessions and the fused multi-session frame sweep.

:class:`repro.decoder.batch.BatchDecoder` decodes complete utterances; a
live voice pipeline does not have complete utterances -- acoustic scores
arrive a batch at a time behind the GPU (paper Section III-A).  This
module makes the kernel's per-utterance search state (the
:class:`~repro.decoder.kernel.Frontier` plus its token trace) a
first-class :class:`DecodeSession` that can be fed incrementally:

* :meth:`DecodeSession.push` accepts any prefix of the utterance's score
  matrix, in chunks of any size;
* :meth:`DecodeSession.partial` returns the current best hypothesis
  without disturbing the search, so a UI can show words as they are
  spoken;
* :meth:`DecodeSession.finalize` ends the session and returns the same
  :class:`DecodeResult` a one-shot ``decode`` of the full matrix would --
  word for word and bit for bit on the path score, regardless of how the
  frames were chunked (asserted in ``tests/test_decode_session.py``).

:func:`advance_sessions` is the serving fast path: it advances *many*
sessions one frame each through
:meth:`repro.decoder.kernel.SearchKernel.fused_step` -- all frontiers
concatenated session-major, every stage of the recurrence (pruning via
each session's own strategy state, the bulk arc gather, score
accumulation, the segment-max merge and the epsilon closure) run once
over the combined arrays, keyed by ``session * num_states + state`` so
sessions never mix.  Per-session work drops from ~25 numpy dispatches
per frame to a handful of cheap splits, which is what lets a
continuous-batching server beat sequential single-session serving.  The
fused sweep is bit-identical per session to
:meth:`DecodeSession.push_frame`, including every
:class:`SearchStats` counter.

The fused sweep's gather/expand/merge array work is the kernel's
``expand_fused`` / ``segment_best`` ops (:mod:`repro.decoder.backends`),
one call each over the concatenated rows of *all* sessions in the sweep.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.common.errors import DecodeError
from repro.acoustic.scorer import AcousticScores
from repro.decoder.batch import BatchDecoder
from repro.decoder.kernel import Frontier
from repro.decoder.result import DecodeResult

Chunk = Union[AcousticScores, np.ndarray]


def chunk_matrix(chunk: Chunk) -> np.ndarray:
    """Normalise a scores chunk to a 2-D ``frames x phone-scores`` matrix.

    The shared front-door validation of every serving layer
    (:class:`~repro.system.server.StreamingServer` and the sharded tier's
    :class:`~repro.system.tier.ServingTier`): malformed chunks are
    rejected before they are buffered, queued, or shipped to a worker.
    """
    matrix = chunk.matrix if isinstance(chunk, AcousticScores) else np.asarray(chunk)
    if matrix.ndim != 2:
        raise DecodeError("scores chunk must be 2-D (frames x phone scores)")
    return matrix


def check_score_rows(
    matrix: np.ndarray,
    session_id: int,
    input_closed: bool,
    min_score_width: int,
    pinned_width: Optional[int],
) -> Optional[int]:
    """The rules a :func:`chunk_matrix` result meets at every scores door
    (``StreamingServer.push``, ``ServingTier.push``), or a later fused
    sweep carrying other sessions' frames would abort: no push once the
    session's input was closed, rows wide enough for every phone id on
    the graph, one width across the door's sessions.  Returns the width
    the door is pinned to from now on (this chunk's, if its first rows).
    """
    if input_closed:
        raise DecodeError(f"input of session {session_id} is closed")
    if not len(matrix):
        return pinned_width
    width = matrix.shape[1]
    if width < min_score_width:
        raise DecodeError(
            f"score rows must have at least {min_score_width} entries "
            f"(one per phone id on the graph), got {width}"
        )
    if pinned_width is not None and width != pinned_width:
        raise DecodeError(
            f"score rows must be {pinned_width} wide like every other "
            f"session's (got {width}); one door serves one acoustic model"
        )
    return int(width)


class DecodeSession:
    """One utterance's resumable search state on a shared engine.

    Create with :meth:`BatchDecoder.open_session`.  Frames may arrive in
    chunks of any size; the session holds the frontier and token trace
    between pushes, exactly as the accelerator holds them in main memory
    between Acoustic Likelihood Buffer refills.
    """

    def __init__(self, decoder: BatchDecoder) -> None:
        self._decoder = decoder
        self._kernel = decoder.kernel
        self._frontier: Frontier = self._kernel.init_frontier()
        self._finalized = False

    # ------------------------------------------------------------------
    @property
    def decoder(self) -> BatchDecoder:
        return self._decoder

    @property
    def frames_pushed(self) -> int:
        return self._frontier.num_frames

    @property
    def finalized(self) -> bool:
        return self._finalized

    @property
    def alive(self) -> bool:
        """False once the beam emptied the search; the next push raises."""
        return self._frontier.states.size > 0

    @property
    def trace_memory_bytes(self) -> int:
        """Current traceback-buffer capacity, in bytes."""
        return self._frontier.trace.nbytes

    @property
    def trace_peak_bytes(self) -> int:
        """High-water mark of the traceback buffer, in bytes.

        With ``commit_interval=0`` this grows with the utterance; with
        commits enabled it plateaus at O(active tokens x window).
        """
        return self._frontier.trace.peak_bytes

    @property
    def committed_frames(self) -> int:
        """Frames covered by the committed (never-retracted) prefix."""
        return self._frontier.trace.committed_frames

    # ------------------------------------------------------------------
    def push_frame(self, frame_scores: np.ndarray) -> None:
        """Advance the search by one frame of acoustic scores."""
        self._require_open()
        row = np.asarray(frame_scores)
        if row.ndim != 1 or row.shape[0] < self._kernel.min_score_width:
            raise DecodeError(
                "frame scores must be a 1-D row with at least "
                f"{self._kernel.min_score_width} entries (one per phone id "
                f"on the graph), got shape {row.shape}"
            )
        frontier = self._frontier
        self._kernel.step_frame(frontier, frontier.num_frames, row)
        self._count_frame()

    def push(self, chunk: Chunk) -> int:
        """Advance by a chunk of frames; returns the number consumed."""
        matrix = chunk_matrix(chunk)
        for row in matrix:
            self.push_frame(row)
        return len(matrix)

    def partial(self) -> DecodeResult:
        """Best hypothesis over the frames seen so far.

        Non-destructive: the session keeps accepting frames afterwards.
        The returned stats are a snapshot, detached from the live
        session.  Incremental under ``commit_interval > 0``: the
        committed prefix is reused as-is and only the tail beyond the
        last commit is backtracked, and the stats snapshot pins views
        over the append-only per-frame lists instead of copying them --
        partial cost stays O(window), not O(frames so far).
        """
        self._require_open()
        result = self._kernel.finalize(self._frontier)
        return replace(result, stats=result.stats.snapshot())

    def finalize(self) -> DecodeResult:
        """End the session and return the final hypothesis.

        Equivalent to ``BatchDecoder.decode`` on the concatenation of all
        pushed chunks.  The session rejects further pushes afterwards.
        """
        self._require_open()
        if self._frontier.num_frames == 0:
            raise DecodeError("no frames to decode")
        self._finalized = True
        return self._kernel.finalize(self._frontier)

    # ------------------------------------------------------------------
    def _require_open(self) -> None:
        if self._finalized:
            raise DecodeError("session is already finalized")

    def _count_frame(self) -> None:
        frontier = self._frontier
        frontier.num_frames += 1
        frontier.stats.frames += 1
        # Committed-prefix commit point: between frames (never
        # mid-closure), after solo and fused sweeps alike.  Skipped when
        # the beam emptied this frame -- there is no live frontier to
        # converge, and the session is about to raise anyway.
        trace = frontier.trace
        if frontier.states.size and trace.should_commit(frontier.num_frames):
            frontier.bps = trace.commit(frontier.bps, frontier.num_frames)


# ----------------------------------------------------------------------
# Fused multi-session sweep
# ----------------------------------------------------------------------
def advance_sessions(
    pairs: Sequence[Tuple[DecodeSession, np.ndarray]],
) -> None:
    """Advance many sessions one frame each in a single fused numpy sweep.

    ``pairs`` holds ``(session, frame_scores)`` for each session to
    advance; sessions must be distinct, open, and share one decoder (one
    compiled graph and search config).  The result is bit-identical per
    session to calling ``session.push_frame(frame_scores)`` one by one.
    """
    if not pairs:
        return
    sessions = [session for session, _ in pairs]
    decoder = sessions[0]._decoder
    if len(set(map(id, sessions))) != len(sessions):
        raise DecodeError("fused sweep requires distinct sessions")
    for session in sessions:
        if session._decoder is not decoder:
            raise DecodeError("fused sweep requires sessions of one decoder")
        session._require_open()
        frontier = session._frontier
        if frontier.states.size == 0:
            raise DecodeError(
                f"beam emptied the search at frame {frontier.num_frames}"
            )
    if len(sessions) == 1:
        sessions[0].push_frame(pairs[0][1])
        return
    rows = [np.asarray(row) for _, row in pairs]
    shape = rows[0].shape
    if any(row.shape != shape for row in rows):
        # Ragged score widths cannot be stacked into one fused sweep;
        # advance each session alone instead (same results, just not
        # fused) -- push_frame validates each row.
        for session, row in zip(sessions, rows):
            session.push_frame(row)
        return
    if len(shape) != 1 or shape[0] < decoder.min_score_width:
        raise DecodeError(
            "frame scores must be 1-D rows with at least "
            f"{decoder.min_score_width} entries (one per phone id on the "
            f"graph), got shape {shape}"
        )

    decoder.kernel.fused_step([s._frontier for s in sessions], np.stack(rows))
    for session in sessions:
        session._count_frame()
