"""Continuous-batching streaming decode server (beyond-paper serving
tier: the executable counterpart of the Section VI server-workload
discussion, built on the software decoders).

:mod:`repro.system.pipeline` *models* the latency of serving many live
streams analytically; this module *executes* that serving shape.  A
:class:`StreamingServer` is the search stage and nothing else --
acoustic score rows in, words out -- multiplexing any number of live
:class:`repro.decoder.session.DecodeSession` objects through one
vectorized engine:

* sessions **join and leave mid-flight** -- :meth:`open_session` admits a
  new stream at any time, a session retires the moment its input is
  closed and its buffered frames are drained;
* audio arrives as **ragged chunks** -- each :meth:`push` buffers any
  number of score frames per session, and every :meth:`step` advances up
  to ``max_batch`` ready sessions by exactly one frame in a single fused
  lockstep sweep (:func:`repro.decoder.session.advance_sessions`);
* **per-session latency and throughput** are recorded: queue wait per
  frame, attributed decode time, frames/s, plus server-level sweep
  occupancy and aggregate throughput.

Because the fused sweep is bit-identical to per-session decoding, a
server serving N streams produces exactly the words and path scores of N
one-shot ``BatchDecoder.decode`` calls -- the correctness anchor tested
in ``tests/test_streaming_server.py``.

MFCC features enter the serving stack in one place, the DNN stage of
:class:`repro.system.tier.ServingTier`, whose workers each run one of
these servers.  To decode features in a single process, score each round
of chunks with :mod:`repro.acoustic.batch_scorer` and push the planes
here (two lines, in the README's "Batched in-tier scoring").
"""

from __future__ import annotations

import itertools
import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import ConfigError, DecodeError
from repro.decoder.batch import BatchDecoder
from repro.decoder.result import DecodeResult
from repro.decoder.session import (
    Chunk,
    advance_sessions,
    check_score_rows,
    chunk_matrix,
)
from repro.decoder.viterbi import DecoderConfig
from repro.wfst.layout import CompiledWfst


@dataclass(frozen=True)
class ServerConfig:
    """Scheduler knobs.

    Attributes:
        max_batch: most sessions advanced per lockstep sweep; ready
            sessions beyond the cap wait for the next sweep, and served
            sessions rotate to the back of the queue (round-robin, so
            nobody starves).
    """

    max_batch: int = 64

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ConfigError("max_batch must be >= 1")


@dataclass
class SessionStats:
    """Latency/throughput record of one session's life on the server."""

    session_id: int
    opened_s: float
    frames_pushed: int = 0
    frames_decoded: int = 0
    sweeps: int = 0
    wait_seconds_total: float = 0.0
    max_wait_s: float = 0.0
    decode_seconds: float = 0.0
    finalized_s: Optional[float] = None
    #: High-water mark of the session's traceback buffer, in bytes
    #: (bounded by the commit window under ``commit_interval > 0``).
    trace_peak_bytes: int = 0
    #: Frames whose words were committed (stable-prefix output).
    committed_frames: int = 0

    @property
    def mean_wait_s(self) -> float:
        """Mean time a frame sat buffered before its sweep decoded it."""
        if not self.frames_decoded:
            return 0.0
        return self.wait_seconds_total / self.frames_decoded

    @property
    def frames_per_second(self) -> float:
        """Decode throughput over this session's attributed sweep time."""
        if self.decode_seconds <= 0.0:
            return 0.0
        return self.frames_decoded / self.decode_seconds


@dataclass
class ServerStats:
    """Aggregate scheduler counters across every sweep.

    Kept as running totals (not per-sweep lists) so a server can run
    indefinitely with O(1) stats memory.
    """

    sweeps: int = 0
    frames_decoded: int = 0
    busy_seconds: float = 0.0
    sessions_opened: int = 0
    sessions_finalized: int = 0
    max_occupancy: int = 0

    @property
    def aggregate_frames_per_second(self) -> float:
        """Frames decoded per second of engine busy time, all sessions."""
        if self.busy_seconds <= 0.0:
            return 0.0
        return self.frames_decoded / self.busy_seconds

    @property
    def mean_occupancy(self) -> float:
        """Mean sessions advanced per sweep (the batching win); every
        ready session decodes exactly one frame per sweep."""
        if not self.sweeps:
            return 0.0
        return self.frames_decoded / self.sweeps


@dataclass
class SessionRecord:
    """Terminal state of a retired session."""

    session_id: int
    result: Optional[DecodeResult]
    error: Optional[str]
    stats: SessionStats

    @property
    def ok(self) -> bool:
        return self.result is not None


class _Live:
    """A session plus its buffered, timestamped score frames."""

    __slots__ = ("session", "buffer", "input_closed", "stats")

    def __init__(self, session, stats: SessionStats) -> None:
        self.session = session
        self.buffer: Deque[Tuple[np.ndarray, float]] = deque()
        self.input_closed = False
        self.stats = stats


class StreamingServer:
    """Serve many live decode sessions through one vectorized engine:
    score rows in (:meth:`push`), words out (:meth:`result`)."""

    def __init__(
        self,
        graph: CompiledWfst,
        search_config: DecoderConfig = DecoderConfig(),
        server_config: ServerConfig = ServerConfig(),
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.decoder = BatchDecoder(graph, search_config)
        self.server_config = server_config
        self.stats = ServerStats()
        self._clock = clock
        self._live: "OrderedDict[int, _Live]" = OrderedDict()
        self._records: Dict[int, SessionRecord] = {}
        # Ids retired since the last take_retired(), in retirement order.
        self._retired: List[int] = []
        self._ids = itertools.count()
        # One row width across all sessions, pinned by the first push.
        self._frame_width: Optional[int] = None

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------
    def open_session(self) -> int:
        """Admit a new live stream; returns its session id."""
        sid = next(self._ids)
        self._live[sid] = _Live(
            self.decoder.open_session(), SessionStats(sid, self._clock())
        )
        self.stats.sessions_opened += 1
        return sid

    def push(self, session_id: int, chunk: Chunk) -> int:
        """Buffer a chunk of acoustic score frames for a live session.

        A malformed chunk, or one for a session whose input is closed,
        raises :class:`DecodeError` before anything is buffered
        (:func:`~repro.decoder.session.check_score_rows`).
        """
        live = self._require_live(session_id)
        matrix = chunk_matrix(chunk)
        self._frame_width = check_score_rows(
            matrix, session_id, live.input_closed,
            self.decoder.min_score_width, self._frame_width,
        )
        now = self._clock()
        for row in matrix:
            live.buffer.append((row, now))
        live.stats.frames_pushed += len(matrix)
        return len(matrix)

    def close_input(self, session_id: int) -> None:
        """Mark end of stream; the session retires once its buffer drains."""
        self._require_live(session_id).input_closed = True

    def partial(self, session_id: int) -> Optional[DecodeResult]:
        """Current best hypothesis of a live session (decoded frames only).

        Returns ``None`` once the session's beam has emptied -- it is
        dead but not yet retired; its error is recorded at retirement --
        so a fleet-wide partial poller never trips on a dying session.
        """
        live = self._require_live(session_id)
        if not live.session.alive:
            return None
        return live.session.partial()

    def result(self, session_id: int) -> SessionRecord:
        """Terminal record of a retired session."""
        record = self._records.get(session_id)
        if record is None:
            state = "still live" if session_id in self._live else "unknown"
            raise DecodeError(f"session {session_id} has no result ({state})")
        return record

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def step(self) -> int:
        """One lockstep sweep: up to ``max_batch`` ready sessions advance
        one buffered frame each; returns how many advanced.

        Served sessions rotate to the back of the queue, so when more
        than ``max_batch`` sessions are ready the cap round-robins over
        them instead of starving the newest arrivals."""
        ready: List[_Live] = []
        for live in list(self._live.values()):
            if not live.buffer:
                continue
            if not live.session.alive:
                # The beam emptied this session's search on an earlier
                # frame; retire it with the engine's error instead of
                # poisoning the whole sweep.
                self._retire(
                    live,
                    error="beam emptied the search at frame "
                    f"{live.session.frames_pushed}",
                )
                continue
            ready.append(live)
            if len(ready) == self.server_config.max_batch:
                break

        if ready:
            pairs = []
            enqueued_at = []
            for live in ready:
                row, t_enq = live.buffer.popleft()
                pairs.append((live.session, row))
                enqueued_at.append(t_enq)
                self._live.move_to_end(live.stats.session_id)
            t0 = self._clock()
            advance_sessions(pairs)
            elapsed = self._clock() - t0
            share = elapsed / len(ready)
            for live, t_enq in zip(ready, enqueued_at):
                stats = live.stats
                stats.frames_decoded += 1
                stats.sweeps += 1
                stats.decode_seconds += share
                # Queue wait runs to the sweep's start; the sweep itself
                # is accounted in decode_seconds.
                wait = max(0.0, t0 - t_enq)
                stats.wait_seconds_total += wait
                stats.max_wait_s = max(stats.max_wait_s, wait)
            self.stats.sweeps += 1
            self.stats.frames_decoded += len(ready)
            self.stats.busy_seconds += elapsed
            self.stats.max_occupancy = max(
                self.stats.max_occupancy, len(ready)
            )

        self._retire_finished()
        return len(ready)

    def drain(self) -> None:
        """Sweep until no session has buffered frames, retiring finished
        sessions along the way."""
        while self.step():
            pass

    # ------------------------------------------------------------------
    # Convenience driver
    # ------------------------------------------------------------------
    def decode_streaming(
        self,
        scores_batch: Sequence[Chunk],
        chunk_frames: int = 10,
    ) -> List[DecodeResult]:
        """Serve whole utterances as concurrent chunked live sessions;
        results in input order.

        Every utterance is admitted up front as a session pushing
        ``chunk_frames``-sized chunks, all live sessions advancing in
        lockstep sweeps between chunk rounds -- the continuous-batching
        traffic shape.  Output matches ``BatchDecoder.decode_batch``
        exactly, and any session failure raises its ``DecodeError``.
        """
        if chunk_frames < 1:
            raise ConfigError("chunk_frames must be >= 1")
        matrices = [chunk_matrix(scores) for scores in scores_batch]
        sids = []
        for matrix in matrices:
            sids.append(self.open_session())
            if not len(matrix):
                self.close_input(sids[-1])
        for offset in itertools.count(0, chunk_frames):
            pushed = 0
            for sid, matrix in zip(sids, matrices):
                if offset >= len(matrix) or not self.is_live(sid):
                    # Fully pushed, or died mid-stream (beam emptied):
                    # its remaining audio is dropped, its error kept.
                    continue
                self.push(sid, matrix[offset: offset + chunk_frames])
                pushed += 1
                if offset + chunk_frames >= len(matrix):
                    self.close_input(sid)
            self.drain()
            if not pushed:
                break
        results = []
        for sid in sids:
            record = self.result(sid)
            if record.error is not None:
                raise DecodeError(f"session {sid}: {record.error}")
            results.append(record.result)
        return results

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def is_live(self, session_id: int) -> bool:
        """True while the session accepts pushes (not yet retired)."""
        return session_id in self._live

    @property
    def live_session_ids(self) -> List[int]:
        return list(self._live.keys())

    def take_retired(self) -> List[int]:
        """Ids of the sessions retired since the last call, in retirement
        order: each retired id is returned exactly once, and the call
        costs the new retirements only, not every session ever served."""
        retired, self._retired = self._retired, []
        return retired

    @property
    def pending_frames(self) -> int:
        """Buffered frames not yet decoded, across all live sessions."""
        return sum(len(live.buffer) for live in self._live.values())

    def frames_decoded(self, session_id: int) -> int:
        """Frames decoded so far for a live *or* retired session (the
        tier's workers use this to ack shared-memory chunks only once
        their rows have actually been consumed)."""
        live = self._live.get(session_id)
        if live is not None:
            return live.stats.frames_decoded
        record = self._records.get(session_id)
        if record is None:
            raise DecodeError(f"unknown session {session_id}")
        return record.stats.frames_decoded

    # ------------------------------------------------------------------
    def _require_live(self, session_id: int) -> _Live:
        live = self._live.get(session_id)
        if live is None:
            record = self._records.get(session_id)
            if record is None:
                raise DecodeError(f"unknown session {session_id}")
            why = record.error if record.error else "finished cleanly"
            raise DecodeError(f"session {session_id} already retired: {why}")
        return live

    def _retire(self, live: _Live, result: Optional[DecodeResult] = None,
                error: Optional[str] = None) -> None:
        stats = live.stats
        stats.finalized_s = self._clock()
        stats.trace_peak_bytes = live.session.trace_peak_bytes
        stats.committed_frames = live.session.committed_frames
        self._records[stats.session_id] = SessionRecord(
            stats.session_id, result=result, error=error, stats=stats
        )
        del self._live[stats.session_id]
        self._retired.append(stats.session_id)
        self.stats.sessions_finalized += 1

    def _retire_finished(self) -> None:
        finished = [
            live
            for live in self._live.values()
            if live.input_closed and not live.buffer
        ]
        for live in finished:
            try:
                self._retire(live, result=live.session.finalize())
            except DecodeError as exc:
                self._retire(live, error=str(exc))
