"""Sharded serving tier: a front door routing live sessions to a pool of
decode worker processes over one memory-mapped graph (beyond-paper
serving layer; the ROADMAP's "millions of users" scaling step over the
single-process :class:`~repro.system.server.StreamingServer`).

The shape is the classic datacenter serving tier the paper's Section VI
server-workload discussion assumes around the accelerator:

* **front door** (:class:`ServingTier`) -- admits sessions, applies
  admission control (``max_sessions`` live sessions tier-wide, load-shed
  with a typed :class:`~repro.common.errors.AdmissionError`) and
  backpressure (a bounded per-shard frame queue, saturated pushes shed
  with a typed :class:`~repro.common.errors.BackpressureError`), and
  routes every session **with affinity** to one shard: all of a
  session's chunks decode on the worker that admitted it, so streaming
  state never migrates.  The methods are thread-safe, so an async
  gateway keeps its event loop free by awaiting
  ``asyncio.to_thread(tier.push, sid, chunk)`` and the like.
* **shards** -- ``num_workers`` processes, each running a
  :class:`StreamingServer` doing fused continuous-batching sweeps over
  its sessions.  Workers load the graph from an **mmap layout**
  (:func:`repro.wfst.io.load_graph_mmap`): uncompressed ``.npy`` arrays
  mapped read-only, so N workers share one physical copy of the graph
  through the OS page cache instead of N private copies.
* **SLO accounting** -- per-session end-to-end latency and queue-wait /
  decode-time records flow back with each retired session;
  :meth:`TierStats.slo` summarises server-level p50/p99.
* **batched in-tier scoring** (``scorer=`` + ``mode="features"``) --
  the one place MFCC features enter the serving stack, and the one loop
  that drives :class:`~repro.acoustic.batch_scorer.BatchScorer` (the
  shards' servers take score rows only).  A front-door scoring thread
  packs the pending MFCC chunks of *all* live feature sessions into one
  stacked, batch-stable DNN forward per pass (the paper's GPU batching
  half), writing the score rows straight into
  each worker's double-buffered **shared-memory score planes**
  (:mod:`repro.system.score_ring` -- the Acoustic Likelihood Buffer
  analogue).  Pipes carry only ``(sid, generation, offset, frames)``
  descriptors; workers read the rows zero-copy and ack after decode,
  which releases the plane slot.  The same transport carries
  :meth:`ServingTier.push` score chunks, so the per-push pickled matrix
  copy is gone from the scores path too.
* **pipes** -- POSIX only: workers are forked, and each pipe end is a
  :class:`_Pipe` polled through a ``select.poll`` object.  A worker
  drains its pipe, sweeps once and sends **one reply per pass** (the
  ALB's one handoff per buffer flip).  Every fork closes the front
  door's pipe ends in the child, so workers exit with the front door.
* **core budget** -- the paper's system (Sec. III-A, Fig. 1) is a
  two-stage pipeline in which the DNN and the Viterbi search each own a
  compute resource and meet only at the Acoustic Likelihood Buffer.  On
  a CPU the resources are cores: the ``num_workers`` search processes
  take one each, so a scoring tier holds the DNN's BLAS thread pool to
  the cores they leave, ``max(1, usable_cpus() - num_workers)``
  (:mod:`repro.common.cpu`) -- lowered, never raised, before the workers
  fork and for as long as the tier is up, restored by
  :meth:`ServingTier.shutdown`.  It is not a knob: both inputs are
  things the tier observes, and ``Dnn.forward`` is bit-identical at any
  BLAS thread count, so no output depends on it.  With cores to spare,
  with no ``scorer=``, or on a BLAS the handle does not control, nothing
  changes; :attr:`TierStats.blas_threads` says which.

Because each session decodes on exactly one worker's ``StreamingServer``
(bit-identical to one-shot decoding), the tier's per-session output is
word-for-word identical to ``BatchDecoder.decode`` -- the correctness
anchor of ``tests/test_serving_tier.py`` and of every tier workload of
``benchmarks/e2e``.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import multiprocessing.util
import os
import pickle
import select
import shutil
import tempfile
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.acoustic.batch_scorer import BatchScorer
from repro.acoustic.scorer import DnnScorer
from repro.common.cpu import BlasPool, usable_cpus
from repro.common.errors import (
    AdmissionError,
    BackpressureError,
    ConfigError,
    DecodeError,
    ReproError,
    TierError,
)
from repro.decoder.kernel import DecoderConfig
from repro.decoder.result import DecodeResult
from repro.decoder.session import Chunk, check_score_rows, chunk_matrix
from repro.system.score_ring import ScorePlaneRing, ScorePlaneView
from repro.system.server import (
    ServerConfig,
    ServerStats,
    SessionRecord,
    SessionStats,
    StreamingServer,
)
from repro.wfst.io import load_graph_mmap, save_graph_mmap
from repro.wfst.layout import CompiledWfst


@dataclass(frozen=True)
class TierConfig:
    """Front-door and shard knobs.

    Attributes:
        num_workers: decode worker processes (shards).
        max_sessions: tier-wide admission limit on concurrently live
            sessions; joins beyond it are load-shed with a typed
            :class:`AdmissionError` (0 = unlimited).
        queue_depth: bound on frames per shard that have been shipped but
            not yet acknowledged by the worker; pushes that would exceed
            it are load-shed with a typed :class:`BackpressureError`.
        max_batch: per-worker fused-sweep cap (forwarded to each shard's
            :class:`~repro.system.server.ServerConfig`).
        plane_frames: rows per score plane of each worker's double-
            buffered shared-memory ring (two planes per worker); ``0``
            sizes the plane automatically to cover the backpressure
            budget (``min(queue_depth, 8192)``), which makes the
            plane-flip stall unreachable.  Chunks larger than a plane
            are shipped as several descriptors.
    """

    num_workers: int = 2
    max_sessions: int = 0
    queue_depth: int = 4096
    max_batch: int = 64
    plane_frames: int = 0

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ConfigError("num_workers must be >= 1")
        if self.max_sessions < 0:
            raise ConfigError("max_sessions must be >= 0")
        if self.queue_depth < 1:
            raise ConfigError("queue_depth must be >= 1")
        if self.max_batch < 1:
            raise ConfigError("max_batch must be >= 1")
        if self.plane_frames < 0:
            raise ConfigError("plane_frames must be >= 0 (0 = auto)")


@dataclass
class TierStats:
    """Front-door counters plus the per-session SLO samples."""

    #: BLAS pool size in force while the tier is up -- what the scoring
    #: thread's gemms run with, after the core budget was applied -- or
    #: ``0`` when the BLAS is uncontrolled (:class:`repro.common.cpu.BlasPool`).
    blas_threads: int = 0
    sessions_admitted: int = 0
    sessions_rejected: int = 0   #: joins shed at the admission limit
    pushes_shed: int = 0         #: pushes shed by shard backpressure
    sessions_finished: int = 0
    sessions_failed: int = 0
    frames_pushed: int = 0
    frames_decoded: int = 0
    #: end-to-end seconds from admission to the record arriving back.
    session_latencies_s: List[float] = field(default_factory=list)
    #: per-session mean frame queue-wait seconds (from the shard server).
    session_mean_waits_s: List[float] = field(default_factory=list)
    #: wall-clock of the serving window (first admission -> last record).
    serving_seconds: float = 0.0
    #: largest per-session traceback-buffer high-water mark, in bytes --
    #: flat in session length once commits are enabled, the tier-level
    #: signal that long sessions do not grow memory without bound.
    trace_peak_bytes: int = 0
    #: committed (stable-prefix) frames summed over finished sessions.
    committed_frames: int = 0
    #: Batched in-tier scoring: feature frames scored by the front-door
    #: scoring thread, seconds inside the stacked DNN forward, and how
    #: many cross-session batches covered them.
    scored_frames: int = 0
    score_seconds: float = 0.0
    score_batches: int = 0
    #: Shared-memory transport accounting: score frames written into
    #: worker plane rings, push descriptors sent over the pipes, and the
    #: pickled bytes those descriptors cost (score matrices themselves
    #: never cross a pipe).
    frames_shipped: int = 0
    descriptors_shipped: int = 0
    ipc_bytes_shipped: int = 0
    #: Plane-flip stalls (writer waited for the consumed plane's acks).
    ring_stalls: int = 0

    @property
    def aggregate_frames_per_second(self) -> float:
        """Decoded frames per wall-clock second of the serving window."""
        if self.serving_seconds <= 0.0:
            return 0.0
        return self.frames_decoded / self.serving_seconds

    @property
    def scored_frames_per_second(self) -> float:
        """Feature frames scored per second spent in the stacked DNN."""
        if self.score_seconds <= 0.0:
            return 0.0
        return self.scored_frames / self.score_seconds

    @property
    def ipc_bytes_per_frame(self) -> float:
        """Pipe bytes per score frame shipped to a worker -- descriptor
        size with the shared-memory transport, versus a full pickled
        score row (``width * 8`` bytes and change) without it."""
        if not self.frames_shipped:
            return 0.0
        return self.ipc_bytes_shipped / self.frames_shipped

    def slo(self) -> Dict[str, float]:
        """Server-level SLO summary: p50/p99 latency and queue wait."""
        def pct(samples: List[float], q: float) -> float:
            return float(np.percentile(samples, q)) if samples else 0.0

        return {
            "sessions": self.sessions_finished,
            "p50_session_latency_s": pct(self.session_latencies_s, 50),
            "p99_session_latency_s": pct(self.session_latencies_s, 99),
            "p50_mean_wait_s": pct(self.session_mean_waits_s, 50),
            "p99_mean_wait_s": pct(self.session_mean_waits_s, 99),
            "aggregate_frames_per_second": self.aggregate_frames_per_second,
            "trace_memory_bytes": float(self.trace_peak_bytes),
            "committed_frames": float(self.committed_frames),
        }


class _TierSession:
    """Front-door view of one routed session."""

    __slots__ = (
        "sid", "worker", "opened_t", "closed", "record", "remote_error",
        "mode", "unscored_frames", "close_sent",
    )

    def __init__(
        self,
        sid: int,
        worker: "_WorkerHandle",
        opened_t: float,
        mode: str = "scores",
    ) -> None:
        self.sid = sid
        self.worker = worker
        self.opened_t = opened_t
        self.closed = False
        self.record: Optional[SessionRecord] = None
        self.remote_error: Optional[str] = None
        self.mode = mode
        #: feature frames accepted (and reserved against the shard's
        #: backpressure budget) but not yet scored-and-shipped; a
        #: requested close is deferred until this drains so the worker
        #: sees every frame before end-of-stream.
        self.unscored_frames = 0
        self.close_sent = False


class _Pipe:
    """One pipe end: a connection polled through a ``select.poll`` object
    registered once (``Connection.poll`` builds a selector per call).  A
    poll object refuses concurrent ``poll()`` calls, so one thread polls
    an end: the worker's loop, or ``_pump`` under the tier lock.  A peer's
    close polls ready, and ``recv`` then raises ``EOFError``."""

    __slots__ = ("conn", "_poller")

    def __init__(self, conn) -> None:
        self.conn = conn
        self._poller = select.poll()
        self._poller.register(conn.fileno(), select.POLLIN)

    def poll(self, timeout: Optional[float] = 0.0) -> bool:
        """Wait up to ``timeout`` seconds (``None``: for ever) for input."""
        return bool(self._poller.poll(None if timeout is None else int(timeout * 1e3)))

    def send(self, obj) -> None:
        self.conn.send(obj)

    def send_bytes(self, payload: bytes) -> None:
        self.conn.send_bytes(payload)

    def recv(self):
        return self.conn.recv()

    def close(self) -> None:
        self.conn.close()


class _WorkerHandle:
    """One shard: its process, duplex pipe, and load accounting."""

    __slots__ = (
        "index", "process", "pipe", "conn", "up", "live", "inflight_frames",
        "server_stats", "ring",
    )

    def __init__(self, index: int, process, pipe: _Pipe) -> None:
        self.index = index
        self.process = process
        self.pipe = pipe
        self.conn = pipe.conn  #: polled only by result()'s unlocked wait
        #: False once a send to the shard failed (see ServingTier._send)
        #: or its pipe reached end of file (ServingTier._pump); a down
        #: shard is never routed to again.
        self.up = True
        self.live = 0                 #: sessions currently routed here
        self.inflight_frames = 0      #: shipped frames not yet acked
        self.server_stats: Optional[ServerStats] = None
        #: lazily created double-buffered score-plane segment (the first
        #: shipped chunk pins the tier's frame width).
        self.ring: Optional[ScorePlaneRing] = None


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
def _worker_main(conn, graph_dir, search_config, server_config) -> None:
    """Shard main loop: a StreamingServer fed by the front-door pipe.

    ``conn`` is anything with ``poll``/``recv``/``send`` (a
    :class:`_Pipe` in the worker process).  Commands: ``("open", sid)``,
    ``("ring", name, plane_frames, width)`` (once, before the first push:
    the front door's shared-memory score planes), ``("push", sid,
    generation, offset, frames)`` (a descriptor naming rows of the mapped
    segment), ``("close", sid)``, and ``("stop",)``.  Each pass drains
    every queued command, steps the server once and sends at most one
    ``("reply", errors, acks, records)``: ``(sid, type, text)`` per failed
    command, ``(sid, frames, generation)`` per chunk *decoded* or rejected
    -- releasing its backpressure budget and ring slot, so a plane is
    never overwritten under a zero-copy read -- and ``(sid,
    SessionRecord)`` per retired session.  ``("stats", ServerStats)``
    comes last.  The loop blocks on the pipe only when no frames are
    buffered, and ends quietly if the front door is gone.
    """
    graph = load_graph_mmap(graph_dir)
    server = StreamingServer(graph, search_config, server_config)
    to_internal: Dict[int, int] = {}
    to_external: Dict[int, int] = {}
    running = True
    ring: Optional[ScorePlaneView] = None
    # Ack-after-decode ledger: per external sid, cumulative frames the
    # server accepted, and a FIFO of (generation, frames, cumulative
    # threshold) -- a chunk is acked once the session's decoded-frame
    # count reaches its threshold (or the session retired).
    accepted: Dict[int, int] = {}
    ledger: Dict[int, Deque[Tuple[int, int, int]]] = {}
    # This pass's reply.
    errors: List[Tuple[int, str, str]] = []
    acks: List[Tuple[int, int, int]] = []
    records: List[Tuple[int, SessionRecord]] = []

    def command(msg) -> None:
        nonlocal ring, running
        op = msg[0]
        if op == "open":
            ext = msg[1]
            try:
                isid = server.open_session()
            except ReproError as exc:
                errors.append((ext, type(exc).__name__, str(exc)))
            else:
                to_internal[ext] = isid
                to_external[isid] = ext
        elif op == "ring":
            ring = ScorePlaneView(msg[1], msg[2], msg[3])
        elif op == "push":
            ext, generation, offset, frames = msg[1], msg[2], msg[3], msg[4]
            try:
                if ring is None:
                    raise TierError("push descriptor before ring announcement")
                server.push(to_internal[ext], ring.rows(generation, offset, frames))
            except (KeyError, ReproError) as exc:
                errors.append((ext, type(exc).__name__, str(exc)))
                acks.append((ext, frames, generation))
            else:
                accepted[ext] = accepted.get(ext, 0) + frames
                ledger.setdefault(ext, deque()).append(
                    (generation, frames, accepted[ext])
                )
        elif op == "close":
            try:
                server.close_input(to_internal[msg[1]])
            except (KeyError, ReproError):
                pass  # already retired; its record is shipped below
        elif op == "stop":
            running = False  # every admitted session still gets a record
            for isid in server.live_session_ids:
                server.close_input(isid)

    def ship_finished() -> None:
        # The server hands each retirement over once, so this costs the
        # new records only, however many sessions the worker has served.
        for isid in server.take_retired():
            ext = to_external[isid]
            record = server.result(isid)
            record.stats.session_id = ext
            records.append((ext, dataclasses.replace(record, session_id=ext)))

    def release_consumed() -> None:
        for ext in list(ledger):
            queue = ledger[ext]
            isid = to_internal[ext]
            while queue:
                generation, frames, threshold = queue[0]
                try:
                    done = server.frames_decoded(isid) >= threshold
                except ReproError:
                    done = True  # session vanished; nothing holds the slot
                if not done and server.is_live(isid):
                    break
                queue.popleft()
                acks.append((ext, frames, generation))
            if not queue:
                del ledger[ext]

    while running or server.pending_frames:
        wait = None if running and not server.pending_frames else 0
        try:
            while conn.poll(wait):
                command(conn.recv())
                wait = 0
        except EOFError:
            break  # the front door is gone
        # Sessions retire only inside step(): a pass steps even with no
        # frames buffered, so a close that found them decoded retires.
        server.step()
        ship_finished()
        release_consumed()
        if errors or acks or records:
            try:
                conn.send(("reply", errors, acks, records))
            except OSError:
                break  # the front door is gone
            errors, acks, records = [], [], []
    if ring is not None:
        ring.close()
    try:
        conn.send(("stats", server.stats))
    except OSError:
        pass  # nobody is left to read them
    conn.close()


# ----------------------------------------------------------------------
# Front door
# ----------------------------------------------------------------------
class ServingTier:
    """Route live decode sessions across a pool of worker shards.

    Construct from either an in-memory ``graph`` (materialised to an mmap
    layout in a temporary directory that :meth:`shutdown` removes) or a
    ``graph_dir`` that already holds one (a disk
    :class:`~repro.graph.cache.GraphCache` entry, from its ``mmap_dir``,
    or ``repro compile --output``).  Use as a context manager, or call
    :meth:`shutdown` explicitly.

    The methods are thread-safe; an asyncio gateway serves many
    connections over one tier without blocking its loop by running them
    through ``asyncio.to_thread``.

    A tier built with ``scorer=`` holds the process's BLAS thread pool
    to the cores its workers leave while it is up (the module
    docstring's *core budget*); every other BLAS user in the process
    sees that size until :meth:`shutdown` restores the previous one.
    If the scoring thread fails, every features session with unscored
    frames retires at once with a failed record and the features front
    door raises :class:`TierError` naming the cause from then on;
    scores-mode sessions carry on.
    """

    def __init__(
        self,
        graph: Optional[CompiledWfst] = None,
        search_config: DecoderConfig = DecoderConfig(),
        tier_config: TierConfig = TierConfig(),
        *,
        graph_dir: Optional[str] = None,
        clock: Callable[[], float] = time.perf_counter,
        scorer: Optional[DnnScorer] = None,
    ) -> None:
        if (graph is None) == (graph_dir is None):
            raise ConfigError(
                "construct ServingTier with exactly one of graph= or graph_dir="
            )
        # What this tier makes it also undoes -- in shutdown(), or right
        # here when start-up fails: the directory holding the mmap layout
        # of an in-memory graph, and the BLAS pool size it lowered.
        self._graph_tmp: Optional[str] = None
        self._blas = BlasPool()
        self._blas_restore = 0  #: size to grow the pool back to; 0 = untouched
        if graph is not None:
            self._graph_tmp = tempfile.mkdtemp(prefix="repro-tier-graph-")
        try:
            self._start(
                graph, search_config, tier_config, graph_dir, clock, scorer
            )
        except BaseException:
            self._release()
            raise

    def _release(self) -> None:
        self._blas.restore(self._blas_restore)
        self._blas_restore = 0
        if self._graph_tmp is not None:
            shutil.rmtree(self._graph_tmp, ignore_errors=True)
            self._graph_tmp = None

    def _start(
        self,
        graph: Optional[CompiledWfst],
        search_config: DecoderConfig,
        tier_config: TierConfig,
        graph_dir: Optional[str],
        clock: Callable[[], float],
        scorer: Optional[DnnScorer],
    ) -> None:
        if graph is not None:
            graph_dir = save_graph_mmap(
                graph, os.path.join(self._graph_tmp, "graph.mmap")
            )
        self.graph_dir = graph_dir
        self.tier_config = tier_config
        self.search_config = search_config
        self.stats = TierStats()
        self._clock = clock
        self._lock = threading.RLock()
        self._next_sid = 0
        self._sessions: Dict[int, _TierSession] = {}
        self._first_open_t: Optional[float] = None
        self._last_record_t: Optional[float] = None
        self._shut_down = False
        # The mapped load touches no array data; the front door only needs
        # the ilabel width to validate chunks before shipping them.
        front_graph = graph if graph is not None else load_graph_mmap(graph_dir)
        self._min_score_width = (
            int(front_graph.arc_ilabel.max()) + 1
            if len(front_graph.arc_ilabel)
            else 1
        )
        self._frame_width: Optional[int] = None
        # Rows per score plane; TierConfig.plane_frames == 0 sizes it here.
        self._plane_frames = tier_config.plane_frames or min(
            tier_config.queue_depth, 8192
        )

        # Batched in-tier acoustic scoring (the paper's GPU half): a
        # scoring thread packs the pending feature chunks of *all* live
        # feature-mode sessions, runs one stacked DNN forward straight
        # into the workers' shared-memory score planes, and ships the
        # descriptors.  Batch-stable gemm makes the rows bit-identical
        # to each session scoring alone.
        self._batch_scorer = BatchScorer(scorer) if scorer is not None else None
        if self._batch_scorer is not None and (
            self._batch_scorer.width < self._min_score_width
        ):
            raise ConfigError(
                f"scorer produces {self._batch_scorer.width}-wide score "
                f"rows but the graph's phone ids need at least "
                f"{self._min_score_width}"
            )
        self._pending_feats: List[Tuple[int, np.ndarray]] = []
        self._score_cv = threading.Condition(self._lock)
        self._score_thread: Optional[threading.Thread] = None
        #: ``"Type: text"`` of the exception that stopped the scoring
        #: thread; once set, the features front door is closed for good.
        self._score_failure: Optional[str] = None

        # Core budget (Sec. III-A: the DNN stage and the search stage each
        # own a compute resource).  The workers about to be forked are
        # CPU-bound on a core each, so the DNN's BLAS pool gets the cores
        # they leave: a wider pool forks and joins helper threads that
        # have no core to run on, once per 32-row gemm.  Lowered, never
        # raised, before the fork so the workers inherit it too; a tier
        # that scores nothing has no DNN stage and changes nothing.
        if self._batch_scorer is not None:
            self._blas_restore = self._blas.lower(
                max(1, usable_cpus() - tier_config.num_workers)
            )
        self.stats.blas_threads = self._blas.threads()

        ctx = multiprocessing.get_context("fork")
        shard_config = ServerConfig(max_batch=tier_config.max_batch)
        self._workers: List[_WorkerHandle] = []
        for index in range(tier_config.num_workers):
            parent_conn, child_conn = ctx.Pipe()
            # A child would inherit this end, its own peer's included, and
            # outlive the front door waiting on it: every later fork closes it.
            multiprocessing.util.register_after_fork(parent_conn, type(parent_conn).close)
            process = ctx.Process(
                target=_worker_main,
                args=(_Pipe(child_conn), graph_dir, search_config, shard_config),
                daemon=True,
                name=f"repro-tier-worker-{index}",
            )
            process.start()
            child_conn.close()
            self._workers.append(_WorkerHandle(index, process, _Pipe(parent_conn)))

        if self._batch_scorer is not None:
            self._score_thread = threading.Thread(
                target=self._score_pump,
                daemon=True,
                name="repro-tier-scorer",
            )
            self._score_thread.start()

    # ------------------------------------------------------------------
    # Session lifecycle (sync front door)
    # ------------------------------------------------------------------
    def open_session(self, mode: str = "scores") -> int:
        """Admit a new live stream and route it to the least-loaded shard.

        Args:
            mode: ``"scores"`` (the client pushes pre-scored likelihood
                rows via :meth:`push`) or ``"features"`` (the client
                pushes MFCC features via :meth:`push_features`; the tier
                scores them batched across all live feature sessions).

        Raises:
            AdmissionError: the tier already serves ``max_sessions`` live
                sessions; the join is load-shed, nobody else is affected.
            ConfigError: ``mode="features"`` on a tier built without a
                ``scorer``, or an unknown mode.
            TierError: ``mode="features"`` after the scoring thread
                failed (the message names the original exception), the
                chosen shard's pipe is gone (the message names the
                session and the worker; nothing is counted, and the
                shard is marked down so the next open goes elsewhere), or
                every shard is down.
        """
        if mode not in ("scores", "features"):
            raise ConfigError(f"unknown session mode {mode!r}")
        if mode == "features" and self._batch_scorer is None:
            raise ConfigError(
                "mode='features' needs a tier constructed with scorer="
            )
        with self._lock:
            self._require_up()
            if mode == "features":
                self._require_scoring()
            self._pump()
            limit = self.tier_config.max_sessions
            live = sum(w.live for w in self._workers)
            if limit and live >= limit:
                self.stats.sessions_rejected += 1
                raise AdmissionError(
                    f"serving tier at its admission limit ({limit} live "
                    f"sessions); retry after a session retires"
                )
            up = [w for w in self._workers if w.up]
            if not up:
                raise TierError("no serving worker is up")
            worker = min(up, key=lambda w: (w.live, w.index))
            sid = self._next_sid
            self._next_sid += 1
            # Nothing is counted until the shard has the open: a session
            # it never received would hold admission budget for ever.
            self._send(worker, sid, ("open", sid))
            now = self._clock()
            self._sessions[sid] = _TierSession(sid, worker, now, mode=mode)
            worker.live += 1
            self.stats.sessions_admitted += 1
            if self._first_open_t is None:
                self._first_open_t = now
            return sid

    def push(self, session_id: int, chunk: Chunk) -> int:
        """Validate a chunk at the door and ship it to the session's shard.

        Raises:
            DecodeError: unknown/retired/closed session, or a malformed
                chunk (wrong rank, too narrow for the graph's phone ids,
                or a width disagreeing with the fleet's established
                width) -- rejected here, before any IPC or budget
                reservation, so a bad chunk never reaches a shard where
                other sessions' frames are in flight.
            BackpressureError: the shard's bounded queue is saturated;
                the push is load-shed and may be retried.
        """
        matrix = chunk_matrix(chunk)
        with self._lock:
            self._require_up()
            self._pump()
            session = self._require_live(session_id)
            if session.mode != "scores":
                raise DecodeError(
                    f"session {session_id} is a features-mode session; "
                    f"push MFCC chunks via push_features"
                )
            self._frame_width = check_score_rows(
                matrix, session_id, session.closed,
                self._min_score_width, self._frame_width,
            )
            if not len(matrix):
                return 0
            worker = session.worker
            self._reserve(worker, len(matrix))
            self._ship_rows(worker, session_id, matrix)
            self.stats.frames_pushed += len(matrix)
            return len(matrix)

    def push_features(self, session_id: int, features: np.ndarray) -> int:
        """Accept a chunk of MFCC feature rows for a features-mode session.

        The chunk joins the scoring thread's next cross-session batch:
        one stacked DNN forward scores the pending chunks of *every*
        live feature session straight into the shard's shared-memory
        score planes -- bit-identical to the client scoring its own
        chunk and calling :meth:`push`.

        Raises:
            DecodeError: unknown/retired/closed session, a scores-mode
                session, or a malformed chunk (wrong rank or feature
                width).
            BackpressureError: the shard's bounded queue is saturated;
                the push is load-shed and may be retried.
            TierError: the scoring thread failed; the message names the
                original exception.
        """
        if self._batch_scorer is None:
            raise DecodeError(
                "this tier scores nothing; construct it with scorer= "
                "and open sessions with mode='features'"
            )
        matrix = np.array(features, dtype=self._batch_scorer.dtype)
        if matrix.ndim != 2 or matrix.shape[1] != self._batch_scorer.input_dim:
            raise DecodeError(
                f"feature chunks must be (frames, "
                f"{self._batch_scorer.input_dim}), got shape {matrix.shape}"
            )
        with self._score_cv:
            self._require_up()
            self._require_scoring()
            self._pump()
            session = self._require_live(session_id)
            if session.mode != "features":
                raise DecodeError(
                    f"session {session_id} is a scores-mode session; "
                    f"push likelihood rows via push"
                )
            if session.closed:
                raise DecodeError(f"input of session {session_id} is closed")
            width = self._batch_scorer.width
            if self._frame_width is None:
                self._frame_width = width
            elif width != self._frame_width:
                raise DecodeError(
                    f"scored rows would be {width} wide but the fleet "
                    f"pushes {self._frame_width}-wide rows; one tier "
                    f"serves one acoustic model"
                )
            if not len(matrix):
                return 0
            # Reserve the backpressure budget now -- the scoring thread
            # cannot shed -- and hand the chunk to the batcher.
            self._reserve(session.worker, len(matrix))
            session.worker.inflight_frames += len(matrix)
            session.unscored_frames += len(matrix)
            self._pending_feats.append((session_id, matrix))
            self.stats.frames_pushed += len(matrix)
            self._score_cv.notify()
            return len(matrix)

    def _reserve(self, worker: "_WorkerHandle", frames: int) -> None:
        """Backpressure gate: shed the push if it would overflow the
        shard's unacked-frame budget (call with the lock held)."""
        if worker.inflight_frames + frames > self.tier_config.queue_depth:
            self._pump()  # acks may already be queued on the pipe
        if worker.inflight_frames + frames > self.tier_config.queue_depth:
            self.stats.pushes_shed += 1
            raise BackpressureError(
                f"shard {worker.index} queue saturated "
                f"({worker.inflight_frames} frames in flight, depth "
                f"{self.tier_config.queue_depth}); retry later"
            )

    # ------------------------------------------------------------------
    # Shared-memory score-plane transport
    # ------------------------------------------------------------------
    def _ensure_ring(
        self, worker: "_WorkerHandle", session_id: int
    ) -> ScorePlaneRing:
        """The worker's double-buffered plane ring, created (and
        announced to the worker, on ``session_id``'s behalf) on first
        ship.  Call with the lock held and ``self._frame_width``
        established."""
        if worker.ring is None:
            assert self._frame_width is not None
            worker.ring = ring = ScorePlaneRing(
                self._plane_frames, self._frame_width
            )
            self._send(
                worker, session_id,
                ("ring", ring.name, ring.plane_frames, self._frame_width),
            )
        return worker.ring

    def _ring_alloc(
        self, worker: "_WorkerHandle", session_id: int, frames: int
    ) -> Tuple[int, int, np.ndarray]:
        """Reserve plane rows, draining acks through a flip stall (the
        ALB stall: the plane being flipped to still has unacked chunks).
        Every unacked chunk is decoding on the worker, so the stall
        always resolves; the deadline guards a dead worker."""
        ring = self._ensure_ring(worker, session_id)
        deadline = time.monotonic() + 30.0
        stalled = False
        while True:
            slot = ring.try_alloc(frames)
            if slot is not None:
                return slot
            if not stalled:
                stalled = True
                self.stats.ring_stalls += 1
            self._pump(block_worker=worker)
            if not worker.process.is_alive():
                raise TierError(
                    f"worker {worker.index} died with score-plane "
                    f"chunks outstanding"
                )
            if time.monotonic() > deadline:
                raise TierError(
                    f"worker {worker.index} acked no score-plane chunk "
                    f"for 30s; plane flip stalled"
                )

    def _ship_rows(
        self,
        worker: "_WorkerHandle",
        session_id: int,
        matrix: np.ndarray,
        reserved: bool = False,
    ) -> None:
        """Write score rows into the worker's plane ring and send the
        descriptors (call with the lock held).  Chunks larger than a
        plane ship as several descriptors."""
        ring = self._ensure_ring(worker, session_id)
        for start in range(0, len(matrix), ring.plane_frames):
            part = matrix[start: start + ring.plane_frames]
            generation, offset, view = self._ring_alloc(
                worker, session_id, len(part)
            )
            view[:] = part
            self._send_descriptor(
                worker, session_id, generation, offset, len(part),
                reserved=reserved,
            )

    def _send_descriptor(
        self,
        worker: "_WorkerHandle",
        session_id: int,
        generation: int,
        offset: int,
        frames: int,
        reserved: bool = False,
    ) -> None:
        """Ship one ``(sid, generation, offset, frames)`` descriptor --
        the only bytes the transport ever pipes per chunk."""
        nbytes = self._send(
            worker, session_id,
            ("push", session_id, generation, offset, frames),
        )
        if not reserved:
            worker.inflight_frames += frames
        self.stats.frames_shipped += frames
        self.stats.descriptors_shipped += 1
        self.stats.ipc_bytes_shipped += nbytes

    def _send(
        self, worker: "_WorkerHandle", session_id: int, command: tuple
    ) -> int:
        """Pipe one command to a shard on ``session_id``'s behalf (call
        with the lock held); returns the bytes piped.

        Every front-door send goes through here.  A shard whose pipe is
        gone is marked down, so nothing is routed to it again, and the
        caller gets a :class:`TierError` naming the session and the
        worker instead of the pipe's ``OSError``.
        """
        payload = pickle.dumps(command, protocol=pickle.HIGHEST_PROTOCOL)
        try:
            worker.pipe.send_bytes(payload)
        except (OSError, ValueError) as exc:
            worker.up = False
            raise TierError(
                f"session {session_id}: worker {worker.index} did not take "
                f"the {command[0]} ({type(exc).__name__}: {exc})"
            ) from exc
        return len(payload)

    def _score_pump(self) -> None:
        """Scoring-thread main loop: grab everything the fleet has
        pushed since the last pass and score it as one batch.  A batch
        failure (a dead worker detected mid-allocation, a scorer that
        raises) ends scoring on this tier -- see :meth:`_fail_scoring`;
        healthy paths cannot raise because chunks are validated at the
        door."""
        while True:
            with self._score_cv:
                while not self._pending_feats and not self._shut_down:
                    self._score_cv.wait(0.1)
                if not self._pending_feats:
                    return  # shut down with nothing left to ship
                batch = self._pending_feats
                self._pending_feats = []
            try:
                self._score_batch(batch)
            # A thread must never die silently mid-batch: whatever the
            # exception, its sessions' result() callers must hear of it.
            except Exception as exc:  # repro-lint: disable=REP002
                self._fail_scoring(exc)
                return

    def _fail_scoring(self, exc: Exception) -> None:
        """The scoring thread is about to exit on ``exc``: make that
        terminal and visible.  Every features session with unscored
        frames retires *now* with a failed record (its ``result()``
        returns, ``live_sessions`` drops), hands back the backpressure
        budget those frames reserved, and is closed on its worker; the
        features front door raises ``TierError`` from here on.  Scores-
        mode sessions are untouched."""
        with self._lock:
            self._score_failure = f"{type(exc).__name__}: {exc}"
            self._pending_feats = []
            for session in self._sessions.values():
                if not session.unscored_frames:
                    continue
                worker = session.worker
                worker.inflight_frames = max(
                    0, worker.inflight_frames - session.unscored_frames
                )
                session.unscored_frames = 0
                if session.record is not None:
                    continue
                if not session.close_sent:
                    session.closed = session.close_sent = True
                    try:
                        self._send(worker, session.sid, ("close", session.sid))
                    except TierError:
                        pass  # the worker died; nothing left to retire
                self._finish(session.sid, SessionRecord(
                    session.sid, None,
                    f"batched scoring failed: {self._score_failure}",
                    SessionStats(session.sid, session.opened_t),
                ))

    def _score_batch(self, batch: List[Tuple[int, np.ndarray]]) -> None:
        """One batched scoring pass over everything the fleet pushed.

        The batch is expanded into plane-sized parts and shipped in
        **slices**: each slice allocates as many ring slots as the
        planes hold without a flip stall, runs one stacked forward
        straight into the shared-memory views, and sends the
        descriptors.  Only the *first* part of a slice may block on a
        stall -- at that point every earlier part's descriptor is on the
        pipe, so the worker can decode and ack it.  (Allocating a whole
        over-capacity batch before shipping anything would wait on acks
        for chunks the worker has never heard of.)
        """
        scorer = self._batch_scorer
        assert scorer is not None
        work: List[Tuple[int, np.ndarray]] = [
            (sid, matrix[start: start + self._plane_frames])
            for sid, matrix in batch
            for start in range(0, len(matrix), self._plane_frames)
        ]
        index = 0
        while index < len(work):
            index = self._score_slice(scorer, work, index)

    def _score_slice(
        self,
        scorer: BatchScorer,
        work: List[Tuple[int, np.ndarray]],
        start: int,
    ) -> int:
        """Allocate, score, and ship one ring-capacity slice of
        ``work`` starting at ``start``; returns the index of the first
        part left for the next slice."""
        parts: List[np.ndarray] = []
        views: List[np.ndarray] = []
        dests: List[Tuple[_TierSession, int, int, int]] = []
        index = start
        with self._lock:
            while index < len(work):
                sid, part = work[index]
                session = self._sessions[sid]
                if session.record is not None:
                    # Retired under us; this part's share of the
                    # reservation dies with it.
                    session.worker.inflight_frames = max(
                        0, session.worker.inflight_frames - len(part)
                    )
                    index += 1
                    self._feature_frames_done(session, len(part))
                    continue
                worker = session.worker
                ring = self._ensure_ring(worker, sid)
                slot = ring.try_alloc(len(part))
                if slot is None:
                    if parts:
                        break  # ship this slice; its acks free the flip
                    # First part of the slice: everything earlier has
                    # shipped, so acks can arrive -- drain them.
                    slot = self._ring_alloc(worker, sid, len(part))
                generation, offset, view = slot
                parts.append(part)
                views.append(view)
                dests.append((session, generation, offset, len(part)))
                index += 1
        elapsed = 0.0
        if parts:
            t0 = time.perf_counter()
            try:
                scorer.score_chunks(parts, out=views)
            except BaseException:
                # No worker has heard of these slots, so no ack will ever
                # free them: a plane left holding one could not be
                # flipped back to, stalling every later push to the shard.
                with self._lock:
                    for session, generation, _, _ in dests:
                        self._ensure_ring(
                            session.worker, session.sid
                        ).release(generation)
                raise
            elapsed = time.perf_counter() - t0
        with self._lock:
            if parts:
                self.stats.scored_frames += sum(len(p) for p in parts)
                self.stats.score_seconds += elapsed
                self.stats.score_batches += 1
            for session, generation, offset, frames in dests:
                self._send_descriptor(
                    session.worker, session.sid, generation, offset, frames,
                    reserved=True,
                )
                self._feature_frames_done(session, frames)
        return index

    def _feature_frames_done(self, session: _TierSession, frames: int) -> None:
        """``frames`` feature frames of the session have shipped (or died
        with it): once none is left unscored, send any deferred close
        (call with the lock held)."""
        session.unscored_frames = max(0, session.unscored_frames - frames)
        if (
            session.closed
            and session.unscored_frames == 0
            and not session.close_sent
            and session.record is None
        ):
            session.close_sent = True
            self._send(session.worker, session.sid, ("close", session.sid))

    def close_input(self, session_id: int) -> None:
        """Mark end of stream; the shard retires the session after its
        buffered frames drain.  For a features session with chunks still
        awaiting the batched scorer, the close is deferred until the
        scoring thread ships the last of them."""
        with self._lock:
            self._require_up()
            session = self._require_live(session_id)
            if not session.closed:
                session.closed = True
                if session.unscored_frames == 0:
                    session.close_sent = True
                    self._send(
                        session.worker, session_id, ("close", session_id)
                    )

    def result(self, session_id: int, timeout: Optional[float] = None) -> SessionRecord:
        """Block until the session's terminal record arrives back.

        Raises:
            DecodeError: unknown session id.
            TierError: the record did not arrive within ``timeout``
                seconds, or the session's worker died.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._lock:
                session = self._sessions.get(session_id)
                if session is None:
                    raise DecodeError(f"unknown session {session_id}")
                if session.record is not None:
                    return session.record
                self._pump()
                if session.record is not None:
                    return session.record
                if not session.worker.process.is_alive():
                    raise TierError(
                        f"worker {session.worker.index} died before "
                        f"returning session {session_id}"
                        + (f" (last error: {session.remote_error})"
                           if session.remote_error else "")
                    )
                conn = session.worker.conn
            if deadline is not None and time.monotonic() > deadline:
                raise TierError(
                    f"session {session_id} produced no record within "
                    f"{timeout:.1f}s"
                )
            # Wait for the shard's next reply with the lock released: a
            # caller that slept on the pipe while holding it re-took the
            # (unfair) lock every 50 ms and starved the scoring thread
            # and every other front-door caller for minutes.  It polls the
            # connection itself: the pipe's poll object is _pump's, and
            # refuses a poll() concurrent with one under the lock.
            try:
                conn.poll(0.05)
            except OSError:
                pass  # closed by a concurrent shutdown(); _pump copes

    def poll(self) -> None:
        """Drain any queued worker replies without blocking."""
        with self._lock:
            self._pump()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_workers(self) -> int:
        return len(self._workers)

    @property
    def live_sessions(self) -> int:
        """Sessions admitted whose terminal record has not arrived yet."""
        with self._lock:
            return sum(w.live for w in self._workers)

    def worker_of(self, session_id: int) -> int:
        """Shard index the session is (or was) pinned to."""
        with self._lock:
            session = self._sessions.get(session_id)
            if session is None:
                raise DecodeError(f"unknown session {session_id}")
            return session.worker.index

    @property
    def worker_stats(self) -> List[Optional[ServerStats]]:
        """Each shard's final ServerStats (populated at shutdown)."""
        return [w.server_stats for w in self._workers]

    # ------------------------------------------------------------------
    # Convenience driver (mirrors StreamingServer.decode_streaming)
    # ------------------------------------------------------------------
    def decode_streaming(
        self,
        scores_batch: Sequence[Chunk],
        chunk_frames: int = 10,
        mode: str = "scores",
    ) -> List[DecodeResult]:
        """Serve whole utterances as concurrent chunked sessions.

        With ``mode="features"`` the inputs are MFCC feature matrices
        and the tier's scoring thread batches them across sessions.
        Results come back in input order and match
        ``BatchDecoder.decode_batch`` word for word; any session failure
        raises its error as a :class:`DecodeError`.
        """
        if chunk_frames < 1:
            raise ConfigError("chunk_frames must be >= 1")
        push = self.push_features if mode == "features" else self.push
        matrices = [chunk_matrix(scores) for scores in scores_batch]
        sids = [self.open_session(mode=mode) for _ in matrices]
        offsets = [0] * len(matrices)
        while True:
            pushed = False
            for i, (sid, matrix) in enumerate(zip(sids, matrices)):
                if offsets[i] >= len(matrix):
                    continue
                chunk = matrix[offsets[i]: offsets[i] + chunk_frames]
                push(sid, chunk)
                offsets[i] += len(chunk)
                pushed = True
            if not pushed:
                break
        for sid in sids:
            self.close_input(sid)
        records = [self.result(sid) for sid in sids]
        results = []
        for record in records:
            if record.error is not None:
                raise DecodeError(f"session {record.session_id}: {record.error}")
            results.append(record.result)
        return results

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def shutdown(self, timeout: float = 10.0) -> None:
        """Stop every shard, collecting final records and shard stats.

        The scoring thread drains first (shipping any still-pending
        feature chunks and their deferred closes), then the workers are
        stopped, then the front door unlinks the score-plane segments it
        owns, grows the BLAS pool back to the size it found and removes
        the graph directory it made, if any."""
        with self._score_cv:
            if self._shut_down:
                return
            self._shut_down = True
            self._score_cv.notify_all()
        try:
            if self._score_thread is not None:
                self._score_thread.join(timeout)
            with self._lock:
                for worker in self._workers:
                    try:
                        worker.pipe.send(("stop",))
                    except (OSError, ValueError):
                        pass
                deadline = time.monotonic() + timeout
                for worker in self._workers:
                    while worker.server_stats is None and worker.process.is_alive():
                        if time.monotonic() > deadline:
                            break
                        self._pump(block_worker=worker)
                    self._pump()
                for worker in self._workers:
                    worker.process.join(max(0.1, deadline - time.monotonic()))
                    if worker.process.is_alive():
                        worker.process.terminate()
                        worker.process.join(1.0)
                    worker.pipe.close()
                    if worker.ring is not None:
                        worker.ring.close()
                        worker.ring = None
        finally:
            self._release()

    def __enter__(self) -> "ServingTier":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    def _require_up(self) -> None:
        if self._shut_down:
            raise TierError("serving tier is shut down")

    def _require_scoring(self) -> None:
        if self._score_failure is not None:
            raise TierError(
                f"batched scoring stopped on {self._score_failure}; this "
                f"tier accepts no more features"
            )

    def _require_live(self, session_id: int) -> _TierSession:
        session = self._sessions.get(session_id)
        if session is None:
            raise DecodeError(f"unknown session {session_id}")
        if session.record is not None:
            why = session.record.error or "finished cleanly"
            raise DecodeError(f"session {session_id} already retired: {why}")
        return session

    def _pump(self, block_worker: Optional[_WorkerHandle] = None) -> None:
        """Drain worker replies; optionally wait briefly on one worker."""
        for worker in self._workers:
            timeout = 0.05 if worker is block_worker else 0
            while True:
                try:
                    if not worker.pipe.poll(timeout):
                        break
                    msg = worker.pipe.recv()
                except (EOFError, OSError):
                    # The shard's end is closed: it is dead, so route no
                    # new session to it.
                    worker.up = False
                    break
                timeout = 0
                if msg[0] == "stats":
                    worker.server_stats = msg[1]
                    continue
                _, errors, acks, records = msg
                for sid, kind, text in errors:
                    session = self._sessions.get(sid)
                    if session is not None and session.record is None:
                        session.remote_error = f"{kind}: {text}"
                for _, frames, generation in acks:
                    worker.inflight_frames = max(
                        0, worker.inflight_frames - frames
                    )
                    if worker.ring is not None:
                        worker.ring.release(generation)
                for sid, record in records:
                    self._finish(sid, record)

    def _finish(self, session_id: int, record: SessionRecord) -> None:
        session = self._sessions.get(session_id)
        if session is None or session.record is not None:
            return
        session.record = record
        session.worker.live -= 1
        now = self._clock()
        self._last_record_t = now
        stats = self.stats
        if record.ok:
            stats.sessions_finished += 1
        else:
            stats.sessions_failed += 1
        stats.frames_decoded += record.stats.frames_decoded
        stats.session_latencies_s.append(max(0.0, now - session.opened_t))
        stats.session_mean_waits_s.append(record.stats.mean_wait_s)
        stats.trace_peak_bytes = max(
            stats.trace_peak_bytes, record.stats.trace_peak_bytes
        )
        stats.committed_frames += record.stats.committed_frames
        if self._first_open_t is not None:
            stats.serving_seconds = max(0.0, now - self._first_open_t)
