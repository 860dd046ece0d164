"""Tests for the sharded ServingTier.

Correctness anchor: every session routed through the worker pool decodes
to exactly the words and path score of a one-shot
``BatchDecoder.decode``; every rejected operation (admission, back-
pressure, malformed chunk) fails with a typed error and leaves the rest
of the fleet undisturbed.
"""

import asyncio
import contextlib
import multiprocessing
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import repro
from repro.acoustic import AcousticScores
from repro.common.errors import (
    AdmissionError,
    BackpressureError,
    ConfigError,
    DecodeError,
    TierError,
)
from repro.decoder import BatchDecoder, DecoderConfig
from repro.system import ServingTier, TierConfig
from repro.system import tier as tier_module
from repro.system.score_ring import ScorePlaneRing
from repro.system.server import ServerConfig, StreamingServer
from repro.system.tier import _Pipe, _worker_main
from repro.wfst import save_graph_mmap


@pytest.fixture()
def config():
    return DecoderConfig(beam=14.0, max_active=60)


@pytest.fixture()
def oneshot(small_task, config):
    decoder = BatchDecoder(small_task.graph, config)
    return decoder.decode_batch([u.scores for u in small_task.utterances])


def make_tier(small_task, config, **kwargs):
    return ServingTier(
        graph=small_task.graph,
        search_config=config,
        tier_config=TierConfig(**kwargs),
    )


@contextlib.contextmanager
def pump_blind(tier):
    """Calls inside see no worker reply: a shard that dies here died after
    the call's pump drained its pipe, so only the send meets the death."""
    tier._pump = lambda block_worker=None: None
    try:
        yield
    finally:
        del tier._pump


class _ScriptedConn:
    """The worker's end of the pipe, with delivery order under the
    test's control: ``now`` messages are there whenever the worker
    looks, ``when_idle`` ones arrive one at a time and only once the
    worker has nothing buffered and blocks on the pipe.  A blocking poll
    with nothing left to deliver is the hang, reported as a failure."""

    def __init__(self, now, when_idle):
        self.now = deque(now)
        self.when_idle = deque(when_idle)
        self.sent = []
        self.sent_before = {}  #: idle message op -> replies sent by then

    def poll(self, timeout=0):
        if not self.now and timeout is None:
            assert self.when_idle, "worker blocks on the pipe for good"
            message = self.when_idle.popleft()
            self.sent_before[message[0]] = list(self.sent)
            self.now.append(message)
        return bool(self.now)

    def recv(self):
        return self.now.popleft()

    def send(self, message):
        self.sent.append(message)

    def close(self):
        pass


class TestPipe:
    @pytest.fixture()
    def ends(self):
        a, b = multiprocessing.Pipe()
        ends = _Pipe(a), _Pipe(b)
        yield ends
        for end in ends:
            end.close()

    def test_poll_zero_reports_what_is_waiting(self, ends):
        a, b = ends
        assert not b.poll(0)
        a.send(("open", 1))
        assert b.poll(0)
        assert b.recv() == ("open", 1)
        assert not b.poll(0)

    def test_poll_none_returns_on_data(self, ends):
        a, b = ends
        timer = threading.Timer(0.1, a.send, (("stop",),))
        timer.start()
        try:
            assert b.poll(None)
            assert b.recv() == ("stop",)
        finally:
            timer.join()

    def test_peer_close_reads_ready_then_end_of_file(self, ends):
        a, b = ends
        a.close()
        assert b.poll(0)
        assert b.poll(None)
        with pytest.raises(EOFError):
            b.recv()


def replied(messages, part):
    """The ``part`` entries (``"errors"``, ``"acks"`` or ``"records"``)
    of every ``("reply", errors, acks, records)`` in ``messages``."""
    index = ("errors", "acks", "records").index(part) + 1
    return [e for m in messages if m[0] == "reply" for e in m[index]]


class TestWorkerLoop:
    def test_close_arriving_after_the_buffer_drained_retires_the_session(
        self, tmp_path, small_task, config, oneshot
    ):
        """ROADMAP item 0a: sessions retire only inside ``step()``, and
        the loop stepped only while frames were buffered, so a close
        that found the buffer already decoded left its session without
        a record until unrelated traffic (here: shutdown) arrived."""
        directory = save_graph_mmap(small_task.graph, str(tmp_path / "g.mmap"))
        matrix = small_task.utterances[0].scores.matrix
        frames, width = matrix.shape
        ring = ScorePlaneRing(plane_frames=frames, width=width)
        try:
            generation, offset, rows = ring.try_alloc(frames)
            rows[:] = matrix
            conn = _ScriptedConn(
                now=[
                    ("open", 7),
                    ("ring", ring.name, frames, width),
                    ("push", 7, generation, offset, frames),
                ],
                when_idle=[("close", 7), ("stop",)],
            )
            _worker_main(conn, directory, config, ServerConfig())
        finally:
            ring.close()
        # Every frame was decoded and acked before the close was delivered...
        assert (7, frames, generation) in replied(conn.sent_before["close"], "acks")
        # ... and its record left before anything else arrived.
        records = replied(conn.sent_before["stop"], "records")
        assert [sid for sid, _ in records] == [7]
        assert records[0][1].result.words == oneshot[0].words
        assert records[0][1].result.log_likelihood == oneshot[0].log_likelihood
        assert conn.sent[-1][0] == "stats"

    def test_shipping_records_does_not_rewalk_finished_sessions(
        self, tmp_path, small_task, config, oneshot, monkeypatch
    ):
        """The loop looked for records to ship by listing every session
        the worker had ever finished, so a shard slowed down for as long
        as it lived.  It drains the server's retirement cursor instead:
        across the whole run it walks one id per record it ships."""
        walked = []
        take_retired = StreamingServer.take_retired

        def counting(self):
            ids = take_retired(self)
            walked.extend(ids)
            return ids

        monkeypatch.setattr(StreamingServer, "take_retired", counting)
        directory = save_graph_mmap(small_task.graph, str(tmp_path / "g.mmap"))
        matrix = small_task.utterances[0].scores.matrix
        frames, width = matrix.shape
        sessions = 6
        ring = ScorePlaneRing(plane_frames=frames * sessions, width=width)
        try:
            script = [("ring", ring.name, frames * sessions, width)]
            for sid in range(sessions):
                generation, offset, rows = ring.try_alloc(frames)
                rows[:] = matrix
                script += [
                    ("open", sid),
                    ("push", sid, generation, offset, frames),
                    ("close", sid),
                ]
            conn = _ScriptedConn(now=script, when_idle=[("stop",)])
            _worker_main(conn, directory, config, ServerConfig())
        finally:
            ring.close()
        records = replied(conn.sent, "records")
        assert sorted(sid for sid, _ in records) == list(range(sessions))
        for sid, record in records:
            assert record.session_id == sid
            assert record.result.words == oneshot[0].words
            assert record.result.log_likelihood == oneshot[0].log_likelihood
        assert len(walked) == len(set(walked)) == len(records) == sessions

    def test_queued_pushes_share_one_sweep_and_one_reply(
        self, tmp_path, small_task, config
    ):
        """The loop handled one command per iteration and sent one ack
        message per chunk.  It drains the pipe first: pushes queued
        before a pass decode in one sweep and come back as one reply
        holding their acks in push order."""
        directory = save_graph_mmap(small_task.graph, str(tmp_path / "g.mmap"))
        row = small_task.utterances[0].scores.matrix[:1]
        sessions = 5
        ring = ScorePlaneRing(plane_frames=sessions, width=row.shape[1])
        try:
            script = [("ring", ring.name, sessions, row.shape[1])]
            script += [("open", sid) for sid in range(sessions)]
            acks = []
            for sid in (3, 1, 4, 0, 2):
                generation, offset, rows = ring.try_alloc(1)
                rows[:] = row
                script.append(("push", sid, generation, offset, 1))
                acks.append((sid, 1, generation))
            conn = _ScriptedConn(now=script, when_idle=[("stop",)])
            _worker_main(conn, directory, config, ServerConfig())
        finally:
            ring.close()
        assert conn.sent_before["stop"] == [("reply", [], acks, [])]
        stats = conn.sent[-1][1]
        assert (stats.sweeps, stats.frames_decoded) == (1, sessions)
        assert len(replied(conn.sent, "records")) == sessions


class TestEquivalence:
    @pytest.mark.parametrize("num_workers", [1, 2])
    def test_decode_streaming_matches_oneshot(
        self, small_task, config, oneshot, num_workers
    ):
        with make_tier(small_task, config, num_workers=num_workers) as tier:
            results = tier.decode_streaming(
                [u.scores for u in small_task.utterances], chunk_frames=4
            )
        for expected, got in zip(oneshot, results):
            assert got.words == expected.words
            assert got.log_likelihood == expected.log_likelihood
            assert got.reached_final == expected.reached_final

    def test_from_premapped_graph_dir(
        self, tmp_path, small_task, config, oneshot
    ):
        """A tier built on a pre-materialised mmap layout (the graph
        cache's product) decodes identically."""
        directory = save_graph_mmap(
            small_task.graph, str(tmp_path / "graph.mmap")
        )
        with ServingTier(
            graph_dir=directory,
            search_config=config,
            tier_config=TierConfig(num_workers=2),
        ) as tier:
            results = tier.decode_streaming(
                [u.scores for u in small_task.utterances], chunk_frames=5
            )
        for expected, got in zip(oneshot, results):
            assert got.words == expected.words
            assert got.log_likelihood == expected.log_likelihood

    def test_sessions_have_worker_affinity(self, small_task, config):
        """Every chunk of a session decodes on the shard that admitted
        it, and the least-loaded router spreads sessions evenly."""
        with make_tier(small_task, config, num_workers=2) as tier:
            sids = [tier.open_session() for _ in range(4)]
            homes = {sid: tier.worker_of(sid) for sid in sids}
            assert sorted(homes.values()) == [0, 0, 1, 1]
            matrix = small_task.utterances[0].scores.matrix
            for offset in (0, 4, 8):
                for sid in sids:
                    tier.push(sid, matrix[offset: offset + 4])
            for sid in sids:
                assert tier.worker_of(sid) == homes[sid]
                tier.close_input(sid)
            for sid in sids:
                record = tier.result(sid, timeout=60)
                assert record.ok, record.error

    def test_slo_stats_recorded(self, small_task, config):
        with make_tier(small_task, config, num_workers=2) as tier:
            tier.decode_streaming(
                [u.scores for u in small_task.utterances], chunk_frames=4
            )
            stats = tier.stats
        utts = small_task.utterances
        assert stats.sessions_admitted == len(utts)
        assert stats.sessions_finished == len(utts)
        assert stats.sessions_failed == 0
        assert stats.frames_decoded == sum(u.num_frames for u in utts)
        assert len(stats.session_latencies_s) == len(utts)
        slo = stats.slo()
        assert slo["sessions"] == len(utts)
        assert 0 < slo["p50_session_latency_s"] <= slo["p99_session_latency_s"]
        assert slo["aggregate_frames_per_second"] > 0
        final = [s for s in tier.worker_stats if s is not None]
        assert sum(s.frames_decoded for s in final) == stats.frames_decoded


class TestAdmissionAndBackpressure:
    def test_admission_limit_sheds_typed_and_isolated(
        self, small_task, config, oneshot
    ):
        utts = small_task.utterances
        with make_tier(
            small_task, config, num_workers=2, max_sessions=len(utts)
        ) as tier:
            sids = {i: tier.open_session() for i in range(len(utts))}
            with pytest.raises(AdmissionError, match="admission limit"):
                tier.open_session()
            assert tier.stats.sessions_rejected == 1
            # The shed join disturbed nobody: the fleet decodes exactly.
            for i, sid in sids.items():
                tier.push(sid, utts[i].scores)
                tier.close_input(sid)
            for i, sid in sids.items():
                record = tier.result(sid, timeout=60)
                assert record.ok, record.error
                assert record.result.words == oneshot[i].words

    def test_admission_reopens_after_retirement(self, small_task, config):
        with make_tier(
            small_task, config, num_workers=1, max_sessions=1
        ) as tier:
            sid = tier.open_session()
            with pytest.raises(AdmissionError):
                tier.open_session()
            tier.push(sid, small_task.utterances[0].scores)
            tier.close_input(sid)
            tier.result(sid, timeout=60)
            tier.open_session()  # slot freed by the retirement

    def test_open_routed_to_a_killed_worker_is_typed_and_counts_nothing(
        self, small_task, config
    ):
        """An open the dead shard never received used to raise a raw
        ``BrokenPipeError`` after it was counted: a phantom session
        holding admission budget for ever.  The refusing shard then
        stayed routable, so on a balanced tier every later open failed
        with worker 1 healthy."""
        with make_tier(small_task, config, num_workers=2) as tier:
            for _ in range(4):
                tier.open_session()
            dead = tier._workers[0]
            with pump_blind(tier), \
                    pytest.raises(TierError, match=r"session 4: worker 0"):
                os.kill(dead.process.pid, signal.SIGKILL)
                dead.process.join(10)
                tier.open_session()  # ties go to the lowest index
            assert tier.live_sessions == 4
            assert [w.live for w in tier._workers] == [2, 2]
            assert tier.stats.sessions_admitted == 4

            sid = tier.open_session()
            assert tier.worker_of(sid) == 1
            assert [w.live for w in tier._workers] == [2, 3]
            scores = small_task.utterances[0].scores
            tier.push(sid, scores)
            tier.close_input(sid)
            record = tier.result(sid, timeout=60)
            expected = BatchDecoder(small_task.graph, config).decode(scores)
            assert record.ok
            assert record.result.words == expected.words
            assert record.result.log_likelihood == expected.log_likelihood

    def test_push_and_close_to_a_killed_worker_are_typed(
        self, small_task, config
    ):
        """A push or a close on a dead shard's session used to raise the
        pipe's raw ``BrokenPipeError`` and leave the shard routable."""
        scores = small_task.utterances[0].scores
        with make_tier(small_task, config, num_workers=2) as tier:
            sids = [tier.open_session() for _ in range(4)]
            orphan = next(s for s in sids if tier.worker_of(s) == 0)
            dead = tier._workers[0]
            os.kill(dead.process.pid, signal.SIGKILL)
            dead.process.join(10)
            with pytest.raises(TierError, match=rf"session {orphan}: worker 0"):
                tier.push(orphan, scores)
            assert not dead.up
            with pytest.raises(TierError, match=rf"session {orphan}: worker 0"):
                tier.close_input(orphan)

            sid = tier.open_session()
            assert tier.worker_of(sid) == 1
            tier.push(sid, scores)
            tier.close_input(sid)
            record = tier.result(sid, timeout=60)
            expected = BatchDecoder(small_task.graph, config).decode(scores)
            assert record.ok
            assert record.result.words == expected.words
            assert record.result.log_likelihood == expected.log_likelihood

    def test_open_with_every_worker_down_is_typed(self, small_task, config):
        with make_tier(small_task, config, num_workers=1) as tier:
            dead = tier._workers[0]
            with pump_blind(tier), \
                    pytest.raises(TierError, match=r"session 0: worker 0"):
                os.kill(dead.process.pid, signal.SIGKILL)
                dead.process.join(10)
                tier.open_session()
            with pytest.raises(TierError, match="no serving worker is up"):
                tier.open_session()
            assert tier.live_sessions == 0
            assert tier.stats.sessions_admitted == 0

    def test_shard_whose_pipe_reached_end_of_file_is_down(
        self, small_task, config
    ):
        """A dead shard's pipe reads end of file, but only a failed send
        used to mark it down: the next open was still routed to it and
        raised ``TierError`` with worker 1 healthy."""
        with make_tier(small_task, config, num_workers=2) as tier:
            dead = tier._workers[0]
            os.kill(dead.process.pid, signal.SIGKILL)
            dead.process.join(10)
            assert not dead.process.is_alive()
            tier.poll()
            assert not dead.up
            sids = [tier.open_session() for _ in range(4)]
            assert [tier.worker_of(sid) for sid in sids] == [1, 1, 1, 1]

    def test_backpressure_sheds_typed_and_retryable(
        self, small_task, config
    ):
        matrix = small_task.utterances[0].scores.matrix
        with make_tier(
            small_task, config, num_workers=1, queue_depth=8
        ) as tier:
            sid = tier.open_session()
            with pytest.raises(BackpressureError, match="saturated"):
                for _ in range(1000):
                    tier.push(sid, matrix[:4])
            assert tier.stats.pushes_shed == 1
            # The shard drains; the same push then succeeds (retryable).
            deadline_frames = tier.stats.frames_pushed
            while True:
                tier.poll()
                try:
                    tier.push(sid, matrix[:4])
                    break
                except BackpressureError:
                    continue
            assert tier.stats.frames_pushed == deadline_frames + 4
            tier.close_input(sid)
            assert tier.result(sid, timeout=60) is not None

    def test_result_waits_for_the_shard_with_the_lock_released(
        self, small_task, config
    ):
        """ROADMAP item 0b: ``result()`` used to sleep on the pipe while
        holding the front-door lock and re-take it at once, so the
        scoring thread got in only by luck (features-mode decodes of a
        few utterances took 20-400 s)."""

        class PollSpy:
            def __init__(self, conn, lock):
                self.conn, self.lock, self.held_while_waiting = conn, lock, []

            def poll(self, timeout=0.0):
                if timeout:
                    self.held_while_waiting.append(self.lock._is_owned())
                return self.conn.poll(timeout)

            def __getattr__(self, name):
                return getattr(self.conn, name)

        with make_tier(small_task, config, num_workers=1) as tier:
            worker = tier._workers[0]
            spy = worker.conn = PollSpy(worker.conn, tier._lock)
            sid = tier.open_session()  # never closed: no record will come
            with pytest.raises(TierError, match="no record"):
                tier.result(sid, timeout=0.3)
            worker.conn = spy.conn
            assert spy.held_while_waiting  # it did wait on the pipe ...
            assert not any(spy.held_while_waiting)  # ... never under the lock

    def test_concurrent_result_waits_while_another_thread_pushes(
        self, small_task, config, oneshot
    ):
        """The pipe's poll object refuses concurrent ``poll()`` calls,
        and ``result()`` waits outside the lock, so its wait must not go
        through that object: two callers wait on one shard while a third
        pushes, and every wait ends in its session's record."""
        utts = small_task.utterances[:2]
        with make_tier(small_task, config, num_workers=1) as tier:
            sids = [tier.open_session() for _ in utts]

            def feed():
                for sid, utt in zip(sids, utts):
                    matrix = utt.scores.matrix
                    for start in range(0, len(matrix), 4):
                        tier.push(sid, matrix[start: start + 4])
                        time.sleep(0.002)
                    tier.close_input(sid)

            with ThreadPoolExecutor(3) as pool:
                waits = [pool.submit(tier.result, sid, 20) for sid in sids]
                pool.submit(feed).result()
                records = [wait.result() for wait in waits]
        for expected, record in zip(oneshot, records):
            assert record.ok, record.error
            assert record.result.words == expected.words
            assert record.result.log_likelihood == expected.log_likelihood


class TestErrors:
    def test_requires_exactly_one_graph_source(self, small_task):
        with pytest.raises(ConfigError):
            ServingTier()
        with pytest.raises(ConfigError):
            ServingTier(graph=small_task.graph, graph_dir="/tmp/x")

    def test_invalid_tier_config_rejected(self):
        with pytest.raises(ConfigError):
            TierConfig(num_workers=0)
        with pytest.raises(ConfigError):
            TierConfig(max_sessions=-1)
        with pytest.raises(ConfigError):
            TierConfig(queue_depth=0)

    def test_width_mismatch_bounces_at_the_door(
        self, small_task, config, oneshot
    ):
        """A mid-stream width change raises synchronously at the front
        door -- no worker round trip -- and other sessions are unhurt."""
        utts = small_task.utterances
        width = utts[0].scores.matrix.shape[1]
        with make_tier(small_task, config, num_workers=2) as tier:
            sids = {i: tier.open_session() for i in range(len(utts))}
            tier.push(sids[0], utts[0].scores.matrix[:4])
            with pytest.raises(DecodeError, match="wide like"):
                tier.push(sids[0], np.full((2, width + 5), -1.0))
            with pytest.raises(DecodeError, match="at least"):
                tier.push(sids[1], np.zeros((2, 1)))
            tier.push(sids[0], utts[0].scores.matrix[4:])
            for i, sid in sids.items():
                if i != 0:
                    tier.push(sid, utts[i].scores)
                tier.close_input(sid)
            for i, sid in sids.items():
                record = tier.result(sid, timeout=60)
                assert record.ok, record.error
                assert record.result.words == oneshot[i].words
                assert record.result.log_likelihood == oneshot[i].log_likelihood

    def test_unknown_and_retired_sessions_rejected(self, small_task, config):
        with make_tier(small_task, config, num_workers=1) as tier:
            with pytest.raises(DecodeError, match="unknown"):
                tier.push(99, np.zeros((1, 5)))
            with pytest.raises(DecodeError, match="unknown"):
                tier.result(99)
            with pytest.raises(DecodeError, match="unknown"):
                tier.worker_of(99)
            sid = tier.open_session()
            tier.push(sid, small_task.utterances[0].scores)
            tier.close_input(sid)
            tier.result(sid, timeout=60)
            with pytest.raises(DecodeError, match="retired"):
                tier.push(sid, small_task.utterances[0].scores)

    def test_push_after_close_input_bounces_at_the_door(
        self, small_task, config, monkeypatch
    ):
        """The door used to accept the chunk, count it, reserve budget
        for it and ship it behind the close; the worker's server refused
        it, the error went to ``remote_error`` (surfaced only for a dead
        worker) and the record came back clean without those frames."""
        matrix = small_task.utterances[0].scores.matrix
        before = BatchDecoder(small_task.graph, config).decode(
            AcousticScores(matrix[:10])
        )
        with make_tier(small_task, config, num_workers=1) as tier:
            sid = tier.open_session()
            tier.push(sid, matrix[:10])
            tier.close_input(sid)
            stats = tier.stats
            counters = (stats.frames_pushed, stats.frames_shipped,
                        stats.descriptors_shipped)
            with monkeypatch.context() as patch:
                # Replies stay on the pipe, so the session cannot retire
                # between the close and the pushes ("retired", not "closed").
                patch.setattr(tier, "_pump", lambda block_worker=None: None)
                with pytest.raises(DecodeError, match="closed"):
                    tier.push(sid, matrix[10:20])
                with pytest.raises(DecodeError, match="closed"):
                    tier.push(sid, matrix[:0])
            assert counters == (stats.frames_pushed, stats.frames_shipped,
                                stats.descriptors_shipped) == (10, 10, 1)
            record = tier.result(sid, timeout=60)
            assert record.ok, record.error
            assert record.stats.frames_decoded == 10
            assert record.result.words == before.words
            assert record.result.log_likelihood == before.log_likelihood

    def test_result_timeout_is_typed(self, small_task, config):
        with make_tier(small_task, config, num_workers=1) as tier:
            sid = tier.open_session()  # input never closed: no record
            with pytest.raises(TierError, match="no record"):
                tier.result(sid, timeout=0.2)

    def test_shutdown_finalizes_open_sessions_and_closes_the_door(
        self, small_task, config
    ):
        tier = make_tier(small_task, config, num_workers=2)
        sid = tier.open_session()
        tier.push(sid, small_task.utterances[0].scores)
        tier.shutdown()
        record = tier._sessions[sid].record
        assert record is not None and record.ok
        assert all(s is not None for s in tier.worker_stats)
        with pytest.raises(TierError, match="shut down"):
            tier.open_session()
        tier.shutdown()  # idempotent


def _running(pid):
    """Whether ``pid`` is a process that has not exited (an unreaped
    zombie has)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] not in ("Z", "X")
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
class TestFrontDoorDeath:
    def test_workers_exit_when_the_front_door_is_killed(
        self, small_task, tmp_path
    ):
        """Worker k was forked while the front door held the parent ends
        of pipes 0..k, its own peer's included, so a killed front door
        left every worker blocked on a pipe that never reached end of
        file.  Each fork now closes those ends in the child."""
        graph_dir = save_graph_mmap(small_task.graph, str(tmp_path / "g.mmap"))
        script = (
            "import sys, time\n"
            "from repro.system import ServingTier, TierConfig\n"
            "tier = ServingTier(graph_dir=sys.argv[1],"
            " tier_config=TierConfig(num_workers=2))\n"
            "print(*(w.process.pid for w in tier._workers), flush=True)\n"
            "time.sleep(60)\n"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        front = subprocess.Popen(
            [sys.executable, "-c", script, graph_dir],
            env={**os.environ, "PYTHONPATH": src},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        pids = []
        try:
            pids = [int(pid) for pid in front.stdout.readline().split()]
            assert len(pids) == 2
            front.kill()
            front.wait(10)
            deadline = time.monotonic() + 5.0
            while any(map(_running, pids)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(map(_running, pids))
            # Every writer of the front door's stderr is gone, so this
            # reads to end of file: the workers exited without a word.
            assert "Traceback" not in front.stderr.read()
        finally:
            front.kill()
            for pid in filter(_running, pids):
                os.kill(pid, signal.SIGKILL)
            front.wait(10)
            front.stdout.close()
            front.stderr.close()


class TestGraphDirectory:
    """``ServingTier(graph=...)`` removes the mmap directory it makes."""

    @pytest.fixture()
    def temp_root(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        return tmp_path

    def test_removed_at_shutdown(self, small_task, config, temp_root):
        with make_tier(small_task, config, num_workers=1) as tier:
            made = list(temp_root.glob("repro-tier-graph-*"))
            assert len(made) == 1
            assert tier.graph_dir.startswith(str(made[0]))
            sid = tier.open_session()
            tier.push(sid, small_task.utterances[0].scores)
            tier.close_input(sid)
            assert tier.result(sid, timeout=60).ok
        assert list(temp_root.glob("repro-tier-graph-*")) == []

    def test_removed_when_start_up_fails(
        self, small_task, config, temp_root, monkeypatch
    ):
        def full_disk(graph, path):
            raise OSError("no space left on device")

        monkeypatch.setattr(tier_module, "save_graph_mmap", full_disk)
        with pytest.raises(OSError):
            make_tier(small_task, config, num_workers=1)
        assert list(temp_root.glob("repro-tier-graph-*")) == []

    def test_a_callers_graph_dir_is_left_alone(
        self, small_task, config, tmp_path
    ):
        graph_dir = save_graph_mmap(small_task.graph, str(tmp_path / "g.mmap"))
        with ServingTier(graph_dir=graph_dir, search_config=config,
                         tier_config=TierConfig(num_workers=1)):
            pass
        assert os.path.isdir(graph_dir)


class TestAsyncFrontDoor:
    def test_async_session_round_trip(self, small_task, config, oneshot):
        async def main():
            with make_tier(small_task, config, num_workers=2) as tier:
                utts = small_task.utterances
                sids = [await asyncio.to_thread(tier.open_session) for _ in utts]
                for sid, utt in zip(sids, utts):
                    matrix = utt.scores.matrix
                    for i in range(0, len(matrix), 4):
                        await asyncio.to_thread(tier.push, sid, matrix[i: i + 4])
                for sid in sids:
                    await asyncio.to_thread(tier.close_input, sid)
                return [
                    await asyncio.to_thread(tier.result, sid, 60) for sid in sids
                ]

        records = asyncio.run(main())
        for expected, record in zip(oneshot, records):
            assert record.ok, record.error
            assert record.result.words == expected.words
            assert record.result.log_likelihood == expected.log_likelihood

    def test_concurrent_async_clients(self, small_task, config, oneshot):
        """Many coroutines each driving their own session concurrently
        over one tier, as an asyncio gateway would."""

        async def client(tier, utt):
            sid = await asyncio.to_thread(tier.open_session)
            matrix = utt.scores.matrix
            for i in range(0, len(matrix), 5):
                await asyncio.to_thread(tier.push, sid, matrix[i: i + 5])
            await asyncio.to_thread(tier.close_input, sid)
            return await asyncio.to_thread(tier.result, sid, 60)

        async def main():
            with make_tier(small_task, config, num_workers=2) as tier:
                return await asyncio.gather(
                    *(client(tier, u) for u in small_task.utterances)
                )

        records = asyncio.run(main())
        for expected, record in zip(oneshot, records):
            assert record.ok, record.error
            assert record.result.words == expected.words
