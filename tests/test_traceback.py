"""Committed-prefix traceback: property suite and edge pins.

The contract of :mod:`repro.decoder.traceback`: under any
``commit_interval``, any chunking and any pruning strategy,

* every committed prefix observed during streaming is a prefix of the
  offline ``BatchDecoder.decode`` output and is never retracted;
* the finalized hypothesis (``committed + tail``) is word- and
  score-identical to the offline decode;
* compaction is invisible to every downstream consumer -- including the
  fused multi-session sweep.

Plus unit pins for the buffer itself (append growth, backtrack,
commit/compaction arithmetic, the 32-bit record and its limits), a
differential test against a list-of-tuples reference trace, the commit
anchor against the heap max-climb, and the ``_PrefixView`` stats
snapshot.
"""

import heapq
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.accel import AcceleratorConfig, AcceleratorSimulator
from repro.common.errors import ConfigError, DecodeError
from repro.datasets import SyntheticGraphConfig
from repro.decoder import (
    BatchDecoder,
    DecoderConfig,
    advance_sessions,
)
from repro.decoder import traceback as trace_module
from repro.decoder.backends import resolve_backend
from repro.decoder.kernel import SearchKernel
from repro.decoder.result import _PrefixView
from repro.decoder.traceback import (
    TRACE_RECORD_BYTES,
    TokenTrace,
    trace_reachable_numpy,
)
from repro.system import make_memory_workload
from repro.wfst import CompiledWfst, Fst

#: The three pruning strategies of the kernel, exercised as configs.
PRUNING_CONFIGS = {
    "beam": dict(beam=14.0),
    "beam+max_active": dict(beam=14.0, max_active=60),
    "adaptive": dict(beam=14.0, pruning="adaptive", target_active=50),
}

RAGGED_CHUNKINGS = [(1,), (3,), (1, 5, 2), (4, 1, 1, 9)]


def chunks_of(matrix, sizes):
    """Split a score matrix into consecutive chunks of the given sizes."""
    out, at = [], 0
    while at < len(matrix):
        for size in sizes:
            out.append(matrix[at: at + size])
            at += size
            if at >= len(matrix):
                break
    return [c for c in out if len(c)]


def stream_with_commits(decoder, matrix, sizes):
    """Push ``matrix`` chunk by chunk, observing a partial per chunk.

    Returns the finalized result plus every committed prefix observed.
    """
    session = decoder.open_session()
    prefixes = []
    for chunk in chunks_of(matrix, sizes):
        session.push(chunk)
        partial = session.partial()
        assert partial.words[: partial.committed_len] == partial.committed
        prefixes.append(partial.committed)
    return session.finalize(), prefixes


def assert_prefixes_stable(prefixes, final_words):
    """Committed prefixes must be monotone and prefixes of the final."""
    prev_len = 0
    for prefix in prefixes:
        assert len(prefix) >= prev_len, "committed prefix shrank"
        prev_len = len(prefix)
        assert final_words[: len(prefix)] == prefix, (
            "committed words were retracted by the final hypothesis"
        )


class TestCommittedPrefixProperty:
    @pytest.mark.parametrize("backend", ["numpy"])
    @pytest.mark.parametrize("pruning", sorted(PRUNING_CONFIGS))
    @pytest.mark.parametrize("sizes", RAGGED_CHUNKINGS)
    def test_committed_is_prefix_of_offline(
        self, small_task, backend, pruning, sizes
    ):
        config = DecoderConfig(commit_interval=3, **PRUNING_CONFIGS[pruning])
        decoder = BatchDecoder(small_task.graph, config)
        decoder.kernel.backend = resolve_backend(backend)
        for utt in small_task.utterances:
            offline = decoder.decode(utt.scores)
            result, prefixes = stream_with_commits(
                decoder, utt.scores.matrix, sizes
            )
            assert result.words == offline.words
            assert result.log_likelihood == offline.log_likelihood
            assert result.reached_final == offline.reached_final
            assert_prefixes_stable(prefixes, offline.words)
            assert result.committed + result.tail == result.words

    @pytest.mark.parametrize("interval", [1, 2, 5, 8])
    def test_every_interval_is_lossless(self, small_task, interval):
        baseline = BatchDecoder(
            small_task.graph, DecoderConfig(beam=14.0, max_active=60)
        )
        decoder = BatchDecoder(
            small_task.graph,
            DecoderConfig(beam=14.0, max_active=60, commit_interval=interval),
        )
        for utt in small_task.utterances:
            offline = baseline.decode(utt.scores)
            result, prefixes = stream_with_commits(
                decoder, utt.scores.matrix, (1,)
            )
            assert result.words == offline.words
            assert result.log_likelihood == offline.log_likelihood
            assert_prefixes_stable(prefixes, offline.words)

    def test_trace_memory_is_bounded(self, small_task):
        """Windowed peak trace memory must undercut append-only's."""
        utt = max(small_task.utterances, key=lambda u: u.num_frames)

        def peak(interval):
            decoder = BatchDecoder(
                small_task.graph,
                DecoderConfig(beam=14.0, commit_interval=interval),
            )
            session = decoder.open_session()
            session.push(utt.scores)
            assert session.committed_frames == (
                0 if interval == 0
                else utt.num_frames - utt.num_frames % interval
            )
            session.finalize()
            return session.trace_peak_bytes

        assert peak(2) < peak(0)

    def test_windowed_growth_is_flat_append_only_is_not(self):
        """On a 400-frame stream the windowed buffer's high-water mark
        at full length stays within 1.3x of its half-length mark, while
        the append-only buffer keeps growing (>= 1.5x)."""
        workload = make_memory_workload(
            num_utterances=1, frames_per_utterance=400, beam=8.0,
            max_active=100, seed=9,
            graph_config=SyntheticGraphConfig(
                num_states=2_000, num_phones=50, seed=9
            ),
        )
        matrix = workload.scores[0].matrix

        def growth(interval):
            session = BatchDecoder(
                workload.graph,
                DecoderConfig(beam=workload.beam,
                              max_active=workload.max_active,
                              commit_interval=interval),
            ).open_session()
            session.push(matrix[:200])
            half = session.trace_peak_bytes
            session.push(matrix[200:])
            return session.trace_peak_bytes / half

        assert growth(25) <= 1.3
        assert growth(0) >= 1.5


class TestFusedSweepCommits:
    def test_fused_commits_match_solo_and_offline(self, small_task):
        config = DecoderConfig(beam=12.0, max_active=40, commit_interval=3)
        decoder = BatchDecoder(small_task.graph, config)
        utts = small_task.utterances
        solo = [decoder.decode(u.scores) for u in utts]

        sessions = [decoder.open_session() for _ in utts]
        max_frames = max(u.num_frames for u in utts)
        for frame in range(max_frames):
            advance_sessions(
                [
                    (s, u.scores.frame(frame))
                    for s, u in zip(sessions, utts)
                    if frame < u.num_frames
                ]
            )
        for expected, session, utt in zip(solo, sessions, utts):
            assert session.committed_frames > 0
            result = session.finalize()
            assert result.words == expected.words
            assert result.log_likelihood == expected.log_likelihood
            assert result.committed + result.tail == result.words


class TestEdgePins:
    def test_commit_skipped_when_beam_empties(self):
        """s0 --A--> s1(final, no out-arcs): frame 2 empties the frontier
        with commits due every frame -- the dead frame must skip its
        commit, keep the emptied-beam diagnostics, and not crash."""
        fst = Fst()
        s0, s1 = fst.add_states(2)
        fst.set_start(s0)
        fst.add_arc(s0, 1, 1, math.log(0.9), s1)
        fst.set_final(s1, 0.0)
        graph = CompiledWfst.from_fst(fst)
        decoder = BatchDecoder(
            graph, DecoderConfig(beam=20.0, commit_interval=1)
        )
        frame = np.full(3, -50.0)
        frame[1] = -0.1
        session = decoder.open_session()
        session.push_frame(frame)
        assert session.committed_frames == 1  # committed while alive
        session.push_frame(frame)  # absorbed; frontier now empty
        assert not session.alive
        assert session.committed_frames == 1  # the dead frame skipped
        with pytest.raises(DecodeError, match="beam emptied .* frame 2"):
            session.push_frame(frame)
        with pytest.raises(DecodeError, match="no active tokens"):
            session.finalize()

    def test_zero_frame_session(self, small_task):
        decoder = BatchDecoder(
            small_task.graph, DecoderConfig(beam=14.0, commit_interval=1)
        )
        session = decoder.open_session()
        assert session.committed_frames == 0
        assert session.trace_memory_bytes == 64 * TRACE_RECORD_BYTES
        with pytest.raises(DecodeError, match="no frames"):
            session.finalize()

    def test_window_larger_than_utterance(self, small_task):
        """A window the utterance never fills must behave exactly like
        the append-only buffer: no commits, identical peak memory."""
        utt = small_task.utterances[0]
        results = {}
        for interval in (0, 10_000):
            decoder = BatchDecoder(
                small_task.graph,
                DecoderConfig(beam=14.0, commit_interval=interval),
            )
            session = decoder.open_session()
            session.push(utt.scores)
            assert session.committed_frames == 0
            result = session.finalize()
            assert result.committed_len == 0
            assert result.committed == ()
            assert result.tail == result.words
            results[interval] = (
                result.words, result.log_likelihood, session.trace_peak_bytes
            )
        assert results[0] == results[10_000]

    def test_negative_interval_rejected(self, small_task):
        with pytest.raises(ConfigError, match="commit_interval"):
            DecoderConfig(beam=14.0, commit_interval=-1)
        with pytest.raises(ConfigError, match="commit_interval"):
            TokenTrace(commit_interval=-1)


class TestTokenTraceUnit:
    def _chain(self, trace, words):
        """Append a single chain root -> ... -> tip; returns tip index."""
        tip = -1
        for word in words:
            (tip,) = trace.append_bulk(
                np.array([tip], dtype=np.int64),
                np.array([word], dtype=np.int64),
            )
        return int(tip)

    def test_append_bulk_grows_once_per_resize(self):
        trace = TokenTrace()
        assert trace.nbytes == 64 * TRACE_RECORD_BYTES
        indices = trace.append_bulk(
            np.full(100, -1, dtype=np.int64),
            np.arange(100, dtype=np.int64),
        )
        assert list(indices) == list(range(100))
        assert len(trace) == 100
        assert trace.nbytes == 128 * TRACE_RECORD_BYTES
        assert trace.peak_bytes == trace.nbytes
        assert trace.backtrack(int(indices[5])) == [5]  # word 0 dropped

    def test_commit_emits_and_compacts(self):
        # Two chains sharing the prefix [1, 2]: the LCA commits it and
        # the buffer shrinks to the anchor plus the two live tails.
        trace = TokenTrace(commit_interval=4)
        a = self._chain(trace, [1, 2, 3])
        (b,) = trace.append_bulk(
            np.array([a - 1], dtype=np.int64), np.array([4], dtype=np.int64)
        )
        assert trace.should_commit(4)
        bps = np.array([a, b], dtype=np.int64)
        new_bps = trace.commit(bps, num_frames=4)
        assert trace.committed == (1, 2)
        assert trace.commits == 1
        assert trace.committed_frames == 4
        assert len(trace) == 3  # anchor root + the [3] and [4] tails
        assert trace.backtrack(int(new_bps[0])) == [3]
        assert trace.backtrack(int(new_bps[1])) == [4]

    def test_commit_with_nothing_to_emit(self):
        # Frontier forked directly at the wordless root: the LCA is the
        # root, nothing commits, every record survives the compaction.
        trace = TokenTrace(commit_interval=1)
        (root,) = trace.append_bulk(
            np.array([-1], dtype=np.int64), np.array([0], dtype=np.int64)
        )
        forks = trace.append_bulk(
            np.array([root, root], dtype=np.int64),
            np.array([1, 2], dtype=np.int64),
        )
        new_bps = trace.commit(forks.copy(), num_frames=1)
        assert trace.committed == ()
        assert trace.commits == 1
        assert len(trace) == 3
        assert trace.backtrack(int(new_bps[0])) == [1]
        assert trace.backtrack(int(new_bps[1])) == [2]

    def test_multi_root_trace_commits_as_a_noop(self):
        # Live chains reaching *distinct* roots have no anchor; commit
        # must leave the buffer and backpointers untouched (kernel
        # traces are single-rooted, this pins the hand-built case).
        trace = TokenTrace(commit_interval=1)
        indices = trace.append_bulk(
            np.array([-1, -1], dtype=np.int64),
            np.array([1, 2], dtype=np.int64),
        )
        new_bps = trace.commit(indices.copy(), num_frames=1)
        assert trace.committed == ()
        assert trace.commits == 0
        assert list(new_bps) == list(indices)
        assert trace.backtrack(int(new_bps[0])) == [1]
        assert trace.backtrack(int(new_bps[1])) == [2]

    def test_reachability_reference_mask(self):
        # 0 <- 1 <- 2 and 0 <- 3; frontier {2}: record 3 is garbage.
        prev = np.array([-1, 0, 1, 0], dtype=np.int64)
        keep = trace_reachable_numpy(
            prev, 4, np.array([2], dtype=np.int64), anchor=0
        )
        assert keep.tolist() == [True, True, True, False]


class TestThirtyTwoBitRecord:
    def test_trace_record_is_the_cycle_models_token_record(self, small_task):
        """The software trace holds exactly the 8-byte record the cycle
        model writes: sequential token records miss the Token cache once
        per line at that size."""
        config = AcceleratorConfig()
        sim = AcceleratorSimulator(small_task.graph, config)
        stats = sim.decode(small_task.utterances[0].scores).stats
        line = config.token_cache.line_bytes
        lines_written = -(-stats.tokens_written * TRACE_RECORD_BYTES // line)
        assert stats.token_cache.misses == lines_written

        trace = TokenTrace()
        trace.append_bulk(
            np.full(stats.tokens_written, -1, dtype=np.int64),
            np.zeros(stats.tokens_written, dtype=np.int64),
        )
        held = trace._prev.nbytes + trace._word.nbytes
        assert held == trace.nbytes == len(trace._prev) * TRACE_RECORD_BYTES
        assert TRACE_RECORD_BYTES == 8

    def test_append_past_the_record_limit_raises(self, monkeypatch):
        monkeypatch.setattr(trace_module, "MAX_TRACE_RECORDS", 100)
        trace = TokenTrace()
        trace.append_bulk(np.full(60, -1, dtype=np.int64), np.ones(60, dtype=np.int64))
        with pytest.raises(DecodeError, match="32-bit record limit"):
            trace.append_bulk(
                np.full(41, 59, dtype=np.int64), np.ones(41, dtype=np.int64)
            )
        assert len(trace) == 60  # nothing half-written
        (last,) = trace.append_bulk(
            np.array([59], dtype=np.int64), np.array([7], dtype=np.int64)
        )
        assert last == 60 and trace.backtrack(int(last)) == [1, 7]

    @staticmethod
    def _one_word_graph(word):
        fst = Fst()
        s0, s1 = fst.add_states(2)
        fst.set_start(s0)
        fst.add_arc(s0, 1, word, math.log(0.9), s1)
        fst.set_final(s1, 0.0)
        return CompiledWfst.from_fst(fst)

    def test_output_label_past_31_bits_is_refused(self):
        with pytest.raises(ConfigError, match="32-bit word field"):
            SearchKernel(self._one_word_graph(2**31))
        with pytest.raises(ConfigError, match="32-bit word field"):
            BatchDecoder(self._one_word_graph(2**32 - 1))

    def test_largest_output_label_round_trips(self):
        top = 2**31 - 1
        decoder = BatchDecoder(self._one_word_graph(top), DecoderConfig(beam=20.0))
        frame = np.full((1, 3), -50.0)
        frame[0, 1] = -0.1
        session = decoder.open_session()
        session.push(frame)
        assert session.finalize().words == (top,)


class ListTrace:
    """The plain reference trace: a list of ``(prev, word)`` tuples whose
    commit walks every live chain to find the anchor and the survivors."""

    def __init__(self):
        self.records, self.committed = [(-1, 0)], []

    def append(self, prevs, words):
        self.records += zip(prevs, words)
        return list(range(len(self.records) - len(prevs), len(self.records)))

    def chain(self, i):
        out = []
        while i >= 0:
            out.append(i)
            i = self.records[i][0]
        return out

    def path(self, i):
        return [self.records[j][1] for j in reversed(self.chain(i)) if self.records[j][1]]

    def commit(self, bps):
        chains = [self.chain(b) for b in bps]
        anchor = max(set.intersection(*map(set, chains)))
        keep = sorted({j for chain in chains for j in chain if j >= anchor})
        rank = {old: new for new, old in enumerate(keep)}
        self.committed += self.path(anchor)
        self.records = [(-1, 0)] + [
            (rank[self.records[j][0]], self.records[j][1]) for j in keep[1:]
        ]
        return [rank[b] for b in bps]


#: Word ids over the whole 32-bit field, epsilon (0) often.
WORDS = st.one_of(st.just(0), st.integers(1, 2**31 - 1))


class TestTraceAgainstListReference:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_random_appends_and_commits(self, data):
        trace, ref = TokenTrace(commit_interval=1), ListTrace()
        live = trace.append_bulk(
            np.array([-1], dtype=np.int64), np.array([0], dtype=np.int64)
        ).tolist()
        for frame in range(data.draw(st.integers(1, 12))):
            if data.draw(st.booleans()):
                hypotheses = [
                    list(trace.committed) + trace.backtrack(bp) for bp in live
                ]
                renumbered = trace.commit(np.array(live, dtype=np.int64), frame)
                assert renumbered.tolist() == ref.commit(live)
                live = renumbered.tolist()
                # Compaction is invisible: every live hypothesis survives.
                assert hypotheses == [
                    list(trace.committed) + trace.backtrack(bp) for bp in live
                ]
            else:
                n = data.draw(st.integers(1, 6))
                prevs = data.draw(st.lists(st.sampled_from(live), min_size=n, max_size=n))
                words = data.draw(st.lists(WORDS, min_size=n, max_size=n))
                idx = trace.append_bulk(
                    np.array(prevs, dtype=np.int64), np.array(words, dtype=np.int64)
                )
                assert idx.dtype == np.int64
                assert idx.tolist() == ref.append(prevs, words)
                pool = live + idx.tolist()
                live = data.draw(
                    st.lists(st.sampled_from(pool), min_size=1, unique=True)
                )
            assert len(trace) == len(ref.records)
            assert list(trace.committed) == ref.committed
            for bp in live:
                assert trace.backtrack(bp) == ref.path(bp)


def heap_lca(prev, bps):
    """The reference anchor: the max-climb on a heap -- pop the highest
    member, push its predecessor, until one member is left (``-1`` once
    distinct roots' chains have climbed past them)."""
    heap = [-int(i) for i in np.unique(bps)]
    heapq.heapify(heap)
    while True:
        top = heapq.heappop(heap)
        while heap and heap[0] == top:
            heapq.heappop(heap)  # climbs that met
        if not heap:
            return -top
        heapq.heappush(heap, -int(prev[-top]))


class TestLcaAgainstHeapClimb:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_random_appends_and_commits(self, data):
        """Any subset of the live frontier, on one root or several,
        before and after compactions, anchors where the heap climb
        does."""
        trace = TokenTrace(commit_interval=1)
        roots = data.draw(st.integers(1, 3))
        live = trace.append_bulk(
            np.full(roots, -1, dtype=np.int64), np.zeros(roots, dtype=np.int64)
        ).tolist()
        for frame in range(data.draw(st.integers(1, 12))):
            bps = np.array(
                data.draw(st.lists(st.sampled_from(live), min_size=1, max_size=8)),
                dtype=np.int64,
            )
            assert trace._lca(bps) == heap_lca(trace._prev, bps)
            if data.draw(st.booleans()):
                live = trace.commit(np.array(live, dtype=np.int64), frame).tolist()
                continue
            n = data.draw(st.integers(1, 6))
            prevs = data.draw(st.lists(st.sampled_from(live), min_size=n, max_size=n))
            idx = trace.append_bulk(
                np.array(prevs, dtype=np.int64), np.ones(n, dtype=np.int64)
            )
            live = data.draw(
                st.lists(st.sampled_from(live + idx.tolist()), min_size=1, unique=True)
            )


class TestPrefixView:
    def test_pins_length_and_supports_sequence_ops(self):
        data = [10, 20, 30]
        view = _PrefixView(data, 3)
        data.append(40)  # the live list keeps growing underneath
        assert len(view) == 3
        assert list(view) == [10, 20, 30]
        assert view[-1] == 30
        assert view[1:] == [20, 30]
        assert view == [10, 20, 30]
        assert view == (10, 20, 30)
        with pytest.raises(IndexError):
            view[3]

    def test_snapshot_stats_freeze_per_frame_lists(self, small_task):
        decoder = BatchDecoder(small_task.graph, DecoderConfig(beam=14.0))
        utt = small_task.utterances[0]
        session = decoder.open_session()
        session.push(utt.scores.matrix[:4])
        snapshot = session.partial().stats
        frozen = list(snapshot.active_tokens_per_frame)
        frozen_degrees = snapshot.degree_histogram.copy()
        session.push(utt.scores.matrix[4:])
        assert len(snapshot.active_tokens_per_frame) == 4
        assert list(snapshot.active_tokens_per_frame) == frozen
        # The histogram is copied by value: later frames do not leak in.
        assert np.array_equal(snapshot.degree_histogram, frozen_degrees)
        assert snapshot.degree_histogram.sum() == sum(frozen)
