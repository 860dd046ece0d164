"""Tests for resumable decode sessions and the fused multi-session sweep.

The contract: feeding an utterance's frames through a
:class:`DecodeSession` in *any* chunking yields exactly the words, path
score and search counters of one-shot ``BatchDecoder.decode`` -- and
:func:`advance_sessions` over many sessions is bit-identical to advancing
each session alone.
"""

import numpy as np
import pytest

from repro.common.errors import DecodeError
from repro.acoustic.scorer import AcousticScores
from repro.decoder import (
    BatchDecoder,
    DecoderConfig,
    ViterbiDecoder,
    advance_sessions,
)


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


def assert_same_result(expected, got):
    assert got.words == expected.words
    assert got.log_likelihood == expected.log_likelihood
    assert got.reached_final == expected.reached_final


class TestChunkedEquivalence:
    @pytest.mark.parametrize("sizes", [(1,), (2,), (3,), (7,), (1000,),
                                       (1, 5, 2), (4, 1, 1, 9)])
    def test_any_chunking_matches_oneshot(self, small_task, sizes):
        config = DecoderConfig(beam=14.0, max_active=60)
        decoder = BatchDecoder(small_task.graph, config)
        for utt in small_task.utterances:
            expected = decoder.decode(utt.scores)
            session = decoder.open_session()
            for chunk in chunks_of(utt.scores.matrix, sizes):
                session.push(chunk)
            result = session.finalize()
            assert_same_result(expected, result)
            assert result.stats.arcs_processed == expected.stats.arcs_processed
            assert result.stats.tokens_pruned == expected.stats.tokens_pruned
            assert result.stats.frames == expected.stats.frames

    def test_push_accepts_acoustic_scores_objects(self, small_task):
        decoder = BatchDecoder(small_task.graph, DecoderConfig(beam=14.0))
        utt = small_task.utterances[0]
        expected = decoder.decode(utt.scores)
        session = decoder.open_session()
        assert session.push(utt.scores) == utt.num_frames
        assert_same_result(expected, session.finalize())

    def test_matches_scalar_reference(self, small_task):
        config = DecoderConfig(beam=12.0)
        reference = ViterbiDecoder(small_task.graph, config)
        decoder = BatchDecoder(small_task.graph, config)
        utt = small_task.utterances[1]
        session = decoder.open_session()
        session.push(utt.scores.matrix[:5])
        session.push(utt.scores.matrix[5:])
        result = session.finalize()
        expected = reference.decode(utt.scores)
        assert result.words == expected.words
        assert result.log_likelihood == pytest.approx(
            expected.log_likelihood, abs=1e-12
        )


class TestPartials:
    def test_partial_matches_prefix_decode(self, small_task):
        config = DecoderConfig(beam=14.0)
        decoder = BatchDecoder(small_task.graph, config)
        utt = small_task.utterances[0]
        session = decoder.open_session()
        for cut in (3, 9, utt.num_frames):
            session.push(utt.scores.matrix[session.frames_pushed:cut])
            prefix = AcousticScores(utt.scores.matrix[:cut])
            assert_same_result(decoder.decode(prefix), session.partial())

    def test_partial_does_not_disturb_the_search(self, small_task):
        decoder = BatchDecoder(small_task.graph, DecoderConfig(beam=14.0))
        utt = small_task.utterances[2]
        expected = decoder.decode(utt.scores)
        session = decoder.open_session()
        for row in utt.scores.matrix:
            session.push_frame(row)
            session.partial()
        assert_same_result(expected, session.finalize())

    def test_partial_stats_are_a_snapshot(self, small_task):
        decoder = BatchDecoder(small_task.graph, DecoderConfig(beam=14.0))
        utt = small_task.utterances[0]
        session = decoder.open_session()
        session.push(utt.scores.matrix[:4])
        snapshot = session.partial().stats
        frames_then = snapshot.frames
        session.push(utt.scores.matrix[4:])
        assert snapshot.frames == frames_then


class TestSessionLifecycle:
    def test_finalize_without_frames_rejected(self, small_graph):
        session = BatchDecoder(small_graph).open_session()
        with pytest.raises(DecodeError):
            session.finalize()

    def test_push_after_finalize_rejected(self, small_task):
        decoder = BatchDecoder(small_task.graph, DecoderConfig(beam=14.0))
        session = decoder.open_session()
        session.push(small_task.utterances[0].scores)
        session.finalize()
        assert session.finalized
        with pytest.raises(DecodeError):
            session.push_frame(small_task.utterances[0].scores.matrix[0])
        with pytest.raises(DecodeError):
            session.finalize()

    def test_bad_chunk_shape_rejected(self, small_graph):
        session = BatchDecoder(small_graph).open_session()
        with pytest.raises(DecodeError):
            session.push(np.zeros((2, 3, 4)))

    def test_frames_pushed_counts(self, small_task):
        decoder = BatchDecoder(small_task.graph, DecoderConfig(beam=14.0))
        session = decoder.open_session()
        assert session.frames_pushed == 0
        session.push(small_task.utterances[0].scores.matrix[:6])
        assert session.frames_pushed == 6


class TestFusedSweep:
    def test_fused_identical_to_solo_sessions(self, small_task):
        config = DecoderConfig(beam=12.0, max_active=40)
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
        for expected, session in zip(solo, sessions):
            result = session.finalize()
            assert_same_result(expected, result)
            for counter in ("tokens_pruned", "states_expanded",
                            "arcs_processed", "epsilon_arcs_processed",
                            "tokens_created", "tokens_updated"):
                assert getattr(result.stats, counter) == getattr(
                    expected.stats, counter
                ), counter
            assert (
                result.stats.active_tokens_per_frame
                == expected.stats.active_tokens_per_frame
            )

    def test_fused_rejects_mixed_decoders(self, small_task):
        a = BatchDecoder(small_task.graph).open_session()
        b = BatchDecoder(small_task.graph).open_session()
        row = small_task.utterances[0].scores.matrix[0]
        with pytest.raises(DecodeError):
            advance_sessions([(a, row), (b, row)])

    def test_fused_rejects_duplicate_sessions(self, small_task):
        session = BatchDecoder(small_task.graph).open_session()
        row = small_task.utterances[0].scores.matrix[0]
        with pytest.raises(DecodeError):
            advance_sessions([(session, row), (session, row)])

    def test_fused_rejects_ragged_rows(self, small_task):
        decoder = BatchDecoder(small_task.graph)
        a, b = decoder.open_session(), decoder.open_session()
        row = small_task.utterances[0].scores.matrix[0]
        with pytest.raises(DecodeError):
            advance_sessions([(a, row), (b, row[:-1])])

    def test_ragged_widths_fall_back_to_solo_advances(self, small_task):
        """Mixed score widths cannot fuse, but still decode identically
        (decode_batch accepted ragged widths before the fused engine)."""
        decoder = BatchDecoder(small_task.graph, DecoderConfig(beam=14.0))
        base = small_task.utterances[0].scores
        padded = AcousticScores(
            np.concatenate(
                [base.matrix, np.full((base.num_frames, 3), -1e9)], axis=1
            )
        )
        expected = decoder.decode(base)
        results = decoder.decode_batch([base, padded])
        for result in results:
            assert result.words == expected.words
            assert result.log_likelihood == expected.log_likelihood

    def test_empty_and_single_pairs(self, small_task):
        advance_sessions([])
        decoder = BatchDecoder(small_task.graph, DecoderConfig(beam=14.0))
        utt = small_task.utterances[0]
        expected = decoder.decode(utt.scores)
        session = decoder.open_session()
        for frame in range(utt.num_frames):
            advance_sessions([(session, utt.scores.frame(frame))])
        assert_same_result(expected, session.finalize())
