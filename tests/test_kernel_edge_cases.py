"""Kernel edge cases: degenerate searches, pinned exactly.

Empty gather frontiers, emptied beams, single-state graphs, score ties
under a histogram cap, zero-frame utterances: each case pins the exact
behaviour (result or typed ``DecodeError``) of the vectorized kernel on
the backend the ``backend`` parameter names, assigned through the
kernel's ``backend`` seam.
"""

import math

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
from repro.decoder.backends import resolve_backend
from repro.wfst import CompiledWfst, EPSILON, Fst

pytestmark = pytest.mark.parametrize("backend", ["numpy"])

# Phone / word ids.
A, B = 1, 2
WORD = 1


def dead_end_graph():
    """s0 --A--> s1(final), and s1 has no outgoing arcs at all."""
    fst = Fst()
    s0, s1 = fst.add_states(2)
    fst.set_start(s0)
    fst.add_arc(s0, A, WORD, math.log(0.9), s1)
    fst.set_final(s1, 0.0)
    return CompiledWfst.from_fst(fst)


def single_state_graph():
    """One final state with a self-loop on phone A."""
    fst = Fst()
    (s0,) = fst.add_states(1)
    fst.set_start(s0)
    fst.add_arc(s0, A, WORD, math.log(0.5), s0)
    fst.set_final(s0, 0.0)
    return CompiledWfst.from_fst(fst)


def fan_graph(branches):
    """Start state fanning to ``branches`` parallel equal-weight states.

    Every branch consumes phone A with identical arc weight, creating
    exact score ties for the histogram cap to break.
    """
    fst = Fst()
    states = fst.add_states(branches + 1)
    s0, rest = states[0], states[1:]
    fst.set_start(s0)
    for word, state in enumerate(rest, start=1):
        fst.add_arc(s0, A, word, math.log(0.5), state)
        fst.add_arc(state, B, EPSILON, math.log(0.5), state)
        fst.set_final(state, 0.0)
    return CompiledWfst.from_fst(fst)


def scores(rows, width=3):
    matrix = np.full((len(rows), width), -50.0)
    for f, row in enumerate(rows):
        for phone, logp in row.items():
            matrix[f, phone] = logp
    return AcousticScores(matrix)


def _decoder(graph, backend, **cfg):
    cfg.setdefault("beam", 20.0)
    decoder = BatchDecoder(graph, DecoderConfig(**cfg))
    decoder.kernel.backend = resolve_backend(backend)
    return decoder


def _summary(result):
    return (
        result.words,
        result.log_likelihood,
        result.reached_final,
        result.stats.tokens_pruned,
        result.stats.states_expanded,
        result.stats.arcs_processed,
        result.stats.tokens_created,
        tuple(result.stats.active_tokens_per_frame),
    )


class TestEmptiedBeam:
    def test_dead_end_raises_on_next_frame(self, backend):
        """A frame that empties the frontier is absorbed; the *next* frame
        raises the typed mid-utterance error."""
        decoder = _decoder(dead_end_graph(), backend)
        with pytest.raises(DecodeError, match="beam emptied .* frame 2"):
            decoder.decode(scores([{A: -0.1}] * 3))

    def test_finalize_after_emptied_beam_raises(self, backend):
        """Two frames on a one-arc graph: frame 1 empties the frontier,
        so finalize has no token to backtrack from."""
        decoder = _decoder(dead_end_graph(), backend)
        with pytest.raises(DecodeError, match="no active tokens"):
            decoder.decode(scores([{A: -0.1}] * 2))

    def test_session_reports_dead_beam(self, backend):
        frame = scores([{A: -0.1}]).matrix[0]
        decoder = _decoder(dead_end_graph(), backend)
        session = decoder.open_session()
        session.push_frame(frame)
        assert session.alive
        # One more frame walks off the graph: the push is absorbed but
        # the session is dead afterwards, and pushes/finalize say why.
        session.push_frame(frame)
        assert not session.alive
        with pytest.raises(DecodeError, match="beam emptied .* frame 2"):
            session.push_frame(frame)
        with pytest.raises(DecodeError, match="no active tokens"):
            session.finalize()

    def test_session_finalizes_before_dead_end(self, backend):
        frame = scores([{A: -0.1}]).matrix[0]
        decoder = _decoder(dead_end_graph(), backend)
        session = decoder.open_session()
        session.push_frame(frame)
        result = session.finalize()
        assert result.words == (WORD,)
        assert result.reached_final

    def test_finalize_falls_back_when_not_final(self, backend):
        """No token in a final state: best live token, reached_final=False."""
        fst = Fst()
        s0, s1, s2 = fst.add_states(3)
        fst.set_start(s0)
        fst.add_arc(s0, A, WORD, 0.0, s1)
        fst.add_arc(s1, A, EPSILON, 0.0, s2)
        fst.set_final(s2, 0.0)
        decoder = _decoder(CompiledWfst.from_fst(fst), backend)
        result = decoder.decode(scores([{A: -0.25}]))
        assert not result.reached_final
        assert result.words == (WORD,)
        assert result.log_likelihood == -0.25


class TestEmptyGather:
    def test_zero_count_rows(self, backend):
        resolved = resolve_backend(backend)
        first = np.array([4, 9, 0], dtype=np.int64)
        counts = np.zeros(3, dtype=np.int64)
        arc_idx, src = resolved.csr_gather(first, counts)
        assert arc_idx.size == 0 and src.size == 0
        assert arc_idx.dtype == np.int64 and src.dtype == np.int64

    def test_empty_frontier(self, backend):
        resolved = resolve_backend(backend)
        empty = np.empty(0, dtype=np.int64)
        arc_idx, src = resolved.csr_gather(empty, empty)
        assert arc_idx.size == 0 and src.size == 0
        arc_idx, src, dest, cand = resolved.expand_frame(
            empty, empty, np.empty(0), empty, np.empty(0), empty,
            np.zeros(3),
        )
        assert arc_idx.size == src.size == dest.size == cand.size == 0
        assert cand.dtype == np.float64


class TestSingleStateGraph:
    def test_self_loop_decodes(self, backend):
        decoder = _decoder(single_state_graph(), backend)
        result = decoder.decode(scores([{A: -0.5}] * 4))
        assert result.words == (WORD,) * 4
        assert result.reached_final
        assert result.log_likelihood == pytest.approx(
            4 * (math.log(0.5) - 0.5)
        )

    def test_cross_backend_identity(self, backend):
        """The vectorized kernel on ``backend`` against the scalar
        reference discipline."""
        frames = scores([{A: -0.5}] * 4)
        oracle = ViterbiDecoder(
            single_state_graph(), DecoderConfig(beam=20.0)
        ).decode(frames)
        other = _decoder(single_state_graph(), backend).decode(frames)
        assert _summary(other) == _summary(oracle)


class TestHistogramCapTies:
    """Exact score ties at the cap boundary.

    The vectorized discipline breaks cap ties deterministically (stable
    sort by score then state), so the one-shot decode and the fused
    multi-session sweep must keep the *same* survivors; the scalar
    reference may legitimately keep a different equal-score subset, so
    it is not part of this comparison.
    """

    def test_tied_survivors_identical(self, backend):
        graph = fan_graph(branches=8)
        frames = scores([{A: -0.5}, {B: -0.5}, {B: -0.5}], width=3)
        decoder = _decoder(graph, backend, beam=30.0, max_active=3)
        sessions = [decoder.open_session() for _ in range(2)]
        for row in frames.matrix:
            advance_sessions([(session, row) for session in sessions])
        base = _summary(decoder.decode(frames))
        assert [_summary(s.finalize()) for s in sessions] == [base, base]

    def test_cap_keeps_search_deterministic(self, backend):
        graph = fan_graph(branches=8)
        frames = scores([{A: -0.5}, {B: -0.5}], width=3)
        decoder = _decoder(graph, backend, beam=30.0, max_active=3)
        first = decoder.decode(frames)
        second = decoder.decode(frames)
        assert _summary(first) == _summary(second)
        assert max(first.stats.active_tokens_per_frame) <= 3


class TestZeroFrames:
    def test_decode_rejects_empty_matrix(self, backend):
        decoder = _decoder(single_state_graph(), backend)
        with pytest.raises(DecodeError, match="no frames to decode"):
            decoder.decode(AcousticScores(np.empty((0, 3))))

    def test_session_finalize_rejects_zero_frames(self, backend):
        decoder = _decoder(single_state_graph(), backend)
        session = decoder.open_session()
        with pytest.raises(DecodeError, match="no frames to decode"):
            session.finalize()
        # The session stays open and usable after the rejected finalize.
        session.push_frame(scores([{A: -0.5}]).matrix[0])
        assert session.finalize().words == (WORD,)
