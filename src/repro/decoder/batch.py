"""Vectorized multi-utterance batch decoding engine.

:class:`repro.decoder.viterbi.ViterbiDecoder` is the faithful scalar
reference; this module is the serving-shaped engine over the *same*
recurrence.  Since the kernel refactor the array sweeps themselves live
in :class:`repro.decoder.kernel.SearchKernel` (bulk CSR arc gather,
fused float64 score accumulation, segment-max destination merge,
round-based epsilon closure over the sorted
:class:`~repro.decoder.kernel.Frontier`); ``BatchDecoder`` binds a
kernel to a graph and runs many utterances through it in lockstep.

Word output is equivalent to the scalar decoder (asserted in
``tests/test_batch_decoder.py`` and the cross-engine property suite in
``tests/test_kernel_equivalence.py``); path scores are bit-identical
because the per-path float additions associate in the same order.  Ties
between equal-likelihood paths may resolve to a different (equally
optimal) predecessor, and the order-dependent ``tokens_updated`` /
``epsilon_arcs_processed`` counters are engine approximations; every
other :class:`SearchStats` counter keeps the reference semantics.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.decoder.session import DecodeSession

from repro.common.errors import DecodeError
from repro.acoustic.scorer import AcousticScores
from repro.decoder.kernel import DecoderConfig, SearchKernel
from repro.decoder.result import DecodeResult
from repro.wfst.layout import CompiledWfst, FlatLayout


class BatchDecoder:
    """Vectorized beam-search decoder for one or many utterances.

    Drop-in equivalent of :class:`ViterbiDecoder` on word output, plus
    :meth:`decode_batch` for decoding a whole batch of utterances against
    the shared compiled graph in lockstep.
    """

    def __init__(
        self,
        graph: CompiledWfst,
        config: DecoderConfig = DecoderConfig(),
    ) -> None:
        self.graph = graph
        self.config = config
        self.kernel = SearchKernel(graph, config)

    @property
    def flat(self) -> FlatLayout:
        return self.kernel.flat

    @property
    def min_score_width(self) -> int:
        """Shortest score row that every arc's ilabel can index safely."""
        return self.kernel.min_score_width

    # ------------------------------------------------------------------
    def open_session(self) -> "DecodeSession":
        """Open a resumable streaming decode session on this engine.

        The session accepts acoustic-score chunks of any size and can
        report partial hypotheses between chunks; see
        :class:`repro.decoder.session.DecodeSession`.
        """
        from repro.decoder.session import DecodeSession

        return DecodeSession(self)

    def decode(self, scores: AcousticScores) -> DecodeResult:
        """Decode one utterance; returns the best word sequence."""
        return self.decode_batch([scores])[0]

    def decode_batch(
        self, scores_batch: Sequence[AcousticScores]
    ) -> List[DecodeResult]:
        """Decode a batch of utterances, advanced frame by frame in lockstep.

        Utterances may be ragged (different frame counts); each one is
        finalized after its own last frame.  Results come back in input
        order and match per-utterance :meth:`decode` exactly.  Each
        utterance runs as a :class:`DecodeSession`; frames advance through
        the kernel's fused multi-session sweep, one numpy pass per frame
        for the whole batch.
        """
        from repro.decoder.session import advance_sessions

        if not scores_batch:
            return []
        for scores in scores_batch:
            if scores.num_frames == 0:
                raise DecodeError("no frames to decode")

        sessions = [self.open_session() for _ in scores_batch]
        max_frames = max(s.num_frames for s in scores_batch)
        for frame in range(max_frames):
            advance_sessions(
                [
                    (session, scores.frame(frame))
                    for session, scores in zip(sessions, scores_batch)
                    if frame < scores.num_frames
                ]
            )
        return [session.finalize() for session in sessions]
