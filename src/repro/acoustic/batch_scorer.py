"""Cross-session batched acoustic scoring (the executable GPU half of
the paper's Figure 1 split).

In the paper the GPU evaluates the DNN for a *batch* of frames at a time
and DMAs the resulting likelihoods into the accelerator's double-buffered
Acoustic Likelihood Buffer; the Viterbi engine consumes one plane while
the next is being filled.  :class:`BatchScorer` is that batching stage
for the serving stack: it collects the pending MFCC feature chunks of
all live sessions, packs the ragged rows into one contiguous matrix,
runs a single stacked :meth:`repro.acoustic.dnn.Dnn.forward` matmul
chain, and scatters the scored rows back into per-session score planes
(caller-provided buffers -- e.g. shared-memory ring slots -- or a fresh
plane).

Because ``Dnn.forward`` is batch-stable (fixed-height gemm blocks, see
:func:`repro.acoustic.dnn._affine`), the scattered rows are **bitwise
identical** to what each session's own :meth:`DnnScorer.score` call
would have produced: batching is purely a throughput optimisation and
never changes a decode.

The stage is single precision, as the paper's GPU is: chunks are packed
straight into the deployed net's dtype (float32 -- one conversion for a
float64 chunk, none for a float32 one), the forward runs in it, and the
rows widen to float64 once, at the write into the caller's plane
(:func:`repro.acoustic.scorer.write_score_plane`).
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

import numpy as np

from repro.common.errors import ConfigError
from repro.acoustic.scorer import DnnScorer, write_score_plane


class BatchScorer:
    """Score the ragged feature chunks of many sessions in one forward.

    Wraps a :class:`DnnScorer`; the scored rows use the same layout as
    :class:`~repro.acoustic.scorer.AcousticScores` -- ``width ==
    num_classes + 1`` with column 0 pinned to the loud epsilon score.
    """

    def __init__(self, scorer: DnnScorer) -> None:
        self.scorer = scorer

    @property
    def input_dim(self) -> int:
        """Feature width every chunk must have."""
        return int(self.scorer.dnn.config.input_dim)

    @property
    def dtype(self) -> "np.dtype[Any]":
        """Dtype the stacked forward computes in; chunks already in it
        are packed without a conversion."""
        return self.scorer.dnn.dtype

    @property
    def width(self) -> int:
        """Score-row width (one column per phone id, plus epsilon)."""
        return int(self.scorer.dnn.config.num_classes) + 1

    # ------------------------------------------------------------------
    def score_chunks(
        self,
        chunks: Sequence[np.ndarray],
        out: Optional[Sequence[np.ndarray]] = None,
    ) -> List[np.ndarray]:
        """Pack, score once, scatter.

        Args:
            chunks: per-session feature chunks, each ``(frames_i,
                input_dim)`` (``frames_i`` may be 0 -- ragged is the
                normal case), of any real dtype.
            out: optional per-chunk destination score planes, each
                float64 ``(frames_i, width)`` -- e.g. views into a
                shared-memory plane ring.  When omitted the rows are
                scattered into one freshly allocated float64 plane.

        Returns:
            One ``(frames_i, width)`` score matrix per chunk (the ``out``
            buffers when given, otherwise views into the fresh plane),
            bitwise equal to per-chunk ``DnnScorer.score`` calls.
        """
        matrices = [self._chunk(i, c) for i, c in enumerate(chunks)]
        if out is not None and len(out) != len(matrices):
            raise ConfigError(
                f"out has {len(out)} planes for {len(matrices)} chunks"
            )
        counts = [m.shape[0] for m in matrices]
        total = sum(counts)
        packed = np.empty((total, self.input_dim), dtype=self.dtype)
        offset = 0
        for matrix, count in zip(matrices, counts):
            packed[offset: offset + count] = matrix
            offset += count

        loglik = self.scorer.log_likelihood_rows(packed)

        planes: List[np.ndarray]
        if out is None:
            fresh = np.empty((total, self.width), dtype=np.float64)
            planes = []
            offset = 0
            for count in counts:
                planes.append(fresh[offset: offset + count])
                offset += count
        else:
            planes = list(out)
            for i, count in enumerate(counts):
                if planes[i].shape != (count, self.width):
                    raise ConfigError(
                        f"out[{i}] has shape {planes[i].shape}, chunk "
                        f"needs ({count}, {self.width})"
                    )
        offset = 0
        for plane, count in zip(planes, counts):
            write_score_plane(plane, loglik[offset: offset + count])
            offset += count
        return planes

    # ------------------------------------------------------------------
    def _chunk(self, index: int, chunk: np.ndarray) -> np.ndarray:
        matrix = np.asarray(chunk)
        if matrix.ndim != 2 or matrix.shape[1] != self.input_dim:
            raise ConfigError(
                f"feature chunk {index} must be (frames, {self.input_dim}), "
                f"got shape {matrix.shape}"
            )
        return matrix
