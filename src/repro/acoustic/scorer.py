"""Frame scorers: acoustic log-likelihood matrices for the Viterbi search.

The Viterbi stage consumes, per 10 ms frame, one log-likelihood per phone
(``b(O_f; m_k)`` in the paper's Equation 1).  The accelerator stores these in
its double-buffered Acoustic Likelihood Buffer.  Scores here are what the
GPU's DNN would DMA into that buffer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import ConfigError
from repro.common.rng import make_rng
from repro.acoustic.dnn import Dnn
from repro.frontend.audio import PhoneAlignment


@dataclass(frozen=True)
class AcousticScores:
    """Per-frame phone log-likelihoods.

    Attributes:
        matrix: ``(num_frames, num_phones + 1)`` array; column 0 is unused
            (phone ids start at 1) and fixed at a large negative value so an
            accidental epsilon lookup is loud.
    """

    matrix: np.ndarray

    @property
    def num_frames(self) -> int:
        return self.matrix.shape[0]

    @property
    def num_phones(self) -> int:
        return self.matrix.shape[1] - 1

    def frame(self, f: int) -> np.ndarray:
        """All phone scores of frame ``f`` (index by phone id)."""
        return self.matrix[f]

    def score(self, f: int, phone: int) -> float:
        if phone < 1:
            raise ConfigError("phone id must be >= 1")
        return float(self.matrix[f, phone])

    @property
    def size_bytes(self) -> int:
        """True in-memory footprint of the whole score matrix, in bytes
        (the host-side ``float64`` array, all frames)."""
        return int(self.matrix.nbytes)

    @property
    def frame_bytes_on_chip(self) -> int:
        """Footprint of one frame's scores as stored on chip: the
        accelerator's Acoustic Likelihood Buffer holds ``float32``
        entries, one per column (paper, Section III)."""
        return self.matrix.shape[1] * 4


_EPS_COLUMN_SCORE = -1.0e9


def write_score_plane(plane: np.ndarray, loglik: np.ndarray) -> None:
    """Fill a float64 score plane from single-precision likelihood rows:
    column 0 the loud epsilon score, the rest ``loglik``.  This
    assignment is the one place the acoustic stage's float32 values
    widen to the float64 the search adds to its path costs (exactly:
    every float32 is a float64)."""
    plane[:, 0] = _EPS_COLUMN_SCORE
    plane[:, 1:] = loglik


class DnnScorer:
    """Score frames with a trained DNN (hybrid posterior/prior convention).

    The scorer deploys a **single-precision copy** of the net it is
    given (:attr:`dnn`, ``dnn.astype(np.float32)``) -- the arithmetic of
    the paper's GPU stage, whose likelihoods the accelerator's Acoustic
    Likelihood Buffer holds in 32 bits.  The caller's net, the trainer's
    float64 master, is left untouched; the planes handed to the search
    are float64.
    """

    def __init__(
        self,
        dnn: Dnn,
        log_priors: np.ndarray,
        acoustic_scale: float = 1.0,
    ) -> None:
        if len(log_priors) != dnn.config.num_classes:
            raise ConfigError("log_priors length must match DNN classes")
        self.dnn = dnn.astype(np.float32)
        self.log_priors = np.asarray(log_priors, dtype=self.dnn.dtype)
        # A plain float: a numpy float64 scalar would promote the rows.
        self.acoustic_scale = float(acoustic_scale)

    def log_likelihood_rows(self, features: np.ndarray) -> np.ndarray:
        """Scaled log-likelihood rows, one column per class, in the
        deployed net's dtype: the one copy of the arithmetic under
        :meth:`score` and ``BatchScorer``'s stacked forward, which differ
        only in the plane layout."""
        log_post = self.dnn.log_posteriors(features)
        result: np.ndarray = (log_post - self.log_priors) * self.acoustic_scale
        return result

    def score(self, features: np.ndarray) -> AcousticScores:
        """Convert a feature matrix into scaled log-likelihoods."""
        loglik = self.log_likelihood_rows(features)
        matrix = np.empty((len(loglik), self.dnn.config.num_classes + 1))
        write_score_plane(matrix, loglik)
        return AcousticScores(matrix)

    @staticmethod
    def priors_from_labels(labels: np.ndarray, num_classes: int) -> np.ndarray:
        """Smoothed log class priors estimated from training labels."""
        counts = np.bincount(
            np.asarray(labels, dtype=np.int64), minlength=num_classes
        ).astype(np.float64)
        counts += 1.0
        return np.log(counts / counts.sum())


class SyntheticScorer:
    """Generate scores directly from a ground-truth alignment.

    Models a DNN of configurable quality: the true phone receives a score
    near zero, every other phone a score drawn around ``-separation``, with
    Gaussian noise on both.  ``separation`` and ``noise`` tune how confusable
    frames are -- small separation forces the beam search to keep many
    hypotheses alive, reproducing the paper's large active-token counts.
    """

    def __init__(
        self,
        num_phones: int,
        separation: float = 4.0,
        noise: float = 1.5,
        seed: int = 0,
    ) -> None:
        if num_phones < 2:
            raise ConfigError("need at least two phones")
        if separation <= 0 or noise < 0:
            raise ConfigError("separation must be > 0 and noise >= 0")
        self.num_phones = num_phones
        self.separation = separation
        self.noise = noise
        self.seed = seed

    def score(self, alignment: PhoneAlignment, utterance_id: int = 0) -> AcousticScores:
        """Produce the likelihood matrix for one aligned utterance."""
        rng = make_rng(self.seed, f"synthetic-scores-{utterance_id}")
        labels = alignment.frame_labels()
        n_frames = len(labels)
        matrix = rng.normal(
            -self.separation, self.noise, size=(n_frames, self.num_phones + 1)
        )
        matrix[np.arange(n_frames), labels] = rng.normal(
            -0.3, self.noise * 0.4, size=n_frames
        )
        matrix[:, 0] = _EPS_COLUMN_SCORE
        # Log-likelihoods must be <= 0.
        matrix[:, 1:] = np.minimum(matrix[:, 1:], -1e-3)
        return AcousticScores(matrix)
