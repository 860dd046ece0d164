"""Feed-forward DNN in numpy.

A plain MLP with ReLU hidden layers and a softmax output over phone ids --
the acoustic model of the hybrid ASR system (paper, Section II; in the
paper's Figure 1 pipeline the DNN runs on the GPU while the accelerator
handles the Viterbi search).  Only forward and backward passes needed by
the trainer are implemented; no autograd framework is used.

The forward pass is **batch-stable**: scoring frames stacked with other
sessions' frames yields bitwise the same rows as scoring them alone
(see :func:`_affine`), which is what lets the serving tier batch
acoustic scoring across sessions without changing a single decode.

It is also **dtype-generic**: a net computes in the dtype of its
weights.  A freshly built net is float64 and the trainer keeps it so
(the master copy); :meth:`Dnn.astype` returns the single-precision copy
``DnnScorer`` deploys -- the GPU of the paper's Figure 1 evaluates the
DNN in single precision and the accelerator's Acoustic Likelihood
Buffer holds 32-bit likelihoods.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any, List, Tuple

import numpy as np
from numpy.typing import DTypeLike

from repro.common.errors import ConfigError
from repro.common.rng import make_rng


@dataclass(frozen=True)
class DnnConfig:
    """MLP shape: input dim, hidden widths, output classes."""

    input_dim: int
    hidden_dims: Tuple[int, ...]
    num_classes: int

    def __post_init__(self) -> None:
        if self.input_dim < 1 or self.num_classes < 2:
            raise ConfigError("invalid DNN dimensions")
        if any(h < 1 for h in self.hidden_dims):
            raise ConfigError("hidden dims must be positive")


class Dnn:
    """A ReLU MLP with softmax output."""

    def __init__(self, config: DnnConfig, seed: int = 0) -> None:
        self.config = config
        rng = make_rng(seed, "dnn-init")
        dims = [config.input_dim, *config.hidden_dims, config.num_classes]
        self.weights: List[np.ndarray] = []
        self.biases: List[np.ndarray] = []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            scale = np.sqrt(2.0 / fan_in)
            self.weights.append(rng.normal(0.0, scale, size=(fan_in, fan_out)))
            self.biases.append(np.zeros(fan_out))
        # Input normalisation fitted by the trainer.
        self.input_mean = np.zeros(config.input_dim)
        self.input_std = np.ones(config.input_dim)

    @property
    def num_params(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

    @property
    def dtype(self) -> "np.dtype[Any]":
        """The dtype the forward pass computes and returns in."""
        return self.weights[0].dtype

    def astype(self, dtype: DTypeLike) -> "Dnn":
        """A copy of this net that computes in ``dtype``: C-contiguous
        weights and biases, and the input normalisation, all cast once."""

        def cast(array: np.ndarray) -> np.ndarray:
            return np.array(array, dtype=dtype, order="C")

        net = copy.copy(self)
        net.weights = [cast(w) for w in self.weights]
        net.biases = [cast(b) for b in self.biases]
        net.input_mean = cast(self.input_mean)
        net.input_std = cast(self.input_std)
        return net

    def set_normalization(self, mean: np.ndarray, std: np.ndarray) -> None:
        """Set per-dimension input standardisation (fitted on train data),
        in the net's own dtype -- a wider mean would promote every
        activation out of the dtype :func:`_affine` computes in."""
        self.input_mean = np.asarray(mean, dtype=self.dtype)
        self.input_std = np.maximum(np.asarray(std, dtype=self.dtype), 1e-6)

    # ------------------------------------------------------------------
    def forward(
        self, x: np.ndarray, keep_activations: bool = False
    ) -> Tuple[np.ndarray, List[np.ndarray]]:
        """Forward pass.

        Batch-stable: row ``i`` of the output depends only on row ``i``
        of ``x``, bit for bit -- stacking the frames of many sessions
        into one call returns exactly the rows that per-session calls
        would (pinned by ``tests/test_acoustic.py``).  Computed, and
        returned, in :attr:`dtype`; ``x`` is cast to it on entry.

        Args:
            x: ``(batch, input_dim)`` features.
            keep_activations: retain post-ReLU activations for backprop.

        Returns:
            ``(log_posteriors, activations)`` -- log-softmax outputs of
            shape ``(batch, num_classes)``.
        """
        h = np.asarray(x, dtype=self.dtype) - self.input_mean
        h /= self.input_std
        activations: List[np.ndarray] = [h]
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            h = _affine(h, w, b)
            np.maximum(h, 0.0, out=h)  # ReLU on _affine's fresh output
            if keep_activations:
                activations.append(h)
        logits = _affine(h, self.weights[-1], self.biases[-1])
        log_post = logits - _logsumexp(logits)
        return log_post, activations

    def log_posteriors(self, x: np.ndarray) -> np.ndarray:
        """Log P(class | frame) for a batch of frames.

        Evaluated :data:`EVAL_BLOCK_ROWS` rows at a time, so a pass over
        a whole dataset holds one block's activations, not the dataset's;
        bit-identical to one :meth:`forward` over every row, because the
        forward pass is batch-stable."""
        x = np.asarray(x)
        out = np.empty((len(x), self.config.num_classes), dtype=self.dtype)
        for start in range(0, len(x), EVAL_BLOCK_ROWS):
            stop = start + EVAL_BLOCK_ROWS
            out[start:stop] = self.forward(x[start:stop])[0]
        return out

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Most likely class id (0-based) per frame."""
        return np.argmax(self.log_posteriors(x), axis=1)


#: Fixed gemm height of :func:`_affine`.  Every matmul the forward pass
#: issues has exactly this many rows (the tail block is zero-padded), so
#: BLAS always picks the same kernel/reduction split regardless of how
#: many frames were stacked into the call -- dgemm for a float64 net,
#: sgemm for a float32 one, the argument is the same for both.
GEMM_BLOCK_ROWS = 32

#: Rows per block of :meth:`Dnn.log_posteriors` (and so of ``predict``
#: and ``DnnScorer``): a whole multiple of :data:`GEMM_BLOCK_ROWS`, and
#: the trainer's default batch, so a dataset-wide ``predict`` holds no
#: larger transients than a training step (a 512-wide hidden layer is
#: 1 MiB of float64 per block).
EVAL_BLOCK_ROWS = 8 * GEMM_BLOCK_ROWS


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``x @ w + b`` computed in fixed :data:`GEMM_BLOCK_ROWS`-row blocks,
    in the dtype of ``w`` (``x`` must already be in it).

    A plain ``x @ w`` is *not* bitwise row-stable under batching: BLAS
    chooses its blocking/reduction order from the operand shapes, so the
    same input row can produce results differing in the last ulp when
    stacked with a different number of neighbours.  Slicing the batch
    into fixed-height blocks (zero-padding the tail so even the last
    gemm has the canonical shape) keeps the per-row arithmetic identical
    for every batch size while retaining BLAS throughput -- the
    invariant ``BatchScorer`` and the serving tier's batched scoring
    path rely on.
    """
    n = x.shape[0]
    out = np.empty((n, w.shape[1]), dtype=w.dtype)
    whole = n - n % GEMM_BLOCK_ROWS
    for start in range(0, whole, GEMM_BLOCK_ROWS):
        stop = start + GEMM_BLOCK_ROWS
        np.matmul(x[start:stop], w, out=out[start:stop])
    if whole < n:
        pad = np.zeros((GEMM_BLOCK_ROWS, x.shape[1]), dtype=w.dtype)
        pad[: n - whole] = x[whole:]
        out[whole:] = np.matmul(pad, w)[: n - whole]
    out += b
    return out


def _logsumexp(logits: np.ndarray) -> np.ndarray:
    hi = logits.max(axis=1, keepdims=True)
    return hi + np.log(np.exp(logits - hi).sum(axis=1, keepdims=True))
