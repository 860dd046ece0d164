"""Minibatch SGD trainer for the acoustic DNN (the Section II hybrid
model's GPU-side half, trained here so decode experiments have realistic
posteriors).

Cross-entropy training of the MLP on (MFCC frame, phone id) pairs produced
by the synthetic audio pipeline.  Deliberately simple -- constant learning
rate with momentum -- because the synthetic task is easy; the point is to
produce *realistically confusable* posteriors, not state-of-the-art WER.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.common.errors import ConfigError
from repro.common.rng import make_rng
from repro.acoustic.dnn import Dnn


@dataclass(frozen=True)
class TrainConfig:
    """SGD hyper-parameters."""

    epochs: int = 10
    batch_size: int = 256
    learning_rate: float = 0.05
    momentum: float = 0.9
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be positive")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("momentum must be in [0, 1)")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")


def train_dnn(
    dnn: Dnn,
    features: np.ndarray,
    labels: np.ndarray,
    config: TrainConfig = TrainConfig(),
) -> List[float]:
    """Train ``dnn`` in place; returns the per-epoch mean cross-entropy.

    ``dnn`` is the float64 master (what ``Dnn(...)`` builds); the
    single-precision net that serves is a copy ``DnnScorer`` takes of it
    afterwards, so training arithmetic does not depend on how the net is
    deployed.

    Gradients go into one scratch buffer sized for the largest layer,
    allocated once: each layer is updated as soon as its delta has been
    propagated through its not-yet-updated weights, so only one layer's
    gradient is live at a time.  Every element still goes through the
    same IEEE operations in the same order as a whole-net backward
    followed by a whole-net update, so the trained weights are the same
    bits.  What a step holds beyond the net is its velocity, one layer's
    gradient and one batch's activations.

    Args:
        features: ``(num_frames, input_dim)``.
        labels: ``(num_frames,)`` 0-based class ids.
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if x.ndim != 2 or len(x) != len(y):
        raise ConfigError("features/labels shape mismatch")
    if y.min() < 0 or y.max() >= dnn.config.num_classes:
        raise ConfigError("label out of range")

    dnn.set_normalization(x.mean(axis=0), x.std(axis=0))

    rng = make_rng(config.seed, "dnn-train")
    velocity_w = [np.zeros_like(w) for w in dnn.weights]
    velocity_b = [np.zeros_like(b) for b in dnn.biases]
    # One buffer each for weight and bias gradients; every layer's
    # gradient is a view of its head (see _backward's ``step``).
    scratch_w = np.empty(max(w.size for w in dnn.weights))
    scratch_b = np.empty(max(b.size for b in dnn.biases))
    grads_w = [scratch_w[: w.size].reshape(w.shape) for w in dnn.weights]
    grads_b = [scratch_b[: b.size] for b in dnn.biases]

    def step(i: int) -> None:
        # v = momentum * v - learning_rate * g, in place: the same IEEE
        # operations in the same order, no temporaries.
        for p, v, g in (
            (dnn.weights[i], velocity_w[i], grads_w[i]),
            (dnn.biases[i], velocity_b[i], grads_b[i]),
        ):
            v *= config.momentum
            g *= config.learning_rate
            v -= g
            p += v

    losses: List[float] = []
    for _ in range(config.epochs):
        order = rng.permutation(len(x))
        epoch_loss = 0.0
        n_batches = 0
        for lo in range(0, len(x), config.batch_size):
            batch = order[lo : lo + config.batch_size]
            loss, _, _ = _backward(
                dnn, x[batch], y[batch], grads_w, grads_b, step
            )
            epoch_loss += loss
            n_batches += 1
        losses.append(epoch_loss / max(n_batches, 1))
    return losses


def _backward(
    dnn: Dnn,
    x: np.ndarray,
    y: np.ndarray,
    grads_w: Optional[List[np.ndarray]] = None,
    grads_b: Optional[List[np.ndarray]] = None,
    step: Optional[Callable[[int], None]] = None,
) -> Tuple[float, List[np.ndarray], List[np.ndarray]]:
    """One forward/backward pass; returns (loss, weight grads, bias grads).

    Layer ``i``'s gradients are written into ``grads_w[i]`` /
    ``grads_b[i]`` when given (fresh arrays otherwise), and
    ``step(i)`` runs once they are complete and the delta has been
    propagated through ``dnn.weights[i]`` -- so ``step`` may update
    layer ``i`` in place, and layers may share one gradient buffer.
    The delta takes over each activation's memory as it leaves it.
    """
    log_post, activations = dnn.forward(x, keep_activations=True)
    batch = len(x)
    loss = float(-log_post[np.arange(batch), y].mean())

    probs = np.exp(log_post)
    delta = probs
    delta[np.arange(batch), y] -= 1.0
    delta /= batch

    if grads_w is None:
        grads_w = [np.empty_like(w) for w in dnn.weights]
    if grads_b is None:
        grads_b = [np.empty_like(b) for b in dnn.biases]
    for i in range(len(dnn.weights) - 1, -1, -1):
        below = activations.pop()
        np.matmul(below.T, delta, out=grads_w[i])
        np.sum(delta, axis=0, out=grads_b[i])
        if i > 0:
            active = below > 0
            delta = np.matmul(delta, dnn.weights[i].T, out=below)
            delta *= active
        if step is not None:
            step(i)
    return loss, grads_w, grads_b
