"""Tests for the DNN acoustic model, trainer, and scorers."""

import numpy as np
import pytest

from repro.common.errors import ConfigError
from repro.acoustic import (
    Dnn,
    DnnConfig,
    DnnScorer,
    SyntheticScorer,
    TrainConfig,
    train_dnn,
)
from repro.acoustic.trainer import _backward
from repro.common.cpu import BlasPool
from repro.frontend import PhoneAlignment


@pytest.fixture()
def tiny_dnn():
    return Dnn(DnnConfig(input_dim=8, hidden_dims=(16,), num_classes=5), seed=3)


class TestDnnForward:
    def test_log_posteriors_normalised(self, tiny_dnn):
        x = np.random.default_rng(0).normal(size=(10, 8))
        log_post = tiny_dnn.log_posteriors(x)
        assert log_post.shape == (10, 5)
        sums = np.exp(log_post).sum(axis=1)
        assert np.allclose(sums, 1.0)

    def test_predict_shape(self, tiny_dnn):
        x = np.zeros((4, 8))
        assert tiny_dnn.predict(x).shape == (4,)

    def test_num_params(self, tiny_dnn):
        assert tiny_dnn.num_params == 8 * 16 + 16 + 16 * 5 + 5

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            DnnConfig(input_dim=0, hidden_dims=(4,), num_classes=3)
        with pytest.raises(ConfigError):
            DnnConfig(input_dim=4, hidden_dims=(0,), num_classes=3)


class TestGradients:
    def test_numerical_gradient_check(self, tiny_dnn):
        """Backprop must match finite differences."""
        rng = np.random.default_rng(1)
        x = rng.normal(size=(6, 8))
        y = rng.integers(0, 5, size=6)
        loss, grads_w, _grads_b = _backward(tiny_dnn, x, y)

        eps = 1e-6
        w = tiny_dnn.weights[0]
        for idx in [(0, 0), (3, 7), (7, 15)]:
            orig = w[idx]
            w[idx] = orig + eps
            loss_hi, _, _ = _backward(tiny_dnn, x, y)
            w[idx] = orig - eps
            loss_lo, _, _ = _backward(tiny_dnn, x, y)
            w[idx] = orig
            numeric = (loss_hi - loss_lo) / (2 * eps)
            assert grads_w[0][idx] == pytest.approx(numeric, abs=1e-4)


class TestTrainer:
    def test_learns_separable_task(self):
        rng = np.random.default_rng(2)
        centers = rng.normal(scale=3.0, size=(4, 10))
        labels = rng.integers(0, 4, size=600)
        feats = centers[labels] + rng.normal(scale=0.5, size=(600, 10))

        dnn = Dnn(DnnConfig(10, (32,), 4), seed=0)
        losses = train_dnn(
            dnn, feats, labels, TrainConfig(epochs=15, learning_rate=0.1, seed=0)
        )
        assert losses[-1] < losses[0] * 0.5
        accuracy = (dnn.predict(feats) == labels).mean()
        assert accuracy > 0.9

    def test_shape_mismatch_rejected(self, tiny_dnn):
        with pytest.raises(ConfigError):
            train_dnn(tiny_dnn, np.zeros((4, 8)), np.zeros(5, dtype=int))

    def test_label_out_of_range_rejected(self, tiny_dnn):
        with pytest.raises(ConfigError):
            train_dnn(tiny_dnn, np.zeros((2, 8)), np.array([0, 7]))


class TestScorers:
    def test_dnn_scorer_shape_and_epsilon_column(self, tiny_dnn):
        priors = DnnScorer.priors_from_labels(np.array([0, 1, 2, 3, 4]), 5)
        scorer = DnnScorer(tiny_dnn, priors)
        scores = scorer.score(np.zeros((7, 8)))
        assert scores.matrix.shape == (7, 6)
        assert (scores.matrix[:, 0] < -1e8).all()
        assert scores.num_phones == 5

    def test_priors_sum_to_one(self):
        priors = DnnScorer.priors_from_labels(np.array([0, 0, 1]), 3)
        assert np.exp(priors).sum() == pytest.approx(1.0)

    def test_synthetic_scorer_favours_true_phone(self):
        align = PhoneAlignment((3, 7), (5, 5))
        scorer = SyntheticScorer(num_phones=10, separation=5.0, noise=0.5, seed=1)
        scores = scorer.score(align)
        labels = align.frame_labels()
        for f in range(scores.num_frames):
            best = int(np.argmax(scores.matrix[f, 1:])) + 1
            assert best == labels[f]

    def test_synthetic_scores_are_log_likelihoods(self):
        align = PhoneAlignment((1,), (20,))
        scores = SyntheticScorer(num_phones=5, seed=2).score(align)
        assert (scores.matrix[:, 1:] <= 0).all()

    def test_score_accessors(self):
        align = PhoneAlignment((2,), (3,))
        scores = SyntheticScorer(num_phones=4, seed=3).score(align)
        assert scores.score(0, 2) == scores.matrix[0, 2]
        with pytest.raises(ConfigError):
            scores.score(0, 0)

    def test_invalid_scorer_config(self):
        with pytest.raises(ConfigError):
            SyntheticScorer(num_phones=1)
        with pytest.raises(ConfigError):
            SyntheticScorer(num_phones=5, separation=-1.0)


class TestDnnEdgeCases:
    def test_zero_frame_forward(self, tiny_dnn):
        log_post = tiny_dnn.log_posteriors(np.empty((0, 8)))
        assert log_post.shape == (0, 5)

    def test_single_frame_forward(self, tiny_dnn):
        log_post = tiny_dnn.log_posteriors(np.ones((1, 8)))
        assert log_post.shape == (1, 5)
        assert np.exp(log_post).sum() == pytest.approx(1.0)

    def test_normalization_round_trip(self, tiny_dnn):
        """set_normalization changes the forward pass; restoring the
        identity normalisation restores the exact original outputs."""
        x = np.random.default_rng(5).normal(size=(6, 8))
        before = tiny_dnn.log_posteriors(x)
        tiny_dnn.set_normalization(x.mean(axis=0), x.std(axis=0))
        normalised = tiny_dnn.log_posteriors(x)
        assert not np.array_equal(before, normalised)
        tiny_dnn.set_normalization(np.zeros(8), np.ones(8))
        after = tiny_dnn.log_posteriors(x)
        np.testing.assert_array_equal(before, after)

    def test_normalization_std_floor(self, tiny_dnn):
        """A zero std axis must not divide by zero."""
        tiny_dnn.set_normalization(np.zeros(8), np.zeros(8))
        assert np.isfinite(tiny_dnn.log_posteriors(np.ones((2, 8)))).all()

    def test_forward_batch_stability(self, tiny_dnn):
        """The invariant batched serving relies on: stacking frames with
        other frames changes no output bit (including across the
        GEMM_BLOCK_ROWS tail-padding boundary)."""
        rng = np.random.default_rng(9)
        x = rng.normal(size=(71, 8))  # not a multiple of the gemm block
        stacked = tiny_dnn.log_posteriors(x)
        for split in (1, 3, 32, 45):
            parts = [
                tiny_dnn.log_posteriors(x[i: i + split])
                for i in range(0, len(x), split)
            ]
            np.testing.assert_array_equal(np.vstack(parts), stacked)

    def test_forward_identical_at_any_blas_pool_size(self):
        """What the serving tier's core budget rests on: OpenBLAS splits
        a gemm over output rows/columns, never over the reduction, so the
        forward at one thread equals the forward at the default pool
        size bit for bit."""
        pool = BlasPool()
        default = pool.threads()
        if default == 0:
            pytest.skip("BLAS pool is uncontrolled (numpy is not on an "
                        "OpenBLAS that exports get/set_num_threads)")
        if default == 1:
            pytest.skip("default BLAS pool is already one thread: there "
                        "is no wider forward to compare with")
        # benchmarks/e2e's model shape: gemms large enough to be split.
        dnn = Dnn(DnnConfig(195, (512, 512, 512), 41), seed=3)
        rng = np.random.default_rng(13)
        # One chunk, a stack crossing the GEMM_BLOCK_ROWS padding
        # boundary, and a cross-session batch.
        stacks = [rng.normal(size=(rows, 195)) for rows in (7, 45, 300)]
        wide = [dnn.log_posteriors(x) for x in stacks]
        previous = pool.lower(1)
        try:
            assert pool.threads() == 1
            narrow = [dnn.log_posteriors(x) for x in stacks]
        finally:
            pool.restore(previous)
        assert pool.threads() == default
        for one, many in zip(narrow, wide):
            np.testing.assert_array_equal(one, many)

    def test_scorer_batch_stability(self, tiny_dnn):
        priors = DnnScorer.priors_from_labels(np.arange(5), 5)
        scorer = DnnScorer(tiny_dnn, priors, acoustic_scale=0.7)
        feats = np.random.default_rng(11).normal(size=(40, 8))
        whole = scorer.score(feats).matrix
        halves = np.vstack(
            [scorer.score(feats[:17]).matrix, scorer.score(feats[17:]).matrix]
        )
        np.testing.assert_array_equal(whole, halves)


class TestScoresFootprint:
    def test_size_bytes_is_true_memory_footprint(self):
        """size_bytes reports the host-side float64 matrix, all frames."""
        scores = SyntheticScorer(num_phones=4, seed=0).score(
            PhoneAlignment((1, 2), (3, 4))
        )
        assert scores.matrix.dtype == np.float64
        assert scores.size_bytes == scores.matrix.nbytes
        assert scores.size_bytes == 7 * 5 * 8  # frames x width x float64

    def test_frame_bytes_on_chip_is_float32_row(self):
        """The accelerator's ALB holds one float32 per column per frame."""
        scores = SyntheticScorer(num_phones=4, seed=0).score(
            PhoneAlignment((1,), (6,))
        )
        assert scores.frame_bytes_on_chip == 5 * 4
        # The two views answer different questions and must not agree
        # for a float64 host matrix with more than one frame.
        assert scores.size_bytes == scores.num_frames * 2 * scores.frame_bytes_on_chip
