"""Tests for the DNN acoustic model, trainer, and scorers."""

import tracemalloc

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
from repro.acoustic.dnn import EVAL_BLOCK_ROWS, GEMM_BLOCK_ROWS, _affine
from repro.acoustic.trainer import _backward
from repro.common.cpu import BlasPool
from repro.frontend import PhoneAlignment


# benchmarks/e2e's model shape: gemms large enough for BLAS to split.
E2E_SHAPE = DnnConfig(195, (512, 512, 512), 41)


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


class TestBlockedEvaluation:
    """``log_posteriors`` walks the rows in fixed blocks; a dataset-wide
    ``predict`` held every layer's activations for every row at once."""

    ROWS = 3 * EVAL_BLOCK_ROWS + 77  # several blocks plus a tail

    def test_blocked_equals_one_forward_bitwise(self):
        assert EVAL_BLOCK_ROWS % GEMM_BLOCK_ROWS == 0
        net = Dnn(DnnConfig(24, (64, 64), 9), seed=5)
        x = np.random.default_rng(1).normal(size=(self.ROWS, 24))
        for model in (net, net.astype(np.float32)):
            whole, _ = model.forward(x)
            blocked = model.log_posteriors(x)
            assert blocked.dtype == whole.dtype
            np.testing.assert_array_equal(blocked, whole)
            np.testing.assert_array_equal(
                model.predict(x), np.argmax(whole, axis=1)
            )

    def test_predict_holds_one_block_of_activations(self):
        net = Dnn(DnnConfig(40, (256, 256), 40), seed=2)
        rows = 8 * EVAL_BLOCK_ROWS + 77
        x = np.random.default_rng(3).normal(size=(rows, 40))
        # One hidden layer's activations for every row: less than a
        # single forward over the whole batch holds at once.
        one_layer = rows * 256 * x.itemsize
        tracemalloc.start()
        try:
            net.predict(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < one_layer


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

    def test_step_holds_one_layers_gradient(self):
        """``benchmarks/e2e``'s training set-up (4,235 spliced frames,
        three 512-wide layers): a step held every layer's gradient,
        plus the temporaries of its delta, about 20 MiB under
        tracemalloc.  It holds the velocity, one layer's gradient and
        one batch's activations, give or take 1 MiB."""
        config = DnnConfig(210, (512, 512, 512), 40)
        rng = np.random.default_rng(27)
        feats = rng.normal(size=(4235, config.input_dim))
        labels = rng.integers(0, config.num_classes, size=4235)
        dnn = Dnn(config, seed=0)
        train = TrainConfig(epochs=1, seed=0)
        layers = [w.nbytes + b.nbytes for w, b in zip(dnn.weights, dnn.biases)]
        widths = config.input_dim + sum(config.hidden_dims) + config.num_classes
        activations = train.batch_size * widths * feats.itemsize
        tracemalloc.start()
        try:
            train_dnn(dnn, feats, labels, train)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= sum(layers) + max(layers) + activations + 2**20

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
        dnn = Dnn(E2E_SHAPE, seed=3)
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


def _float64_affine_reference(x, w, b):
    """``_affine`` as it read before it became dtype-generic: float64
    throughout, the pad allocated on every call."""
    n = x.shape[0]
    out = np.empty((n, w.shape[1]), dtype=np.float64)
    pad = np.zeros((GEMM_BLOCK_ROWS, x.shape[1]), dtype=np.float64)
    for start in range(0, n, GEMM_BLOCK_ROWS):
        stop = min(start + GEMM_BLOCK_ROWS, n)
        rows = stop - start
        if rows == GEMM_BLOCK_ROWS:
            np.matmul(x[start:stop], w, out=out[start:stop])
        else:
            pad[:rows] = x[start:stop]
            out[start:stop] = np.matmul(pad, w)[:rows]
    out += b
    return out


class TestSinglePrecision:
    """One forward, two dtypes: the trainer's float64 master and the
    float32 copy ``DnnScorer`` deploys."""

    def test_astype_copies_everything_contiguous(self, tiny_dnn):
        rng = np.random.default_rng(21)
        tiny_dnn.set_normalization(rng.normal(size=8), rng.uniform(0.5, 2, 8))
        tiny_dnn.weights[0] = np.asfortranarray(tiny_dnn.weights[0])
        net = tiny_dnn.astype(np.float32)
        assert net.dtype == np.float32 and tiny_dnn.dtype == np.float64
        assert net.config is tiny_dnn.config
        pairs = list(zip(net.weights + net.biases, tiny_dnn.weights + tiny_dnn.biases))
        pairs += [(net.input_mean, tiny_dnn.input_mean),
                  (net.input_std, tiny_dnn.input_std)]
        for copy, master in pairs:
            assert copy.dtype == np.float32 and master.dtype == np.float64
            assert copy.flags.c_contiguous
            np.testing.assert_array_equal(copy, master.astype(np.float32))
        # A copy even when there is nothing to cast.
        same = tiny_dnn.astype(np.float64)
        assert not np.shares_memory(same.weights[0], tiny_dnn.weights[0])
        assert not np.shares_memory(same.input_mean, tiny_dnn.input_mean)

    def test_set_normalization_keeps_the_nets_dtype(self, tiny_dnn):
        """A float64 mean on a float32 net used to promote every
        activation and fail inside ``_affine``'s ``matmul(out=)``."""
        net = tiny_dnn.astype(np.float32)
        x = np.random.default_rng(22).normal(size=(40, 8))
        net.set_normalization(x.mean(axis=0), np.zeros(8))  # float64 in
        assert net.input_mean.dtype == np.float32
        assert net.input_std.dtype == np.float32
        assert (net.input_std == np.float32(1e-6)).all()  # the std floor
        net.set_normalization(x.mean(axis=0), x.std(axis=0))
        log_post = net.log_posteriors(x)
        assert log_post.dtype == np.float32
        tiny_dnn.set_normalization(x.mean(axis=0), x.std(axis=0))
        np.testing.assert_allclose(
            log_post, tiny_dnn.log_posteriors(x), rtol=0, atol=1e-5
        )

    def test_float64_affine_is_the_reference_bit_for_bit(self):
        """The master's arithmetic did not move: same blocks, same pad,
        so ``train_dnn`` returns the weights it always did."""
        rng = np.random.default_rng(23)
        w, b = rng.normal(size=(24, 17)), rng.normal(size=17)
        for n in (0, 1, 31, 32, 33, 64, 71, 96):
            x = rng.normal(size=(n, 24))
            np.testing.assert_array_equal(
                _affine(x, w, b), _float64_affine_reference(x, w, b)
            )

    def test_training_stays_float64_and_deploying_leaves_it_alone(self):
        rng = np.random.default_rng(24)
        feats = rng.normal(size=(300, 10))
        labels = rng.integers(0, 4, size=300)

        def trained():
            dnn = Dnn(DnnConfig(10, (16,), 4), seed=0)
            train_dnn(dnn, feats, labels, TrainConfig(epochs=3, seed=0))
            return dnn

        def state(dnn):
            arrays = dnn.weights + dnn.biases + [dnn.input_mean, dnn.input_std]
            assert all(a.dtype == np.float64 for a in arrays)
            return b"".join(a.tobytes() for a in arrays)

        dnn = trained()
        before = state(dnn)
        assert before == state(trained())  # same seed, same bytes
        scorer = DnnScorer(dnn, DnnScorer.priors_from_labels(labels, 4))
        scorer.score(feats)
        assert scorer.dnn is not dnn and scorer.dnn.dtype == np.float32
        assert state(dnn) == before

    def test_float32_forward_stability_fuzz(self):
        """sgemm blocks are as stable as dgemm ones: 200 gathers of rows
        (repeats included, 1-400 rows, across and exactly on block
        boundaries), half at the default BLAS pool size and half at one
        thread, each score every row to the bits the whole-matrix
        forward gave it."""
        net = Dnn(E2E_SHAPE, seed=3).astype(np.float32)
        rng = np.random.default_rng(25)
        x = rng.normal(size=(400, 195)).astype(np.float32)
        net.set_normalization(x.mean(axis=0), x.std(axis=0))
        whole = net.log_posteriors(x)
        assert whole.dtype == np.float32

        def check_gathers(count):
            sizes = [1, 31, 32, 33, 64, 320, 400]
            sizes += rng.integers(1, 401, size=count - len(sizes)).tolist()
            for size in sizes:
                rows = rng.integers(0, 400, size=size)
                assert np.array_equal(net.log_posteriors(x[rows]), whole[rows])

        check_gathers(100)
        # A no-op where the pool is one thread already (CI's
        # OPENBLAS_NUM_THREADS=1 step) or the BLAS is uncontrolled.
        pool = BlasPool()
        previous = pool.lower(1)
        try:
            check_gathers(100)
        finally:
            pool.restore(previous)

    def test_scorer_deploys_float32_into_float64_scores(self, tiny_dnn):
        priors = DnnScorer.priors_from_labels(np.arange(5), 5)
        scorer = DnnScorer(tiny_dnn, priors, acoustic_scale=0.7)
        feats = np.random.default_rng(26).normal(size=(9, 8))
        rows = scorer.log_likelihood_rows(feats)
        assert rows.dtype == np.float32
        matrix = scorer.score(feats).matrix
        assert matrix.dtype == np.float64
        # Widening is exact: the plane holds float32 values, which is
        # what AcousticScores.frame_bytes_on_chip charges for.
        np.testing.assert_array_equal(matrix[:, 1:], rows)
        np.testing.assert_array_equal(
            matrix, matrix.astype(np.float32).astype(np.float64)
        )
        # A float32 copy of the features is the same input.
        np.testing.assert_array_equal(
            scorer.score(feats.astype(np.float32)).matrix, matrix
        )


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
