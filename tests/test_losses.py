import numpy as np
import pytest

from lanepost import (
    LossParams,
    grid_mean,
    penalized_dice_loss,
    penalized_dice_loss_gradient,
    penalized_ground_truth,
    pixel_accuracy,
)
from oracles import central_diff_gradient, scalar_dice_loss

# hand evaluation of the 2x2x2 one-lane-pixel / inverted-prediction case,
# frozen from the scalar oracle: 0.01998 / 1.00001
INVERTED_2X2_LOSS = 0.01997980020199798


def random_one_hot(rng, shape=(16, 16), lane_rate=0.1):
    lane = rng.random(shape) < lane_rate
    return np.stack([~lane, lane], axis=2).astype(float)


def one_lane_pixel_2x2():
    gt = np.zeros((2, 2, 2))
    gt[:, :, 0] = 1.0
    gt[0, 0, 0] = 0.0
    gt[0, 0, 1] = 1.0
    return gt


class TestPenalizedGroundTruth:
    def test_all_ones_channel_unchanged(self):
        gt = np.ones((3, 4, 1))
        out = penalized_ground_truth(gt, 0.01)
        assert np.array_equal(out, gt)

    def test_zero_entries_become_minus_alpha(self):
        gt = np.array([[[1.0, 0.0]]])
        out = penalized_ground_truth(gt, 0.01)
        assert np.array_equal(out, np.array([[[1.0, -0.01]]]))

    def test_alpha_zero_is_identity(self):
        gt = one_lane_pixel_2x2()
        assert np.array_equal(penalized_ground_truth(gt, 0.0), gt)

    def test_rejects_non_one_hot(self):
        bad = np.full((2, 2, 2), 0.5)
        with pytest.raises(ValueError):
            penalized_ground_truth(bad, 0.01)
        both_hot = np.ones((2, 2, 2))
        with pytest.raises(ValueError):
            penalized_ground_truth(both_hot, 0.01)


class TestGridMean:
    def test_constant_grid(self):
        assert grid_mean(np.ones((2, 2))) == 1.0
        assert grid_mean([[-0.01, -0.01]]) == -0.01

    def test_direct_arithmetic(self):
        assert grid_mean([[1.0, 0.0], [0.0, 0.0]]) == 0.25

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            grid_mean(np.empty((0, 3)))


class TestPenalizedDiceLoss:
    def test_perfect_prediction_is_minus_two(self):
        gt = one_lane_pixel_2x2()
        assert penalized_dice_loss(gt, gt.copy()) == -2.0

    def test_perfect_prediction_many_seeds(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            gt = random_one_hot(rng)
            assert penalized_dice_loss(gt, gt.copy()) == pytest.approx(-2.0, abs=1e-9)

    def test_perfect_prediction_any_alpha_any_channel_count(self):
        # the false-positive term multiplies zeros, so alpha cannot matter
        rng = np.random.default_rng(1)
        for channels in (1, 2, 3, 5):
            pick = rng.integers(0, channels, (6, 7))
            gt = np.eye(channels)[pick].astype(float)
            for alpha in (1e-4, 1e-2, 0.7):
                loss = penalized_dice_loss(gt, gt.copy(), LossParams(alpha=alpha))
                assert loss == -float(channels)

    def test_inverted_prediction_matches_hand_value(self):
        gt = one_lane_pixel_2x2()
        pred = 1.0 - gt
        loss = penalized_dice_loss(gt, pred)
        assert loss == pytest.approx(INVERTED_2X2_LOSS, abs=1e-12)
        assert loss == pytest.approx(scalar_dice_loss(gt, pred, 1e-2, 1e-5), abs=1e-12)

    def test_matches_scalar_oracle_on_random_volumes(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            gt = random_one_hot(rng, (6, 5))
            pred = rng.uniform(0.0, 1.0, gt.shape)
            assert penalized_dice_loss(gt, pred) == pytest.approx(
                scalar_dice_loss(gt, pred, 1e-2, 1e-5), abs=1e-12
            )

    def test_loss_rises_when_a_lane_score_drops(self):
        gt = one_lane_pixel_2x2()
        pred = gt.copy()
        pred[0, 0, 1] = 0.5
        assert penalized_dice_loss(gt, pred) > -2.0

    def test_spatial_permutation_invariance(self):
        rng = np.random.default_rng(3)
        gt = random_one_hot(rng, (8, 8))
        pred = rng.uniform(0.0, 1.0, gt.shape)
        base = penalized_dice_loss(gt, pred)
        perm = rng.permutation(64)
        gt_p = gt.reshape(64, 2)[perm].reshape(8, 8, 2)
        pred_p = pred.reshape(64, 2)[perm].reshape(8, 8, 2)
        assert penalized_dice_loss(gt_p, pred_p) == pytest.approx(base, rel=1e-12)

    def test_shape_mismatch_rejected(self):
        gt = one_lane_pixel_2x2()
        with pytest.raises(ValueError):
            penalized_dice_loss(gt, np.zeros((2, 3, 2)))

    @pytest.mark.parametrize("shape", [(2, 2), (4,), (2, 2, 2, 1), (0, 2, 2)])
    def test_what_is_not_a_volume_rejected(self, shape):
        with pytest.raises(ValueError, match=r"must be a non-empty \(H, W, C\) volume"):
            penalized_dice_loss(np.ones(shape), np.ones(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_prediction_rejected(self, bad):
        gt = one_lane_pixel_2x2()
        pred = gt.copy()
        pred[1, 0, 1] = bad
        with pytest.raises(ValueError, match="prediction contains non-finite values"):
            penalized_dice_loss(gt, pred)

    def test_out_of_range_prediction_rejected(self):
        gt = one_lane_pixel_2x2()
        pred = gt.copy()
        pred[0, 0, 0] = 1.5
        with pytest.raises(ValueError):
            penalized_dice_loss(gt, pred)
        pred[0, 0, 0] = -0.1
        with pytest.raises(ValueError):
            penalized_dice_loss(gt, pred)

    def test_params_validated(self):
        with pytest.raises(ValueError):
            LossParams(alpha=0.0)
        with pytest.raises(ValueError):
            LossParams(epsilon=-1e-5)


def fd_relative_error(grad, fd):
    # central differences of an O(1) loss carry ~1e-10 cancellation noise,
    # so entries whose true derivative is ~0 need an absolute floor; for
    # ordinary entries (|fd| ~ 1e-2..1) this is the plain relative error
    return float((np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-4)).max())


class TestGradient:
    def _fd(self, gt, pred, p=LossParams()):
        return central_diff_gradient(
            lambda q: scalar_dice_loss(gt, q, p.alpha, p.epsilon), pred, h=1e-6
        )

    def test_matches_finite_differences_at_optimum(self):
        # gt itself sits on the [0, 1] boundary; the scalar oracle has no
        # range check, so differencing straight through it is fine
        gt = one_lane_pixel_2x2()
        grad = penalized_dice_loss_gradient(gt, gt.copy())
        fd = self._fd(gt, gt.copy())
        assert fd_relative_error(grad, fd) < 1e-5

    def test_matches_finite_differences_random(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            gt = random_one_hot(rng, (8, 8), 0.2)
            pred = rng.uniform(0.0, 1.0, gt.shape)
            grad = penalized_dice_loss_gradient(gt, pred)
            fd = self._fd(gt, pred)
            rel = fd_relative_error(grad, fd)
            assert rel < 1e-5, f"seed {seed}: max rel {rel}"

    def test_channels_never_mix(self):
        rng = np.random.default_rng(11)
        gt = random_one_hot(rng, (6, 6))
        pred_a = rng.uniform(0.0, 1.0, gt.shape)
        pred_b = pred_a.copy()
        pred_b[:, :, 0] = rng.uniform(0.0, 1.0, (6, 6))  # channel 1 untouched
        grad_a = penalized_dice_loss_gradient(gt, pred_a)
        grad_b = penalized_dice_loss_gradient(gt, pred_b)
        assert np.array_equal(grad_a[:, :, 1], grad_b[:, :, 1])

    def test_validation_matches_loss(self):
        gt = one_lane_pixel_2x2()
        with pytest.raises(ValueError):
            penalized_dice_loss_gradient(gt, np.zeros((3, 3, 2)))


class TestPixelAccuracy:
    def test_perfect_and_inverted(self):
        rng = np.random.default_rng(0)
        gt = random_one_hot(rng)
        assert pixel_accuracy(gt, gt.copy()) == 1.0
        assert pixel_accuracy(gt, 1.0 - gt) == 0.0

    def test_half_flipped(self):
        gt = np.zeros((2, 2, 2))
        gt[:, :, 0] = 1.0
        pred = gt.copy()
        pred[0, :, :] = pred[0, :, ::-1]  # flip argmax on the top row
        assert pixel_accuracy(gt, pred) == 0.5

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        gt = random_one_hot(rng, (8, 8))
        pred = rng.uniform(0.0, 1.0, gt.shape)
        base = pixel_accuracy(gt, pred)
        perm = rng.permutation(64)
        gt_p = gt.reshape(64, 2)[perm].reshape(8, 8, 2)
        pred_p = pred.reshape(64, 2)[perm].reshape(8, 8, 2)
        assert pixel_accuracy(gt_p, pred_p) == base

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pixel_accuracy(np.ones((2, 2, 1)), np.ones((2, 3, 1)))
