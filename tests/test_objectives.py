"""Loss identities, metric oracles, and AUC properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vindet import tensor as T
from vindet.objectives import (
    LossConfig,
    f1_metric,
    focal_loss,
    frame_score_auc,
    miou_loss,
    miou_metric,
    total_loss,
)
from vindet.tensor import ShapeError, Tensor, backward, finite_diff_check


CFG = LossConfig()


class TestMiouLoss:
    def test_perfect_prediction_is_zero(self):
        gt = np.zeros((8, 8))
        gt[2:5, 2:5] = 1.0
        assert miou_loss(Tensor(gt), Tensor(gt)).item() == pytest.approx(0.0, abs=1e-12)

    def test_disjoint_is_one(self):
        m = Tensor(np.ones((4, 4)))
        gt = Tensor(np.zeros((4, 4)))
        assert miou_loss(m, gt).item() == pytest.approx(1.0, abs=1e-12)

    def test_half_confidence(self):
        m = Tensor(np.full((4, 4), 0.5))
        gt = Tensor(np.ones((4, 4)))
        assert miou_loss(m, gt).item() == pytest.approx(0.5, abs=1e-12)

    def test_both_empty_defined_as_zero(self):
        z = Tensor(np.zeros((4, 4)))
        assert miou_loss(z, z).item() == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            miou_loss(Tensor(np.zeros((2, 2))), Tensor(np.zeros((3, 3))))

    def test_matches_one_minus_metric_on_binary(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = (rng.uniform(size=(8, 8)) > 0.5).astype(float)
            gt = (rng.uniform(size=(8, 8)) > 0.7).astype(float)
            soft = miou_loss(Tensor(m), Tensor(gt)).item()
            assert soft == pytest.approx(1.0 - miou_metric(m, gt), abs=1e-12)


class TestFocalLoss:
    def test_gamma_zero_is_half_bce(self):
        rng = np.random.default_rng(1)
        m = rng.uniform(0.05, 0.95, size=(8, 8))
        gt = (rng.uniform(size=(8, 8)) > 0.6).astype(float)
        cfg = LossConfig(alpha=0.5, gamma=0.0)
        got = focal_loss(Tensor(m), Tensor(gt), cfg).item()
        eps = cfg.eps
        bce = -np.mean(gt * np.log(m + eps) + (1 - gt) * np.log(1 - m + eps))
        assert got == pytest.approx(0.5 * bce, abs=1e-10)

    def test_single_pixel_frozen_value(self):
        # independent evaluation: alpha*(1-m)^gamma * (-log(m+eps))
        # = 0.25 * 0.25 * -log(0.5 + 1e-7) = 0.043321682...
        expected = 0.25 * 0.25 * -math.log(0.5 + 1e-7)
        got = focal_loss(Tensor(np.array([0.5])), Tensor(np.array([1.0])),
                         LossConfig(alpha=0.25, gamma=2.0)).item()
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.0433, abs=1e-4)

    def test_perfect_binary_prediction_near_zero(self):
        gt = np.zeros((6, 6))
        gt[1:3, 1:3] = 1.0
        loss = focal_loss(Tensor(gt.copy()), Tensor(gt), CFG).item()
        assert abs(loss) <= 1e-6

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_permutation_invariant(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.uniform(0.01, 0.99, size=36)
        gt = (rng.uniform(size=36) > 0.5).astype(float)
        perm = rng.permutation(36)
        a = focal_loss(Tensor(m), Tensor(gt), CFG).item()
        b = focal_loss(Tensor(m[perm]), Tensor(gt[perm]), CFG).item()
        assert a == pytest.approx(b, rel=1e-12)


class TestTotalLoss:
    def test_weight_selection(self):
        rng = np.random.default_rng(2)
        m = Tensor(rng.uniform(0.1, 0.9, size=(6, 6)))
        gt = Tensor((rng.uniform(size=(6, 6)) > 0.5).astype(float))
        only_iou = LossConfig(lambda_miou=1.0, lambda_focal=0.0)
        only_focal = LossConfig(lambda_miou=0.0, lambda_focal=1.0)
        assert total_loss(m, gt, only_iou).item() == pytest.approx(miou_loss(m, gt).item(), abs=1e-14)
        assert total_loss(m, gt, only_focal).item() == pytest.approx(
            focal_loss(m, gt, only_focal).item(), abs=1e-14)

    def test_gradient_check(self):
        rng = np.random.default_rng(3)
        gt = Tensor((rng.uniform(size=(5, 5)) > 0.5).astype(float))
        x0 = Tensor(rng.uniform(0.15, 0.85, size=(5, 5)))
        rep = finite_diff_check(lambda m: total_loss(m, gt, CFG), x0, eps=1e-6, tol=1e-6)
        assert rep.passed, rep

    def test_batch_is_mean_of_per_map_losses(self):
        # a (3,H,W) batch whose middle map has all-zero prediction and truth,
        # against one call per map averaged as a chain
        rng = np.random.default_rng(5)
        m = rng.uniform(0.1, 0.9, size=(3, 6, 6))
        gt = (rng.uniform(size=(3, 6, 6)) > 0.5).astype(float)
        m[1] = gt[1] = 0.0
        batch = Tensor(m, requires_grad=True)
        loss = total_loss(batch, Tensor(gt), CFG)
        backward(loss)
        maps = [Tensor(x, requires_grad=True) for x in m]
        per_map = [total_loss(x, Tensor(g), CFG) for x, g in zip(maps, gt)]
        backward((per_map[0] + per_map[1] + per_map[2]) * (1.0 / 3))
        want = float(np.mean([t.item() for t in per_map]))
        assert abs(loss.item() - want) <= np.spacing(want)
        assert np.array_equal(batch.grad, np.stack([x.grad for x in maps]))
        iou = miou_loss(batch, Tensor(gt)).data
        assert iou.shape == (3,) and iou[1] == 0.0 and iou[0] > 0.0

    def test_differentiable_through_sigmoid(self):
        rng = np.random.default_rng(4)
        logits = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        gt = Tensor((rng.uniform(size=(4, 4)) > 0.5).astype(float))
        backward(total_loss(T.sigmoid(logits), gt, CFG))
        assert logits.grad is not None and np.all(np.isfinite(logits.grad))


def _metric_oracle(m, gt, thr=0.5):
    tp = fp = fn = 0
    for i in range(m.shape[0]):
        for j in range(m.shape[1]):
            p = m[i, j] > thr
            a = gt[i, j] > 0.5
            tp += p and a
            fp += p and not a
            fn += (not p) and a
    iou = 1.0 if tp + fp + fn == 0 else tp / (tp + fp + fn)
    f1 = 1.0 if 2 * tp + fp + fn == 0 else 2 * tp / (2 * tp + fp + fn)
    return iou, f1


class TestMetrics:
    def test_perfect(self):
        gt = np.zeros((8, 8))
        gt[:4] = 1.0
        assert miou_metric(gt, gt) == 1.0
        assert f1_metric(gt, gt) == 1.0

    def test_half_coverage_no_false_positives(self):
        gt = np.zeros((8, 8))
        gt[:4] = 1.0
        m = np.zeros((8, 8))
        m[:2] = 1.0
        assert miou_metric(m, gt) == pytest.approx(0.5)
        assert f1_metric(m, gt) == pytest.approx(2 / 3)

    def test_disjoint(self):
        m = np.zeros((4, 4)); m[0] = 1.0
        gt = np.zeros((4, 4)); gt[2] = 1.0
        assert miou_metric(m, gt) == 0.0
        assert f1_metric(m, gt) == 0.0

    def test_against_counting_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            m = rng.uniform(size=(8, 8))
            gt = (rng.uniform(size=(8, 8)) > rng.uniform(0.2, 0.8)).astype(float)
            iou, f1 = _metric_oracle(m, gt)
            assert miou_metric(m, gt) == iou
            assert f1_metric(m, gt) == f1


class TestAuc:
    def test_perfect_separation(self):
        assert frame_score_auc([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]) == 1.0

    def test_all_ties(self):
        assert frame_score_auc([0.5, 0.5, 0.5, 0.5], [1, 1, 0, 0]) == 0.5

    def test_reversed(self):
        assert frame_score_auc([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0]) == 0.0

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            frame_score_auc([0.5, 0.6], [1, 1])

    def test_pairwise_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            n = rng.integers(4, 20)
            scores = rng.choice(np.linspace(0, 1, 11), size=n)
            labels = rng.uniform(size=n) > 0.5
            if labels.all() or not labels.any():
                labels[0] = ~labels[0]
            wins = ties = 0
            pos = scores[labels]
            neg = scores[~labels]
            for p in pos:
                for q in neg:
                    wins += p > q
                    ties += p == q
            expect = (wins + 0.5 * ties) / (len(pos) * len(neg))
            assert frame_score_auc(scores, labels) == expect

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_monotone_transform_invariance(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 16))
        scores = rng.uniform(size=n)
        labels = rng.uniform(size=n) > 0.5
        if labels.all() or not labels.any():
            labels[0] = ~labels[0]
        base = frame_score_auc(scores, labels)
        warped = frame_score_auc(np.exp(3 * scores) + 1, labels)
        assert base == pytest.approx(warped, abs=1e-12)


class TestLossConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            LossConfig(alpha=0.0).validate()
        with pytest.raises(ValueError):
            LossConfig(gamma=-1.0).validate()
        with pytest.raises(ValueError):
            LossConfig(eps=0.0).validate()
        assert LossConfig().validate() is not None
