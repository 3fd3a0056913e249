"""Deformable cross-view interaction: degeneracies, locality, gradients."""

import numpy as np
import pytest

from vindet import tensor as T
from vindet.gradcheck import finite_diff_check
from vindet.interaction import (
    AdjacentPair,
    DeformableWindowCrossAttention,
    OffsetNet,
    ViewInteraction,
    _cell_center_grid,
)
from vindet.tensor import Tensor


def _zero_theta(attn: DeformableWindowCrossAttention):
    attn.theta.fc1.w.data[:] = 0.0
    attn.theta.fc1.b.data[:] = 0.0
    attn.theta.fc2.w.data[:] = 0.0
    attn.theta.fc2.b.data[:] = 0.0


def _attend(attn, small, large):
    """Run the batched module on one (S,S,c) map pair."""
    return attn(Tensor(small[None]), Tensor(large[None])).data[0]


def _plain_window_cross_attention(small, large, attn):
    """Reference: window cross-attention at grid points, no sampling."""
    s, _, c = small.shape
    m = attn.window
    k = s // m
    wq, bq = attn.wq.w.data, attn.wq.b.data
    wk, bk = attn.wk.w.data, attn.wk.b.data
    wv, bv = attn.wv.w.data, attn.wv.b.data
    out = np.zeros_like(large)
    for wi in range(k):
        for wj in range(k):
            ws = small[wi * m:(wi + 1) * m, wj * m:(wj + 1) * m].reshape(m * m, c)
            wl = large[wi * m:(wi + 1) * m, wj * m:(wj + 1) * m].reshape(m * m, c)
            q = wl @ wq + bq
            kk = ws @ wk + bk
            vv = ws @ wv + bv
            scores = q @ kk.T / np.sqrt(c)
            scores -= scores.max(axis=1, keepdims=True)
            e = np.exp(scores)
            attn_p = e / e.sum(axis=1, keepdims=True)
            out[wi * m:(wi + 1) * m, wj * m:(wj + 1) * m] = (attn_p @ vv).reshape(m, m, c)
    return out


class TestReferenceGrid:
    def test_cell_centers(self):
        g = _cell_center_grid(4, T.compute_dtype())
        assert g.shape == (16, 2)
        np.testing.assert_allclose(g[0], [-0.75, -0.75])
        np.testing.assert_allclose(g[-1], [0.75, 0.75])


class TestDeformableAttention:
    def test_zero_offsets_match_plain_cross_attention(self):
        rng = np.random.default_rng(0)
        attn = DeformableWindowCrossAttention(6, 4, 1.0, np.random.default_rng(1))
        _zero_theta(attn)
        small = rng.normal(size=(8, 8, 6))
        large = rng.normal(size=(8, 8, 6))
        got = _attend(attn, small, large)
        want = _plain_window_cross_attention(small, large, attn)
        assert np.max(np.abs(got - want)) <= 1e-6

    @pytest.mark.usefixtures("float64")
    def test_single_cell_window_returns_sampled_value(self):
        rng = np.random.default_rng(2)
        attn = DeformableWindowCrossAttention(4, 1, 0.4, np.random.default_rng(3))
        _zero_theta(attn)
        small = rng.normal(size=(2, 2, 4))
        large = rng.normal(size=(2, 2, 4))
        got = _attend(attn, small, large)
        want = small @ attn.wv.w.data + attn.wv.b.data
        np.testing.assert_allclose(got, want, atol=1e-10)

    @pytest.mark.usefixtures("float64")
    def test_constant_small_view_ignores_offsets(self):
        rng = np.random.default_rng(4)
        attn = DeformableWindowCrossAttention(5, 4, 1.0, np.random.default_rng(5))
        # leave theta live with random weights
        attn.theta.fc2.w.data[:] = rng.normal(size=attn.theta.fc2.w.shape)
        small = np.broadcast_to(rng.normal(size=5), (8, 8, 5)).copy()
        large = rng.normal(size=(8, 8, 5))
        got = _attend(attn, small, large)
        want = small[0, 0] @ attn.wv.w.data + attn.wv.b.data
        np.testing.assert_allclose(got, np.broadcast_to(want, (8, 8, 5)), atol=1e-10)

    def test_window_locality(self):
        # sampling stays inside each window, so features outside it never leak
        rng = np.random.default_rng(6)
        attn = DeformableWindowCrossAttention(4, 4, 0.4, np.random.default_rng(7))
        small = rng.normal(size=(8, 8, 4))
        large = rng.normal(size=(8, 8, 4))
        base = _attend(attn, small, large)
        small2 = small.copy()
        small2[4:, :, :] += 10.0
        small2[:4, 4:, :] += 10.0
        bumped = _attend(attn, small2, large)
        np.testing.assert_allclose(bumped[:4, :4], base[:4, :4], atol=1e-12)

    def test_mismatched_maps_rejected(self):
        attn = DeformableWindowCrossAttention(4, 2, 1.0, np.random.default_rng(8))
        with pytest.raises(T.ShapeError):
            attn(Tensor(np.zeros((1, 4, 4, 4))), Tensor(np.zeros((1, 8, 8, 4))))

    def test_gradient_through_offsets_sampling_attention(self):
        rng = np.random.default_rng(9)
        attn = DeformableWindowCrossAttention(4, 2, 0.9, np.random.default_rng(10))
        # give theta non-zero weights so coordinate gradients are live
        attn.theta.fc2.w.data[:] = rng.normal(size=attn.theta.fc2.w.shape) * 0.5
        large = Tensor(rng.normal(size=(1, 4, 4, 4)) * 0.5)

        def f(small):
            return T.reduce_sum(attn(small, large) ** 2)

        x0 = Tensor(rng.normal(size=(1, 4, 4, 4)) * 0.5)
        rep = finite_diff_check(f, x0, eps=1e-6, tol=1e-4)
        assert rep.passed, rep

    def test_gradient_wrt_theta_weights(self):
        rng = np.random.default_rng(11)
        attn = DeformableWindowCrossAttention(4, 2, 0.9, np.random.default_rng(12))
        small = Tensor(rng.normal(size=(1, 4, 4, 4)) * 0.5)
        large = Tensor(rng.normal(size=(1, 4, 4, 4)) * 0.5)
        w2 = attn.theta.fc2.w

        def f(w):
            attn.theta.fc2.w = w
            try:
                return T.reduce_sum(attn(small, large) ** 2)
            finally:
                attn.theta.fc2.w = w2

        x0 = Tensor(rng.normal(size=w2.shape) * 0.5)
        rep = finite_diff_check(f, x0, eps=1e-6, tol=1e-4)
        assert rep.passed, rep


class TestAdjacentChain:
    def _views(self, rng, chans=(4, 6, 8)):
        shapes = [(1, 3, 8, 8, chans[0]), (1, 1, 8, 8, chans[1]), (1, 1, 8, 8, chans[2])]
        return [Tensor(rng.normal(size=s)) for s in shapes]

    def test_single_view_noop(self):
        inter = ViewInteraction([[4]], 4, 2, 1.0, np.random.default_rng(13))
        v = [Tensor(np.random.default_rng(14).normal(size=(1, 3, 8, 8, 4)))]
        out = inter(v, 0)
        assert out[0] is v[0]

    def test_zero_back_projection_is_inert_at_init(self):
        rng = np.random.default_rng(15)
        inter = ViewInteraction([[4, 6, 8]], 4, 2, 1.0, np.random.default_rng(16))
        views = self._views(rng)
        out = inter(views, 0)
        for a, b in zip(views, out):
            np.testing.assert_array_equal(a.data, b.data)

    def test_three_views_chain_in_ascending_order(self):
        rng = np.random.default_rng(17)
        inter = ViewInteraction([[4, 6, 8]], 4, 2, 1.0, np.random.default_rng(18))
        for pairs in inter.stages:
            for p in pairs:
                p.back.w.data[:] = rng.normal(size=p.back.w.shape) * 0.1
        views = self._views(rng)
        out = inter(views, 0)
        # smallest view untouched
        np.testing.assert_array_equal(out[0].data, views[0].data)
        # second pair must consume the already-updated middle view
        manual1 = inter.stages[0][0](views[0], views[1])
        manual2 = inter.stages[0][1](manual1, views[2])
        np.testing.assert_array_equal(out[1].data, manual1.data)
        np.testing.assert_array_equal(out[2].data, manual2.data)

    def test_temporal_collapse_mean(self):
        rng = np.random.default_rng(19)
        pair = AdjacentPair(4, 6, 5, 2, 1.0, np.random.default_rng(20))
        z_small = Tensor(rng.normal(size=(1, 3, 4, 4, 4)))
        z_large = Tensor(rng.normal(size=(1, 1, 4, 4, 6)))
        small2d, large2d = pair.align(z_small, z_large)
        assert small2d.shape == (1, 4, 4, 5)
        assert large2d.shape == (1, 4, 4, 5)
        want = z_small.data.mean(axis=1) @ pair.align_small.w.data + pair.align_small.b.data
        np.testing.assert_allclose(small2d.data, want, atol=1e-12)

    def test_mismatched_sides_rejected(self):
        pair = AdjacentPair(4, 4, 4, 2, 1.0, np.random.default_rng(21))
        with pytest.raises(T.ShapeError):
            pair(Tensor(np.zeros((1, 1, 4, 4, 4))), Tensor(np.zeros((1, 1, 8, 8, 4))))
