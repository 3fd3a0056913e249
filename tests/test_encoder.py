"""Window ops, swin block identities, masking, and the global encoder."""

import numpy as np
import pytest

from vindet import encoder
from vindet import tensor as T
from vindet.config import ExperimentConfig
from vindet.encoder import (
    GlobalEncoder,
    PatchMerging,
    StagePlan,
    SwinBlock,
    ViewBranch,
    WindowAttention,
    window_merge,
    window_partition,
)
from vindet.gradcheck import finite_diff_check
from vindet.model import InpaintingDetector
from vindet.tensor import Tensor, backward
from reference_ops import capture_attention


def _swin_reference_mask(s_pad, m, shift, s_real, dtype):
    """The shift mask as the Swin reference code builds it, for grids that
    need no padding: region labels are laid out on the already shifted grid,
    cut at -m and -shift on each axis, and partitioned like the data."""
    if shift == 0:
        return None
    assert s_pad == s_real
    region = np.zeros((s_real, s_real))
    bounds = (slice(0, -m), slice(-m, -shift), slice(-shift, None))
    for rid, (hs, ws) in enumerate((hs, ws) for hs in bounds for ws in bounds):
        region[hs, ws] = rid
    win = region.reshape(-1)[encoder._window_index(s_real, m, 0)[0]].reshape(-1, m * m)
    return np.where(win[:, :, None] != win[:, None, :], encoder.MASK_NEG, 0.0).astype(dtype)


def _zero_residuals(block: SwinBlock):
    """Neutralize a block: zero attention output proj and MLP second layer."""
    block.attn.wo.w.data[:] = 0.0
    block.attn.wo.b.data[:] = 0.0
    block.mlp.fc2.w.data[:] = 0.0
    block.mlp.fc2.b.data[:] = 0.0


class TestWindows:
    def test_window_count(self):
        x = Tensor(np.random.default_rng(0).normal(size=(1, 8, 8, 4)))
        windows, meta = window_partition(x, 4)
        assert windows.shape == (4, 16, 4)

    def test_roundtrip_bitwise(self):
        x = np.random.default_rng(1).normal(size=(2, 8, 8, 3)).astype(T.compute_dtype())
        windows, meta = window_partition(Tensor(x), 4)
        back = window_merge(windows, meta)
        assert np.array_equal(back.data, x)

    def test_ragged_side_padded_and_stripped(self):
        x = np.random.default_rng(2).normal(size=(1, 6, 6, 2)).astype(T.compute_dtype())
        windows, meta = window_partition(Tensor(x), 4)
        assert windows.shape[0] == 4  # padded to 8 -> 2x2 windows
        back = window_merge(windows, meta)
        assert back.shape == (1, 6, 6, 2)
        assert np.array_equal(back.data, x)


class TestSwinBlock:
    @pytest.mark.usefixtures("float64")
    def test_zeroed_projections_make_identity(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 8, 8, 8))
        for shifted in (False, True):
            block = SwinBlock(8, 2, 4, shifted, np.random.default_rng(4))
            _zero_residuals(block)
            out = block(Tensor(x))
            assert np.max(np.abs(out.data - x)) <= 1e-12

    @pytest.mark.usefixtures("float64")
    def test_single_token_window_attention_returns_value(self):
        # softmax over one key is 1, so attention output is v at that token
        rng = np.random.default_rng(5)
        attn = WindowAttention(4, 1, 1, rng)
        x = rng.normal(size=(3, 1, 4))
        out = attn(Tensor(x))
        v = x @ attn.wv.w.data + attn.wv.b.data
        expect = v @ attn.wo.w.data + attn.wo.b.data
        np.testing.assert_allclose(out.data, expect, atol=1e-12)

    def test_cyclic_shift_roundtrip(self):
        # the shift lives in the window index: windows of the rolled grid,
        # and merging them back undoes the roll
        x = np.random.default_rng(6).normal(size=(1, 8, 8, 2)).astype(T.compute_dtype())
        windows, meta = window_partition(Tensor(x), 4, shift=2)
        rolled, _ = window_partition(Tensor(np.roll(x, (-2, -2), axis=(1, 2))), 4)
        assert np.array_equal(windows.data, rolled.data)
        assert np.array_equal(window_merge(windows, meta).data, x)

    def test_shifted_mask_confines_attention_to_regions(self, monkeypatch):
        # two-region construction: rows sum to one over the own pre-shift region
        rng = np.random.default_rng(7)
        block = SwinBlock(8, 2, 4, True, np.random.default_rng(8))
        x = Tensor(rng.normal(size=(1, 8, 8, 8)))
        weights = capture_attention(monkeypatch)
        block(x)
        attn, = weights  # (windows, heads, 16, 16)
        from vindet.encoder import _shift_mask
        mask = _shift_mask(8, 4, 2, 8, T.compute_dtype())
        allowed = mask == 0.0
        for k in range(attn.shape[0]):
            for h in range(attn.shape[1]):
                own = np.where(allowed[k], attn[k, h], 0.0).sum(axis=1)
                np.testing.assert_allclose(own, 1.0, atol=1e-6)
                leaked = np.where(~allowed[k], attn[k, h], 0.0).sum()
                assert leaked <= 1e-6


    @pytest.mark.parametrize("s, m, shift", [(6, 4, 2), (5, 4, 2), (10, 4, 2), (7, 3, 1),
                                             (8, 4, 2), (6, 4, 0)])
    def test_shift_mask_follows_window_contents(self, s, m, shift):
        # tag every cell with (row, col) + 1, so padding reads 0, and cut the
        # windows as the data is cut: a pair may attend exactly when both
        # cells are padding, or both are real and on the same side of the
        # wrap seam (row or column below shift) on each axis
        r = np.arange(1.0, s + 1.0)
        grid = np.stack(np.broadcast_arrays(r[:, None], r[None, :]), axis=-1)[None]
        windows, meta = window_partition(Tensor(grid), m, shift)
        cells = windows.data.astype(int) - 1
        pad = (cells < 0).any(axis=-1)
        band = cells < shift
        same = (band[:, :, None] == band[:, None, :]).all(axis=-1)
        both_pad = pad[:, :, None] & pad[:, None, :]
        both_real = ~pad[:, :, None] & ~pad[:, None, :]
        expected = both_pad | (both_real & same)
        assert np.array_equal(
            encoder._shift_mask(meta[2], m, shift, s, T.compute_dtype()) == 0.0, expected)

    def test_unpadded_grids_keep_their_masks(self, monkeypatch):
        # the desk, wide and paper grids never pad, so their masks and the
        # desk forward are those of the Swin reference construction
        for s, m in [(8, 4), (16, 4), (56, 7), (28, 7), (14, 7)]:
            assert np.array_equal(encoder._shift_mask(s, m, m // 2, s, T.compute_dtype()),
                                  _swin_reference_mask(s, m, m // 2, s, T.compute_dtype()))
        model = InpaintingDetector(ExperimentConfig())
        rng = np.random.default_rng(12)
        for p in model.registry().values():
            p.data[...] += rng.normal(0.0, 0.05, size=p.data.shape)
        frames = rng.uniform(0, 1, size=(2, 3, 32, 32, 3))
        with T.no_grad():
            now = model(frames).data
            monkeypatch.setattr(encoder, "_shift_mask", _swin_reference_mask)
            reference = model(frames).data
        assert np.array_equal(now, reference)

    @pytest.mark.parametrize("s, counts", [
        (8, [0, 128, 128, 192]),
        (16, [0, 0, 0, 128] * 3 + [128, 128, 128, 192]),
    ])
    def test_masked_pairs_per_shifted_window(self, s, counts):
        # window 4, shift 2: the window clear of the seam masks nothing, one
        # cut along the seam masks 2 * 8 * 8 of the 256 query/key pairs, and
        # the corner window cut on both axes masks 256 - 4 * 4 * 4
        mask = encoder._shift_mask(s, 4, 2, s, T.compute_dtype())
        assert (mask != 0.0).sum(axis=(1, 2)).tolist() == counts


class TestViewBranch:
    def test_two_stage_shapes(self):
        rng = np.random.default_rng(9)
        plans = [StagePlan(1, 4, 2), StagePlan(1, 4, 2)]
        branch = ViewBranch(8, plans, rng)
        x = Tensor(np.random.default_rng(10).normal(size=(1, 3, 8, 8, 8)))
        s0 = branch.run_stage(x, 0)
        s1 = branch.run_stage(s0, 1)
        assert s0.shape == (1, 3, 8, 8, 8)
        assert s1.shape == (1, 3, 4, 4, 16)

    @pytest.mark.usefixtures("float64")
    def test_neutralized_stage_is_merged_input(self):
        rng = np.random.default_rng(11)
        plans = [StagePlan(2, 4, 2)]
        branch = ViewBranch(8, plans, rng)
        for block in branch.stages[0]:
            _zero_residuals(block)
        x = np.random.default_rng(12).normal(size=(1, 1, 8, 8, 8))
        out = branch.run_stage(Tensor(x), 0)
        assert np.max(np.abs(out.data - x)) <= 1e-12

    def test_gradient_through_two_stages(self):
        rng = np.random.default_rng(13)
        plans = [StagePlan(1, 2, 2), StagePlan(1, 2, 2)]
        branch = ViewBranch(4, plans, rng)

        def f(x):
            s0 = branch.run_stage(x, 0)
            return T.reduce_sum(branch.run_stage(s0, 1) ** 2)

        x0 = Tensor(np.random.default_rng(14).normal(size=(1, 1, 4, 4, 4)) * 0.5)
        rep = finite_diff_check(f, x0, eps=1e-6, tol=1e-4)
        assert rep.passed, rep

    def test_too_small_side_rejected(self):
        branch = ViewBranch(4, [StagePlan(1, 4, 2)], np.random.default_rng(15))
        with pytest.raises(T.ShapeError):
            branch.run_stage(Tensor(np.zeros((1, 1, 2, 2, 4))), 0)


class TestPatchMerging:
    def test_halves_side_doubles_channels(self):
        pm = PatchMerging(6, np.random.default_rng(16))
        out = pm(Tensor(np.random.default_rng(17).normal(size=(2, 8, 8, 6))))
        assert out.shape == (2, 4, 4, 12)

    def test_odd_side_rejected(self):
        pm = PatchMerging(4, np.random.default_rng(18))
        with pytest.raises(T.ShapeError):
            pm(Tensor(np.zeros((1, 5, 5, 4))))


class TestGlobalEncoder:
    def test_depth_zero_is_patch_embedding(self):
        rng = np.random.default_rng(19)
        enc = GlobalEncoder(3, 8, 32, 0, 2, rng)
        frame = Tensor(np.random.default_rng(20).uniform(0, 1, size=(1, 32, 32, 3)))
        out = enc(frame)
        embed = enc.embed(frame)
        assert out.shape == (1, 4, 4, 32)
        np.testing.assert_array_equal(out.data, embed.data)

    def test_desk_shape(self):
        enc = GlobalEncoder(3, 8, 32, 2, 2, np.random.default_rng(21))
        out = enc(Tensor(np.random.default_rng(22).uniform(0, 1, size=(1, 32, 32, 3))))
        assert out.shape == (1, 4, 4, 32)

    @pytest.mark.usefixtures("float64")
    def test_permutation_equivariance(self):
        # no positional term: swapping two patch contents swaps their outputs
        rng = np.random.default_rng(23)
        enc = GlobalEncoder(3, 8, 16, 2, 2, rng)
        frame = np.random.default_rng(24).uniform(0, 1, size=(16, 16, 3))
        swapped = frame.copy()
        swapped[:8, :8], swapped[:8, 8:] = frame[:8, 8:].copy(), frame[:8, :8].copy()
        a = enc(Tensor(frame[None])).data[0]
        b = enc(Tensor(swapped[None])).data[0]
        np.testing.assert_allclose(b[0, 0], a[0, 1], atol=1e-10)
        np.testing.assert_allclose(b[0, 1], a[0, 0], atol=1e-10)
        np.testing.assert_allclose(b[1, :], a[1, :], atol=1e-10)

    def test_gradient_reaches_all_blocks(self):
        enc = GlobalEncoder(3, 4, 8, 1, 2, np.random.default_rng(25))
        frame = Tensor(np.random.default_rng(26).uniform(0, 1, size=(1, 8, 8, 3)))
        backward(T.reduce_sum(enc(frame) ** 2))
        for name, p in enc.named_parameters():
            assert p.grad is not None, name
