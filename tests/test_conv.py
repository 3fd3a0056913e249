"""The per-offset convolution and the patch embeddings, against the im2col
convolution they replaced, and the padding-free forward and backward
against the padded per-offset forward and backward before them.

The bitwise (``tobytes()``) assertions assume that OpenBLAS rounds each row
of a GEMM the same way whatever the number of rows, so that a box of output
rows multiplies to the same bits as those rows of the padded product. That
holds in float32, and in float64 below 256 inner columns; at 256 the rows
of a 2-row float64 product can differ from the same rows of a 16-row one.
So every ``CASES`` entry keeps Ci and Co (the inner columns of the forward
and of the input gradient) below ``BITWISE_WIDTH``; a wider case belongs
under ``_assert_within_rounding``.
"""

import contextlib
import tracemalloc

import numpy as np
import pytest

from vindet import tensor as T
from vindet.encoder import GlobalEncoder
from vindet.tensor import Tensor, backward
from vindet.tokenizer import TubeletEmbed
from reference_ops import _assert_within_rounding

REL_TOL = 1e-12
BITWISE_WIDTH = 256       # the GEMM inner width from which row rounding may vary


def im2col_conv(x, w, b=None, stride=1, padding=0):
    """The engine's former convolution: one GEMM over the full im2col
    matrix, with stride. Kept here as the reference."""
    x, w = T.as_tensor(x), T.as_tensor(w)
    nd = w.ndim - 2
    ks, ci, co = w.shape[:nd], w.shape[-2], w.shape[-1]
    st = (int(stride),) * nd if np.isscalar(stride) else tuple(int(v) for v in stride)
    pd = (int(padding),) * nd if np.isscalar(padding) else tuple(int(v) for v in padding)
    xp = np.pad(x.data, ((0, 0),) + tuple((p, p) for p in pd) + ((0, 0),))
    outs = tuple((n - k) // s + 1 for n, k, s in zip(xp.shape[1:-1], ks, st))
    spatial = tuple(range(1, nd + 1))
    win = np.lib.stride_tricks.sliding_window_view(xp, ks, axis=spatial)
    win = win[(slice(None),) + tuple(slice(None, None, s) for s in st)]
    kern = tuple(range(nd + 2, 2 * nd + 2))
    cols = win.transpose((0,) + spatial + kern + (nd + 1,)).reshape(-1, w.size // co)
    wmat = w.data.reshape(-1, co)
    y = cols @ wmat
    if b is not None:
        b = T.as_tensor(b)
        y = y + b.data
    out = Tensor(y.reshape(x.shape[:1] + outs + (co,)))
    parents = (x, w) if b is None else (x, w, b)

    def bwd(gout):
        g2 = gout.reshape(-1, co)
        if w.requires_grad:
            w.accumulate_grad((cols.T @ g2).reshape(w.shape))
        if b is not None and b.requires_grad:
            b.accumulate_grad(g2.sum(axis=0))
        if x.requires_grad:
            dcols = (g2 @ wmat.T).reshape(x.shape[:1] + outs + ks + (ci,))
            gxp = np.zeros_like(xp)
            for off in np.ndindex(*ks):
                hit = tuple(slice(o, o + n * s, s) for o, n, s in zip(off, outs, st))
                gxp[(slice(None),) + hit] += dcols[(slice(None),) * (nd + 1) + off]
            inner = tuple(slice(p, p + n) for p, n in zip(pd, x.shape[1:-1]))
            x.accumulate_grad(gxp[(slice(None),) + inner])

    return T._record(out, parents, bwd, "conv")


def padded_conv_forward(x, w, b, padding):
    """The engine's former forward on arrays: each kernel offset multiplies
    its full slice of a zero-padded copy of ``x``, and the products add up
    in offset order. Kept here as the reference the padding-free forward
    must match bit for bit."""
    nd = w.ndim - 2
    ks, ci, co = w.shape[:nd], w.shape[-2], w.shape[-1]
    xp = np.pad(x, ((0, 0),) + tuple((p, p) for p in padding) + ((0, 0),))
    outs = tuple(n - k + 1 for n, k in zip(xp.shape[1:-1], ks))
    y = 0.0
    for off in np.ndindex(*ks):
        hit = (slice(None),) + tuple(slice(o, o + n) for o, n in zip(off, outs))
        y += xp[hit].reshape(-1, ci) @ w[off]
    if b is not None:
        y += b
    return y.reshape(x.shape[:1] + outs + (co,))


def padded_conv_backward(x, w, g, padding):
    """The engine's former backward on arrays: input and weight gradients for
    output gradient ``g``, each kernel offset taking its full slice of
    zero-padded copies of ``x`` and of the input gradient. Kept here as the
    reference the padding-free gradients must match: the input gradient bit
    for bit outside ``ONE_ROW_BOXES``; the weight gradient, which here sums
    over the padding's zero rows too, to rounding."""
    nd = w.ndim - 2
    ks, ci, co = w.shape[:nd], w.shape[-2], w.shape[-1]
    xp = np.pad(x, ((0, 0),) + tuple((p, p) for p in padding) + ((0, 0),))
    g2 = g.reshape(-1, co)
    gw, gxp = np.empty_like(w), np.zeros_like(xp)
    for off in np.ndindex(*ks):
        hit = (slice(None),) + tuple(slice(o, o + n) for o, n in zip(off, g.shape[1:-1]))
        gw[off] = xp[hit].reshape(-1, ci).T @ g2
        gxp[hit] += (g2 @ w[off].T).reshape(g.shape[:-1] + (ci,))
    inner = tuple(slice(p, p + n) for p, n in zip(padding, x.shape[1:-1]))
    return gxp[(slice(None),) + inner], gw


# (case, batch) pairs where some kernel offset's box is one output row:
# numpy multiplies a one-row matrix through gemv, which need not round like
# the padded conv's GEMM over every row
ONE_ROW_BOXES = {("7x7_pad3_grid4", 1), ("7x7_pad3_grid2", 1)}


def _run(conv_fn, x0, w0, b0, r, **kw):
    """Output and (x, w, b) gradients of sum(conv * r) on fresh leaves."""
    x, w, b = (Tensor(a.copy(), requires_grad=True) for a in (x0, w0, b0))
    out = conv_fn(x, w, b, **kw)
    backward(T.reduce_sum(out * r))
    return out.data, x.grad, w.grad, b.grad


def _rel(got, ref):
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


# (input spatial shape, kernel, Ci, Co); the references pad each axis by
# half its kernel side, as the name says
CASES = {
    "1x1": ((6, 6), (1, 1), 5, 3),
    "3x3_pad1": ((6, 5), (3, 3), 4, 3),
    "7x7_pad3": ((8, 8), (7, 7), 3, 2),
    # the frequency conv at the desk stage-1 grid: no offset sees all of it
    "7x7_pad3_grid4": ((4, 4), (7, 7), 6, 9),
    # 40 of its 49 offsets read only padding
    "7x7_pad3_grid2": ((2, 2), (7, 7), 5, 4),
    "3x3x3_pad1": ((3, 5, 5), (3, 3, 3), 6, 4),
    "3x1_pad10": ((5, 6), (3, 1), 4, 3),
    "3x3x1_pad110": ((2, 4, 3), (3, 3, 1), 3, 2),
}


def test_bitwise_cases_stay_below_gemm_width():
    # at batch 4 every case is held bit for bit, by the forward and by the
    # input gradient
    wide = {name: (ci, co) for name, (*_, ci, co) in CASES.items()
            if max(ci, co) >= BITWISE_WIDTH}
    assert not wide, f"hold these to _assert_within_rounding: {wide}"


def _case(name, batch, rng):
    spatial, kernel, ci, co = CASES[name]
    x0 = rng.uniform(-1, 1, size=(batch, *spatial, ci))
    w0 = rng.normal(size=(*kernel, ci, co)) * 0.3
    b0 = rng.normal(size=co)
    return x0, w0, b0, tuple(k // 2 for k in kernel), (batch, *spatial, co)


@pytest.mark.usefixtures("float64")
@pytest.mark.parametrize("batch", [1, 4])
@pytest.mark.parametrize("name", sorted(CASES))
def test_conv_matches_im2col_reference(name, batch):
    rng = np.random.default_rng(len(name) + batch)
    x0, w0, b0, pad, out_shape = _case(name, batch, rng)
    r = Tensor(rng.normal(size=out_shape))
    got = _run(T.conv, x0, w0, b0, r)
    ref = _run(im2col_conv, x0, w0, b0, r, padding=pad)
    for what, g, e in zip(("output", "x grad", "w grad", "b grad"), got, ref):
        assert g.shape == e.shape, what
        assert _rel(g, e) <= REL_TOL, f"{name} B={batch}: {what} differs by {_rel(g, e):.2e}"


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batch", [1, 4])
@pytest.mark.parametrize("name", sorted(CASES))
def test_nograd_conv_equals_padded_forward_bitwise(name, batch, dtype):
    x0, w0, b0, pad, out_shape = _case(name, batch, np.random.default_rng(batch))
    x0, w0, b0 = (a.astype(dtype) for a in (x0, w0, b0))
    scope = T.float64_scope() if dtype == np.float64 else contextlib.nullcontext()
    with scope, T.no_grad():
        y = T.conv(Tensor(x0), Tensor(w0), Tensor(b0))
    assert y.dtype == dtype and y.shape == out_shape
    ref = padded_conv_forward(x0, w0, b0, pad)
    if (name, batch) == ("7x7_pad3_grid2", 1):
        # its one-row boxes' gemv rounds unlike the padded GEMM in float64;
        # the 4x4 grid's at B=1 match it at these sizes
        scale = padded_conv_forward(abs(x0), abs(w0), abs(b0), pad)
        _assert_within_rounding(y.data, ref, scale, w0[..., 0].size + 1)
    else:
        assert y.data.tobytes() == ref.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batch", [1, 4])
@pytest.mark.parametrize("name", sorted(CASES))
def test_conv_grads_match_padded_backward(name, batch, dtype):
    # the input gradient adds the same products in the same offset order,
    # but a one-row box's gemv may round them unlike the padded GEMM; the
    # weight gradient's GEMMs leave out the padding's zero rows, which may
    # move their rounding
    rng = np.random.default_rng(batch + 7)
    x0, w0, b0, pad, out_shape = _case(name, batch, rng)
    x0, w0, b0, g0 = (a.astype(dtype) for a in (x0, w0, b0, rng.normal(size=out_shape)))
    scope = T.float64_scope() if dtype == np.float64 else contextlib.nullcontext()
    with scope:
        _, gx, gw, _ = _run(T.conv, x0, w0, b0, Tensor(g0))
    ref_gx, ref_gw = padded_conv_backward(x0, w0, g0, pad)
    scale_gx, scale_gw = padded_conv_backward(abs(x0), abs(w0), abs(g0), pad)
    assert gx.dtype == gw.dtype == dtype
    co = w0.shape[-1]
    if (name, batch) in ONE_ROW_BOXES:
        _assert_within_rounding(gx, ref_gx, scale_gx, w0[..., 0, :].size)
    else:
        assert gx.tobytes() == ref_gx.tobytes()
    _assert_within_rounding(gw, ref_gw, scale_gw, g0.size // co)


def test_conv_offsets_reading_only_padding_get_zero_weight_grad():
    rng = np.random.default_rng(15)
    x0, w0, b0, pad, out_shape = _case("7x7_pad3_grid2", 4, rng)
    _, _, gw, _ = _run(T.conv, x0, w0, b0, Tensor(rng.normal(size=out_shape)))
    xp = np.pad(x0, ((0, 0),) + tuple((p, p) for p in pad) + ((0, 0),))
    dead = [off for off in np.ndindex(7, 7)
            if not xp[:, off[0]:off[0] + 2, off[1]:off[1] + 2].any()]
    assert len(dead) == 40
    for off in np.ndindex(7, 7):
        assert (gw[off] == 0).all() == (off in dead), off


def _patch_embed_vs_strided_conv(module, proj, x0, kernel):
    """Output and gradients of ``module`` on x0 next to the im2col conv
    with stride = kernel on the same weights."""
    rng = np.random.default_rng(3)
    x = Tensor(x0.copy(), requires_grad=True)
    out = module(x)
    r = Tensor(rng.normal(size=out.shape))
    backward(T.reduce_sum(out * r))
    got = (out.data, x.grad, proj.w.grad.copy(), proj.b.grad.copy())
    proj.w.grad.fill(0.0)
    proj.b.grad.fill(0.0)
    xr = Tensor(x0.copy(), requires_grad=True)
    ref_out = im2col_conv(xr, proj.w, proj.b, stride=kernel)
    backward(T.reduce_sum(ref_out * r))
    ref = (ref_out.data, xr.grad, proj.w.grad, proj.b.grad)
    return got, ref


@pytest.mark.parametrize("view", [1, 2, 3])
def test_tubelet_embed_equals_strided_conv(view):
    rng = np.random.default_rng(view)
    emb = TubeletEmbed(view, 4, 3, 8, rng)
    # whole tubelets only: the embedding drops trailing frames before the conv
    x0 = rng.uniform(0, 1, size=(2, view, 16, 12, 3))
    got, ref = _patch_embed_vs_strided_conv(emb, emb.proj, x0, (view, 4, 4))
    assert got[0].shape == (2, 1, 4, 3, 8)
    for g, e in zip(got, ref):
        assert np.array_equal(g, e)


def test_global_patch_embed_equals_strided_conv():
    rng = np.random.default_rng(11)
    enc = GlobalEncoder(3, 8, 16, 0, 2, rng)
    x0 = rng.uniform(0, 1, size=(3, 16, 24, 3))
    got, ref = _patch_embed_vs_strided_conv(enc.embed, enc.embed, x0, (8, 8))
    assert got[0].shape == (3, 2, 3, 16)
    for g, e in zip(got, ref):
        assert np.array_equal(g, e)


def test_patch_embed_rejects_untiled_input():
    emb = GlobalEncoder(3, 8, 16, 0, 2, np.random.default_rng(12)).embed
    with pytest.raises(T.ShapeError):
        emb(Tensor(np.zeros((1, 20, 16, 3))))


def test_nograd_conv_peak_memory():
    # the decoder's view fusion conv on a batch of 8 desk clips; an im2col
    # matrix alone would be 27x the input
    rng = np.random.default_rng(13)
    x = Tensor(rng.normal(size=(8, 3, 16, 16, 72)))
    w = Tensor(rng.normal(size=(3, 3, 3, 72, 32)))
    b = Tensor(np.zeros(32))
    tracemalloc.start()
    try:
        with T.no_grad():
            y = T.conv(x, w, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert y.shape == (8, 3, 16, 16, 32)
    assert peak < 4 * (x.data.nbytes + y.data.nbytes), f"peak {peak / 2**20:.1f} MB"


def test_nograd_conv_makes_no_padded_copy():
    # the 7x7 frequency conv on a 4x4 grid: its zero-padded input would be
    # 100/16 times the input, and the padded forward allocated it whole
    rng = np.random.default_rng(14)
    x = Tensor(rng.normal(size=(8, 4, 4, 256)))
    w = Tensor(rng.normal(size=(7, 7, 256, 9)))
    padded = x.data.nbytes * 100 // 16
    tracemalloc.start()
    try:
        with T.no_grad():
            y = T.conv(x, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert y.shape == (8, 4, 4, 9)
    assert peak < padded, f"peak {peak} bytes, padded input {padded}"


def test_conv_backward_makes_no_padded_copy():
    # the same conv with both gradients wanted: the padded backward
    # allocated a padded copy of the input and a padded gradient buffer
    rng = np.random.default_rng(16)
    x = Tensor(rng.normal(size=(32, 4, 4, 256)), requires_grad=True)
    w = Tensor(rng.normal(size=(7, 7, 256, 9)), requires_grad=True)
    loss = T.reduce_sum(T.conv(x, w))
    padded = x.data.nbytes * 100 // 16
    tracemalloc.start()
    try:
        backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x.grad.shape == x.shape and w.grad.shape == w.shape
    assert peak < padded, f"peak {peak} bytes, padded input {padded}"
