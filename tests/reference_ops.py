"""Primitives and helpers that only the tests use.

``matmul``, ``softmax``, ``row_softmax``, ``permute``, ``slice_axis``,
``pad`` and ``gather_rows`` build the unfused chains that ``test_fused.py``
compares the fused engine primitives against, and that ``test_tensor.py``
holds ``take_tokens`` to bit for bit. They record through the engine's
``_binary`` and ``_unary``, so they follow its tape protocol, and
``reference_cases`` holds their gradient cases in the form of
``gradcheck.primitive_cases``. ``capture_attention`` reads the attention
weights of every ``tensor.attention`` call, ``_assert_within_rounding``
holds two summation orders of one computation to the rounding their sums
allow, and ``psnr`` scores the JPEG perturbation's quality ordering.
"""

import numpy as np

from vindet import tensor as T
from vindet.tensor import ShapeError, Tensor


def _softmax(a, axis: int, total) -> Tensor:
    a = T.as_tensor(a)
    if not -a.ndim <= axis < a.ndim:
        raise ShapeError(f"softmax: axis {axis} out of range for shape {a.shape}")
    z = a.data - np.max(a.data, axis=axis, keepdims=True)
    e = np.exp(z)
    y = e / total(e)
    return T._unary(a, y, lambda g: (g - total(g * y)) * y, "softmax")


def softmax(a, axis: int = -1) -> Tensor:
    return _softmax(a, axis, lambda v: np.sum(v, axis=axis, keepdims=True))


def row_softmax(a) -> Tensor:
    """``softmax`` along the last axis with the engine's row sum
    ``tensor._sum_last``, so that it rounds as ``tensor.attention`` does."""
    return _softmax(a, -1, lambda v: T._sum_last(v)[..., None])


def matmul(a, b) -> Tensor:
    """Matrix product; leading axes batch via numpy broadcasting rules."""
    a, b = T.as_tensor(a), T.as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: operands must be >=2-D, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dims differ for {a.shape} and {b.shape}")
    return T._binary(a, b, np.matmul(a.data, b.data),
                     lambda g: np.matmul(g, np.swapaxes(b.data, -1, -2)),
                     lambda g: np.matmul(np.swapaxes(a.data, -1, -2), g), "matmul")


def permute(a, axes) -> Tensor:
    a = T.as_tensor(a)
    axes = tuple(int(x) for x in axes)
    if sorted(axes) != list(range(a.ndim)):
        raise ShapeError(f"permute: axes {axes} invalid for shape {a.shape}")
    inv = np.argsort(axes)
    return T._unary(a, np.transpose(a.data, axes), lambda g: np.transpose(g, inv), "permute")


def slice_axis(a, axis: int, start: int, stop: int) -> Tensor:
    a = T.as_tensor(a)
    if not -a.ndim <= axis < a.ndim:
        raise ShapeError(f"slice: axis {axis} out of range for shape {a.shape}")
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)

    def grad(g):
        ga = np.zeros_like(a.data)
        ga[idx] = g
        return ga

    return T._unary(a, a.data[idx], grad, "slice")


def pad(a, pad_width) -> Tensor:
    """Zero padding; pad_width is ((before, after), ...) per axis."""
    a = T.as_tensor(a)
    pw = tuple((int(lo), int(hi)) for lo, hi in pad_width)
    if len(pw) != a.ndim:
        raise ShapeError(f"pad: got {len(pw)} axis pads for shape {a.shape}")
    idx = tuple(slice(lo, lo + n) for (lo, _), n in zip(pw, a.shape))
    return T._unary(a, np.pad(a.data, pw), lambda g: g[idx], "pad")


def gather_rows(table, indices: np.ndarray, axis: int = 0) -> Tensor:
    """Lookup of ``indices`` along ``axis`` (rows by default); backward
    scatter-adds into the table."""
    table = T.as_tensor(table)
    idx = np.asarray(indices, dtype=np.int64)

    def grad(g):
        gt = np.zeros_like(table.data)
        np.add.at(np.moveaxis(gt, axis, 0), idx, np.moveaxis(g, axis, 0))
        return gt

    return T._unary(table, np.take(table.data, idx, axis=axis), grad, "gather_rows")


def reference_cases(rng: np.random.Generator) -> dict:
    """One gradient case per input of each reference primitive, plus the
    batched product and the axis branches of ``slice_axis`` and
    ``gather_rows``, each projected onto a fixed random direction."""
    u = lambda *s: Tensor(rng.uniform(-1.0, 1.0, size=s))
    proj = lambda *s: Tensor(rng.normal(size=s))
    r34, r44, r233 = proj(3, 4), proj(4, 4), proj(2, 3, 3)
    mm_w, mm_x, bm_w = proj(5, 4), proj(4, 5), proj(2, 4, 3)
    cases = {
        "softmax": (lambda x: T.reduce_sum(softmax(x, axis=-1) * r34), u(3, 4)),
        "matmul": (lambda x: T.reduce_sum(matmul(x, mm_w) * r44), u(4, 5)),
        "matmul_right": (lambda w: T.reduce_sum(matmul(mm_x, w) * r44), u(5, 4)),
        "matmul_batched": (lambda x: T.reduce_sum(matmul(x, bm_w) * r233), u(2, 3, 4)),
    }
    # drawn after the cases above, so those keep their inputs
    r43, r56, r63, r322, r263, r232 = (proj(4, 3), proj(5, 6), proj(6, 3), proj(3, 2, 2),
                                       proj(2, 6, 3), proj(2, 3, 2))
    gi, gi1 = rng.integers(0, 4, size=6), rng.integers(0, 4, size=6)
    cases.update({
        "permute": (lambda x: T.reduce_sum(permute(x, (1, 0)) * r43), u(3, 4)),
        "pad": (lambda x: T.reduce_sum(pad(x, ((1, 1), (1, 2))) * r56), u(3, 3)),
        "gather_rows": (lambda x: T.reduce_sum(gather_rows(x, gi) * r63), u(4, 3)),
        "gather_rows_axis1":
            (lambda x: T.reduce_sum(gather_rows(x, gi1, axis=1) * r263), u(2, 4, 3)),
        "slice": (lambda x: T.reduce_sum(slice_axis(x, -2, 1, 3) * r322), u(3, 4, 2)),
        "slice_negative_axis":
            (lambda x: T.reduce_sum(slice_axis(x, -1, 1, 3) * r232), u(2, 3, 4)),
    })
    return cases


def _assert_within_rounding(got, ref, scale, n):
    """``got`` and ``ref`` round the same sums of at most ``n`` terms whose
    absolute values add up to ``scale``. Each lies within n·eps/2·scale of
    the exact sum, so the two may differ by n·eps·scale, whatever order
    they add the terms in."""
    assert got.dtype == ref.dtype and got.shape == ref.shape
    bound = n * np.finfo(got.dtype).eps * scale
    assert (np.abs(got - ref) <= bound).all(), f"differs by {np.max(np.abs(got - ref)):.2e}"


def capture_attention(monkeypatch) -> list:
    """Wrap ``tensor.attention`` for the test; each call appends a copy of
    its (N, heads, Q, Q) weights to the returned list."""
    weights, attention = [], T.attention

    def capturing(*args, **kwargs):
        out, attn = attention(*args, **kwargs)
        weights.append(attn.copy())
        return out, attn

    monkeypatch.setattr(T, "attention", capturing)
    return weights


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB of two images with values in [0, 1]."""
    mse = float(np.mean((np.asarray(a) - np.asarray(b)) ** 2))
    if mse == 0.0:
        return float("inf")
    return 10.0 * np.log10(1.0 / mse)
