"""Primitives and helpers that only the tests use.

``matmul`` and ``softmax`` build the unfused chains that ``test_fused.py``
compares the fused engine primitives against. They record through the
engine's ``_binary`` and ``_unary``, so they follow its tape protocol, and
``reference_cases`` holds their gradient cases in the form of
``gradcheck.primitive_cases``. ``capture_attention`` reads the attention
weights of every ``tensor.attention`` call, and ``psnr`` scores the JPEG
perturbation's quality ordering.
"""

import numpy as np

from vindet import tensor as T
from vindet.tensor import ShapeError, Tensor


def softmax(a, axis: int = -1) -> Tensor:
    a = T.as_tensor(a)
    if not -a.ndim <= axis < a.ndim:
        raise ShapeError(f"softmax: axis {axis} out of range for shape {a.shape}")
    z = a.data - np.max(a.data, axis=axis, keepdims=True)
    e = np.exp(z)
    y = e / np.sum(e, axis=axis, keepdims=True)
    return T._unary(a, y, lambda g: (g - np.sum(g * y, axis=axis, keepdims=True)) * y, "softmax")


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


def reference_cases(rng: np.random.Generator) -> dict:
    """One gradient case per input of ``softmax`` and ``matmul``, plus the
    batched product, each projected onto a fixed random direction."""
    u = lambda *s: Tensor(rng.uniform(-1.0, 1.0, size=s))
    proj = lambda *s: Tensor(rng.normal(size=s))
    r34, r44, r233 = proj(3, 4), proj(4, 4), proj(2, 3, 3)
    mm_w, mm_x, bm_w = proj(5, 4), proj(4, 5), proj(2, 4, 3)
    return {
        "softmax": (lambda x: T.reduce_sum(softmax(x, axis=-1) * r34), u(3, 4)),
        "matmul": (lambda x: T.reduce_sum(matmul(x, mm_w) * r44), u(4, 5)),
        "matmul_right": (lambda w: T.reduce_sum(matmul(mm_x, w) * r44), u(5, 4)),
        "matmul_batched": (lambda x: T.reduce_sum(matmul(x, bm_w) * r233), u(2, 3, 4)),
    }


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
