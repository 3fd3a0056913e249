"""Dense tensor engine with reverse-mode automatic differentiation.

Values live in numpy arrays of one compute dtype, float32, which
``compute_dtype`` reports; ``float64_scope`` switches the calling thread to
float64 for gradient checks and for comparisons made at float64 precision.
Every primitive that participates in gradients records a tape entry
holding its inputs and a backward closure; ``backward`` replays entries in
exact reverse execution order, which makes gradient accumulation
deterministic and bit-reproducible in single-threaded mode. A closure is
handed its output's gradient and holds no reference to its output, so a
graph forms no reference cycle: one that is never back-propagated is freed
as soon as its last tensor is, without waiting for a cyclic collection.
"""

from __future__ import annotations

import itertools
import math
import threading
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible for an op."""


# Monotonic counter stamping tape entries with execution order. Advancing
# an itertools.count is a single C call, so it needs no lock.
_next_seq = itertools.count(1).__next__


class _EngineState(threading.local):
    """Per-thread engine state: every thread starts with recording on and
    computing in float32."""

    grad_enabled = True
    dtype = np.dtype(np.float32)


_state = _EngineState()


def compute_dtype() -> np.dtype:
    """The dtype every ``Tensor`` made in the calling thread holds."""
    return _state.dtype


class _StateScope:
    """Context manager setting one ``_EngineState`` field in the calling
    thread and restoring it on exit."""

    def __enter__(self):
        self._prev = getattr(_state, self.field)
        setattr(_state, self.field, self.value)
        return self

    def __exit__(self, *exc):
        setattr(_state, self.field, self._prev)
        return False


class float64_scope(_StateScope):
    """Context manager computing in float64 in the calling thread: tensors
    made inside it, and the constants built for them, hold float64."""

    field, value = "dtype", np.dtype(np.float64)


class no_grad(_StateScope):
    """Context manager disabling tape recording (forward-only evaluation) in
    the calling thread."""

    field, value = "grad_enabled", False


class TapeEntry:
    """One executed primitive: its inputs and its backward rule, which takes
    the output's gradient."""

    __slots__ = ("inputs", "backward_fn", "seq", "name")

    def __init__(self, inputs, backward_fn, name):
        self.inputs = inputs
        self.backward_fn = backward_fn
        self.seq = _next_seq()
        self.name = name


class Tensor:
    """N-dimensional array with an optional gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad", "_entry", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=_state.dtype)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._entry: Optional[TapeEntry] = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item: tensor of shape {self.shape} is not scalar")
        return float(self.data.reshape(()))

    def accumulate_grad(self, g: np.ndarray):
        """Add ``g`` to the gradient. A leaf (an ``nn.Parameter`` among them)
        keeps a private buffer and adds into it in place. An op output adopts
        the first array of its shape and dtype that it is handed, and never
        writes into it: a backward rule may hand one array to several inputs,
        or a view of its own output's gradient, so a later gradient makes a
        new sum."""
        if self.grad is None:
            if self._entry is not None and g.shape == self.data.shape and g.dtype == self.data.dtype:
                self.grad = g
            else:
                self.grad = np.array(np.broadcast_to(g, self.data.shape), dtype=self.data.dtype)
        elif self._entry is None:
            self.grad += g
        else:
            self.grad = self.grad + g

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # arithmetic sugar
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return neg(self)

    def __pow__(self, p):
        return pow_scalar(self, p)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def mean(self, axis=None):
        return reduce_mean(self, axis)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _record(out: Tensor, inputs: tuple, backward_fn: Callable, name: str) -> Tensor:
    """Record ``out`` on the tape when an input requires grad; ``backward_fn``
    takes ``out``'s gradient and must not refer to ``out`` itself."""
    if _state.grad_enabled:
        for t in inputs:
            if t.requires_grad:
                out.requires_grad = True
                out._entry = TapeEntry(inputs, backward_fn, name)
                break
    return out


def _unary(a: Tensor, y: np.ndarray, grad: Callable, name: str) -> Tensor:
    """Record ``y`` as a function of ``a``, whose gradient is ``grad(g)`` for
    the output's gradient ``g``."""

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(grad(g))

    return _record(Tensor(y), (a,), bwd, name)


def _binary(a: Tensor, b: Tensor, y: np.ndarray, grad_a: Callable, grad_b: Callable,
            name: str) -> Tensor:
    """Record ``y`` as a function of ``a`` and ``b``, each of whose gradient is
    its ``grad_x(g)`` for the output's gradient ``g``, summed back over the
    axes it was broadcast on."""

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(grad_a(g), a.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(grad_b(g), b.shape))

    return _record(Tensor(y), (a, b), bwd, name)


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum-reduce a gradient back to the shape it was broadcast from."""
    if g.shape == tuple(shape):
        return g
    if g.ndim > len(shape):
        g = _sum_rows(g.reshape((-1,) + g.shape[g.ndim - len(shape):]))
    for i, s in enumerate(shape):
        if s == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


def _sum_rows(x: np.ndarray) -> np.ndarray:
    """Sum ``x`` over its first axis as one matrix-vector product with a
    ones vector, ``ones(m) @ x``: numpy's reduction pays about 20 ns per
    inner-loop row, more than the arithmetic of a row of 16-64 values."""
    m = x.shape[0]
    return (np.ones(m, x.dtype) @ x.reshape(m, math.prod(x.shape[1:]))).reshape(x.shape[1:])


def _sum_last(x: np.ndarray) -> np.ndarray:
    """Sum ``x`` over its last axis through ``einsum``, which adds every
    row's values in one fixed order whatever the number of rows.
    ``x @ ones(n)`` is faster, but OpenBLAS's gemv rounds a lone row, or one
    of a trailing partial block, unlike a row of a full block, which would
    tie a clip's statistics to its batch."""
    return np.einsum("...i->...", x)


def backward(loss: Tensor):
    """Populate gradients of everything ``loss`` depends on.

    Entries replay in exact reverse execution order. ``loss`` must be scalar
    and have been produced while recording was enabled. Each entry drops its
    backward rule once it has run, which frees the arrays the rule kept; a
    graph therefore back-propagates only once.
    """
    if loss.size != 1:
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.shape}")
    if loss._entry is None and not loss.requires_grad:
        raise ValueError("backward: loss was not recorded on the active tape")

    # the op outputs the loss depends on, each found once through its entry
    outputs = []
    seen = set()
    stack = [loss] if loss._entry is not None else []
    while stack:
        t = stack.pop()
        if id(t._entry) in seen:
            continue
        seen.add(id(t._entry))
        outputs.append(t)
        for u in t._entry.inputs:
            if u._entry is not None and id(u._entry) not in seen:
                stack.append(u)
    outputs.sort(key=lambda t: -t._entry.seq)
    if any(t._entry.backward_fn is None for t in outputs):
        raise ValueError("backward: the graph was already back-propagated")

    loss.grad = np.ones_like(loss.data)
    for t in outputs:
        e = t._entry
        e.backward_fn(t.grad)
        e.backward_fn = None


# ---------------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _binary(a, b, a.data + b.data, lambda g: g, lambda g: g, "add")


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _binary(a, b, a.data - b.data, lambda g: g, np.negative, "sub")


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _binary(a, b, a.data * b.data, lambda g: g * b.data, lambda g: g * a.data, "mul")


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _binary(a, b, a.data / b.data, lambda g: g / b.data,
                   lambda g: -g * a.data / (b.data * b.data), "div")


def neg(a) -> Tensor:
    a = as_tensor(a)
    return _unary(a, -a.data, np.negative, "neg")


def pow_scalar(a, p: float) -> Tensor:
    """Elementwise x**p for a python scalar exponent.

    The derivative at x == 0 is defined as 0 for p > 1 (the focal-loss use
    case); other exponents assume strictly positive inputs.
    """
    a = as_tensor(a)
    p = float(p)

    def grad(g):
        if p == 0.0:
            return np.zeros_like(a.data)
        base = np.where(a.data == 0.0, 1.0, a.data)
        d = p * base ** (p - 1.0)
        if p > 1.0:
            d = np.where(a.data == 0.0, 0.0, d)
        return g * d

    return _unary(a, a.data ** p, grad, "pow")


# ---------------------------------------------------------------------------
# transcendental / activation
# ---------------------------------------------------------------------------

def log(a) -> Tensor:
    """Natural log. Domain: strictly positive values."""
    a = as_tensor(a)
    return _unary(a, np.log(a.data), lambda g: g / a.data, "log")


def tanh(a) -> Tensor:
    a = as_tensor(a)
    y = np.tanh(a.data)
    return _unary(a, y, lambda g: g * (1.0 - y * y), "tanh")


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    x = a.data
    e = np.exp(-np.abs(x))
    y = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return _unary(a, y, lambda g: g * y * (1.0 - y), "sigmoid")


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(a) -> Tensor:
    """GELU in its tanh form: 0.5*x*(1+tanh(c*(x+0.044715*x^3)))."""
    a = as_tensor(a)
    x = a.data
    x2 = x * x
    t = x2 * x
    t *= 0.044715
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    y = t + 1.0
    y *= x
    y *= 0.5

    # d = 0.5*(1+t) + 0.5*x*(1-t*t)*du, each product in the order of that
    # formula; scaling by 0.5 is exact, so it is applied once to the sum
    def grad(g):
        du = x2 * (3 * 0.044715)
        du += 1.0
        du *= _GELU_C
        d = t * t
        np.subtract(1.0, d, out=d)
        d *= x
        d *= du
        np.add(t, 1.0, out=du)
        du += d
        du *= 0.5
        du *= g
        return du

    return _unary(a, y, grad, "gelu")


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def linear(x, w, b=None) -> Tensor:
    """``x @ w + b`` over the last axis of ``x``; the leading axes flatten
    internally, so any (..., Ci) input gives (..., Co). ``w`` is (Ci, Co), or
    a (*kernel, Ci', Co) conv weight whose leading axes flatten into its Ci
    rows, as a 1x1 kernel's or a flattened patch's do."""
    x, w = as_tensor(x), as_tensor(w)
    if w.ndim < 2 or x.shape[-1] != math.prod(w.shape[:-1]):
        raise ShapeError(f"linear: input {x.shape} does not match weight {w.shape}")
    co = w.shape[-1]
    w2 = w.data.reshape(-1, co)
    x2 = x.data.reshape(-1, w2.shape[0])
    y = np.matmul(x2, w2)
    if b is not None:
        b = as_tensor(b)
        y += b.data
    out = Tensor(y.reshape(x.shape[:-1] + (co,)))
    parents = (x, w) if b is None else (x, w, b)

    def bwd(gout):
        g = gout.reshape(-1, co)
        if b is not None and b.requires_grad:
            b.accumulate_grad(_sum_rows(g))
        if x.requires_grad:
            x.accumulate_grad(np.matmul(g, w2.T).reshape(x.shape))
        if w.requires_grad:
            w.accumulate_grad(np.matmul(x2.T, g).reshape(w.shape))

    return _record(out, parents, bwd, "linear")


def attention(q, k, v, heads: int, table=None, index=None, mask=None):
    """Multi-head scaled dot-product attention over a batch of token sets.

    ``q``, ``k`` and ``v`` are (N, Q, C) with C split into ``heads`` heads,
    and the scores are scaled by ``(C/heads)^-1/2``.
    ``table`` (R, heads) is a learned bias looked up by ``index`` (Q*Q,) and
    added to every set's scores; ``mask`` (K, Q, Q) is an additive mask
    tiled over consecutive groups of K sets. Returns the (N, Q, C) output
    and the (N, heads, Q, Q) attention weights.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    n, nq, c = q.shape
    if k.shape != q.shape or v.shape != q.shape or c % heads:
        raise ShapeError(f"attention: q/k/v {q.shape}/{k.shape}/{v.shape} with {heads} heads")
    d = c // heads
    scale = d ** -0.5
    qh = q.data.reshape(n, nq, heads, d).transpose(0, 2, 1, 3)
    kt = k.data.reshape(n, nq, heads, d).transpose(0, 2, 3, 1)
    vh = v.data.reshape(n, nq, heads, d).transpose(0, 2, 1, 3)
    s = np.matmul(qh, kt)
    s *= scale
    if table is not None:
        table = as_tensor(table)
        # gathered as one contiguous (heads, Q, Q) block, so the add runs
        # over whole sets instead of Q-long rows
        s += np.take(table.data.T, index, axis=1).reshape(heads, nq, nq)
    if mask is not None:
        tiles = s.reshape(-1, mask.shape[0], heads, nq, nq)
        tiles += mask[:, None]
    # the row max one key column at a time: numpy's max reduction pays about
    # 160 ns per row, which on 16-long window rows is most of the softmax.
    # np.maximum is as exact as that max and propagates NaN the same way
    m = s[..., 0].copy()
    for j in range(1, nq):
        np.maximum(m, s[..., j], out=m)
    s -= m[..., None]
    y = np.exp(s, out=s)
    y /= _sum_last(y)[..., None]
    out = Tensor(np.matmul(y, vh).transpose(0, 2, 1, 3).reshape(n, nq, c))
    parents = (q, k, v) if table is None else (q, k, v, table)

    # the backward makes the numpy calls of the unfused reshape/permute/
    # matmul/softmax chain (tests/reference_ops.py), on the same memory
    # layouts, so its gradients are bit-identical to that chain's
    def bwd(gout):
        go = gout.reshape(n, nq, heads, d).transpose(0, 2, 1, 3)
        ga = np.matmul(go, np.swapaxes(vh, -1, -2))
        if v.requires_grad:
            gv = np.matmul(np.swapaxes(y, -1, -2), go)
            v.accumulate_grad(gv.transpose(0, 2, 1, 3).reshape(n, nq, c))
        gs = (ga - _sum_last(ga * y)[..., None]) * y
        if table is not None and table.requires_grad:
            gb = gs.sum(axis=0)
            gb = gb.transpose(1, 2, 0).reshape(nq * nq, heads)
            gt = np.zeros_like(table.data)
            np.add.at(gt, index, gb)
            table.accumulate_grad(gt)
        gs = gs * scale
        if q.requires_grad:
            gq = np.matmul(gs, np.swapaxes(kt, -1, -2))
            q.accumulate_grad(gq.transpose(0, 2, 1, 3).reshape(n, nq, c))
        if k.requires_grad:
            gk = np.matmul(np.swapaxes(qh, -1, -2), gs)
            k.accumulate_grad(gk.transpose(0, 3, 1, 2).reshape(n, nq, c))

    return _record(out, parents, bwd, "attention"), y


# ---------------------------------------------------------------------------
# shape manipulation
# ---------------------------------------------------------------------------

def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    shape = tuple(int(s) for s in shape)
    return _unary(a, a.data.reshape(shape), lambda g: g.reshape(a.shape), "reshape")


def concat(tensors: Sequence, axis: int = 0) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    nd = ts[0].ndim
    if not -nd <= axis < nd:
        raise ShapeError(f"concat: axis {axis} out of range for shape {ts[0].shape}")
    axis = axis % nd
    for t in ts[1:]:
        if t.ndim != nd or any(
            i != axis and t.shape[i] != ts[0].shape[i] for i in range(nd)
        ):
            raise ShapeError(f"concat: shapes {ts[0].shape} and {t.shape} differ off-axis")
    sizes = [t.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)
    out = Tensor(np.concatenate([t.data for t in ts], axis=axis))

    def bwd(g):
        for t, lo, hi in zip(ts, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * nd
                idx[axis] = slice(lo, hi)
                t.accumulate_grad(g[tuple(idx)])

    return _record(out, tuple(ts), bwd, "concat")


def take_tokens(x, index: np.ndarray, batch: int, shape) -> Tensor:
    """Move the tokens (last-axis vectors) of each of ``batch`` samples:
    output token j of a sample is its input token ``index[j]``, or a zero
    token where ``index[j]`` is -1; the result takes ``shape``. Cutting a
    grid into padded windows, merging them back, patchifying, slicing and
    repeating frames are such moves. The backward writes each token's
    gradient back to its place; a token taken more than once gets the sum
    of its gradients, added in index order, a token left out gets zero, and
    a fill entry passes nothing back."""
    x = as_tensor(x)
    c = x.shape[-1]
    y = np.take(x.data.reshape(batch, -1, c), index, axis=1)
    fill = np.minimum.reduce(index, initial=0) < 0
    if fill:
        y[:, index < 0] = 0.0

    def grad(g):
        g, src = g.reshape(batch, -1, c), index
        if fill:
            keep = index >= 0
            g, src = g[:, keep], index[keep]
        gx = np.zeros((batch, x.size // (batch * c), c), dtype=x.dtype)
        if np.bincount(src, minlength=gx.shape[1]).max(initial=0) > 1:
            np.add.at(gx, (slice(None), src), g)
        else:
            gx[:, src] = g
        return gx.reshape(x.shape)

    return _unary(x, y.reshape(shape), grad, "take_tokens")


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def _norm_axis(axis, ndim):
    if axis is None:
        return None
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(int(x) % ndim for x in axis)


def _spread(g: np.ndarray, ax, shape) -> np.ndarray:
    """Broadcast a reduction's gradient back over the reduced axes ``ax``."""
    if ax is not None:
        g = np.expand_dims(g, ax)
    return np.broadcast_to(g, shape)


def reduce_sum(a, axis=None) -> Tensor:
    a = as_tensor(a)
    ax = _norm_axis(axis, a.ndim)
    return _unary(a, np.sum(a.data, axis=ax), lambda g: _spread(g, ax, a.shape), "sum")


def reduce_mean(a, axis=None) -> Tensor:
    a = as_tensor(a)
    ax = _norm_axis(axis, a.ndim)
    n = a.size if ax is None else int(np.prod([a.shape[i] for i in ax]))
    return _unary(a, np.mean(a.data, axis=ax), lambda g: _spread(g, ax, a.shape) / n, "mean")


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

NORM_EPS = 1e-5                    # variance guard of layer_norm and group_norm


def _normalize(a, gamma, beta, stats_shape, name: str) -> Tensor:
    """Normalize ``a`` viewed as (n, m, groups, k) with statistics over axes
    1 and 3, then apply the per-channel affine ``y * gamma + beta``."""
    a, gamma, beta = as_tensor(a), as_tensor(gamma), as_tensor(beta)
    c = a.shape[-1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"{name}: affine shapes {gamma.shape}/{beta.shape} do not match channel {c}")
    x = a.data.reshape(stats_shape)
    n = x.shape[1] * x.shape[3]

    def pool(v):
        # axis 3 sums as rows; axis 1 is an outer axis, which numpy reduces
        # a whole slab per step, and for layer norm it holds one element
        return np.add.reduce(_sum_last(v), axis=1, keepdims=True)[..., None]

    mu = pool(x)
    mu /= n
    xc = x - mu
    var = pool(xc * xc)
    var /= n
    inv = 1.0 / np.sqrt(var + NORM_EPS)
    xc *= inv
    y = xc.reshape(a.shape)
    z = y * gamma.data
    z += beta.data
    out = Tensor(z)

    def bwd(g):
        if gamma.requires_grad:
            gamma.accumulate_grad(_sum_rows((g * y).reshape(-1, c)))
        if beta.requires_grad:
            beta.accumulate_grad(_sum_rows(g.reshape(-1, c)))
        if a.requires_grad:
            gy = (g * gamma.data).reshape(x.shape)
            yv = y.reshape(x.shape)
            m1 = pool(gy)
            m1 /= n
            s = gy * yv
            m2 = pool(s)
            m2 /= n
            gy -= m1
            gy -= np.multiply(yv, m2, out=s)
            gy *= inv
            a.accumulate_grad(gy.reshape(a.shape))

    return _record(out, (a, gamma, beta), bwd, name)


def layer_norm(a, gamma, beta) -> Tensor:
    """Normalize the last axis per token, then apply a learnable affine."""
    c = as_tensor(a).shape[-1]
    return _normalize(a, gamma, beta, (-1, 1, 1, c), "layer_norm")


def group_norm(a, gamma, beta, groups: int) -> Tensor:
    """Group normalization over channels-last input (B, ..., C).

    Channels split into ``groups``; statistics are per sample, pooled over
    every axis between the batch axis and the channel axis plus the in-group
    channels, so one sample's output never depends on another's.
    """
    a = as_tensor(a)
    c = a.shape[-1]
    if c % groups != 0:
        raise ShapeError(f"group_norm: channels {c} not divisible by groups {groups}")
    return _normalize(a, gamma, beta, (a.shape[0], -1, groups, c // groups), "group_norm")


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _conv_boxes(sides: tuple, ks: tuple) -> tuple:
    """``(offset, input box, output box)`` for each kernel offset of a
    same-size conv over spatial ``sides``: the output rows whose input at
    that offset lies inside the input, and those input rows. An offset that
    reads only the zero border is left out."""
    boxes = []
    for off in np.ndindex(*ks):
        # output rows [lo, hi) per axis read input rows [lo + d, hi + d)
        d = [o - k // 2 for o, k in zip(off, ks)]
        lo = [max(-e, 0) for e in d]
        hi = [min(n - e, n) for e, n in zip(d, sides)]
        if all(l < h for l, h in zip(lo, hi)):
            rows = tuple(slice(l + e, h + e) for l, h, e in zip(lo, hi, d))
            hit = tuple(slice(l, h) for l, h in zip(lo, hi))
            boxes.append((off, (slice(None),) + rows, (slice(None),) + hit))
    return tuple(boxes)


def conv(x, w, b=None) -> Tensor:
    """N-d stride-1 same-size convolution, channels-last with a leading batch axis.

    ``x`` is (B, *spatial, Ci) and ``w`` is (*kernel, Ci, Co), with one odd
    kernel side per spatial axis; ``b`` is (Co,). ``x`` reads as zero-padded
    by half the kernel on both sides, so the output is (B, *spatial, Co).
    Each kernel offset adds one (M, Ci) x (Ci, Co) product into the output,
    over only the M output rows whose input at that offset lies inside
    ``x``, so neither an im2col matrix nor a padded copy of ``x`` is built.
    The backward walks the same offset boxes: each box's gradient rows give
    its offset's weight gradient and add into the input gradient's rows,
    and an offset that reads only padding keeps a weight gradient of 0. The
    rows a zero-padded input would add are exact zeros, so the output and
    the input gradient hold the padded conv's sums; numpy multiplies a
    one-row box as a matrix-vector product, which may round them differently.
    """
    x, w = as_tensor(x), as_tensor(w)
    nd = w.ndim - 2
    if nd < 1 or x.ndim != nd + 2:
        raise ShapeError(f"conv: expected (B,*spatial,Ci) and (*kernel,Ci,Co), got {x.shape} and {w.shape}")
    if x.shape[-1] != w.shape[-2]:
        raise ShapeError(f"conv: input channels differ, {x.shape} vs {w.shape}")
    ks, ci, co = w.shape[:nd], w.shape[-2], w.shape[-1]
    if not all(k % 2 for k in ks):
        raise ShapeError(f"conv: kernel {w.shape} has an even side; a same-size conv needs odd ones")
    sides = x.shape[1:-1]
    xd = x.data
    y = np.zeros(x.shape[:-1] + (co,), dtype=np.result_type(xd, w.data))
    for off, rows, hit in _conv_boxes(sides, ks):
        yh = y[hit]
        yh += (xd[rows].reshape(-1, ci) @ w.data[off]).reshape(yh.shape)
    if b is not None:
        b = as_tensor(b)
        y += b.data
    out = Tensor(y)
    parents = (x, w) if b is None else (x, w, b)

    def bwd(gout):
        gw = np.zeros_like(w.data) if w.requires_grad else None
        gx = np.zeros_like(xd) if x.requires_grad else None
        boxes = _conv_boxes(sides, ks) if gw is not None or gx is not None else ()
        for off, rows, hit in boxes:
            gh = gout[hit].reshape(-1, co)
            if gw is not None:
                gw[off] = xd[rows].reshape(-1, ci).T @ gh
            if gx is not None:
                gr = gx[rows]
                gr += (gh @ w.data[off].T).reshape(gr.shape)
        if gw is not None:
            w.accumulate_grad(gw)
        if b is not None and b.requires_grad:
            b.accumulate_grad(_sum_rows(gout.reshape(-1, co)))
        if gx is not None:
            x.accumulate_grad(gx)

    return _record(out, parents, bwd, "conv")


# ---------------------------------------------------------------------------
# pooling / resampling
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _bilinear_matrix(n_in: int, n_out: int, dtype) -> np.ndarray:
    """Row-stochastic 1D resampling matrix, align_corners=False convention."""
    m = np.zeros((n_out, n_in), dtype=dtype)
    scale = n_in / n_out
    for o in range(n_out):
        src = (o + 0.5) * scale - 0.5
        src = min(max(src, 0.0), n_in - 1.0)
        i0 = int(math.floor(src))
        i1 = min(i0 + 1, n_in - 1)
        t = src - i0
        m[o, i0] += 1.0 - t
        m[o, i1] += t
    return m


def upsample_bilinear2d(x, out_hw) -> Tensor:
    """Bilinear 2D resize of (B,H,W,C) to (B,Ho,Wo,C), align_corners=False."""
    x = as_tensor(x)
    if x.ndim != 4:
        raise ShapeError(f"upsample_bilinear2d: expected (B,H,W,C), got {x.shape}")
    _, h, w, c = x.shape
    ho, wo = int(out_hw[0]), int(out_hw[1])
    rh, rw = _bilinear_matrix(h, ho, x.dtype), _bilinear_matrix(w, wo, x.dtype)
    # y[b,o,p,c] = sum_ij rh[o,i] rw[p,j] x[b,i,j,c]
    y = np.einsum("oi,bijc,pj->bopc", rh, x.data, rw, optimize=True)
    return _unary(x, y, lambda g: np.einsum("oi,bopc,pj->bijc", rh, g, rw, optimize=True),
                  "upsample_bilinear2d")


def grid_sample_bilinear(x, grid) -> Tensor:
    """Sample (B,H,W,C) maps at fractional points with border clamping.

    ``grid`` is (B,Q,2) and holds (gx, gy) pairs in [-1,1] normalized
    coordinates (align_corners=False pixel centers); the output is (B,Q,C).
    Out-of-range points clamp to the border, where the coordinate gradient
    is zero.
    """
    x, grid = as_tensor(x), as_tensor(grid)
    if x.ndim != 4 or grid.ndim != 3 or grid.shape[0] != x.shape[0] or grid.shape[2] != 2:
        raise ShapeError(f"grid_sample: expected (B,H,W,C) and (B,Q,2), got {x.shape} and {grid.shape}")
    bsz, h, w, c = x.shape
    q = grid.shape[1]

    ix = ((grid.data[..., 0] + 1.0) * w - 1.0) / 2.0
    iy = ((grid.data[..., 1] + 1.0) * h - 1.0) / 2.0
    in_x = (ix > 0.0) & (ix < w - 1.0)
    in_y = (iy > 0.0) & (iy < h - 1.0)
    ixc = np.clip(ix, 0.0, w - 1.0)
    iyc = np.clip(iy, 0.0, h - 1.0)
    fx, fy = np.floor(ixc), np.floor(iyc)
    # floor(NaN) casts to a huge negative index: clip again so coordinates
    # from a diverged offset net stay indexable and reach the finite checks
    x0 = np.clip(fx.astype(np.int64), 0, w - 1)
    y0 = np.clip(fy.astype(np.int64), 0, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    # the weights take the floor in the coordinates' dtype, not the indices'
    tx = (ixc - fx)[..., None]
    ty = (iyc - fy)[..., None]

    bidx = np.arange(bsz)[:, None].repeat(q, axis=1)
    v00 = x.data[bidx, y0, x0]
    v01 = x.data[bidx, y0, x1]
    v10 = x.data[bidx, y1, x0]
    v11 = x.data[bidx, y1, x1]
    top = v00 * (1 - tx) + v01 * tx
    bot = v10 * (1 - tx) + v11 * tx
    out = Tensor(top * (1 - ty) + bot * ty)

    def bwd(g):
        w00 = (1 - tx) * (1 - ty)
        w01 = tx * (1 - ty)
        w10 = (1 - tx) * ty
        w11 = tx * ty
        if x.requires_grad:
            gx_ = np.zeros_like(x.data)
            np.add.at(gx_, (bidx, y0, x0), g * w00)
            np.add.at(gx_, (bidx, y0, x1), g * w01)
            np.add.at(gx_, (bidx, y1, x0), g * w10)
            np.add.at(gx_, (bidx, y1, x1), g * w11)
            x.accumulate_grad(gx_)
        if grid.requires_grad:
            dix = _sum_last(g * ((v01 - v00) * (1 - ty) + (v11 - v10) * ty))
            diy = _sum_last(g * ((v10 - v00) * (1 - tx) + (v11 - v01) * tx))
            grid.accumulate_grad(np.stack(
                [np.where(in_x, dix, 0.0) * (w / 2.0), np.where(in_y, diy, 0.0) * (h / 2.0)],
                axis=-1,
            ))

    return _record(out, (x, grid), bwd, "grid_sample")
