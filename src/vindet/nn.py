"""Minimal module system: parameter registry and common layers.

A ``Parameter`` is a ``Tensor``, so layers pass their weights straight to
the engine's primitives and the optimizer reads ``p.data`` and ``p.grad``.
"""

from __future__ import annotations

from typing import Dict, Iterator

import numpy as np

from . import tensor as T
from .tensor import Tensor


class Parameter(Tensor):
    """A trainable float64 tensor; ``Module`` registers attributes of this type.

    The gradient buffer is always allocated so untouched parameters read as
    zero gradient after a backward pass.
    """

    __slots__ = ()

    def __init__(self, data: np.ndarray):
        super().__init__(np.asarray(data, dtype=np.float64), requires_grad=True)
        self.zero_grad()


class Module:
    """Base class tracking child modules and parameters by attribute name.
    A layer defines ``forward``; calling the module runs it."""

    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_children", {})

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def __setattr__(self, key, value):
        if isinstance(value, Parameter):
            self._params[key] = value
        elif isinstance(value, Module):
            self._children[key] = value
        object.__setattr__(self, key, value)

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for k, p in self._params.items():
            yield prefix + k, p
        for k, m in self._children.items():
            yield from m.named_parameters(f"{prefix}{k}.")


class ModuleList(Module):
    def __init__(self, mods=()):
        super().__init__()
        self._items = []
        for m in mods:
            self.append(m)

    def append(self, m: Module):
        self._children[str(len(self._items))] = m
        self._items.append(m)

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)

    def __getitem__(self, i):
        return self._items[i]


def build_registry(model: Module) -> Dict[str, Parameter]:
    """Map each parameter's dotted path to the parameter itself, ordered
    lexicographically by path; a path seen twice raises ValueError."""
    reg: Dict[str, Parameter] = {}
    for name, p in model.named_parameters():
        if name in reg:
            raise ValueError(f"duplicate parameter name {name}")
        reg[name] = p
    return dict(sorted(reg.items()))


def zero_grads(params) -> None:
    for p in params:
        p.zero_grad()


# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------

def _normal(rng: np.random.Generator, shape, std=None):
    """Glorot-scaled normal init: the trailing two axes are (fan_in-ish, out)
    with any leading axes treated as receptive field."""
    if std is None:
        receptive = int(np.prod(shape[:-2])) if len(shape) > 2 else 1
        fan_in = receptive * shape[-2]
        fan_out = receptive * shape[-1]
        std = float(np.sqrt(2.0 / (fan_in + fan_out)))
    return rng.normal(0.0, std, size=shape)


class Linear(Module):
    def __init__(self, c_in: int, c_out: int, rng: np.random.Generator,
                 bias: bool = True, zero_init: bool = False):
        super().__init__()
        w = np.zeros((c_in, c_out)) if zero_init else _normal(rng, (c_in, c_out))
        self.w = Parameter(w)
        self.b = Parameter(np.zeros(c_out)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return T.linear(x, self.w, self.b)


class LayerNorm(Module):
    def __init__(self, c: int):
        super().__init__()
        self.g = Parameter(np.ones(c))
        self.b = Parameter(np.zeros(c))

    def forward(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.g, self.b)


class GroupNorm(Module):
    def __init__(self, c: int, groups: int):
        super().__init__()
        self.groups = groups
        self.g = Parameter(np.ones(c))
        self.b = Parameter(np.zeros(c))

    def forward(self, x: Tensor) -> Tensor:
        return T.group_norm(x, self.g, self.b, self.groups)


class Conv(Module):
    """Channels-last stride-1 convolution over a batch; ``kernel`` holds one
    size per spatial axis, so its length sets the dimensionality."""

    def __init__(self, c_in: int, c_out: int, kernel: tuple, rng: np.random.Generator,
                 padding=0, zero_init: bool = False, bias: bool = True):
        super().__init__()
        self.padding = padding
        shape = (*kernel, c_in, c_out)
        self.w = Parameter(np.zeros(shape) if zero_init else _normal(rng, shape))
        self.b = Parameter(np.zeros(c_out)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return T.conv(x, self.w, self.b, self.padding)


class PatchEmbed(Module):
    """The convolution whose stride equals its kernel, as patchify plus one
    ``linear``: each non-overlapping patch of a (B, *spatial, Ci) input,
    flattened in (*kernel, Ci) order, times the (*kernel, Ci, Co) weight
    flattened the same way. ``kernel`` must divide every spatial side."""

    def __init__(self, c_in: int, c_out: int, kernel: tuple, rng: np.random.Generator):
        super().__init__()
        self.kernel = tuple(kernel)
        shape = (*kernel, c_in, c_out)
        self.w = Parameter(_normal(rng, shape))
        self.b = Parameter(np.zeros(c_out))

    def forward(self, x: Tensor) -> Tensor:
        b, *sides, c = x.shape
        if len(sides) != len(self.kernel) or any(n % k for n, k in zip(sides, self.kernel)):
            raise T.ShapeError(f"patch embed: kernel {self.kernel} does not tile input {x.shape}")
        grid = tuple(n // k for n, k in zip(sides, self.kernel))
        nd = len(grid)
        # (B, g0, k0, g1, k1, ..., C) -> (B, g0, g1, ..., k0, k1, ..., C)
        x = x.reshape(b, *(v for gk in zip(grid, self.kernel) for v in gk), c)
        x = T.permute(x, (0, *range(1, 2 * nd, 2), *range(2, 2 * nd + 1, 2), 2 * nd + 1))
        w = self.w.reshape(-1, self.w.shape[-1])
        return T.linear(x.reshape(b, *grid, -1), w, self.b)


class Mlp(Module):
    """Two linear layers with GELU between, hidden ratio fixed by caller."""

    def __init__(self, c: int, hidden: int, rng: np.random.Generator):
        super().__init__()
        self.fc1 = Linear(c, hidden, rng)
        self.fc2 = Linear(hidden, c, rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.fc2(T.gelu(self.fc1(x)))
