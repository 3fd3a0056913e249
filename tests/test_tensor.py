"""Tensor engine: forward semantics, backward rules, gradient checks."""

import ast
import contextlib
import inspect
import math
import pathlib
import threading

import numpy as np
import pytest

from vindet import gradcheck, nn
from vindet import tensor as T
from vindet.gradcheck import (
    check_full_model,
    finite_diff_check,
    finite_diff_check_params,
    primitive_cases,
    run_primitive_suite,
)
from vindet.tensor import Tensor, ShapeError, backward
from reference_ops import (_assert_within_rounding, gather_rows, matmul, pad, permute,
                           reference_cases, slice_axis, softmax)


def t(data, rg=False):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=rg)


class TestForward:
    def test_matmul_identity(self):
        a = np.array([[1.5, -2.0], [0.25, 3.0]])
        out = matmul(t(np.eye(2)), t(a))
        np.testing.assert_array_equal(out.data, a)

    def test_softmax_symmetry(self):
        out = softmax(t([0.0, 0.0]))
        np.testing.assert_allclose(out.data, [0.5, 0.5])

    def test_group_norm_constant_input_is_zero(self):
        x = t(np.full((4, 4, 8), 3.7))
        out = T.group_norm(x, t(np.ones(8)), t(np.zeros(8)), groups=4)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_sigmoid_matches_closed_form(self):
        x = np.linspace(-6, 6, 13)
        out = T.sigmoid(t(x))
        np.testing.assert_allclose(out.data, 1 / (1 + np.exp(-x)), atol=1e-14)

    def test_shape_mismatch_names_op(self):
        with pytest.raises(ShapeError, match="matmul"):
            matmul(t(np.ones((2, 3))), t(np.ones((2, 3))))
        with pytest.raises(ShapeError, match="concat"):
            T.concat([t(np.ones((2, 3))), t(np.ones((2, 4)))], axis=0)

    def test_axis_out_of_range(self):
        with pytest.raises(ShapeError):
            softmax(t(np.ones(3)), axis=2)


class TestBackwardBasics:
    def test_sum_of_squares(self):
        x = t([1.0, 2.0, 3.0], rg=True)
        backward(T.reduce_sum(x * x))
        np.testing.assert_allclose(x.grad, [2.0, 4.0, 6.0])

    def test_mean_gradient(self):
        x = t(np.arange(4.0), rg=True)
        backward(T.reduce_mean(x))
        np.testing.assert_allclose(x.grad, [0.25] * 4)

    def test_sigmoid_at_zero(self):
        x = t(np.zeros(5), rg=True)
        backward(T.reduce_sum(T.sigmoid(x)))
        np.testing.assert_allclose(x.grad, [0.25] * 5)

    def test_non_scalar_loss_rejected(self):
        x = t(np.ones(3), rg=True)
        with pytest.raises(ShapeError):
            backward(x * x)

    def test_untracked_loss_rejected(self):
        with pytest.raises(ValueError):
            backward(t(1.0))

    def test_grad_sums_over_reuse(self):
        x = t([2.0], rg=True)
        y = x * x + x * 3.0
        backward(T.reduce_sum(y))
        np.testing.assert_allclose(x.grad, [7.0])


class TestShapeOps:
    def test_concat_split_roundtrip(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 5)).astype(T.compute_dtype())
        parts = [slice_axis(t(a), 1, 0, 2), slice_axis(t(a), 1, 2, 5)]
        back = T.concat(parts, axis=1)
        np.testing.assert_array_equal(back.data, a)

    def test_permute_inverse_roundtrip(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(2, 3, 4)).astype(T.compute_dtype())
        p = permute(t(a), (2, 0, 1))
        q = permute(p, (1, 2, 0))
        np.testing.assert_array_equal(q.data, a)

    def test_pad_then_slice(self):
        a = np.ones((2, 2))
        pdd = pad(t(a), ((1, 1), (0, 2)))
        assert pdd.shape == (4, 4)
        assert pdd.data.sum() == 4.0


class TestSampling:
    def test_grid_sample_exact_at_integer_coords(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 8, 8, 3))
        ii, jj = np.meshgrid(np.arange(8), np.arange(8), indexing="ij")
        gx = (2 * jj.reshape(-1) + 1) / 8 - 1
        gy = (2 * ii.reshape(-1) + 1) / 8 - 1
        grid = np.stack([gx, gy], axis=-1)[None]
        out = T.grid_sample_bilinear(t(x), t(grid))
        np.testing.assert_allclose(out.data, x.reshape(1, -1, 3), atol=1e-12)

    def test_grid_sample_border_clamp(self):
        x = np.arange(4.0).reshape(1, 2, 2, 1)
        grid = np.array([[[-5.0, -5.0], [5.0, 5.0]]])
        out = T.grid_sample_bilinear(t(x), t(grid))
        np.testing.assert_allclose(out.data[0, :, 0], [0.0, 3.0])

    def test_grid_sample_takes_a_batch_only(self):
        x = np.zeros((6, 6, 2))
        grid = np.zeros((4, 2))
        with pytest.raises(ShapeError):
            T.grid_sample_bilinear(t(x), t(grid))
        with pytest.raises(ShapeError):
            T.grid_sample_bilinear(t(x[None]), t(grid))

    def test_upsample_identity(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(1, 5, 7, 2))
        out = T.upsample_bilinear2d(t(x), (5, 7))
        np.testing.assert_allclose(out.data, x, atol=1e-12)


@pytest.mark.parametrize("name", sorted(primitive_cases(np.random.default_rng(0))))
def test_primitive_gradients(primitive_suite, name):
    # one case's line of criterion 1's 10-seed run, which is made once
    rep = primitive_suite[0][name]
    assert rep.passed, f"{name}: {rep}"


@pytest.fixture(scope="module")
def reference_suite():
    """Criterion 1's run (10 seeds, eps 1e-6, tol 1e-5) of the reference
    chains' cases, through the suite's own runner."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gradcheck, "primitive_cases", reference_cases)
        return run_primitive_suite(seeds=10, eps=1e-6, tol=1e-5)


@pytest.mark.parametrize("name", sorted(reference_cases(np.random.default_rng(0))))
def test_reference_gradients(reference_suite, name):
    rep = reference_suite[name]
    assert rep.passed, f"{name}: {rep}"


def _padded_cells(h, w, hp, wp):
    """Token index of an (h, w) grid zero-padded at the far end to (hp, wp)."""
    r, c = np.arange(hp)[:, None], np.arange(wp)[None, :]
    return np.where((r < h) & (c < w), r * w + c, -1).reshape(-1)


# each former move: (input shape, reference op, take_tokens batch, index, shape)
TOKEN_MOVES = {
    "slice_axis1": ((2, 5, 3, 3, 4), lambda x: slice_axis(x, 1, 1, 4),
                    2, np.arange(9, 36), (2, 3, 3, 3, 4)),
    "pad_far_end": ((2, 5, 6, 4), lambda x: pad(x, ((0, 0), (0, 2), (0, 3), (0, 0))),
                    2, _padded_cells(5, 6, 7, 9), (2, 7, 9, 4)),
    "gather_rows_axis1_repeats": (
        (2, 3, 4, 4, 5), lambda x: gather_rows(x, np.array([0, 0, 1, 2, 2, 2, 1]), axis=1),
        2, (np.array([0, 0, 1, 2, 2, 2, 1])[:, None] * 16 + np.arange(16)).reshape(-1),
        (2, 7, 4, 4, 5)),
    "patchify_permute": (
        (2, 4, 6, 3),
        lambda x: permute(x.reshape(2, 2, 2, 2, 3, 3), (0, 1, 3, 2, 4, 5)).reshape(2, 2, 2, 18),
        2, nn._patch_index((4, 6), (2, 3)), (2, 2, 2, 18)),
}


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("name", sorted(TOKEN_MOVES))
def test_take_tokens_matches_reference_moves_bitwise(name, dtype):
    # the four primitives take_tokens replaced, each on the index that
    # stands for it: the same output and input gradient, bit for bit
    shape, ref, batch, index, out_shape = TOKEN_MOVES[name]
    rng = np.random.default_rng(len(name))
    x0, r0 = rng.normal(size=shape), rng.normal(size=out_shape)
    with T.float64_scope() if dtype == "float64" else contextlib.nullcontext():
        got = []
        for op in (ref, lambda x: T.take_tokens(x, index, batch, out_shape)):
            x = Tensor(x0, requires_grad=True)
            y = op(x)
            backward(T.reduce_sum(y * Tensor(r0)))
            assert y.dtype == dtype
            got.append((y.data.tobytes(), x.grad.tobytes()))
    assert got[0] == got[1]


def test_take_tokens_scatter_adds_only_repeated_tokens(monkeypatch):
    # a backward whose index has no repeats assigns each gradient to its
    # place; np.add.at runs only for an index with a repeat, however short
    calls = []

    class _Add:
        def at(self, *args):
            calls.append(args[1])
            np.add.at(*args)

    class _Numpy:
        add = _Add()

        def __getattr__(self, name):
            return getattr(np, name)

    monkeypatch.setattr(T, "np", _Numpy())
    x = t(np.arange(12.0).reshape(1, 6, 2), rg=True)
    for index, added in [([5, 0, 3, 1], False), ([4, -1, 2, -1], False), ([1, 1], True),
                         ([2, -1, 2], True)]:
        calls.clear()
        y = T.take_tokens(x, np.array(index), 1, (1, len(index), 2))
        backward(T.reduce_sum(y * 1.0))
        assert bool(calls) == added, index
    taken = np.bincount(np.array([5, 0, 3, 1, 4, 2, 1, 1, 2, 2]), minlength=6)
    np.testing.assert_array_equal(x.grad, np.repeat(taken, 2).reshape(1, 6, 2))


def _tensor_calls(tree, aliases, imported):
    """The tensor functions ``tree`` calls, as ``alias.name(...)`` for a
    module alias in ``aliases`` or as ``name(...)`` for a name in ``imported``."""
    names = set()
    for node in ast.walk(tree):
        f = node.func if isinstance(node, ast.Call) else None
        if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) and f.value.id in aliases:
            names.add(f.attr)
        elif isinstance(f, ast.Name) and f.id in imported:
            names.add(f.id)
    return names


def test_every_engine_primitive_has_a_caller_in_the_program():
    # a primitive that only tests call belongs in tests/reference_ops.py.
    # Tensor's operators and methods count as calls of the primitives they
    # run, since the program applies them to Tensors throughout.
    public = {name for name, f in inspect.getmembers(T, inspect.isfunction)
              if f.__module__ == T.__name__ and not name.startswith("_")}
    called = _tensor_calls(ast.parse(inspect.getsource(T.Tensor)), (), public)
    for path in pathlib.Path(T.__file__).parent.glob("*.py"):
        if path.name in ("tensor.py", "gradcheck.py"):
            continue
        tree = ast.parse(path.read_text())
        aliases, imported = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module in (None, "vindet"):
                aliases |= {a.asname or a.name for a in node.names if a.name == "tensor"}
            elif isinstance(node, ast.ImportFrom) and node.module in ("tensor", "vindet.tensor"):
                imported |= {a.asname or a.name for a in node.names}
        called |= _tensor_calls(tree, aliases, imported)
    assert sorted(public - called) == []


def test_primitive_suite_draws_each_seeds_cases_once(monkeypatch):
    # on scripted reports: the larger error or the failure is kept, and a
    # case is not checked after its first failing seed
    import vindet.gradcheck as gc

    drawn, checked = [], []
    script = {("a", 0): 0.1, ("a", 1): 0.3, ("a", 2): 0.2,
              ("b", 0): 0.2, ("b", 1): 2.0, ("b", 2): 0.1}

    def cases(rng):
        drawn.append(rng.bit_generator.state)
        return {name: (name, len(drawn) - 1) for name in ("b", "a")}

    def check(name, seed, eps, tol):
        checked.append((name, seed))
        return gc.GradCheckReport(script[name, seed], script[name, seed] <= tol, 1)

    monkeypatch.setattr(gc, "primitive_cases", cases)
    monkeypatch.setattr(gc, "finite_diff_check", check)
    reports = gc.run_primitive_suite(seeds=3, tol=1.0)
    assert drawn == [np.random.default_rng(1000 + s).bit_generator.state for s in range(3)]
    assert list(reports) == ["a", "b"] and sorted(checked) == sorted(set(script) - {("b", 2)})
    assert [(r.max_rel_err, r.passed) for r in reports.values()] == [(0.3, True), (2.0, False)]


def test_finite_diff_quadratic_is_tight():
    rng = np.random.default_rng(7)
    # every coordinate of the small input; a sample of 50 from the large one
    for size, n in ((8, 8), (300, 50)):
        x = Tensor(rng.uniform(-1, 1, size=size))
        rep = finite_diff_check(lambda v: T.reduce_sum(v * v), x, eps=1e-6, tol=1e-7,
                                max_coords=50)
        assert rep.passed and rep.max_rel_err <= 1e-7 and rep.n_coords == n


def test_finite_diff_constant_function():
    # softmax sums to one: autodiff gradient is identically zero and central
    # differences are zero up to float roundoff of the constant output
    x = Tensor(np.linspace(-1, 1, 6), requires_grad=True)
    backward(T.reduce_sum(softmax(x, axis=0)))
    np.testing.assert_allclose(x.grad, 0.0, atol=1e-15)
    eps = 1e-6
    for i in range(x.size):
        orig = x.data[i]
        with T.no_grad():
            x.data[i] = orig + eps
            fp = T.reduce_sum(softmax(x, axis=0)).item()
            x.data[i] = orig - eps
            fm = T.reduce_sum(softmax(x, axis=0)).item()
        x.data[i] = orig
        assert abs(fp - fm) / (2 * eps) <= 1e-9


def test_finite_diff_flags_non_finite():
    x = Tensor(np.array([0.5, 1.0]))

    def bad(v):
        return T.reduce_sum(T.log(v - 0.75))

    with np.errstate(invalid="ignore"):
        rep = finite_diff_check(bad, x, eps=1e-4, tol=1e-5)
    assert not rep.passed and rep.non_finite


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_finite_diff_flags_a_non_finite_gradient(bad):
    # the forward is the identity; the backward hands on a non-finite gradient
    def f(v):
        return T.reduce_sum(T._unary(v, v.data.copy(), lambda g: g * bad, "broken"))

    rep = finite_diff_check(f, Tensor(np.linspace(-1, 1, 5)), eps=1e-6, tol=1e-5)
    assert not rep.passed and rep.non_finite == [(0, i) for i in range(5)]


def test_finite_diff_refuses_an_empty_or_unsound_probe():
    x = Tensor(np.ones(3))
    with pytest.raises(ValueError, match="no coordinate"):
        finite_diff_check(lambda v: T.reduce_sum(v), x, max_coords=0)
    with pytest.raises(ValueError, match="no coordinate"):
        finite_diff_check_params(lambda: T.reduce_sum(x), [])
    # both entry points share the eps bound
    with pytest.raises(ValueError, match="eps"):
        finite_diff_check_params(lambda: T.reduce_sum(x), [x], eps=1e-2)


def test_gradient_checks_pin_float64():
    # called in the default float32 state, every check computes in float64
    # and hands its caller's tensors and dtype back unchanged
    from vindet.config import ExperimentConfig
    from vindet.nn import Parameter

    assert T.compute_dtype() == np.float32
    rng = np.random.default_rng(31)
    x = Tensor(rng.uniform(-1, 1, size=(3, 4)))
    w = Parameter(rng.normal(size=(4, 5)))
    data, grad = w.data, w.grad
    seen = []

    def loss(v, weight):
        seen.append(v.dtype)
        return T.reduce_sum(T.gelu(T.linear(v, weight)) ** 2)

    rep = finite_diff_check(lambda v: loss(v, w), x, eps=1e-6, tol=1e-5)
    assert rep.passed and rep.max_rel_err <= 1e-7 and set(seen) == {np.dtype(np.float64)}
    rep = finite_diff_check_params(lambda: loss(x, w), [w], eps=1e-6, tol=1e-5)
    assert rep.passed and rep.max_rel_err <= 1e-7
    assert w.data is data and w.grad is grad and grad.dtype == np.float32
    assert x.dtype == np.float32

    cfg = ExperimentConfig()
    cfg.geometry.height = cfg.geometry.width = 16
    cfg.geometry.views = (1, 2)
    cfg.encoder.dims = cfg.decoder.channels = (8, 8)
    cfg.encoder.depths = (1, 1)
    cfg.encoder.window = cfg.dwti.window = 2
    cfg.glob.patch = cfg.glob.dim = 8
    cfg.validate()
    outside = [*run_primitive_suite(seeds=1).values(), check_full_model(cfg, seed=2)]
    with T.float64_scope():
        inside = [*run_primitive_suite(seeds=1).values(), check_full_model(cfg, seed=2)]
    assert T.compute_dtype() == np.float32
    assert all(a.passed for a in outside)
    assert [a.max_rel_err for a in outside] == [b.max_rel_err for b in inside]


def test_gradient_check_keeps_packed_buffers():
    # a packed layer's data and gradient stay views of the packed arrays,
    # and the packed gradient holds the gradient the check computed
    rng = np.random.default_rng(33)
    layer = nn.Linear(4, 3, rng)
    params = [layer.w, layer.b]
    data, grad = nn.pack(params)
    x = Tensor(rng.uniform(-1, 1, size=(5, 4)))

    def loss():
        return T.reduce_sum(T.gelu(layer(x)) ** 2)

    backward(loss())
    autodiff = grad.copy()
    grad.fill(np.nan)
    rep = finite_diff_check_params(loss, params, eps=1e-6, tol=1e-5)
    assert rep.passed and autodiff.all()
    assert all(np.shares_memory(p.data, data) for p in params)
    assert all(np.shares_memory(p.grad, grad) for p in params)
    np.testing.assert_allclose(grad, autodiff, rtol=1e-5)


def _assert_normalize_within_rounding(got, want, x, g, b, gout, stats_shape, eps=T.NORM_EPS):
    """The output and the x, g and b gradients of two normalisation kernels
    that differ only in the order in which they add up the group statistics
    mu, var, m1 and m2 (k terms each) and the g and b gradients (N tokens
    each) agree to the rounding those sums allow. Either order of a sum lies
    within k·eps/2 of the exact sum, relative to the sum of its terms'
    absolute values, so two orders differ by k·eps times that. To first
    order, counting each elementwise step's own rounding, with A = mean|x|
    and E = k·eps per group:
      mu: E·A;   var: (k+2)·eps·var, since d var/d mu = -2·mean(xc) = 0;
      inv: E·inv;   y: E·(inv·A + 2|y|);   out: E·(|g|·dy + |g·y| + |b|);
      m1: E·mean|gy|;   m2: E·(4·mean|gy·y| + inv·A·mean|gy|);
      x grad: E·(inv·(dm1 + |y|·dm2 + |m2|·dy + 2·(|gy| + |m1| + |y·m2|)) + |gx|);
      g grad: max(N, k)·eps·Σ(|gout·y| + |gout|·dy);   b grad: N·eps·Σ|gout|,
    where dy, dm1 and dm2 are the y, m1 and m2 bounds over E."""
    xv = x.reshape(stats_shape)
    k = xv.shape[1] * xv.shape[3]
    n_tok = x.size // x.shape[-1]
    lead = tuple(range(x.ndim - 1))

    def mean(v):
        return v.mean(axis=(1, 3), keepdims=True)

    xc = xv - mean(xv)
    inv = 1.0 / np.sqrt(mean(xc * xc) + eps)
    a_abs, y = mean(np.abs(xv)), xc * inv
    dy = inv * a_abs + 2 * np.abs(y)
    gy = (gout * g).reshape(xv.shape)
    m1, m2 = mean(gy), mean(gy * y)
    dm1, dm2 = mean(np.abs(gy)), 4 * mean(np.abs(gy * y)) + inv * a_abs * mean(np.abs(gy))
    gx = (gy - m1 - y * m2) * inv
    rounding = np.abs(gy) + np.abs(m1) + np.abs(y * m2)
    scale_gx = inv * (dm1 + np.abs(y) * dm2 + np.abs(m2) * dy + 2 * rounding) + np.abs(gx)
    dy, y = dy.reshape(x.shape), y.reshape(x.shape)
    bounds = ((np.abs(g) * dy + np.abs(g * y) + np.abs(b), k),
              (scale_gx.reshape(x.shape), k),
              (np.sum(np.abs(gout * y) + np.abs(gout) * dy, axis=lead), max(n_tok, k)),
              (np.sum(np.abs(gout), axis=lead), n_tok))
    for got_v, want_v, (scale, n) in zip(got, want, bounds):
        _assert_within_rounding(got_v, want_v, scale, n)


def _per_token_layer_norm(x, g, b, gout, eps=T.NORM_EPS):
    """The per-token kernel ``layer_norm`` ran before it shared ``group_norm``'s:
    the output and the gradients of x, g and b for the upstream gradient ``gout``."""
    mu = np.mean(x, axis=-1, keepdims=True)
    xc = x - mu
    var = np.mean(xc * xc, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    y = xc * inv
    lead = tuple(range(x.ndim - 1))
    gy = gout * g
    m1 = np.mean(gy, axis=-1, keepdims=True)
    m2 = np.mean(gy * y, axis=-1, keepdims=True)
    return (y * g + b, (gy - m1 - y * m2) * inv,
            np.sum(gout * y, axis=lead), np.sum(gout, axis=lead))


@pytest.mark.usefixtures("float64")
@pytest.mark.parametrize("shape", [(4, 6), (2, 9, 16), (3, 2, 5, 24)])
def test_layer_norm_matches_per_token_kernel(shape):
    rng = np.random.default_rng(11)
    c = shape[-1]
    x, g, b = (t(rng.normal(size=shape), rg=True), t(rng.uniform(0.5, 1.5, size=c), rg=True),
               t(rng.normal(size=c) * 0.1, rg=True))
    r = rng.normal(size=shape)
    out = T.layer_norm(x, g, b)
    backward(T.reduce_sum(out * t(r)))
    want = _per_token_layer_norm(x.data, g.data, b.data, r)
    _assert_normalize_within_rounding((out.data, x.grad, g.grad, b.grad), want,
                                      x.data, g.data, b.data, r, (-1, 1, 1, c))


def _unfused_normalize(x, g, b, gout, stats_shape, eps=T.NORM_EPS):
    """The normalisation kernel as it ran before it worked in place: the
    output and the gradients of x, g and b for the upstream gradient ``gout``."""
    xv = x.reshape(stats_shape)
    mu = xv.mean(axis=(1, 3), keepdims=True)
    xc = xv - mu
    var = (xc * xc).mean(axis=(1, 3), keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    y = (xc * inv).reshape(x.shape)
    lead = tuple(range(x.ndim - 1))
    gy = (gout * g).reshape(xv.shape)
    yv = y.reshape(xv.shape)
    m1 = gy.mean(axis=(1, 3), keepdims=True)
    m2 = (gy * yv).mean(axis=(1, 3), keepdims=True)
    return (y * g + b, ((gy - m1 - yv * m2) * inv).reshape(x.shape),
            np.sum(gout * y, axis=lead), np.sum(gout, axis=lead))


@pytest.mark.usefixtures("float64")
@pytest.mark.parametrize("shape,groups", [((4, 6), 3), ((2, 9, 16), 4), ((3, 2, 5, 24), 6)])
def test_group_norm_matches_unfused_kernel(shape, groups):
    rng = np.random.default_rng(12)
    c = shape[-1]
    x, g, b = (t(rng.normal(size=shape), rg=True), t(rng.uniform(0.5, 1.5, size=c), rg=True),
               t(rng.normal(size=c) * 0.1, rg=True))
    r = rng.normal(size=shape)
    out = T.group_norm(x, g, b, groups)
    backward(T.reduce_sum(out * t(r)))
    stats_shape = (shape[0], -1, groups, c // groups)
    want = _unfused_normalize(x.data, g.data, b.data, r, stats_shape)
    _assert_normalize_within_rounding((out.data, x.grad, g.grad, b.grad), want,
                                      x.data, g.data, b.data, r, stats_shape)


def _unfused_gelu(x, gout):
    """The gelu kernel as it ran before it worked in place: the output and
    the input gradient for the upstream gradient ``gout``."""
    c = math.sqrt(2.0 / math.pi)
    x2 = x * x
    th = np.tanh(c * (x + 0.044715 * (x2 * x)))
    du = c * (1.0 + 3 * 0.044715 * x2)
    d = 0.5 * (1.0 + th) + 0.5 * x * (1.0 - th * th) * du
    return 0.5 * x * (1.0 + th), gout * d


@pytest.mark.usefixtures("float64")
@pytest.mark.parametrize("shape", [(4, 6), (2, 9, 16), (3, 2, 5, 24)])
def test_gelu_matches_unfused_kernel(shape):
    rng = np.random.default_rng(13)
    x = t(rng.uniform(-10.0, 10.0, size=shape), rg=True)
    r = rng.normal(size=shape)
    out = T.gelu(x)
    backward(T.reduce_sum(out * t(r)))
    want = _unfused_gelu(x.data, r)
    assert np.array_equal(out.data, want[0])
    assert np.array_equal(x.grad, want[1])


def test_no_grad_blocks_recording():
    x = t(np.ones(3), rg=True)
    with T.no_grad():
        y = T.reduce_sum(x * x)
    assert y._entry is None and not y.requires_grad


def test_no_grad_is_per_thread():
    # one thread records while the other sits inside no_grad
    barrier = threading.Barrier(2, timeout=10)
    recorded = {}

    def quiet():
        with T.no_grad():
            barrier.wait()
            barrier.wait()
            recorded["quiet"] = (t(np.ones(2), rg=True) * 2.0).requires_grad

    def loud():
        barrier.wait()
        recorded["loud"] = (t(np.ones(2), rg=True) * 2.0).requires_grad
        barrier.wait()

    threads = [threading.Thread(target=f) for f in (quiet, loud)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=10)
    assert not any(th.is_alive() for th in threads)
    assert recorded == {"quiet": False, "loud": True}


def test_unreachable_parameter_keeps_zero_grad():
    from vindet.nn import Parameter

    used = Parameter(np.array([2.0, 3.0]))
    unused = Parameter(np.array([1.0]))
    backward(T.reduce_sum(used * used))
    np.testing.assert_allclose(used.grad, [4.0, 6.0])
    np.testing.assert_array_equal(unused.grad, [0.0])


def test_bit_identical_repeat_runs():
    def run():
        rng = np.random.default_rng(42)
        x = Tensor(rng.normal(size=(6, 6)), requires_grad=True)
        w = Tensor(rng.normal(size=(6, 6)), requires_grad=True)
        y = T.reduce_sum(softmax(matmul(x, w), axis=-1) * x)
        backward(y)
        return y.data.copy(), x.grad.copy(), w.grad.copy()

    a = run()
    b = run()
    for u, v in zip(a, b):
        assert np.array_equal(u, v)


def test_backward_frees_graph_without_cyclic_gc():
    import gc
    import weakref

    gc.disable()
    try:
        x = t(np.arange(3.0), rg=True)
        mid = T.tanh(x * 2.0)
        ref = weakref.ref(mid)
        loss = T.reduce_sum(mid * mid)
        del mid
        backward(loss)
        assert ref() is not None
        del loss
        assert ref() is None
    finally:
        gc.enable()


def test_unpropagated_model_graph_is_freed_without_cyclic_gc():
    # a taped forward that is never back-propagated: no backward rule refers
    # to its output, so dropping the map frees the whole graph at once
    import gc
    import weakref

    from vindet.config import ExperimentConfig
    from vindet.data import generate_dataset
    from vindet.model import InpaintingDetector

    cfg = ExperimentConfig()
    model = InpaintingDetector(cfg)
    frames = np.stack([c.clip.frames for c in generate_dataset(2, 1, cfg)])
    gc.disable()
    try:
        maps = model(frames)
        refs = [weakref.ref(maps), weakref.ref(maps._entry.inputs[0])]
        del maps
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


def test_second_backward_on_consumed_graph_rejected():
    x = t([1.0, 2.0], rg=True)
    loss = T.reduce_sum(x * x)
    backward(loss)
    with pytest.raises(ValueError, match="already"):
        backward(loss)
    np.testing.assert_allclose(x.grad, [2.0, 4.0])


def test_first_gradient_is_a_private_copy():
    # add's backward hands one array to both inputs; neither may adopt it
    a = t(np.ones((2, 3)), rg=True)
    b = t(np.ones((2, 3)), rg=True)
    backward(T.reduce_sum((a + b) * 3.0))
    assert not np.shares_memory(a.grad, b.grad)
    a.grad += 1.0
    np.testing.assert_array_equal(b.grad, np.full((2, 3), 3.0))


def test_parameters_fed_to_one_add_keep_private_grads():
    from vindet.nn import Parameter

    a = Parameter(np.ones((2, 3)))
    b = Parameter(np.ones((2, 3)))
    backward(T.reduce_sum((a + b) * 3.0))
    assert not np.shares_memory(a.grad, b.grad)
    a.grad += 1.0
    np.testing.assert_array_equal(b.grad, np.full((2, 3), 3.0))


def test_op_output_adopts_the_gradient_its_consumer_returns():
    handed = []

    def rule(g):
        handed.append(g * 2.0)
        return handed[-1]

    x = t(np.arange(6.0).reshape(2, 3), rg=True)
    y = x * 1.5
    backward(T.reduce_sum(T._unary(y, y.data * 2.0, rule, "double")))
    assert np.shares_memory(y.grad, handed[0])
    np.testing.assert_array_equal(x.grad, np.full((2, 3), 3.0))
