"""Central-difference verification of autodiff gradients.

``finite_diff_check`` and ``finite_diff_check_params`` compare a gradient
to central differences. ``primitive_cases`` holds one case per input of
every differentiable primitive, plus the axis, exponent, index and batch
branches of their backward rules. Each case projects the op's output onto
a fixed random direction so the scalar loss has well-conditioned,
order-one gradients. The auxiliary tensors are drawn with the cases, and
cases may share them, so a checked function must be a fixed deterministic
map that changes none of them. ``run_primitive_suite``, the one runner of
the cases, draws them once per seed and keeps each case's worst report
over the seeds. ``check_full_model`` spot-checks a whole detector. Every
check runs in ``tensor.float64_scope``, whatever dtype its caller computes
in. Shared between the CLI and the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

import numpy as np

from . import tensor as T
from .config import ExperimentConfig
from .data import make_clip
from .model import InpaintingDetector
from .objectives import total_loss
from .tensor import Tensor


@dataclass
class GradCheckReport:
    max_rel_err: float
    passed: bool
    n_coords: int
    worst_coord: Optional[tuple] = None
    non_finite: list = field(default_factory=list)

    def __str__(self):
        state = "PASS" if self.passed else "FAIL"
        return f"{state} max_rel_err={self.max_rel_err:.3e} over {self.n_coords} coords"


def finite_diff_check(
    f: Callable[[Tensor], Tensor],
    x: Tensor,
    eps: float = 1e-6,
    tol: float = 1e-5,
    max_coords: int = 100,
) -> GradCheckReport:
    """Compare the autodiff gradient of scalar-valued ``f`` to central differences.

    Probes a float64 copy of ``x`` through ``finite_diff_check_params``:
    every coordinate when ``x`` has at most ``max_coords``, otherwise a
    random subset of ``max_coords``. Relative error per coordinate is
    |g_ad - g_fd| / max(1e-8, |g_ad| + |g_fd|).
    """
    with T.float64_scope():
        xt = Tensor(x.data.copy(), requires_grad=True)
        return finite_diff_check_params(lambda: f(xt), [xt], max_coords, eps, tol)


def finite_diff_check_params(
    loss_fn: Callable[[], Tensor],
    params: Iterable[Tensor],
    n_coords: int = 100,
    eps: float = 1e-5,
    tol: float = 1e-3,
    seed: int = 0,
) -> GradCheckReport:
    """Spot-check gradients: perturb sampled scalars of ``params`` in place.

    ``params`` are the tensors ``loss_fn`` reads, such as a model's registry
    values. The check runs in ``float64_scope``; a tensor of another dtype
    is probed through a float64 copy of its values and gets its own array
    back afterwards. The gradient lands in the tensor's own gradient buffer,
    in its dtype, so a parameter packed by ``nn.pack`` stays packed.
    ``n_coords`` scalars are drawn without replacement over all of them
    (every scalar when there are fewer), and each is reported as (tensor
    index, flat index). The loss closure is re-evaluated under no_grad for the +/- eps
    probes. A coordinate whose autodiff gradient or either probe is not
    finite is listed in ``non_finite`` and fails the check; ``eps`` outside
    (0, 1e-3], or no coordinate to probe, raises ValueError.
    """
    if not 0.0 < eps <= 1e-3:
        raise ValueError(f"finite_diff_check: eps {eps} outside (0, 1e-3]")
    tensors = list(params)
    bounds = np.cumsum([0] + [t.size for t in tensors])
    n = min(n_coords, int(bounds[-1]))
    if n < 1:
        raise ValueError(f"finite_diff_check: no coordinate to probe "
                         f"({n_coords} asked of {int(bounds[-1])})")
    kept = [(t.data, t.grad) for t in tensors]
    with T.float64_scope():
        try:
            for t in tensors:
                t.data = np.asarray(t.data, dtype=T.compute_dtype())
                t.grad = None
            T.backward(loss_fn())
            rng = np.random.default_rng(seed)
            worst, worst_coord, non_finite = 0.0, None, []
            for fid in np.sort(rng.choice(int(bounds[-1]), size=n, replace=False)):
                ti = int(np.searchsorted(bounds, fid, side="right")) - 1
                i = int(fid - bounds[ti])
                t = tensors[ti]
                g_ad = 0.0 if t.grad is None else float(t.grad.reshape(-1)[i])
                buf = t.data.reshape(-1)
                orig = buf[i]
                with T.no_grad():
                    buf[i] = orig + eps
                    fp = loss_fn().item()
                    buf[i] = orig - eps
                    fm = loss_fn().item()
                buf[i] = orig
                if not (math.isfinite(g_ad) and math.isfinite(fp) and math.isfinite(fm)):
                    non_finite.append((ti, i))
                    continue
                g_fd = (fp - fm) / (2.0 * eps)
                r = abs(g_ad - g_fd) / max(1e-8, abs(g_ad) + abs(g_fd))
                if r > worst:
                    worst, worst_coord = r, ((ti, i), g_ad, g_fd)
            return GradCheckReport(worst, worst <= tol and not non_finite, n,
                                   worst_coord, non_finite)
        finally:
            for t, (data, grad) in zip(tensors, kept):
                if grad is not None:
                    grad[...] = 0.0 if t.grad is None else t.grad
                elif t.grad is not None:
                    grad = t.grad.astype(data.dtype)
                t.data, t.grad = data, grad


def primitive_cases(rng: np.random.Generator) -> dict[str, tuple[Callable, Tensor]]:
    u = lambda *s: Tensor(rng.uniform(-1.0, 1.0, size=s))
    upos = lambda *s: Tensor(rng.uniform(0.5, 1.5, size=s))
    proj = lambda *s: Tensor(rng.normal(size=s))

    cases: dict[str, tuple[Callable, Tensor]] = {}

    def case(name, f, x):
        cases[name] = (f, x)

    r34 = proj(3, 4)
    other = Tensor(rng.normal(size=(3, 4)))
    case("add", lambda x: T.reduce_sum((x + other) * r34), u(3, 4))
    case("sub", lambda x: T.reduce_sum((other - x) * r34), u(3, 4))
    case("mul", lambda x: T.reduce_sum(x * other * r34), u(3, 4))
    case("div", lambda x: T.reduce_sum((other / x) * r34), upos(3, 4))
    case("neg", lambda x: T.reduce_sum(-x * r34), u(3, 4))
    case("pow", lambda x: T.reduce_sum((x ** 3) * r34), u(3, 4))
    case("log", lambda x: T.reduce_sum(T.log(x) * r34), upos(3, 4))
    case("tanh", lambda x: T.reduce_sum(T.tanh(x) * r34), u(3, 4))
    case("sigmoid", lambda x: T.reduce_sum(T.sigmoid(x) * r34), u(3, 4))
    case("gelu", lambda x: T.reduce_sum(T.gelu(x) * r34), u(3, 4))

    r233 = proj(2, 3, 3)
    lin_w, lin_b, lin_x = proj(4, 3), proj(3), proj(2, 3, 4)
    case("linear", lambda x: T.reduce_sum(T.linear(x, lin_w, lin_b) * r233), u(2, 3, 4))
    case("linear_weight", lambda w: T.reduce_sum(T.linear(lin_x, w) * r233), u(4, 3))
    # a (*kernel, Ci, Co) weight, as 1x1 convs and patch embeddings pass
    case("linear_kernel_weight", lambda w: T.reduce_sum(T.linear(lin_x, w) * r233), u(2, 2, 3))
    case("linear_bias", lambda b: T.reduce_sum(T.linear(lin_x, lin_w, b) * r233), u(3))

    # 4 sets of 4 tokens in 2 heads of width 3. q, k and v are scaled copies
    # of x, so every input path is checked; the mask tiles over 2 sets and
    # always leaves a token its own key.
    rat, at_k, at_v = proj(4, 4, 6), proj(4, 4, 6), proj(4, 4, 6)
    at_table, at_index = proj(9, 2), rng.integers(0, 9, size=16)
    at_mask = np.where(rng.uniform(size=(2, 4, 4)) < 0.3, -1e9, 0.0) * (1.0 - np.eye(4))

    def attend(q, k, v, table, heads=2, mask=at_mask):
        return T.reduce_sum(T.attention(q, k, v, heads, table, at_index, mask)[0] * rat)

    case("attention", lambda x: attend(x, x * at_k, x * at_v, at_table), u(4, 4, 6))
    case("attention_table", lambda t: attend(at_k, at_v, at_k * at_v, t), u(9, 2))
    case("attention_one_head", lambda x: attend(x, x * at_k, x * at_v, None, 1, None), u(4, 4, 6))

    r26 = proj(2, 6)
    case("reshape", lambda x: T.reduce_sum(x.reshape(2, 6) * r26), u(3, 4))
    cc = Tensor(rng.normal(size=(2, 4)))
    rcat = proj(4, 4)
    case("concat", lambda x: T.reduce_sum(T.concat([x, cc], axis=0) * rcat), u(2, 4))
    # a 4x4 grid into four 2x2 windows in a random cell order, and back into
    # a 2x2 grid that keeps 4 of each sample's 8 window cells
    rwg, rws = proj(8, 4, 2), proj(2, 2, 2, 2)
    wg_index, ws_index = rng.permutation(16), rng.choice(8, size=4, replace=False)
    case("take_tokens_gather",
         lambda x: T.reduce_sum(T.take_tokens(x, wg_index, 2, (8, 4, 2)) * rwg), u(2, 4, 4, 2))
    case("take_tokens_scatter",
         lambda x: T.reduce_sum(T.take_tokens(x, ws_index, 2, (2, 2, 2, 2)) * rws), u(4, 4, 2))

    case("sum", lambda x: T.reduce_sum(x * x), u(3, 4))
    case("mean", lambda x: T.reduce_sum(T.reduce_mean(x * x, axis=1)), u(3, 4))

    ln_g = Tensor(rng.uniform(0.5, 1.5, size=6))
    ln_b = Tensor(rng.normal(size=6) * 0.1)
    r46 = proj(4, 6)
    case("layer_norm", lambda x: T.reduce_sum(T.layer_norm(x, ln_g, ln_b) * r46), u(4, 6))
    # batched ops take a batch of one here; the cases from "add_right" on take B=2
    gn_g = Tensor(rng.uniform(0.5, 1.5, size=8))
    gn_b = Tensor(rng.normal(size=8) * 0.1)
    r338 = proj(1, 3, 3, 8)
    case("group_norm",
         lambda x: T.reduce_sum(T.group_norm(x, gn_g, gn_b, 4) * r338), u(1, 3, 3, 8))

    k2 = Tensor(rng.normal(size=(3, 3, 2, 3)) * 0.4)
    b2 = Tensor(rng.normal(size=3) * 0.1)
    r553 = proj(1, 5, 5, 3)
    case("conv2d", lambda x: T.reduce_sum(T.conv(x, k2, b2) * r553), u(1, 5, 5, 2))
    k3 = Tensor(rng.normal(size=(3, 3, 3, 2, 2)) * 0.4)
    b3 = Tensor(rng.normal(size=2) * 0.1)
    r3442 = proj(1, 3, 4, 4, 2)
    case("conv3d", lambda x: T.reduce_sum(T.conv(x, k3, b3) * r3442),
         u(1, 3, 4, 4, 2))

    r752 = proj(1, 7, 5, 2)
    case("upsample_bilinear2d",
         lambda x: T.reduce_sum(T.upsample_bilinear2d(x, (7, 5)) * r752), u(1, 4, 4, 2))

    grid = Tensor(rng.uniform(-0.85, 0.85, size=(1, 6, 2)))
    r62 = proj(1, 6, 2)
    case("grid_sample_data",
         lambda x: T.reduce_sum(T.grid_sample_bilinear(x, grid) * r62), u(1, 6, 6, 2))
    gs_x = Tensor(rng.uniform(-1, 1, size=(1, 6, 6, 2)))
    case("grid_sample_coords",
         lambda g: T.reduce_sum(T.grid_sample_bilinear(gs_x, g) * r62),
         Tensor(rng.uniform(-0.85, 0.85, size=(1, 6, 2))))
    # the inputs the cases above leave unprobed, and the axis, exponent,
    # index and batch branches of the backward rules. A new case is drawn
    # after every case before it, so each earlier case keeps its inputs: add
    # cases at the end
    case("add_right", lambda x: T.reduce_sum((other + x) * r34), u(3, 4))
    case("sub_left", lambda x: T.reduce_sum((x - other) * r34), u(3, 4))
    den = upos(3, 4)
    case("div_numerator", lambda x: T.reduce_sum((x / den) * r34), u(3, 4))
    # x fills the second and third parts, along the last axis
    cc3, r2_10 = proj(2, 2), proj(2, 10)
    case("concat_three", lambda x: T.reduce_sum(T.concat([cc3, x, x], axis=-1) * r2_10),
         u(2, 4))

    r32, r4 = proj(3, 2), proj(4)
    case("sum_axis1", lambda x: T.reduce_sum(T.reduce_sum(x, axis=1) * r32), u(3, 4, 2))
    case("sum_axes", lambda x: T.reduce_sum(T.reduce_sum(x, axis=(0, -1)) * r4), u(3, 4, 2))
    case("mean_axes02", lambda x: T.reduce_sum(T.reduce_mean(x, axis=(0, 2)) * r4), u(3, 4, 2))
    case("mean_all", lambda x: T.reduce_mean(x * r34), u(3, 4))
    r33 = proj(3, 3)
    case("pow_zero", lambda x: T.reduce_sum((x ** 0) * r33), u(3, 3))
    case("pow_half", lambda x: T.reduce_sum((x ** 0.5) * r33), upos(3, 3))

    ln_x = u(4, 6)
    case("layer_norm_gamma",
         lambda g: T.reduce_sum(T.layer_norm(ln_x, g, ln_b) * r46), upos(6))
    case("layer_norm_beta",
         lambda b: T.reduce_sum(T.layer_norm(ln_x, ln_g, b) * r46), u(6))
    gn_x, r2238 = u(2, 2, 3, 8), proj(2, 2, 3, 8)
    case("group_norm_batch",
         lambda x: T.reduce_sum(T.group_norm(x, gn_g, gn_b, 4) * r2238), u(2, 2, 3, 8))
    case("group_norm_gamma",
         lambda g: T.reduce_sum(T.group_norm(gn_x, g, gn_b, 4) * r2238), upos(8))
    case("group_norm_beta",
         lambda b: T.reduce_sum(T.group_norm(gn_x, gn_g, b, 4) * r2238), u(8))

    # a ragged 5x4 grid
    kb, bb = Tensor(rng.normal(size=(3, 3, 2, 3)) * 0.4), Tensor(rng.normal(size=3) * 0.1)
    cbx, r2543 = u(2, 5, 4, 2), proj(2, 5, 4, 3)
    case("conv2d_batch", lambda x: T.reduce_sum(T.conv(x, kb, bb) * r2543), u(2, 5, 4, 2))
    case("conv2d_batch_weight",
         lambda w: T.reduce_sum(T.conv(cbx, w, bb) * r2543),
         Tensor(rng.normal(size=(3, 3, 2, 3)) * 0.4))
    case("conv2d_bias", lambda b: T.reduce_sum(T.conv(cbx, kb, b) * r2543), u(3))
    # one 5x5 sample, no bias
    cx = Tensor(rng.uniform(-1, 1, size=(1, 5, 5, 2)))
    case("conv2d_weight",
         lambda w: T.reduce_sum(T.conv(cx, w) * r553),
         Tensor(rng.normal(size=(3, 3, 2, 3)) * 0.4))
    # a (3, 3, 1) kernel: padding 1, 1 and 0 per axis
    kp, bp = Tensor(rng.normal(size=(3, 3, 1, 2, 2)) * 0.4), Tensor(rng.normal(size=2) * 0.1)
    cpx, r22432 = u(2, 2, 4, 3, 2), proj(2, 2, 4, 3, 2)
    case("conv3d_pad", lambda x: T.reduce_sum(T.conv(x, kp, bp) * r22432), u(2, 2, 4, 3, 2))
    case("conv3d_pad_weight",
         lambda w: T.reduce_sum(T.conv(cpx, w, bp) * r22432),
         Tensor(rng.normal(size=(3, 3, 1, 2, 2)) * 0.4))
    # 3 samples of 4 tokens into 8 tokens each: token 2 taken three times,
    # token 0 twice, token 3 never, and two zero fill tokens
    rtf, tf_index = proj(3, 8, 2), np.array([2, -1, 0, 2, 1, -1, 2, 0])
    case("take_tokens_repeat_fill",
         lambda x: T.reduce_sum(T.take_tokens(x, tf_index, 3, (3, 8, 2)) * rtf), u(3, 4, 2))
    return cases


def run_primitive_suite(seeds: int = 10, eps: float = 1e-6,
                        tol: float = 1e-5) -> dict[str, GradCheckReport]:
    """The worst report of each primitive case over the seeds, by name.

    Each seed's cases are drawn once, from ``default_rng(1000 + seed)``. A
    report replaces the kept one when its error is larger or when it fails,
    and a case that fails is not checked at later seeds."""
    reports: dict[str, GradCheckReport] = {}
    with T.float64_scope():
        for seed in range(seeds):
            for name, (f, x) in primitive_cases(np.random.default_rng(1000 + seed)).items():
                kept = reports.get(name)
                if kept is not None and not kept.passed:
                    continue
                rep = finite_diff_check(f, x, eps=eps, tol=tol)
                if kept is None or rep.max_rel_err > kept.max_rel_err or not rep.passed:
                    reports[name] = rep
    return dict(sorted(reports.items()))


def check_full_model(cfg: ExperimentConfig, seed: int) -> GradCheckReport:
    """Spot-check 100 parameter gradients, sampled by ``seed``, of the loss
    of a detector built from ``cfg`` on clip ``make_clip(cfg.seed)``. The
    zero-initialised layers (the decoder head, and each DWTI pair's ``back``
    and offset output) first move off zero, or most gradients would be 0."""
    with T.float64_scope():
        model = InpaintingDetector(cfg)
        moved = [(model.decoder.head_out.w, 0.2)]
        if model.interaction is not None:
            moved += [(w, 0.1) for pairs in model.interaction.stages for p in pairs
                      for w in (p.back.w, p.attn.theta.fc2.w)]
        rng = np.random.default_rng(77)
        for w, scale in moved:
            w.data[:] = rng.normal(size=w.shape) * scale
        sample = make_clip(cfg.seed, cfg)
        gt = Tensor(sample.gt_mask)
        return finite_diff_check_params(
            lambda: total_loss(model(sample.clip.frames), gt, cfg.loss),
            model.registry().values(), n_coords=100, eps=1e-5, tol=1e-3, seed=seed)
