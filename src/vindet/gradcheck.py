"""Central-difference verification of every differentiable primitive.

Each case projects the op's output onto a fixed random direction so the
scalar loss has well-conditioned, order-one gradients. All auxiliary
tensors are drawn once per case; the checked function must be a fixed
deterministic map. ``check_full_model`` spot-checks a whole detector.
Every check builds its cases and its model in ``tensor.float64_scope``,
whatever dtype its caller computes in. Shared between the CLI and the
acceptance suite.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import tensor as T
from .config import ExperimentConfig
from .data import make_clip
from .model import InpaintingDetector
from .objectives import total_loss
from .tensor import GradCheckReport, Tensor, finite_diff_check, finite_diff_check_params


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
    case("softmax", lambda x: T.reduce_sum(T.softmax(x, axis=-1) * r34), u(3, 4))

    r44 = proj(4, 4)
    mm_w = Tensor(rng.normal(size=(5, 4)))
    case("matmul", lambda x: T.reduce_sum(T.matmul(x, mm_w) * r44), u(4, 5))
    r233 = proj(2, 3, 3)
    bm_w = Tensor(rng.normal(size=(2, 4, 3)))
    case("matmul_batched", lambda x: T.reduce_sum(T.matmul(x, bm_w) * r233), u(2, 3, 4))
    lin_w, lin_b, lin_x = proj(4, 3), proj(3), proj(2, 3, 4)
    case("linear", lambda x: T.reduce_sum(T.linear(x, lin_w, lin_b) * r233), u(2, 3, 4))
    case("linear_weight", lambda w: T.reduce_sum(T.linear(lin_x, w) * r233), u(4, 3))
    case("linear_bias", lambda b: T.reduce_sum(T.linear(lin_x, lin_w, b) * r233), u(3))

    # 4 sets of 4 tokens in 2 heads of width 3. q, k and v are scaled copies
    # of x, so every input path is checked; the mask tiles over 2 sets and
    # always leaves a token its own key.
    rat, at_k, at_v = proj(4, 4, 6), proj(4, 4, 6), proj(4, 4, 6)
    at_table, at_index = proj(9, 2), rng.integers(0, 9, size=16)
    at_mask = np.where(rng.uniform(size=(2, 4, 4)) < 0.3, -1e9, 0.0) * (1.0 - np.eye(4))

    def attend(q, k, v, table, heads=2, mask=at_mask):
        return T.reduce_sum(T.attention(q, k, v, heads, 0.4, table, at_index, mask)[0] * rat)

    case("attention", lambda x: attend(x, x * at_k, x * at_v, at_table), u(4, 4, 6))
    case("attention_table", lambda t: attend(at_k, at_v, at_k * at_v, t), u(9, 2))
    case("attention_one_head", lambda x: attend(x, x * at_k, x * at_v, None, 1, None), u(4, 4, 6))

    r26 = proj(2, 6)
    case("reshape", lambda x: T.reduce_sum(x.reshape(2, 6) * r26), u(3, 4))
    r43 = proj(4, 3)
    case("permute", lambda x: T.reduce_sum(T.permute(x, (1, 0)) * r43), u(3, 4))
    cc = Tensor(rng.normal(size=(2, 4)))
    rcat = proj(4, 4)
    case("concat", lambda x: T.reduce_sum(T.concat([x, cc], axis=0) * rcat), u(2, 4))
    r56 = proj(5, 6)
    case("pad", lambda x: T.reduce_sum(T.pad(x, ((1, 1), (1, 2))) * r56), u(3, 3))
    # a 4x4 grid into four 2x2 windows in a random cell order, and back into
    # a 2x2 grid that keeps 4 of each sample's 8 window cells
    rwg, rws = proj(8, 4, 2), proj(2, 2, 2, 2)
    wg_index, ws_index = rng.permutation(16), rng.choice(8, size=4, replace=False)
    case("take_tokens_gather",
         lambda x: T.reduce_sum(T.take_tokens(x, wg_index, 2, (8, 4, 2)) * rwg), u(2, 4, 4, 2))
    case("take_tokens_scatter",
         lambda x: T.reduce_sum(T.take_tokens(x, ws_index, 2, (2, 2, 2, 2)) * rws), u(4, 4, 2))
    gi = rng.integers(0, 4, size=6)
    r63 = proj(6, 3)
    case("gather_rows", lambda x: T.reduce_sum(T.gather_rows(x, gi) * r63), u(4, 3))

    case("sum", lambda x: T.reduce_sum(x * x), u(3, 4))
    case("mean", lambda x: T.reduce_sum(T.reduce_mean(x * x, axis=1)), u(3, 4))

    ln_g = Tensor(rng.uniform(0.5, 1.5, size=6))
    ln_b = Tensor(rng.normal(size=6) * 0.1)
    r46 = proj(4, 6)
    case("layer_norm", lambda x: T.reduce_sum(T.layer_norm(x, ln_g, ln_b) * r46), u(4, 6))
    # batched ops take a batch of one here; tests/test_batching.py covers B=2
    gn_g = Tensor(rng.uniform(0.5, 1.5, size=8))
    gn_b = Tensor(rng.normal(size=8) * 0.1)
    r338 = proj(1, 3, 3, 8)
    case("group_norm",
         lambda x: T.reduce_sum(T.group_norm(x, gn_g, gn_b, 4) * r338), u(1, 3, 3, 8))

    k2 = Tensor(rng.normal(size=(3, 3, 2, 3)) * 0.4)
    b2 = Tensor(rng.normal(size=3) * 0.1)
    r553 = proj(1, 5, 5, 3)
    case("conv2d", lambda x: T.reduce_sum(T.conv(x, k2, b2, 1) * r553), u(1, 5, 5, 2))
    cx = Tensor(rng.uniform(-1, 1, size=(1, 5, 5, 2)))
    r333 = proj(1, 3, 3, 3)
    case("conv2d_weight",
         lambda w: T.reduce_sum(T.conv(cx, w, None, 0) * r333),
         Tensor(rng.normal(size=(3, 3, 2, 3)) * 0.4))
    k3 = Tensor(rng.normal(size=(3, 3, 3, 2, 2)) * 0.4)
    b3 = Tensor(rng.normal(size=2) * 0.1)
    r3442 = proj(1, 3, 4, 4, 2)
    case("conv3d", lambda x: T.reduce_sum(T.conv(x, k3, b3, 1) * r3442),
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
    # drawn last, so every earlier case keeps its inputs
    r322 = proj(3, 2, 2)
    case("slice", lambda x: T.reduce_sum(T.slice_axis(x, -2, 1, 3) * r322), u(3, 4, 2))
    return cases


def primitive_case_names() -> list[str]:
    return sorted(primitive_cases(np.random.default_rng(0)))


def check_primitive(name: str, seeds: int = 10, eps: float = 1e-6,
                    tol: float = 1e-5) -> GradCheckReport:
    """Worst report over the seeds for one primitive case."""
    worst: GradCheckReport | None = None
    with T.float64_scope():
        for seed in range(seeds):
            f, x = primitive_cases(np.random.default_rng(1000 + seed))[name]
            rep = finite_diff_check(f, x, eps=eps, tol=tol)
            if worst is None or rep.max_rel_err > worst.max_rel_err or not rep.passed:
                worst = rep
            if not rep.passed:
                break
    return worst


def run_primitive_suite(seeds: int = 10, eps: float = 1e-6,
                        tol: float = 1e-5) -> dict[str, GradCheckReport]:
    return {name: check_primitive(name, seeds, eps, tol)
            for name in primitive_case_names()}


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
