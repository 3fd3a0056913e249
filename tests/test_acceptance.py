"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The overfit experiment is
shared between the training criterion and the robustness criterion through a
session fixture.
"""

import time

import numpy as np
import pytest

from vindet import tensor as T
from vindet.config import (
    DecoderConfig,
    DwtiConfig,
    EncoderConfig,
    ExperimentConfig,
    GeometryConfig,
)
from vindet.complexity import count_params_flops
from vindet.data import generate_dataset, perturb_gaussian, perturb_jpeg
from vindet.encoder import SwinBlock, _shift_mask
from vindet.experiment import run_overfit_experiment
from vindet.frequency import band_masks, dct2, idct2
from vindet.gradcheck import check_full_model
from vindet.interaction import DeformableWindowCrossAttention
from vindet.model import InpaintingDetector
from vindet.objectives import (
    LossConfig,
    f1_metric,
    focal_loss,
    frame_score_auc,
    miou_loss,
    miou_metric,
)
from vindet.tensor import Tensor
from vindet.tokenizer import VideoClip
from vindet.train import load_checkpoint, train
from reference_ops import capture_attention, psnr


def _report(criterion: str, ok: bool, detail: str = ""):
    state = "PASS" if ok else "FAIL"
    print(f"\n[{criterion}] {state} {detail}")
    assert ok, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# shared overfit experiment (criteria 8 and 10)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def overfit(tmp_path_factory):
    cfg = ExperimentConfig()
    t0 = time.time()
    result = run_overfit_experiment(cfg, str(tmp_path_factory.mktemp("overfit")))
    elapsed = time.time() - t0
    model = InpaintingDetector(cfg)
    load_checkpoint(result.checkpoint, model)
    clips = generate_dataset(8, cfg.seed, cfg)
    return cfg, result, model, clips, elapsed


def test_criterion_1_primitive_gradient_suite(primitive_suite):
    # the session's one 10-seed run, which test_tensor.py reads per case
    reports, elapsed = primitive_suite
    worst = max(reports.values(), key=lambda r: r.max_rel_err)
    failed = [n for n, r in reports.items() if not r.passed]
    ok = not failed and elapsed < 60.0
    _report("criterion 1: primitive gradients", ok,
            f"{len(reports)} primitives, worst rel err {worst.max_rel_err:.2e}, "
            f"{elapsed:.1f}s (budget 60s), failures={failed}")


def test_criterion_2_full_model_gradient():
    t0 = time.time()
    # the check moves the zero-initialized layers off zero, as the CLI's does
    rep = check_full_model(ExperimentConfig(), seed=3)
    elapsed = time.time() - t0
    ok = rep.passed and elapsed < 600.0
    _report("criterion 2: full-model gradient", ok,
            f"max rel err {rep.max_rel_err:.2e} over {rep.n_coords} params, "
            f"{elapsed:.0f}s (budget 600s)")


def test_criterion_3_dct_invariants():
    worst_rt = worst_pars = worst_band = 0.0
    for seed in range(10):
        rng = np.random.default_rng(300 + seed)
        x = rng.uniform(0, 1, size=(32, 32))
        coeffs = dct2(x)
        worst_rt = max(worst_rt, float(np.abs(idct2(coeffs) - x).max()))
        worst_pars = max(worst_pars, abs(float(np.sum(x * x) - np.sum(coeffs * coeffs))))
        low, mid, high = band_masks(32, 32)
        recon = idct2(coeffs * low) + idct2(coeffs * mid) + idct2(coeffs * high)
        worst_band = max(worst_band, float(np.abs(recon - x).max()))
    ok = worst_rt <= 1e-8 and worst_pars <= 1e-8 and worst_band <= 1e-8
    _report("criterion 3: DCT invariants", ok,
            f"roundtrip {worst_rt:.2e}, parseval {worst_pars:.2e}, bands {worst_band:.2e}")


def test_criterion_4_dwti_degeneracy_and_locality():
    rng = np.random.default_rng(40)
    attn = DeformableWindowCrossAttention(6, 4, 1.0, np.random.default_rng(41))
    for layer in (attn.theta.fc1, attn.theta.fc2):
        layer.w.data[:] = 0.0
        layer.b.data[:] = 0.0
    small = rng.normal(size=(8, 8, 6))
    large = rng.normal(size=(8, 8, 6))
    # the module takes a batch of maps; run this pair as a batch of one
    got = attn(Tensor(small[None]), Tensor(large[None])).data[0]

    # reference: plain windowed cross-attention at the grid points
    wq, bq = attn.wq.w.data, attn.wq.b.data
    wk, bk = attn.wk.w.data, attn.wk.b.data
    wv, bv = attn.wv.w.data, attn.wv.b.data
    ref = np.zeros_like(large)
    for wi in range(2):
        for wj in range(2):
            sl = (slice(wi * 4, wi * 4 + 4), slice(wj * 4, wj * 4 + 4))
            ws = small[sl].reshape(16, 6)
            wl = large[sl].reshape(16, 6)
            q = wl @ wq + bq
            k = ws @ wk + bk
            v = ws @ wv + bv
            s = q @ k.T / np.sqrt(6)
            s -= s.max(axis=1, keepdims=True)
            e = np.exp(s)
            ref[sl] = ((e / e.sum(axis=1, keepdims=True)) @ v).reshape(4, 4, 6)
    deg_err = float(np.abs(got - ref).max())

    # locality: offsets bounded inside the window; outside perturbations inert
    attn2 = DeformableWindowCrossAttention(6, 4, 0.4, np.random.default_rng(42))
    base = attn2(Tensor(small[None]), Tensor(large[None])).data[0]
    small2 = small.copy()
    small2[4:, :, :] += 10.0
    small2[:4, 4:, :] += 10.0
    bumped = attn2(Tensor(small2[None]), Tensor(large[None])).data[0]
    local_err = float(np.abs(bumped[:4, :4] - base[:4, :4]).max())
    ok = deg_err <= 1e-6 and local_err <= 1e-9
    _report("criterion 4: deformable attention degeneracy", ok,
            f"zero-offset diff {deg_err:.2e} (tol 1e-6), locality leak {local_err:.2e}")


@pytest.mark.usefixtures("float64")
def test_criterion_5_swin_identity_and_masking(monkeypatch):
    x = np.random.default_rng(50).normal(size=(2, 8, 8, 8))
    worst = 0.0
    for shifted in (False, True):
        block = SwinBlock(8, 2, 4, shifted, np.random.default_rng(51))
        block.attn.wo.w.data[:] = 0.0
        block.attn.wo.b.data[:] = 0.0
        block.mlp.fc2.w.data[:] = 0.0
        block.mlp.fc2.b.data[:] = 0.0
        worst = max(worst, float(np.abs(block(Tensor(x)).data - x).max()))

    block = SwinBlock(8, 2, 4, True, np.random.default_rng(52))
    weights = capture_attention(monkeypatch)
    block(Tensor(x))
    attn, = weights
    allowed = _shift_mask(8, 4, 2, 8, T.compute_dtype()) == 0.0
    leak = 0.0
    for k in range(attn.shape[0]):
        region = allowed[k % allowed.shape[0]]
        for h in range(attn.shape[1]):
            leak = max(leak, float(np.where(~region, attn[k, h], 0.0).sum(axis=1).max()))
    ok = worst <= 1e-12 and leak <= 1e-6
    _report("criterion 5: swin block identities", ok,
            f"neutral-block diff {worst:.2e} (tol 1e-12), cross-region mass {leak:.2e}")


@pytest.mark.usefixtures("float64")
def test_criterion_6_loss_identities():
    gt = np.zeros((8, 8))
    gt[2:5, 2:5] = 1.0
    e1 = abs(miou_loss(Tensor(gt.copy()), Tensor(gt)).item())
    e2 = abs(miou_loss(Tensor(np.ones((4, 4))), Tensor(np.zeros((4, 4)))).item() - 1.0)
    e3 = abs(miou_loss(Tensor(np.full((4, 4), 0.5)), Tensor(np.ones((4, 4)))).item() - 0.5)

    rng = np.random.default_rng(60)
    m = rng.uniform(0.05, 0.95, size=(8, 8))
    g = (rng.uniform(size=(8, 8)) > 0.6).astype(float)
    cfg_half = LossConfig(alpha=0.5, gamma=0.0)
    bce = -np.mean(g * np.log(m + cfg_half.eps) + (1 - g) * np.log(1 - m + cfg_half.eps))
    e4 = abs(focal_loss(Tensor(m), Tensor(g), cfg_half).item() - 0.5 * bce)

    # independent calculator: 0.25 * (1-0.5)^2 * -log(0.5 + 1e-7)
    frozen = 0.043321681576267043
    got = focal_loss(Tensor(np.array([0.5])), Tensor(np.array([1.0])),
                     LossConfig(alpha=0.25, gamma=2.0)).item()
    e5 = abs(got - frozen)
    ok = e1 <= 1e-12 and e2 <= 1e-12 and e3 <= 1e-12 and e4 <= 1e-10 and e5 <= 1e-4
    _report("criterion 6: loss identities", ok,
            f"miou examples {max(e1, e2, e3):.2e}, bce match {e4:.2e}, focal {e5:.2e}")


def test_criterion_7_metric_oracles():
    rng = np.random.default_rng(70)
    exact = True
    for _ in range(1000):
        m = rng.uniform(size=(8, 8))
        g = (rng.uniform(size=(8, 8)) > rng.uniform(0.2, 0.8)).astype(float)
        tp = fp = fn = 0
        for i in range(8):
            for j in range(8):
                p = m[i, j] > 0.5
                a = g[i, j] > 0.5
                tp += p and a
                fp += p and not a
                fn += (not p) and a
        iou = 1.0 if tp + fp + fn == 0 else tp / (tp + fp + fn)
        f1 = 1.0 if 2 * tp + fp + fn == 0 else 2 * tp / (2 * tp + fp + fn)
        exact &= miou_metric(m, g) == iou and f1_metric(m, g) == f1

    auc_exact = True
    for _ in range(200):
        n = int(rng.integers(4, 24))
        scores = rng.choice(np.linspace(0, 1, 9), size=n)
        labels = rng.uniform(size=n) > 0.5
        if labels.all() or not labels.any():
            labels[0] = ~labels[0]
        wins = ties = 0
        for p in scores[labels]:
            for q in scores[~labels]:
                wins += p > q
                ties += p == q
        want = (wins + 0.5 * ties) / (labels.sum() * (~labels).sum())
        auc_exact &= frame_score_auc(scores, labels) == want
    ok = exact and auc_exact
    _report("criterion 7: metric oracles", ok,
            "mIoU/F1 exact on 1000 pairs, AUC exact on 200 score sets")


def test_criterion_8_overfit_experiment(overfit):
    cfg, result, model, clips, elapsed = overfit
    ok = (result.train_miou >= 0.95 and result.train_f1 >= 0.97
          and result.auc >= 0.99 and elapsed <= 900.0)
    _report("criterion 8: overfit experiment", ok,
            f"iter {result.iterations}: miou {result.train_miou:.4f} (>=0.95), "
            f"f1 {result.train_f1:.4f} (>=0.97), auc {result.auc:.4f} (>=0.99), "
            f"{elapsed:.0f}s (budget 900s)")


def test_criterion_9_ablation_recoverability(tmp_path):
    base = set(InpaintingDetector(ExperimentConfig()).registry())
    variants = {
        "dwti": ExperimentConfig(dwti=DwtiConfig(enabled=False)),
        "frequency": ExperimentConfig(decoder=DecoderConfig(use_frequency=False)),
        "tff": ExperimentConfig(decoder=DecoderConfig(use_tff=False)),
    }
    prefixes = {
        "dwti": ("interaction.",),
        "frequency": (".freq_fuse.",),
        "tff": ("decoder.gates.", "decoder.guide.", "decoder.tff.1.",
                "decoder.freq_fuse.1.", "decoder.head"),
    }
    detail = []
    ok = True
    for name, cfg in variants.items():
        cfg.train.iters = 2
        cfg.train.eval_every = 1
        clips = generate_dataset(2, 0, cfg)
        ds = [(f"c{i}", sc.clip, sc.gt_mask) for i, sc in enumerate(clips)]
        res = train(cfg, str(tmp_path / name), dataset=ds)
        ran = res.final_iter == 2
        removed = base - set(InpaintingDetector(cfg).registry())
        scoped = all(any(tag in n for tag in prefixes[name]) for n in removed)
        ok &= ran and scoped
        detail.append(f"{name}: ran={ran} removed={len(removed)} scoped={scoped}")
    _report("criterion 9: ablation recoverability", ok, "; ".join(detail))


def test_criterion_10_perturbation_calibration(overfit):
    cfg, result, model, clips, _ = overfit
    rng = np.random.default_rng(100)
    big = VideoClip(rng.uniform(0.2, 0.8, size=(4, 64, 64, 3)))
    snr_ok = True
    for snr in (20.0, 25.0, 30.0):
        _, measured = perturb_gaussian(big, snr, 17)
        snr_ok &= abs(measured - snr) <= 0.3

    order_ok = True
    for sc in clips:
        q90 = perturb_jpeg(sc.clip, 90)
        q70 = perturb_jpeg(sc.clip, 70)
        for f in range(sc.clip.t):
            order_ok &= psnr(sc.clip.frames[f], q90.frames[f]) > psnr(
                sc.clip.frames[f], q70.frames[f])

    def metrics_at(quality):
        ious, f1s = [], []
        for sc in clips:
            with T.no_grad():
                m = model(perturb_jpeg(sc.clip, quality).frames).data
            ious.append(miou_metric(m, sc.gt_mask))
            f1s.append(f1_metric(m, sc.gt_mask))
        return float(np.mean(ious)), float(np.mean(f1s))

    m90, f90 = metrics_at(90)
    m70, f70 = metrics_at(70)
    model_ok = m90 >= m70 and f90 >= f70
    ok = snr_ok and order_ok and model_ok
    _report("criterion 10: perturbation calibration", ok,
            f"snr within 0.3dB={snr_ok}, psnr ordering={order_ok}, "
            f"model miou Q90 {m90:.4f} >= Q70 {m70:.4f}: {model_ok}")


def test_criterion_11_complexity_counts():
    hand_total = 860019  # itemized by hand in test_complexity.py
    desk = ExperimentConfig()
    analytic = count_params_flops(desk)["params"]
    variants = [
        desk,
        ExperimentConfig(dwti=DwtiConfig(enabled=False)),
        ExperimentConfig(decoder=DecoderConfig(use_frequency=False)),
        ExperimentConfig(decoder=DecoderConfig(use_tff=False)),
        ExperimentConfig(geometry=GeometryConfig(views=(1,)),
                         encoder=EncoderConfig(dims=(16,))),
    ]
    cross = all(
        count_params_flops(cfg)["params"]
        == sum(p.size for p in InpaintingDetector(cfg).registry().values())
        for cfg in variants
    )
    ok = analytic == hand_total and cross
    _report("criterion 11: complexity counter", ok,
            f"analytic {analytic} == hand sum {hand_total}, registry cross-check "
            f"on {len(variants)} configs: {cross}")


def test_criterion_12_determinism(tmp_path):
    cfg = ExperimentConfig()
    cfg.train.iters = 10
    cfg.train.eval_every = 5
    clips = generate_dataset(4, 0, cfg)
    ds = [(f"c{i}", sc.clip, sc.gt_mask) for i, sc in enumerate(clips)]
    a = train(cfg, str(tmp_path / "a"), dataset=ds)
    b = train(cfg, str(tmp_path / "b"), dataset=ds)
    with open(a.checkpoint, "rb") as fa, open(b.checkpoint, "rb") as fb:
        ck = fa.read() == fb.read()
    with open(a.metrics_log) as fa, open(b.metrics_log) as fb:
        lg = fa.read() == fb.read()
    ok = ck and lg
    _report("criterion 12: determinism", ok,
            f"checkpoints identical={ck}, metric logs identical={lg}")
