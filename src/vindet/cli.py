"""Command-line entry points.

Exit codes: 0 success, 1 validation/configuration error or an unreadable
input file, 2 numerical failure (a non-finite loss, or a numpy overflow or
invalid operation, which every command raises on).
"""

from __future__ import annotations

import argparse
import os
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from .config import ExperimentConfig, dump_config, load_config  # noqa: E402


def _load_cfg(path) -> ExperimentConfig:
    return load_config(path) if path else ExperimentConfig()


def cmd_gen_data(args) -> int:
    from .data import generate_dataset, save_dataset

    cfg = _load_cfg(args.config)
    clips = generate_dataset(args.n, args.seed, cfg)
    save_dataset(args.out, clips)
    if args.with_authentic:
        auth = generate_dataset(args.n, args.seed + 1, cfg, inpainted=False)
        save_dataset(os.path.join(args.out + "_authentic"), auth)
    print(f"wrote {len(clips)} clips to {args.out}")
    return 0


def cmd_train(args) -> int:
    from .train import train

    cfg = _load_cfg(args.config)
    result = train(cfg, args.out, resume=args.resume)
    print(f"finished at iteration {result.final_iter}: "
          f"miou={result.final_miou:.4f} f1={result.final_f1:.4f}")
    print(f"checkpoint: {result.checkpoint}")
    print(f"metrics log: {result.metrics_log}")
    return 0


def cmd_eval(args) -> int:
    from dataclasses import replace

    from .data import load_dataset
    from .model import InpaintingDetector
    from .train import evaluate_model, load_checkpoint

    cfg = _load_cfg(args.config)
    if args.jpeg is not None and args.snr is not None:
        raise ValueError("--jpeg and --snr are mutually exclusive")
    if args.jpeg is not None:
        cfg.perturb = replace(cfg.perturb, kind="jpeg", jpeg_quality=args.jpeg)
    elif args.snr is not None:
        cfg.perturb = replace(cfg.perturb, kind="gaussian", snr_db=args.snr)
    cfg.validate()
    model = InpaintingDetector(cfg)
    load_checkpoint(args.ckpt, model)
    dataset = load_dataset(args.data or cfg.data.dir, cfg)
    report = evaluate_model(model, dataset, cfg, perturb=cfg.perturb.kind != "none",
                            dump_dir=args.dump)
    sys.stdout.write(report.text())
    return 0


def cmd_gradcheck(args) -> int:
    from .gradcheck import check_full_model, run_primitive_suite

    failed = False
    reports = run_primitive_suite(seeds=args.seeds)
    for name, rep in reports.items():
        print(f"{name}: {rep}")
        failed |= not rep.passed
    if args.full_model:
        cfg = _load_cfg(args.config)
        rep = check_full_model(cfg, cfg.seed)
        print(f"full-model: {rep}")
        failed |= not rep.passed
    return 1 if failed else 0


def cmd_complexity(args) -> int:
    from .complexity import count_params_flops

    cfg = _load_cfg(args.config)
    res = count_params_flops(cfg)
    print(f"params: {res['params']}")
    print(f"flops_per_clip: {res['flops_per_clip']}")
    if args.verbose:
        for label, p, f in res["breakdown"]:
            print(f"  {label}: params={p} flops={f}")
    return 0


def cmd_freq_dump(args) -> int:
    from .frequency import frequency_features
    from .tokenizer import load_clip, write_pgm

    cfg = _load_cfg(args.config)
    clip, _ = load_clip(args.clip)
    ff = frequency_features(clip.frames, [clip.h // 2], (cfg.freq.low, cfg.freq.high))
    os.makedirs(args.out, exist_ok=True)
    c = clip.c
    for bi, band in enumerate(("low", "mid", "high")):
        for ch in range(c):
            img = ff.full[:, :, bi * c + ch]
            lo, hi = img.min(), img.max()
            norm = (img - lo) / (hi - lo) if hi > lo else np.zeros_like(img)
            write_pgm(os.path.join(args.out, f"band_{band}_c{ch}.pgm"), norm)
    print(f"wrote band maps to {args.out}")
    return 0


def cmd_show_config(args) -> int:
    sys.stdout.write(dump_config(_load_cfg(args.config)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="vindet",
                                 description="video inpainting detection harness")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--with-authentic", action="store_true",
                   help="also write untouched twins of each scene")
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("train", help="train a detector")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--resume", default=None)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--config", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", default=None)
    p.add_argument("--jpeg", type=int, default=None)
    p.add_argument("--snr", type=float, default=None)
    p.add_argument("--dump", default=None,
                   help="write per-clip prediction and binary-mask P5 maps here")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient checks")
    p.add_argument("--full-model", action="store_true")
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--config", default=None)
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("complexity", help="analytic parameter/FLOP counts")
    p.add_argument("--config", required=True)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(fn=cmd_complexity)

    p = sub.add_parser("freq-dump", help="dump band-pass maps of a clip")
    p.add_argument("--clip", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.set_defaults(fn=cmd_freq_dump)

    p = sub.add_parser("show-config", help="print the resolved configuration")
    p.add_argument("--config", default=None)
    p.set_defaults(fn=cmd_show_config)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with np.errstate(over="raise", invalid="raise"):
            return args.fn(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except Exception as err:  # numerical failures
        from .train import NumericalError

        if isinstance(err, (NumericalError, FloatingPointError)):
            print(f"numerical failure: {err}", file=sys.stderr)
            return 2
        raise


if __name__ == "__main__":
    sys.exit(main())
