"""Write ``tests/golden.json``: SHA-256 digests, plus a few readable values,
of what the program computes on fixed inputs.

``tests/test_golden.py`` recomputes every entry and names each one that
differs. A change that claims bit identity leaves the file as it is. A
change that alters numerics on purpose regenerates it in the same commit,
from the repository root:

    PYTHONPATH=src python tests/make_golden.py
"""

from __future__ import annotations

import os

# Keep BLAS reductions deterministic; must run before numpy loads.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from vindet import tensor as T  # noqa: E402
from vindet.cli import main as cli_main  # noqa: E402
from vindet.complexity import count_params_flops  # noqa: E402
from vindet.config import load_config  # noqa: E402
from vindet.data import generate_dataset, make_clip, perturb_jpeg  # noqa: E402
from vindet.experiment import run_overfit_experiment  # noqa: E402
from vindet.model import InpaintingDetector  # noqa: E402
from vindet.tokenizer import save_clip  # noqa: E402
from vindet.train import _train_step, train  # noqa: E402

GOLDEN = Path(__file__).with_name("golden.json")
DESK = Path(__file__).resolve().parents[1] / "configs" / "desk.cfg"
SIDES = (32, 40, 64)
JPEG_QUALITIES = (10, 70, 90)


def machine() -> dict:
    """The facts a digest may depend on beyond the code: the numpy version
    and the CPU model."""
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                    if ln.startswith("model name")), cpu)
    return {"numpy": np.__version__, "cpu": cpu}


def _entry(parts, values=()) -> dict:
    """The digest of ``parts`` (arrays, strings or bytes, in order) and the
    readable ``values``. An array adds its dtype and shape too."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(f"{part.dtype}{part.shape}".encode())
            part = np.ascontiguousarray(part).tobytes()
        h.update(part.encode() if isinstance(part, str) else part)
    return {"sha256": h.hexdigest(), "values": [float(v) for v in values]}


def _files(dirpath, names) -> dict:
    """The digest of each named file's name and bytes, in order."""
    return _entry([part for n in names for part in (n, Path(dirpath, n).read_bytes())])


def desk(**overrides):
    """The desk config, with ``geometry``/``train`` fields overridden."""
    cfg = load_config(str(DESK))
    for key, value in overrides.items():
        group, field = key.split("__")
        setattr(getattr(cfg, group), field, value)
    cfg.validate()
    return cfg


def model_entries(side: int) -> dict:
    """No-grad B=4 maps, then the training loss and every gradient, of a
    desk model at ``side``x``side`` with every parameter moved by N(0, 0.05)
    so that the zero-initialised layers carry signal."""
    cfg = desk(geometry__height=side, geometry__width=side)
    model = InpaintingDetector(cfg)
    rng = np.random.default_rng(side)
    for p in model.registry().values():
        p.data[...] += rng.normal(0.0, 0.05, size=p.shape)
    clips = generate_dataset(cfg.train.batch, side, cfg)
    dataset = [(f"clip_{i}", sc.clip, sc.gt_mask) for i, sc in enumerate(clips)]
    frames = np.stack([sc.clip.frames for sc in clips], dtype=T.compute_dtype())
    with T.no_grad():
        maps = model(frames).data
    loss = _train_step(model, dataset, np.arange(len(clips)), np.random.default_rng(0), cfg, 0)
    grads = [part for name, p in model.registry().items() for part in (name, p.grad)]
    norm = np.sqrt(sum(float(np.sum(np.square(p.grad, dtype=np.float64)))
                       for p in model.registry().values()))
    return {f"model{side}.maps": _entry([maps], [maps.mean(), maps.max()]),
            f"model{side}.loss": _entry([repr(loss)], [loss]),
            f"model{side}.grads": _entry(grads, [norm])}


def train_entries(work: str) -> dict:
    """A 6-iteration desk ``train()`` evaluated every 3 steps, and the same
    run stopped at 3 and resumed to 6."""
    cfg = desk(train__iters=6, train__eval_every=3)
    dataset = [(f"clip_{i}", sc.clip, sc.gt_mask)
               for i, sc in enumerate(generate_dataset(4, 1, cfg)
                                      + generate_dataset(2, 1, cfg, inpainted=False))]
    out = {}
    names = ("checkpoint.mpci", "metrics.log")
    full = train(cfg, os.path.join(work, "full"), dataset=dataset)
    out["train6.files"] = _files(os.path.join(work, "full"), names) | {
        "values": [full.final_miou, full.final_f1]}
    half = train(cfg, os.path.join(work, "half"), dataset=dataset,
                 on_step=lambda it, *_: it == 3)
    rest = train(cfg, os.path.join(work, "rest"), dataset=dataset, resume=half.checkpoint)
    out["resume3to6.files"] = _files(os.path.join(work, "rest"), names) | {
        "values": [rest.final_miou, rest.final_f1]}
    return out


def experiment_entries(work: str) -> dict:
    """An 8-iteration desk overfit experiment on 4 clips, checked every 2."""
    cfg = desk(train__iters=8)
    res = run_overfit_experiment(cfg, os.path.join(work, "overfit"), n_clips=4,
                                 first_check=2, check_every=2)
    return {"overfit8.best": _files(os.path.join(work, "overfit"), ["best.mpci"]),
            "overfit8.history": _entry(res.history, [res.iterations, res.train_miou,
                                                      res.train_f1, res.auc])}


def data_entries(work: str) -> dict:
    """``perturb_jpeg`` at three qualities, and ``vindet freq-dump`` of one
    desk clip."""
    cfg = desk()
    sc = make_clip(5, cfg)
    out = {f"jpeg{q}": _entry([perturb_jpeg(sc.clip, q).frames]) for q in JPEG_QUALITIES}
    clip_dir, dump = os.path.join(work, "clip"), os.path.join(work, "bands")
    save_clip(clip_dir, sc.clip, sc.gt_mask)
    with contextlib.redirect_stdout(io.StringIO()):
        if cli_main(["freq-dump", "--clip", clip_dir, "--out", dump, "--config", str(DESK)]):
            raise RuntimeError("vindet freq-dump failed")
    out["freq_dump.maps"] = _files(dump, sorted(os.listdir(dump)))
    res = count_params_flops(cfg)
    out["complexity"] = _entry([json.dumps(res)], [res["params"], res["flops_per_clip"]])
    return out


def entries() -> dict:
    """Every golden entry, by name."""
    out = {}
    with tempfile.TemporaryDirectory() as work:
        for side in SIDES:
            out |= model_entries(side)
        out |= train_entries(work)
        out |= experiment_entries(work)
        out |= data_entries(work)
    return out


def main() -> None:
    golden = {**machine(), "entries": entries()}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden['entries'])} entries to {GOLDEN}")


if __name__ == "__main__":
    main()
