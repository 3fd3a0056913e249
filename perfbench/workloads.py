"""The benchmark's workloads: closed loops with one client in one process.

Each workload has a ``prepare`` step, timed as set-up, and a ``measure``
step that loops for the requested number of seconds and checks every output.
The program sees only the clips generated from the seed and a model
initialised from it. ``v`` is a namespace holding the vindet modules; calls
go through module attributes so that the tracer's patches apply.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

SEGMENT = 25            # steps per training segment
TRAIN_BUDGET = 25       # iterations per experiment repeat
MIN_REPEATS = 2         # the determinism check needs two repeats
REPEAT_S = 15.0         # nominal seconds per repeat (2-core 2 GHz Xeon), which
                        # turns --seconds into a repeat count that does not
                        # depend on how fast the machine runs at the time
N_CLIPS = 8             # inpainted clips, and as many authentic twins
N_SETS = 2              # clip directories; each pass evaluates one (8 clips)
PERTURBATIONS = (("none", {}), ("jpeg", {"jpeg_quality": 70}),
                 ("gaussian", {"snr_db": 25.0}))
NOGRAD_TOL = 1e-12


@dataclass
class Measured:
    """What one measured loop saw: operation times, work done, check failures."""
    op_times: list[float] = field(default_factory=list)    # s per step or pass
    clips: int = 0
    busy_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    details: dict = field(default_factory=dict)
    overhead_ms: float = 0.0

    def fail(self, n: int, problem: str):
        self.failed += n
        if len(self.problems) < 20:
            self.problems.append(problem)


def percentile_ms(values, q) -> float:
    return 1e3 * float(np.percentile(values, q)) if len(values) else 0.0


def tail(values) -> dict:
    """Highest whole percentile with at least ten samples above it."""
    arr = np.asarray(values)
    for q in range(99, 0, -1):
        cut = np.percentile(arr, q)
        if np.sum(arr > cut) >= 10:
            return {"percentile": q, "ms": 1e3 * float(cut), "samples": int(arr.size)}
    return {"percentile": None, "ms": None, "samples": int(arr.size)}


def timing_details(prefix: str, times, clips: int, busy_s: float) -> dict:
    return {f"{prefix}_ms": [round(1e3 * t, 3) for t in times],
            f"{prefix}_ms_p50": percentile_ms(times, 50),
            f"{prefix}_ms_p90": percentile_ms(times, 90),
            f"{prefix}_tail": tail(times) if len(times) else None,
            f"{prefix}_clips_per_s": clips / busy_s if busy_s else 0.0}


def config(v, seed: int, side: int = 32):
    """The default desk config at ``side``×``side`` frames."""
    cfg = v.config.ExperimentConfig(seed=seed)
    cfg.geometry = dataclasses.replace(cfg.geometry, height=side, width=side)
    return cfg.validate()


@dataclass
class State:
    """What set-up hands to the measured loop."""
    cfg: object
    model: object
    dirs: list[str] = field(default_factory=list)


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _set_run(tracer, run):
    if tracer is not None:
        tracer.run = run


# ---------------------------------------------------------------------------
# train_desk
# ---------------------------------------------------------------------------

class TrainDesk:
    """``experiment.run_overfit_experiment`` with a fixed budget and stop
    thresholds it cannot reach, repeated ``seconds // REPEAT_S`` times (at
    least twice)."""

    def prepare(self, v, seed: int, work: str) -> State:
        cfg = config(v, seed)
        cfg.train = dataclasses.replace(cfg.train, iters=TRAIN_BUDGET)
        v.data.generate_dataset(N_CLIPS, seed, cfg)
        return State(cfg, v.model.InpaintingDetector(cfg))

    def measure(self, v, state: State, seconds: float, work: str, tracer) -> Measured:
        cfg = state.cfg
        clock = time.perf_counter
        segments: list[list[float]] = []     # sgd_step return times per segment
        losses: list[float] = []
        evals: list[tuple[float, int]] = []

        run_segment, sgd_step, backward = v.experiment.train, v.train.sgd_step, v.train.backward
        evaluate = v.train.evaluate_model

        def segment(*args, **kwargs):
            segments.append([])
            return run_segment(*args, **kwargs)

        def stamped_step(*args, **kwargs):
            sgd_step(*args, **kwargs)
            segments[-1].append(clock())

        def recorded_backward(loss):
            losses.append(loss.item())
            return backward(loss)

        def timed_evaluate(model, dataset, *args, **kwargs):
            start = clock()
            report = evaluate(model, dataset, *args, **kwargs)
            evals.append((clock() - start, len(dataset)))
            return report

        v.experiment.train, v.train.sgd_step = segment, stamped_step
        v.train.backward, v.train.evaluate_model = recorded_backward, timed_evaluate

        out = Measured()
        walls: list[float] = []
        overheads: list[float] = []
        history = digest = None
        for rep in range(max(MIN_REPEATS, int(seconds // REPEAT_S))):
            _set_run(tracer, rep)
            first_seg, first_loss = len(segments), len(losses)
            start = clock()
            try:
                res = v.experiment.run_overfit_experiment(
                    cfg, os.path.join(work, f"rep{rep}"), n_clips=N_CLIPS,
                    first_check=SEGMENT, check_every=SEGMENT,
                    stop_miou=2.0, stop_f1=2.0, stop_auc=2.0)
            except Exception as err:  # a raising step is a failed operation
                res = None
                out.attempted += 1
                out.fail(1, f"repeat {rep}: {type(err).__name__}: {err}")
            wall = clock() - start
            walls.append(wall)
            rep_segs = segments[first_seg:]
            steps = sum(len(s) for s in rep_segs)
            rep_intervals = [b - a for s in rep_segs for a, b in zip(s, s[1:])]
            out.op_times += rep_intervals
            overheads.append(1e3 * (wall - sum(rep_intervals)))
            out.attempted += steps
            out.clips += steps * cfg.train.batch
            out.busy_s += wall
            if res is None:
                continue
            _set_run(tracer, "check")
            problem = self._check(v, cfg, res, losses[first_loss:], history, digest)
            if problem:
                out.fail(steps, f"repeat {rep}: {problem}")
            if history is None:
                history, digest = res.history, _digest(res.checkpoint)
        _set_run(tracer, "done")

        out.overhead_ms = float(statistics.median(overheads))
        eval_times = [t for t, _ in evals]
        out.details = {
            **timing_details("train_step", out.op_times, out.clips, out.busy_s),
            **timing_details("eval_pass", eval_times, sum(n for _, n in evals),
                             sum(eval_times)),
            "experiment_wall_s": walls,
            "experiment_overhead_ms": out.overhead_ms,
            "history": history,
        }
        return out

    @staticmethod
    def _check(v, cfg, res, losses, history, digest) -> str | None:
        if len(losses) != TRAIN_BUDGET or not all(math.isfinite(x) for x in losses):
            return f"losses not all finite: {losses}"
        if history is not None and res.history != history:
            return f"eval history {res.history} differs from {history}"
        if digest is not None and _digest(res.checkpoint) != digest:
            return "final checkpoint differs from the first repeat's"
        _, iteration = v.train.load_checkpoint(res.checkpoint,
                                               v.model.InpaintingDetector(cfg))
        if iteration != TRAIN_BUDGET:
            return f"checkpoint iteration {iteration} != {TRAIN_BUDGET}"
        return None


# ---------------------------------------------------------------------------
# infer_desk / infer_wide
# ---------------------------------------------------------------------------

class Infer:
    """What ``vindet eval`` does, pass after pass: ``data.load_dataset``
    plus ``train.evaluate_model`` on one 8-clip directory, cycling through
    the directories and the perturbations."""

    def __init__(self, side: int):
        self.side = side

    def prepare(self, v, seed: int, work: str) -> State:
        cfg = config(v, seed, self.side)
        inpainted = v.data.generate_dataset(N_CLIPS, seed, cfg)
        authentic = v.data.generate_dataset(N_CLIPS, seed, cfg, inpainted=False)
        dirs = [os.path.join(work, f"set{k}") for k in range(N_SETS)]
        for i, (inp, auth) in enumerate(zip(inpainted, authentic)):
            d = dirs[i % N_SETS]
            v.tokenizer.save_clip(os.path.join(d, f"inp_{i:04d}"), inp.clip, inp.gt_mask)
            v.tokenizer.save_clip(os.path.join(d, f"auth_{i:04d}"), auth.clip, auth.gt_mask)
        ckpt = os.path.join(work, "checkpoint.mpci")
        v.train.save_checkpoint(ckpt, v.model.InpaintingDetector(cfg), {}, 0)
        model = v.model.InpaintingDetector(cfg)
        v.train.load_checkpoint(ckpt, model)
        return State(cfg, model, dirs)

    def measure(self, v, state: State, seconds: float, work: str,
                tracer) -> Measured:
        clock = time.perf_counter
        out = Measured()
        _set_run(tracer, "check")
        out.attempted += 1
        problem = self._nograd_matches_tape(v, state)
        if problem:
            out.fail(1, problem)

        combos = [(d, dataclasses.replace(
                       state.cfg, perturb=dataclasses.replace(state.cfg.perturb,
                                                              kind=kind, **kw)))
                  for kind, kw in PERTURBATIONS for d in state.dirs]
        first_text: dict[int, str] = {}
        t0 = clock()
        n = 0
        # whole cycles only, so every input and perturbation weighs the same
        while n % len(combos) or n == 0 or clock() - t0 < seconds:
            k = n % len(combos)
            dirpath, cfg = combos[k]
            _set_run(tracer, n)
            start = clock()
            try:
                dataset = v.data.load_dataset(dirpath)
                report = v.train.evaluate_model(state.model, dataset, cfg,
                                                perturb=cfg.perturb.kind != "none")
            except Exception as err:  # a raising pass is a failed operation
                report, problem = None, f"{type(err).__name__}: {err}"
            elapsed = clock() - start
            out.attempted += 1
            out.op_times.append(elapsed)
            out.busy_s += elapsed
            if report is not None:
                out.clips += len(dataset)
                problem = self._check(report, len(dataset),
                                      first_text.setdefault(k, report.text()))
            if problem:
                out.fail(1, f"pass {n}: {problem}")
            n += 1
        _set_run(tracer, "done")
        out.details = timing_details("eval_pass", out.op_times, out.clips, out.busy_s)
        return out

    @staticmethod
    def _nograd_matches_tape(v, state: State) -> str | None:
        frames = v.data.load_dataset(state.dirs[0])[0][1].frames
        with v.tensor.no_grad():
            plain = state.model(frames).data
        taped = state.model(frames).data
        diff = float(np.max(np.abs(plain - taped)))
        return None if diff <= NOGRAD_TOL else f"no-grad map differs from tape map by {diff}"

    @staticmethod
    def _check(report, n_clips: int, first_text: str) -> str | None:
        """One line per clip (id, mIoU, F1, score) plus a summary, metrics
        in [0,1], an AUC, and the same text as the first pass on this input."""
        lines = report.lines
        if len(lines) != n_clips + 1 or not lines[-1].startswith("summary "):
            return f"report has {len(lines)} lines for {n_clips} clips"
        for line in lines[:-1]:
            fields = line.split()
            try:
                ok = len(fields) == 4 and all(0.0 <= float(x) <= 1.0 for x in fields[1:3])
            except ValueError:
                ok = False
            if not ok:
                return f"bad clip line: {line}"
        if not (0.0 <= report.mean_miou <= 1.0 and 0.0 <= report.mean_f1 <= 1.0):
            return f"summary out of [0,1]: {lines[-1]}"
        if report.auc is None or not 0.0 <= report.auc <= 1.0 or "auc=" not in lines[-1]:
            return f"AUC missing or out of [0,1]: {lines[-1]}"
        if report.text() != first_text:
            return "report differs from the first pass on the same input"
        return None


WORKLOADS = {
    "train_desk": TrainDesk(),
    "infer_desk": Infer(32),
    "infer_wide": Infer(64),
}
