"""Spans and counters around vindet's public entry points, from outside.

``install`` replaces each entry point it lists with a
wrapper that records a span (name, start, end, parent span, run id) in
memory. Nothing under ``src/`` changes: functions are patched in every
module namespace that looks them up, methods on their class. ``layer_metrics``
turns the spans into per-layer self times, tape-op counts and achieved
GFLOP/s against the analytic FLOPs of ``complexity.count_params_flops``.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from collections import Counter, defaultdict

# per-step tape-op counts reported by op name
TAPE_OPS = ("reshape", "permute", "add", "matmul")
# model layers joined with analytic FLOPs, in forward order
FLOP_LAYERS = ("tokenizer.embed", "encoder.stage0", "encoder.stage1",
               "interaction.stage0", "interaction.stage1", "encoder.global",
               "decoder")
# layers whose time is reported per model forward
FORWARD_LAYERS = FLOP_LAYERS + ("frequency.features",)
# layers whose time is reported per call
CALL_LAYERS = ("train.sgd_step", "train.zero_grads", "train.evaluate",
               "train.save_checkpoint", "train.load_checkpoint",
               "data.load_dataset", "tokenizer.load_clip", "data.perturb.jpeg",
               "data.perturb.gaussian", "data.generate", "objectives.loss",
               "objectives.metrics")


class Tracer:
    """In-memory span log; ``run`` tags each span with the current run id."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent, run]
        self._stack: list[int] = []
        self.run = "setup"
        self.tape_forward: list[tuple[object, Counter]] = []   # (run, ops)
        self.tape_step: list[tuple[object, Counter]] = []
        self.bytes_written: list[int] = []
        self.bytes_read: list[int] = []

    def wrap(self, fn, name):
        """``fn`` inside a span; ``name`` is a string or a function of the
        call's arguments returning one."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(*args, **kwargs)
            idx = len(spans)
            spans.append([label, clock(), 0.0, stack[-1] if stack else -1, self.run])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def write(self, path: str):
        """One JSON line per span, written once the run has ended."""
        with open(path, "w") as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run}) + "\n")


def tape_ops(root) -> Counter:
    """Op names of the tape entries ``root`` depends on, each counted once."""
    counts: Counter = Counter()
    seen = set()
    stack = [root._entry] if root._entry is not None else []
    while stack:
        entry = stack.pop()
        if id(entry) in seen:
            continue
        seen.add(id(entry))
        counts[entry.name] += 1
        stack.extend(t._entry for t in entry.inputs
                     if t._entry is not None and id(t._entry) not in seen)
    return counts


def _patch(tracer: Tracer, modules, attr: str, name):
    """Wrap ``attr`` once and bind the wrapper in every module given."""
    wrapped = tracer.wrap(getattr(modules[0], attr), name)
    for mod in modules:
        setattr(mod, attr, wrapped)


def install(tracer: Tracer, v) -> None:
    """Patch the entry points of the vindet modules in namespace ``v``."""
    wrap = tracer.wrap
    v.tokenizer.TubeletEmbed.__call__ = wrap(v.tokenizer.TubeletEmbed.__call__,
                                             "tokenizer.embed")
    v.encoder.ViewBranch.run_stage = wrap(
        v.encoder.ViewBranch.run_stage, lambda self, x, idx: f"encoder.stage{idx}")
    v.encoder.GlobalEncoder.__call__ = wrap(v.encoder.GlobalEncoder.__call__,
                                            "encoder.global")
    v.interaction.ViewInteraction.__call__ = wrap(
        v.interaction.ViewInteraction.__call__,
        lambda self, views, stage: f"interaction.stage{stage}")
    v.decoder.PyramidDecoder.__call__ = wrap(v.decoder.PyramidDecoder.__call__,
                                             "decoder")
    _patch(tracer, [v.model], "frequency_features", "frequency.features")

    forward = wrap(v.model.InpaintingDetector.__call__, "model.forward")

    def counted_forward(self, frames):
        out = forward(self, frames)
        if out._entry is not None:
            tracer.tape_forward.append((tracer.run, tape_ops(out)))
        return out

    v.model.InpaintingDetector.__call__ = counted_forward

    backward = wrap(v.train.backward, "tensor.backward")

    def counted_backward(loss):
        tracer.tape_step.append((tracer.run, tape_ops(loss)))
        return backward(loss)

    v.train.backward = counted_backward

    _patch(tracer, [v.train], "total_loss", "objectives.loss")
    for fn in ("miou_metric", "f1_metric", "frame_score", "frame_score_auc"):
        _patch(tracer, [v.train, v.experiment], fn, "objectives.metrics")
    _patch(tracer, [v.train], "sgd_step", "train.sgd_step")
    _patch(tracer, [v.nn], "zero_grads", "train.zero_grads")
    _patch(tracer, [v.train], "evaluate_model", "train.evaluate")
    _patch(tracer, [v.train], "save_checkpoint", "train.save_checkpoint")
    _patch(tracer, [v.train, v.experiment], "load_checkpoint", "train.load_checkpoint")
    _patch(tracer, [v.data], "load_dataset", "data.load_dataset")
    _patch(tracer, [v.data], "load_clip", "tokenizer.load_clip")
    _patch(tracer, [v.train], "apply_perturbation",
           lambda clip, cfg, seed: f"data.perturb.{cfg.perturb.kind}")
    _patch(tracer, [v.data, v.experiment], "generate_dataset", "data.generate")

    save_container, load_container = v.serialize.save_container, v.serialize.load_container

    def counted_save(path, tensors):
        save_container(path, tensors)
        tracer.bytes_written.append(os.path.getsize(path))

    def counted_load(path):
        tracer.bytes_read.append(os.path.getsize(path))
        return load_container(path)

    v.serialize.save_container = counted_save
    v.serialize.load_container = counted_load


def self_times(spans, skip_run=None) -> dict[str, list[float]]:
    """name -> [calls, inclusive s, self s]; self time is a span's duration
    minus the part of it its direct children cover. Spans of run
    ``skip_run`` are left out of the totals."""
    child = [0.0] * len(spans)
    for name, start, end, parent, run in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    for i, (name, start, end, parent, run) in enumerate(spans):
        if run == skip_run:
            continue
        acc = out[name]
        acc[0] += 1
        acc[1] += end - start
        acc[2] += end - start - child[i]
    return dict(out)


def flop_layer(label: str) -> str | None:
    """Layer of a ``count_params_flops`` breakdown label. A branch's patch
    merge runs at the start of its stage, so ``view*.merge{l}`` joins
    ``encoder.stage{l}``."""
    head = label.split(".")[0]
    if head.startswith("embed"):
        return "tokenizer.embed"
    if head.startswith("view"):
        part = label.split(".")[1]
        return "encoder.stage" + part.removeprefix("stage").removeprefix("merge")
    if head == "dwti":
        return "interaction." + label.split(".")[1]
    if head == "global":
        return "encoder.global"
    if head == "dec":
        return "decoder"
    return None


def analytic_mflop(breakdown) -> dict[str, float]:
    """MFLOP per clip of each FLOP layer."""
    out: dict[str, float] = defaultdict(float)
    for label, _, flops in breakdown:
        layer = flop_layer(label)
        if layer is None:
            raise ValueError(f"no layer for complexity label {label!r}")
        out[layer] += flops / 1e6
    return dict(out)


def _median_count(counters: list[Counter], key: str | None = None) -> float:
    if not counters:
        return 0.0
    return float(statistics.median(
        sum(c.values()) if key is None else c.get(key, 0) for c in counters))


def layer_metrics(tracer: Tracer, breakdown, overhead_ms: float) -> dict:
    """Per-layer metrics of a traced run: {name: (value, unit)}.

    Forward layers are ms per model forward, summed over views; call layers
    are ms per call; tape counts are medians over tape-on forwards and steps.
    Layers that never ran read 0.
    """
    times = self_times(tracer.spans, skip_run="check")
    n_fwd = times.get("model.forward", [0])[0]
    n_steps = times.get("tensor.backward", [0])[0]

    def total_ms(name, per, self_only=False):
        acc = times.get(name)
        return 0.0 if acc is None or per == 0 else 1e3 * acc[2 if self_only else 1] / per

    m = {}
    mflop = analytic_mflop(breakdown)
    for layer in FORWARD_LAYERS:
        ms = total_ms(layer, n_fwd)
        m[f"{layer}_ms" if layer != "decoder" else "decoder.ms"] = (ms, "ms")
        if layer in mflop:
            m[f"{layer}.mflop"] = (mflop[layer], "MFLOP")
            m[f"{layer}.gflop_per_s"] = (mflop[layer] / ms if ms else 0.0, "GFLOP/s")
    fwd_ms = total_ms("model.forward", n_fwd)
    m["model.forward_ms"] = (fwd_ms, "ms")
    m["model.self_ms"] = (total_ms("model.forward", n_fwd, self_only=True), "ms")
    total_mflop = sum(mflop.values())
    m["model.mflop"] = (total_mflop, "MFLOP")
    m["model.gflop_per_s"] = (total_mflop / fwd_ms if fwd_ms else 0.0, "GFLOP/s")

    m["tensor.backward_ms"] = (total_ms("tensor.backward", n_steps), "ms")
    fwd_ops, step_ops = measured_tape(tracer)
    m["tensor.tape_ops_per_forward"] = (_median_count(fwd_ops), "count")
    m["tensor.tape_ops_per_step"] = (_median_count(step_ops), "count")
    for op in TAPE_OPS:
        m[f"tensor.tape_ops.{op}"] = (_median_count(step_ops, op), "count")

    for layer in CALL_LAYERS:
        calls = times.get(layer, [0])[0]
        name = layer.replace("data.perturb.", "data.perturb_ms.")
        m[name if name != layer else f"{layer}_ms"] = (total_ms(layer, calls), "ms")

    def per_call(sizes):
        return float(statistics.mean(sizes)) if sizes else 0.0

    m["serialize.bytes_written"] = (per_call(tracer.bytes_written), "bytes")
    m["serialize.bytes_read"] = (per_call(tracer.bytes_read), "bytes")
    m["experiment.overhead_ms"] = (overhead_ms, "ms")
    return m


def measured_tape(tracer: Tracer) -> tuple[list[Counter], list[Counter]]:
    """Tape-op counts of the measured forwards and steps, without checks."""
    return tuple([c for run, c in group if run != "check"]
                 for group in (tracer.tape_forward, tracer.tape_step))


def tape_counts_repeat(tracer: Tracer) -> bool:
    """True when every tape-on forward and every step recorded the same ops."""
    return all(len({tuple(sorted(c.items())) for c in group}) <= 1
               for group in measured_tape(tracer))
