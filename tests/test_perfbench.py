"""The benchmark harness against this checkout: a short traced run of each
desk workload must finish, pass its checks and find every entry point it
times. ``perfbench/`` looks ``vindet`` functions up by name, so a rename in
``src/`` shows here rather than in a later benchmark run. The run uses a
copy of ``perfbench/`` and ``src/``, so its records do not replace those of
a benchmark run in this checkout's ``.perfbench_out/``."""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]

# the spans through the view branches, the global encoder and the interaction
SPANS = ("encoder.stage0_ms", "encoder.stage1_ms", "encoder.global_ms",
         "interaction.stage0_ms")
# per-layer metrics each workload must read as nonzero. train.evaluate_ms is
# left out: the tracer wraps train.evaluate_model, but the overfit experiment
# calls the name experiment.py imported, so on train_desk it reads 0
NONZERO = {
    "train_desk": ("model.forward_ms", "tensor.backward_ms", "train.sgd_step_ms",
                   "train.zero_grads_ms", *SPANS),
    "infer_desk": ("model.forward_ms", *SPANS),
}


@pytest.mark.parametrize("workload", sorted(NONZERO))
def test_traced_benchmark_run(workload, tmp_path):
    for part in ("perfbench", "src"):
        shutil.copytree(ROOT / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.1", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, run.stdout
    for name in NONZERO[workload]:
        assert result["metrics"][name]["value"] > 0, name
