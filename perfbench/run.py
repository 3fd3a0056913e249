"""vindet benchmark: one workload, timed from outside the program.

Run from the root of a checkout:

    python3 perfbench/run.py --workload infer_desk --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --report

A run prints a summary, then as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
full record (machine facts, checks, tail percentiles, spans of a traced run)
goes to ``.perfbench_out/``. ``--report`` prints every metric of every
recorded run with its unit, and the tracing overhead where a seed was run
both ways. See perfbench/README.md.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

# one BLAS thread, pinned before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import glob  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, percentile_ms  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 5
MODULES = ("complexity", "config", "data", "decoder", "encoder", "experiment",
           "interaction", "model", "nn", "serialize", "tensor", "tokenizer", "train")
E2E_UNITS = {"setup_s": "s", "op_ms_p50": "ms", "op_ms_p90": "ms",
             "clips_per_s": "clips/s", "peak_rss_mb": "MB"}


def import_vindet() -> SimpleNamespace:
    """The vindet modules from this checkout's ``src/``, never another copy."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    pkg = importlib.import_module("vindet")
    if not os.path.abspath(pkg.__file__).startswith(src + os.sep):
        raise ImportError(f"vindet imported from {pkg.__file__}, not from {src}")
    return SimpleNamespace(**{m: importlib.import_module(f"vindet.{m}") for m in MODULES})


def machine_facts() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        **{var: os.environ.get(var) for var in
           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run(args) -> int:
    try:
        v = import_vindet()
    except ImportError as err:
        print(f"error: cannot import vindet from this checkout: {err}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START

    workload = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer, v)

    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    try:
        setup = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(work, ignore_errors=True)
            start = time.perf_counter()
            state = workload.prepare(v, args.seed, work)
            setup.append(time.perf_counter() - start)
        measured = workload.measure(v, state, args.seconds, work, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    end_to_end = {
        "setup_s": import_s + statistics.median(setup),
        "op_ms_p50": percentile_ms(measured.op_times, 50),
        "op_ms_p90": percentile_ms(measured.op_times, 90),
        "clips_per_s": measured.clips / measured.busy_s if measured.busy_s else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    end_to_end = {k: {"value": val, "unit": E2E_UNITS[k]} for k, val in end_to_end.items()}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_facts(),
        "end_to_end": end_to_end,
        "setup": {"import_s": import_s, "prepare_s": setup},
        "details": measured.details,
        "checks": {"attempted": measured.attempted, "failed": measured.failed,
                   "problems": measured.problems},
    }
    if tracer is not None:
        breakdown = v.complexity.count_params_flops(state.cfg)["breakdown"]
        layers = tracing.layer_metrics(tracer, breakdown, measured.overhead_ms)
        record["per_layer"] = {k: {"value": val, "unit": unit}
                               for k, (val, unit) in layers.items()}
        record["tape_counts_repeat"] = tracing.tape_counts_repeat(tracer)
        step_ops = tracing.measured_tape(tracer)[1]
        record["tape_ops_per_step"] = dict(step_ops[0]) if step_ops else {}
        tracer.write(os.path.join(OUT, f"{args.workload}-seed{args.seed}-spans.jsonl"))
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1)

    metrics = record["per_layer"] if tracer is not None else end_to_end
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{measured.attempted} attempted, {measured.failed} failed")
    for problem in measured.problems:
        print(f"  check failed: {problem}")
    print("machine " + json.dumps(record["machine"]))
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": measured.failed == 0, "attempted": measured.attempted,
                      "failed": measured.failed, "metrics": metrics}))
    return 0


def report() -> int:
    """Every metric of every recorded run, with units, and tracing overhead."""
    records = []
    for path in sorted(glob.glob(os.path.join(OUT, "*-trace[01].json"))):
        with open(path) as fh:
            records.append(json.load(fh))
    if not records:
        print(f"no results under {OUT}", file=sys.stderr)
        return 1
    by_key = {(r["workload"], r["seed"], r["trace"]): r for r in records}
    for r in records:
        print(f"{r['workload']} seed={r['seed']} trace={r['trace']} "
              f"failed={r['checks']['failed']}/{r['checks']['attempted']}")
        for section in ("end_to_end", "per_layer"):
            for name, m in r.get(section, {}).items():
                print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
        traced = by_key.get((r["workload"], r["seed"], 1))
        if r["trace"] == 0 and traced is not None:
            for name, m in r["end_to_end"].items():
                t = traced["end_to_end"][name]["value"]
                print(f"  tracing overhead {name:23s} {100.0 * (t / m['value'] - 1.0):+8.2f} %")
    for workload in sorted({r["workload"] for r in records}):
        counts = {json.dumps(r["tape_ops_per_step"], sort_keys=True)
                  for r in records if r["workload"] == workload and r["trace"] == 1}
        if counts:
            print(f"{workload}: tape-op counts per step identical across traced runs: "
                  f"{len(counts) == 1}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--report", action="store_true",
                    help="print every recorded metric with its unit")
    args = ap.parse_args(argv)
    if args.report:
        return report()
    if args.workload is None:
        ap.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
