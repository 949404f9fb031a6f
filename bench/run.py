"""fairpost benchmark: one workload per invocation, one op at a time.

    python3 bench/run.py --workload mitigate-gbm --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The load is a closed loop with one client:
each op starts when the previous one ends.  Set-up (inputs, base model and
one warm-up op) is repeated and its median reported as ``setup_s``.  Ops then
cycle through the workload's per-op seeds, in whole cycles, until
``--seconds`` have passed.  Every op's output is checked; an op that raises
or fails a check counts as failed.

Times are reported in normalized seconds (see ``timing.py``): wall time
scaled by a reference kernel sampled before and after every set-up and op,
which cancels most of the slowdown other tenants of the host cause.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced cycles and prints the per-layer metrics from the traced
ones, with the tracing overhead.  The last line of standard output is the
result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from functools import partial
from importlib.util import find_spec
from pathlib import Path

from stats import summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOAD_NAMES = ("mitigate-gbm", "mitigate-logistic", "explain-gbm",
                  "retrain-baseline")
THREAD_VARS = ("FAIRPOST_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def declared_units() -> tuple[dict, dict]:
    """Units of the end-to-end and per-layer metrics in ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple({m["name"]: m["unit"] for m in spec[key]}
                 for key in ("end_to_end", "per_layer"))


def environment() -> dict:
    import numpy
    import scipy
    return {"platform": platform.platform(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "numba_importable": find_spec("numba") is not None}


class Runner:
    """Runs, times and checks ops, keeping each op's record."""

    def __init__(self, workload, yardstick, tracer=None, targets=()):
        self.workload = workload
        self.yardstick = yardstick
        self.tracer = tracer
        self.targets = targets
        self.ops: list[dict] = []
        self.digests: dict[int, str] = {}

    def _traced_run(self, op_id: int, op_seed: int):
        with self.tracer.installed(self.targets):
            self.tracer.op = op_id
            try:
                with self.tracer.span("bench.op"):
                    return self.workload.run(op_seed)
            finally:
                self.tracer.op = None

    def run_op(self, op_seed: int, traced: bool = False) -> dict:
        op = {"id": len(self.ops), "seed": op_seed, "traced": traced, "ok": False}
        self.ops.append(op)
        step = (partial(self._traced_run, op["id"], op_seed) if traced
                else partial(self.workload.run, op_seed))
        try:
            output, op["raw_s"], op["seconds"] = self.yardstick.timed(step)
            op.update(self.workload.check(op_seed, output))
            first = self.digests.setdefault(op_seed, op["digest"])
            if first != op["digest"]:
                raise RuntimeError(f"op with seed {op_seed} gave different output "
                                   "from an earlier op with that seed")
            op["ok"] = True
        except Exception:
            traceback.print_exc(file=sys.stderr)
        return op


def setup(cls, seed: int, work: Path, yardstick):
    """Repeat set-up plus one warm-up op; return the last workload, the
    normalized and raw set-up times, and the warm-up check."""
    times, raw_times, warmups = [], [], []
    for _ in range(SETUP_REPEATS):
        def step():
            workload = cls(seed, work)
            return workload, workload.run(workload.op_seeds[0])
        (workload, output), raw, seconds = yardstick.timed(step)
        times.append(seconds)
        raw_times.append(raw)
        warmups.append(workload.check(workload.op_seeds[0], output))
    if len({w["digest"] for w in warmups}) != 1:
        raise RuntimeError("warm-up outputs differ between set-ups")
    return workload, times, raw_times, warmups[0]


def measure(runner: Runner, seconds: float, trace: bool) -> None:
    """Whole cycles until ``seconds`` have passed; with ``trace``, cycles
    alternate untraced and traced and end on a traced one."""
    start = time.perf_counter()
    cycles = 0
    while True:
        traced = trace and cycles % 2 == 1
        for op_seed in runner.workload.op_seeds:
            runner.run_op(op_seed, traced)
        cycles += 1
        if time.perf_counter() - start >= seconds and not (trace and cycles % 2):
            return


def end_to_end(setup_times, ops) -> dict:
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"setup_s": statistics.median(setup_times),
            "op_s.p50": statistics.median(op["seconds"] for op in ops),
            # median over ops, so one op slowed by a busy host weighs no more
            # than any other
            "evals_per_s": statistics.median(op["evals"] / op["seconds"]
                                             for op in ops),
            "peak_rss_mb": rss_kb / 1024.0}


def per_layer(tracer, traced_ops, untraced_ops) -> dict:
    """Per-op means of the per-layer times and counts over the traced ops;
    span times are normalized with their op's factor."""
    by_name, by_layer = tracer.totals({op["id"]: op["seconds"] / op["raw_s"]
                                       for op in traced_ops})
    counts = tracer.counts
    n = len(traced_ops)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {
        "learn.predict_s": by_name.get("learn.predict", 0.0),
        "learn.predict_calls": counts["learn.predict_calls"],
        "learn.predict_rows": counts["learn.predict_rows"],
        "learn.train_s": by_name.get("learn.train", 0.0),
        "learn.train_calls": counts["learn.train_calls"],
        "transform.apply_s": by_name.get("transform.apply", 0.0),
        "transform.apply_rows": counts["transform.apply_rows"],
        "calibrate.fit_s": by_name.get("calibrate.fit", 0.0),
        "calibrate.fit_calls": counts["calibrate.fit_calls"],
        "calibrate.fit_failed": counts["calibrate.fit.raised"],
        "calibrate.map_s": by_name.get("calibrate.map", 0.0),
        "bias.self_s": by_layer.get("bias", 0.0),
        "bias.calls": counts["bias.calls"],
        "bias.rows": counts["bias.rows"],
        "empirical.build_s": by_name.get("empirical.build", 0.0),
        "empirical.w1_s": by_name.get("empirical.w1", 0.0),
        "empirical.w1_calls": counts["empirical.w1_calls"],
        "explain.self_s": by_layer.get("explain", 0.0),
        "explain.game_calls": counts["explain.game_calls"],
        "explain.block_rows": counts["explain.block_rows"],
        "attribution.self_s": by_layer.get("attribution", 0.0),
        "attribution.coalitions": counts["attribution.coalitions"],
        "mitigate.self_s": by_layer.get("mitigate", 0.0),
        "mitigate.evals": counts["mitigate.evals"],
        "cli.self_s": by_layer.get("cli", 0.0),
        "cli.rows_read": counts["cli.rows_read"],
    }
    out = {k: v / n for k, v in out.items()}
    out["learn.predict_us_per_row"] = 1e6 * ratio(out["learn.predict_s"],
                                                  out["learn.predict_rows"])
    out["mitigate.frontier_frac"] = ratio(
        sum(op.get("frontier", 0) for op in traced_ops),
        sum(op.get("points", 0) for op in traced_ops))
    out["mitigate.calib_failed_frac"] = ratio(counts["calibrate.fit.raised"],
                                              counts["mitigate.evals"])
    out["trace.overhead_frac"] = (
        statistics.median(op["seconds"] for op in traced_ops)
        / statistics.median(op["seconds"] for op in untraced_ops) - 1.0)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fairpost" / "__init__.py").is_file():
        print(f"error: no fairpost sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy is imported
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    from spans import Tracer
    from timing import Yardstick
    from workloads import WORKLOADS, trace_targets

    cls = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    yardstick = Yardstick()
    workload, setup_times, setup_raw, warmup = setup(cls, args.seed, work, yardstick)
    tracer = Tracer() if args.trace else None
    runner = Runner(workload, yardstick, tracer,
                    trace_targets() if args.trace else ())
    runner.digests[workload.op_seeds[0]] = warmup["digest"]
    measure(runner, args.seconds, bool(args.trace))

    ops = runner.ops
    failed = sum(not op["ok"] for op in ops)
    untraced = [op for op in ops if op["ok"] and not op["traced"]]
    traced = [op for op in ops if op["ok"] and op["traced"]]
    if not untraced or (args.trace and not traced):
        print("error: every op failed", file=sys.stderr)
        return 1
    if args.trace:
        metrics = per_layer(tracer, traced, untraced)
        tracer.dump(work / "spans.json")
    else:
        metrics = end_to_end(setup_times, untraced)
    units = declared_units()[args.trace]
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} differ "
                           "from BENCHMARK.json")

    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": environment(), "inputs": workload.inputs(),
        "op_seeds": workload.op_seeds,
        "reference_s": yardstick.samples, "setup_raw_s": setup_raw,
        "untraced_ops_s": summarize([op["seconds"] for op in untraced]),
        "untraced_ops_raw_s": summarize([op["raw_s"] for op in untraced]),
        "traced_ops_s": summarize([op["seconds"] for op in traced]) if traced else None,
        "digests": {str(s): d for s, d in sorted(runner.digests.items())},
    }
    with open(work / "result.json", "w") as fh:
        json.dump({"detail": detail, "metrics": metrics, "ops": ops}, fh, indent=1)
        fh.write("\n")

    summary = detail["untraced_ops_s"]
    tail = summary["tail"]
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{summary['count']} untraced ops, p50 {summary['p50']:.4f} s, "
          + (f"p{tail['q']:g} {tail['value']:.4f} s" if tail else
             "no percentile has 10 ops beyond it"))
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0, "attempted": len(ops), "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
