"""Run one workload under several seeds and print, per metric, the median
and the quartile spread (Q3 - Q1) / median of the values.

    python3 bench/spread.py --workload mitigate-gbm --seeds 1 2 3 4 5 --seconds 10

Each run is a child process of ``bench/run.py``, started and waited for one
at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import relative_spread

RUN = Path(__file__).resolve().parent / "run.py"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} "
              + " ".join(f"{k}={m['value']:.5g}" for k, m in result["metrics"].items()),
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    if len(args.seeds) >= 2:
        for name, vals in values.items():
            med = statistics.median(vals)
            spread = relative_spread(vals) if med else float("nan")
            print(f"{name}: median {med:.6g} spread {spread:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
