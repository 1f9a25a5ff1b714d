"""Run the textrec benchmark.

One workload per call, as the benchmark contract specifies; the last line of
standard output is the JSON result, and the line before it the full report
(environment, config, checks, notes)::

    python3 bench/run.py --workload train_toy --seed 1 --seconds 30 --trace 0

All workloads, untraced and traced, each in its own process so that peak
memory is per workload; prints every metric by name and unit and exits
non-zero if any correctness check fails::

    python3 bench/run.py --all --seed 1 --seconds 30
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

WORKLOAD_NAMES = ("train_toy", "train_longline", "infer_paper")
RUN_TIMEOUT_S = 600
# One BLAS thread: on a 2-core machine two threads gave train_toy a ~10%
# run-to-run spread in strips/s against ~1-2% with one, at the same throughput.
BLAS_THREADS = 1


def _single(args) -> int:
    # BLAS reads its thread count when numpy loads, so set it before the import.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    import harness

    report = harness.run(harness.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"report": vars(report)}))
    print(json.dumps(report.result()))
    return 0 if report.correct and report.failed == 0 else 1


def _all(args) -> int:
    status = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                status = 1
                print(f"{name} trace={trace}: FAILED (exit {proc.returncode})\n{proc.stderr}", file=sys.stderr)
                if len(lines) < 2:
                    continue
            report = json.loads(lines[-2])["report"]
            if trace == 0:
                env = report["notes"]["env"]
                print(f"# {name}: " + ", ".join(f"{k}={v}" for k, v in env.items()))
            print(f"# {name} trace={trace}: correct={report['correct']} attempted={report['attempted']} "
                  f"failed={report['failed']} fail_frac={report['notes']['fail_frac']:.3g}")
            for metric, m in report["metrics"].items():
                print(f"{name:<15} {metric:<32} {m['value']:>14.6g} {m['unit']}")
    return status


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=WORKLOAD_NAMES)
    mode.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return _all(args) if args.all else _single(args)


if __name__ == "__main__":
    sys.exit(main())
