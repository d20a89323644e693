"""Benchmark entry point: one workload per call, one JSON line of results.

    python3 bench/run.py --workload penalized-mc --seed 1 --seconds 20 --trace 0

Run from the repository root.  Each workload runs in a fresh single
process (``worker.py``) with OpenBLAS capped at the CPUs this process may
use and the package's default worker count.  Set-up time runs from
spawning a worker to the end of its set-up (both read from the system's
monotonic clock), on the measuring worker and on extra set-up-only
workers, and is reported as their median.  With
``--trace 0`` the last stdout line carries the end-to-end metrics, with
``--trace 1`` the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 2          # set-up-only workers besides the measuring one
DEADLINE_S = 170.0        # the whole call stays under three minutes


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = str(len(os.sched_getaffinity(0)))
    env.pop("ARGMIN_UNIQUE_THREADS", None)   # the package default: 1 worker
    env.pop("PYTHONPATH", None)
    return env


def run_worker(args, extra: list, deadline: float) -> tuple:
    """(set-up seconds, RESULT payload or None) of one worker process."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra,
           "--spawned-at", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(),
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError("worker ran past the deadline") from None
    if proc.returncode != 0:
        raise WorkerError(f"worker {' '.join(extra)} exited {proc.returncode}")
    setup = result = None
    for line in out.splitlines():
        if line.startswith("SETUP "):
            setup = float(line.split()[1])
        elif line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
    if setup is None:
        raise WorkerError("worker reported no set-up time")
    return setup, result


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    deadline = time.monotonic() + DEADLINE_S

    missing = [p for p in ("src/argmin_unique/__init__.py", "tests/oracles.py")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"bench: package sources missing from {ROOT}: {missing}",
              file=sys.stderr)
        return 2
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(run_worker(args, ["--setup-only"], deadline)[0])
        setup, result = run_worker(args, [], deadline)
    except (WorkerError, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if result is None:
        print("bench: worker printed no result", file=sys.stderr)
        return 1
    metrics = dict(result["metrics"])
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups + [setup])
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
