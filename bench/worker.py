"""One workload in one fresh process: set up, time whole rounds, check.

Started by ``run.py``.  Writes ``SETUP <seconds>`` to stdout when set-up
ends, counted from ``--spawned-at`` (the parent's monotonic clock when it
started this process), and, unless ``--setup-only``, a final
``RESULT <json>`` line with the op counts and the measured metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import resource
import statistics
import sys
from pathlib import Path
from time import monotonic, perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_OPS = 100   # at least ten samples lie beyond the reported p90
CLI_KINDS = ("weakid_single", "weakid_draws", "mixture", "penalized_l0",
             "threshold", "generic_check", "figures")   # cli-suite op kinds


def timed_section(work, rounds, seconds: float, min_ops: int = 0) -> dict:
    """Run whole rounds from ``rounds`` until ``seconds`` and ``min_ops``.

    With ``seconds`` infinite every round in ``rounds`` runs.  Records each
    round's wall time, CPU time and ops.
    """
    first = len(work.ops)
    done, walls, cpus, ops = [], [], [], []
    t0 = perf_counter()
    for r in rounds:
        w0, c0, n0 = perf_counter(), process_time(), len(work.ops)
        work.round = r
        work.run_round(r)
        walls.append(perf_counter() - w0)
        cpus.append(process_time() - c0)
        ops.append(len(work.ops) - n0)
        done.append(r)
        if perf_counter() - t0 >= seconds and len(work.ops) - first >= min_ops:
            break
    return {"rounds": done, "walls": walls, "cpus": cpus, "round_ops": ops,
            "wall": perf_counter() - t0, "ops": work.ops[first:]}


def end_to_end(section: dict) -> dict:
    """Metrics as medians over rounds (and over blocks of >= MIN_OPS ops).

    Every round has the same op mix, so a burst of load from elsewhere on
    the machine shifts a few rounds instead of the whole figure.
    """
    per_round = section["round_ops"][0]
    times = [op.seconds * 1e3 for op in section["ops"]]
    size = per_round * math.ceil(MIN_OPS / per_round)   # whole rounds
    blocks = [times[i:i + size] for i in range(0, len(times), size)]
    if len(blocks) > 1 and len(blocks[-1]) < size:
        blocks[-2].extend(blocks.pop())
    return {
        "ops_per_s": per_round / statistics.median(section["walls"]),
        "op_ms_p50": statistics.median(statistics.median(b) for b in blocks),
        "op_ms_p90": statistics.median(statistics.quantiles(b, n=10)[8]
                                       for b in blocks),
        "cpu_ms_per_op": statistics.median(section["cpus"]) * 1e3 / per_round,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(work, tracer, plain: dict, traced: dict) -> dict:
    ops = traced["ops"]
    n = len(ops)
    spans = tracer.summary()
    cnt = tracer.counters

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def self_s(name):
        return spans.get(name, (0, 0.0, 0.0))[2]

    def per_call(name, scale):
        c = calls(name)
        return self_s(name) * scale / c if c else 0.0

    n_l0 = sum(op.kind == work.l0_kind for op in ops)
    draws = calls("op") if calls("globalopt.multiplicity_probability") else 0
    m = {
        "domain.violation_calls": calls("domain.violation") / n,
        "domain.violation_ms": self_s("domain.violation") * 1e3 / n,
        "globalopt.descents": calls("globalopt.nelder_mead") / n,
        "globalopt.nfev": cnt.get("globalopt.nfev", 0.0) / n,
        "globalopt.nelder_mead_ms": self_s("globalopt.nelder_mead") * 1e3 / n,
        "globalopt.lbfgsb_ms": self_s("globalopt.lbfgsb") * 1e3 / n,
        "globalopt.cluster_ms": self_s("globalopt.cluster") * 1e3 / n,
        "globalopt.cluster_points": cnt.get("globalopt.cluster_points", 0.0) / n,
        "globalopt.mc_overhead_ms": (self_s("globalopt.multiplicity_probability")
                                     * 1e3 / draws if draws else 0.0),
        "penalized.penalty_calls": calls("penalized.penalty") / n,
        "penalized.penalty_us": per_call("penalized.penalty", 1e6),
        "penalized.enumerate_ms": (self_s("penalized.enumerate") * 1e3 / n_l0
                                   if n_l0 else 0.0),
        "weakid.profile_ms": self_s("weakid.profile") * 1e3 / n,
        "weakid.profile_points": cnt.get("weakid.profile_points", 0.0) / n,
        "weakid.polish_ms": self_s("weakid.polish") * 1e3 / n,
        "weakid.scalar_evals": calls("weakid.scalar") / n,
        "weakid.scalar_us": per_call("weakid.scalar", 1e6),
        "mixture.em_ms": self_s("mixture.fit_mle") * 1e3 / n,
        "threshold.factor_ms": per_call("threshold.factor", 1e3),
        "threshold.path_us": per_call("threshold.path", 1e6),
        "threshold.profile_us": per_call("threshold.profile", 1e6),
        "genericity.scan_ms": self_s("genericity.scan") * 1e3 / n,
        "genericity.check_us": per_call("genericity.check", 1e6),
        "genericity.triples": calls("genericity.check") / n,
        "serialize.write_ms": self_s("serialize.write") * 1e3 / n,
        "serialize.bytes": cnt.get("serialize.bytes", 0.0) / n,
    }
    m.update(work.layer_extra(ops))
    for kind in CLI_KINDS:
        times = [op.seconds for op in ops if op.kind == kind]
        m[f"cli.{kind}_ms"] = statistics.median(times) * 1e3 if times else 0.0
    # the two sections ran the same rounds, so their op rates compare directly
    m["trace.overhead_pct"] = (sum(traced["walls"]) / sum(plain["walls"])
                               - 1.0) * 100.0
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]
    import argmin_unique
    if not Path(argmin_unique.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"argmin_unique imported from {argmin_unique.__file__}, "
                         f"not from {ROOT / 'src'}")
    import layers
    from workloads import WORKLOADS

    proto = sys.stdout
    sys.stdout = sys.stderr   # keep the package's prints off the protocol
    out = ROOT / ".bench_out"
    work = WORKLOADS[args.workload](args.seed,
                                    out / f"{args.workload}-{os.getpid()}")
    work.scratch.mkdir(parents=True)
    try:
        work.setup()
        proto.write(f"SETUP {monotonic() - args.spawned_at!r}\n")
        proto.flush()
        if args.setup_only:
            return 0
        if args.trace:
            plain = timed_section(work, itertools.count(), args.seconds / 2)
            tracer = layers.Tracer()
            work.set_tracer(tracer)
            patches = layers.install(tracer)
            try:
                traced = timed_section(work, plain["rounds"], math.inf)
            finally:
                patches.restore()
                work.set_tracer(None)
            metrics = per_layer(work, tracer, plain, traced)
            tracer.write(out / f"trace-{args.workload}.npz")
        else:
            section = timed_section(work, itertools.count(), args.seconds, MIN_OPS)
            metrics = end_to_end(section)
        failed = work.check()
    finally:
        work.close()
    for message in work.messages:
        print(f"{args.workload}: {message}", file=sys.stderr)
    proto.write("RESULT " + json.dumps({"attempted": len(work.ops),
                                        "failed": failed,
                                        "metrics": metrics}) + "\n")
    proto.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
