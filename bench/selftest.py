"""Self-test of the benchmark's checkers: wrong results must be caught.

    python3 bench/selftest.py

Each case first hands a checker a correct result, which must pass, then
the same result with one deliberate error, which must fail.  Exits 0 when
every case behaves, 1 otherwise.
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE.parent / "tests"), str(HERE)]

import numpy as np  # noqa: E402

import checks  # noqa: E402
from argmin_unique import penalized  # noqa: E402
from argmin_unique.globalopt import MultistartConfig  # noqa: E402


def weakid_case():
    z = np.array([-1.03, 1.29, 2.77])
    floor = checks.weakid_floor(1, z)
    report = {"verdict": "multiple", "eps_value": 1e-6 * (1 + abs(floor)),
              "global_value": floor,
              "clusters": [{"representative": [r],
                            "value": float(checks.weakid_value(1, r, z))}
                           for r in checks.weakid_roots(1, z)]}
    wrong = copy.deepcopy(report)
    wrong["clusters"][1]["representative"][0] += 0.01

    def check(rep):
        return checks.check_weakid_draw(rep, 1, z, 6.0, 0.012)[0]
    return "shifted root", check, report, wrong


def _penalized_report(kind, params):
    rng = np.random.default_rng(5)
    X = rng.standard_normal((20, 5))
    y = X @ np.array([1.5, -1.0, 0.0, 0.0, 0.0]) + rng.standard_normal(20)
    spec = penalized.PenaltySpec(kind=kind, **params)
    data = penalized.RegressionData(y=tuple(y), x=tuple(map(tuple, X)))
    report = penalized.global_minimize(spec, data,
                                       MultistartConfig(n_starts=8)).to_dict()
    return X, y, report


def penalized_case():
    params = {"lam": 1.0, "a": 3.7}
    X, y, report = _penalized_report("scad", params)
    wrong = copy.deepcopy(report)
    wrong["clusters"][0]["value"] += 1e-6
    wrong["global_value"] += 1e-6

    def check(rep):
        return checks.check_penalized(rep, "scad", params, X, y, search=True)
    return "perturbed penalized value", check, report, wrong


def l0_case():
    params = {"lam": 1.0}
    X, y, report = _penalized_report("l0", params)
    wrong = copy.deepcopy(report)
    beta = wrong["clusters"][0]["representative"]
    k = next(i for i, b in enumerate(beta) if b == 0.0)
    beta[k] = 1e-3

    def check(rep):
        return checks.check_l0(rep, params, X, y)
    return "wrong l0 support", check, report, wrong


def report_byte_case():
    text = b'{"argmin":{"global_value":-12.25,"verdict":"multiple"}}\n'
    first = {"x.report.json": checks.digest(text)}
    edited = bytearray(text)
    edited[20] ^= 1
    again = {"x.report.json": checks.digest(text)}
    wrong = {"x.report.json": checks.digest(bytes(edited))}

    def check(digests):
        return checks.check_identical(first, digests)
    return "edited report byte", check, again, wrong


def main() -> int:
    bad = 0
    for case in (weakid_case, penalized_case, l0_case, report_byte_case):
        name, check, good, wrong = case()
        passed, caught = not check(good), bool(check(wrong))
        print(f"selftest {name}: correct result "
              f"{'passes' if passed else 'FAILS'}, wrong result "
              f"{'caught' if caught else 'NOT CAUGHT'}")
        bad += not (passed and caught)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
