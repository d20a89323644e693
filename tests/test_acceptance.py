"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are fixed here, not tuned at runtime.
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import argmin_unique
from argmin_unique import (MixtureParams, MixtureSample, MultistartConfig,
                           PenaltySpec, RegressionData, UnrestrictedParams,
                           argmin_set_expand, argmin_uniqueness_trial,
                           check_injectivity_condition, check_rank_condition,
                           enumerate_best_subsets, fit_mle, global_minimize,
                           make_example1, make_example2, mixture_density,
                           mixture_nll, multiplicity_probability,
                           multistart_global_minimize, multistart_minimize,
                           scan_grid, score_gap, score_gap_cleared)
from argmin_unique.cli import main as cli_main
from argmin_unique.domain import box
from argmin_unique.threshold import (GPSpec, build_factor,
                                     endpoint_shift_gap_derivative,
                                     end_shift, exponential_kernel,
                                     objective_profile, simulate_path)
from argmin_unique.weakid import with_pi_bound

from oracles import (discriminant_probability, ex1_roots, ex2_roots,
                     mixture_nll_direct, permutation_set)

EX1 = make_example1()
EX2 = make_example2()


def report_line(number, name, ok, detail):
    print(f"\nACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} failed: {detail}"


def detect_roots(model, z, seed=0):
    t0 = time.perf_counter()
    rep = multistart_minimize(model.objective(), model.pi_domain,
                              np.asarray(z), MultistartConfig(seed=seed))
    elapsed = time.perf_counter() - t0
    reps = sorted(c.representative[0] for c in rep.clusters)
    return rep, reps, elapsed


def test_criterion_1_example1_figure_multiplicity():
    cases = {
        "left": (np.array([-1.03, 1.29, 2.77]), 1e-6),
        "right": (np.array([-1.82, -0.52, 0.16]), None),
    }
    details = []
    ok = True
    for label, (z, value_tol) in cases.items():
        rep, reps, elapsed = detect_roots(EX1, z)
        want = sorted(ex1_roots(z))
        ok &= rep.verdict == "multiple" and rep.n_clusters == 2
        ok &= np.allclose(reps, want, atol=1e-3)
        # oracle value is the closed-form floor -||z||^2 at each root
        if value_tol is not None:
            want_value = -float(z @ z)
            ok &= all(abs(c.value - want_value) <= value_tol
                      for c in rep.clusters)
        ok &= elapsed < 1.0
        details.append(f"{label}: {rep.verdict} at {np.round(reps, 5)} "
                       f"in {elapsed:.2f}s")
    report_line(1, "example1-figure-multiplicity", ok, "; ".join(details))


def test_criterion_2_example2_figure_multiplicity():
    ok = True
    details = []
    for z in (np.array([-0.23, -0.28, 1.31]), np.array([-0.76, -0.25, -1.65])):
        rep, reps, elapsed = detect_roots(EX2, z)
        want = sorted(ex2_roots(z))
        ok &= rep.verdict == "multiple" and rep.n_clusters == 2
        ok &= np.allclose(reps, want, atol=1e-3)
        details.append(f"z={z.tolist()}: {np.round(reps, 5)} in {elapsed:.2f}s")
    report_line(2, "example2-figure-multiplicity", ok, "; ".join(details))


def test_criterion_3_example1_multiplicity_probability():
    t0 = time.perf_counter()
    oracle_p, oracle_se = discriminant_probability(1_000_000)
    model = with_pi_bound(make_example1(), 200.0)
    cfg = MultistartConfig(n_starts=4001, delta_cluster=0.05)
    est = multiplicity_probability(model, n_draws=2000, seed=2024, cfg=cfg)
    elapsed = time.perf_counter() - t0
    combined = math.sqrt(est.standard_error ** 2 + oracle_se ** 2)
    gap = abs(est.fraction - oracle_p)
    ok = gap <= 3 * combined and elapsed < 120.0
    report_line(3, "example1-multiplicity-probability", ok,
                f"detector {est.fraction:.4f} vs oracle {oracle_p:.4f}, "
                f"|gap|={gap:.4f} <= {3 * combined:.4f}, {elapsed:.0f}s")


def test_criterion_4_condition_checkers():
    def bilinear():
        from argmin_unique.weakid import WeakIdModel

        def h(beta, pi):
            return np.array([float(np.atleast_1d(beta)[0]) * pi])

        def h_beta(beta, pi):
            return np.asarray(pi, dtype=float)[:, None, None]

        return WeakIdModel(d_beta=1, d_h=1, h=h, h_beta=h_beta, beta0=(0.0,),
                           pi0=0.0, b=(0.0,), H=np.eye(2))

    grid = np.linspace(-6.0, 6.0, 41)
    got = {}
    for name, model in (("example1", EX1), ("example2", EX2),
                        ("bilinear", bilinear())):
        rank = check_rank_condition(model, grid).passed
        inj = check_injectivity_condition(model, n_beta=100, seed=0).passed
        got[name] = (rank, inj)
    want = {"example1": (True, False), "example2": (False, True),
            "bilinear": (True, True)}
    ok = got == want
    report_line(4, "rank-and-injectivity-checkers", ok,
                f"got {got}, want {want}")


def test_criterion_5_mixture_uniqueness():
    n_trials, n_unique = 200, 0
    eps_gap_checked = True
    cfg = MultistartConfig(seed=0, n_starts=100)
    for trial in range(n_trials):
        rng = np.random.default_rng(5000 + trial)
        comp = rng.integers(0, 2, 50)
        z = np.where(comp == 0, -2.0, 2.0) + rng.standard_normal(50)
        sample = MixtureSample(z=tuple(z))
        rep = fit_mle(sample, 2, cfg)
        if rep.verdict == "unique":
            n_unique += 1
        else:
            # re-polish: a longer search must separate the cluster values
            rep2 = fit_mle(sample, 2, MultistartConfig(seed=1, n_starts=400,
                                                       max_iters=3000))
            if rep2.verdict != "unique":
                vals = sorted(c.value for c in rep2.clusters)
                eps_gap_checked &= (vals[1] - vals[0]) > rep2.eps_value
    ok_unique = n_unique >= 198 and eps_gap_checked

    # score-gap FD agreement and the cleared pairing identity
    rng = np.random.default_rng(99)
    worst_fd, worst_id = 0.0, 0.0
    for _ in range(100):
        J1, J2 = rng.integers(1, 4, size=2)
        p1 = MixtureParams(weights=tuple(rng.dirichlet(np.full(J1, 2.0))),
                           means=tuple(np.sort(rng.uniform(-3, 3, J1))))
        p2 = MixtureParams(weights=tuple(rng.dirichlet(np.full(J2, 2.0))),
                           means=tuple(np.sort(rng.uniform(-3, 3, J2))))
        zs = tuple(np.sort(rng.standard_normal(4)))
        s = MixtureSample(z=zs)
        i = int(rng.integers(0, 4))
        h = 1e-5

        def nll_diff(zi):
            zz = list(zs)
            zz[i] = zi
            return (mixture_nll_direct(p1.weights, p1.means, zz)
                    - mixture_nll_direct(p2.weights, p2.means, zz))

        fd = (nll_diff(zs[i] + h) - nll_diff(zs[i] - h)) / (2 * h)
        worst_fd = max(worst_fd, abs(score_gap(p1, p2, s, i) - fd))
        z0 = float(zs[i])
        lhs = (mixture_density(p1, z0) * mixture_density(p2, z0)
               * score_gap(p1, p2, s, i))
        rhs = -score_gap_cleared(p1, p2, z0)
        scale = max(abs(lhs), abs(rhs), 1e-300)
        worst_id = max(worst_id, abs(lhs - rhs) / scale)
    ok = ok_unique and worst_fd <= 1e-6 and worst_id <= 1e-10
    report_line(5, "mixture-mle-uniqueness", ok,
                f"unique {n_unique}/200, score-gap FD worst {worst_fd:.2e}, "
                f"cleared-identity worst rel {worst_id:.2e}")


def test_criterion_6_argmin_set_expansion():
    rng = np.random.default_rng(7)
    ok = True
    details = []
    for J in (2, 3):
        weights = tuple(np.round(rng.dirichlet(np.full(J, 3.0)), 6))
        weights = tuple(np.asarray(weights) / np.sum(weights))
        means = tuple(np.sort(rng.uniform(-3, 3, J)))
        best = UnrestrictedParams(weights=weights, means=means)
        expansion = argmin_set_expand(best)
        got = {(m.weights, m.means) for m in expansion.permutation_members()}
        want = permutation_set(weights, means)
        ok &= got == want
        sample = MixtureSample(z=tuple(np.sort(rng.standard_normal(J * J))))
        base_nll = mixture_nll(best, sample)
        ok &= all(abs(mixture_nll(m, sample) - base_nll) <= 1e-10
                  for m in expansion.permutation_members())
        ok &= all(expansion.is_member(m) for m in expansion.permutation_members())
        details.append(f"J={J}: {len(got)} members")
    report_line(6, "argmin-set-expansion", ok, "; ".join(details))


def test_criterion_7_penalized_uniqueness(criterion7_smooth_reports):
    rng = np.random.default_rng(2718)
    X = rng.standard_normal((20, 5))
    beta0 = np.array([1.5, -1.0, 0.0, 0.0, 0.0])
    specs = {
        "l0": PenaltySpec(kind="l0", lam=1.0),
        "bridge": PenaltySpec(kind="bridge", lam=0.5, q=0.5),
        "scad": PenaltySpec(kind="scad", lam=1.0, a=3.7),
        "mcp": PenaltySpec(kind="mcp", lam=1.0, gamma=3.0),
    }
    n_trials = 200
    reports = {"l0": []}
    draws = []
    worst_l0_gap = 0.0
    for trial in range(n_trials):
        y = X @ beta0 + np.random.default_rng(9000 + trial).standard_normal(20)
        data = RegressionData(y=tuple(y), x=tuple(tuple(r) for r in X))
        draws.append(data)
        cfg = MultistartConfig(seed=trial, n_starts=32)
        rep = global_minimize(specs["l0"], data, cfg)
        reports["l0"].append(rep)
        multi = multistart_global_minimize(specs["l0"], data, cfg)
        worst_l0_gap = max(worst_l0_gap,
                           abs(rep.global_value - multi.global_value))
    # the smooth penalties' detections on the same draws (bridge 64 starts,
    # scad and mcp 8) run once per session, shared with the support-route
    # oracle test in test_penalized.py
    for name in ("bridge", "scad", "mcp"):
        spec, rows = criterion7_smooth_reports[name]
        assert spec == specs[name] and [d for d, _ in rows] == draws
        reports[name] = [rep for _, rep in rows]
    counts = {}
    tie_free = True
    for name, reps in reports.items():
        counts[name] = sum(rep.verdict == "unique" for rep in reps)
        for rep in reps:
            if rep.n_clusters >= 2:
                vals = sorted(c.value for c in rep.clusters)
                tie_free &= (vals[1] - vals[0]) > 1e-10
    ok = all(v == n_trials for v in counts.values())
    ok &= worst_l0_gap <= 1e-8 and tie_free
    report_line(7, "penalized-uniqueness", ok,
                f"unique {counts}, l0 enum-vs-multistart worst {worst_l0_gap:.2e}")


def test_criterion_8_gp_functional():
    t0 = time.perf_counter()
    spec = GPSpec()  # default: M=5, G=1001, smooth positive kernel, gamma=0.5
    trial = argmin_uniqueness_trial(spec, 500, seed=0)
    fr = dict(zip(trial.eps_schedule, trial.single_fractions))
    ok = fr[1e-3] >= 0.99
    ok &= all(b >= a for a, b in zip(trial.single_fractions,
                                     trial.single_fractions[1:]))

    # endpoint-conditioning decomposition: cov(Z, residual) within 4 SE
    factor = build_factor(spec)
    n = 10_000
    rng = np.random.default_rng(123)
    noise = rng.standard_normal((spec.grid_size, n))
    m = np.asarray(spec.drift(spec.grid))
    W = m[:, None] + factor.L @ noise
    Z = W[-1] - m[-1]
    B = W - m[:, None] - np.outer(end_shift(spec), Z)
    idx = np.linspace(0, spec.grid_size - 1, 11).astype(int)
    cov_ok = True
    for k in idx:
        cov = np.mean((Z - Z.mean()) * (B[k] - B[k].mean()))
        se = np.sqrt(max(Z.var(ddof=1) * B[k].var(ddof=1), 1e-300) / n)
        cov_ok &= abs(cov) < max(4.0 * se, 1e-12)
    ok &= cov_ok

    # FD positivity of the endpoint-shift derivative, 100/100 seeded paths
    espec = GPSpec(kernel=exponential_kernel)
    efactor = build_factor(espec)
    rng = np.random.default_rng(7)
    n_pos = 0
    for s in range(100):
        path = simulate_path(espec, seed=s, factor=efactor)
        k2, k1 = sorted(rng.choice(espec.grid_size, size=2, replace=False))
        n_pos += endpoint_shift_gap_derivative(espec, path, k1, k2) > 0
    elapsed = time.perf_counter() - t0
    ok &= n_pos == 100 and elapsed < 180.0
    report_line(8, "gp-functional-uniqueness", ok,
                f"single fractions {fr}, cov-test {cov_ok}, "
                f"shift-derivative positive {n_pos}/100, {elapsed:.0f}s")


def test_criterion_9_genericity_scanner():
    from argmin_unique.baselines import QuadraticModel

    qm = QuadraticModel()
    quad_report = scan_grid(qm.objective(), qm.domain,
                            z_region=box(-3.0, 3.0), resolution=11)
    ok = len(quad_report.degenerate) == 0

    z = np.array([-1.03, 1.29, 2.77])
    r1, r2 = ex1_roots(z)
    ex1_report = scan_grid(EX1.objective(), EX1.pi_domain,
                           t_points=[[r1], [r2], [0.0], [2.5]], z_points=[z])
    ok &= len(ex1_report.degenerate) >= 1
    margins_ok = all(
        all(m <= v.tolerance for m in v.margins.values())
        for v in ex1_report.degenerate)
    ok &= margins_ok
    report_line(9, "genericity-scanner", ok,
                f"quadratic degenerate {len(quad_report.degenerate)}/"
                f"{quad_report.total_triples}, example1 degenerate "
                f"{len(ex1_report.degenerate)} (margins within tol: {margins_ok})")


# runs every argv of the JSON list in sys.argv[1] through the CLI
RUN_COMMANDS = ("import json, sys\n"
                "from argmin_unique.cli import main\n"
                "for argv in json.loads(sys.argv[1]):\n"
                "    assert main(argv) == 0, argv\n")


def test_criterion_10_determinism_across_workers(tmp_path):
    """Each command's outputs are byte-identical across four runs.

    Two runs in this process (the second sees any state a cache kept from
    the first) and one in a fresh process each with one and with two
    OpenBLAS threads, the only worker count the package still has.
    """
    commands = {
        "weakid-single": ["weakid", "--example", "1", "--z", "-1.03,1.29,2.77",
                          "--seed", "11"],
        "weakid-draws": ["weakid", "--example", "1", "--draws", "30",
                         "--grid", "401", "--seed", "11"],
        "mixture": ["mixture", "--n", "40", "--components", "2", "--seed",
                    "11", "--starts", "30"],
        "penalized": ["penalized", "--penalty", "bridge", "--n", "16", "--d",
                      "3", "--seed", "11"],
        "threshold": ["threshold", "--paths", "25", "--grid-size", "301",
                      "--seed", "11"],
        "generic-check": ["generic-check", "--model", "quadratic",
                          "--resolution", "5", "--seed", "11"],
    }
    runs = ("first", "second", "blas1", "blas2")
    for name, argv in commands.items():
        for run in runs[:2]:
            code = cli_main(argv + ["--out", str(tmp_path / f"{name}-{run}")])
            assert code == 0, f"{name} exited {code}"
    src = str(Path(argmin_unique.__file__).parents[1])
    for run, threads in (("blas1", "1"), ("blas2", "2")):
        argvs = [argv + ["--out", str(tmp_path / f"{name}-{run}")]
                 for name, argv in commands.items()]
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-c", RUN_COMMANDS, json.dumps(argvs)],
                       env=env, check=True)
    ok = True
    details = []
    for name in commands:
        suffixes = sorted(p.name[len(f"{name}-first"):]
                          for p in tmp_path.glob(f"{name}-first.*"))
        same = suffixes[-1] == ".report.json" and all(
            len({(tmp_path / f"{name}-{run}{suffix}").read_bytes()
                 for run in runs}) == 1
            for suffix in suffixes)
        ok &= same
        details.append(f"{name}:{'=' if same else '!='}")
    report_line(10, "byte-identical-reports", ok, " ".join(details))
