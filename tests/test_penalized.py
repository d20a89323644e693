import numpy as np
import pytest

from argmin_unique import (ExplicitBound, MultistartConfig, PenaltySpec,
                           RegressionData, enumerate_best_subsets,
                           global_minimize, multistart_global_minimize,
                           partition_domain, penalized_objective, penalty_value)
from argmin_unique.globalopt import seed_key
from argmin_unique.penalized import (ols_solution, penalty_rho, penalty_terms,
                                     scad_derivative, support_objective)

from oracles import (best_subset_bruteforce, fd_gradient, ols_beta,
                     penalized_support_minimum, penalty_rho_slope,
                     scad_rho_quadrature)

SMOOTH_PARAMS = {"bridge": {"lam": 0.5, "q": 0.5},
                 "scad": {"lam": 1.0, "a": 3.7},
                 "mcp": {"lam": 1.0, "gamma": 3.0}}


def criterion7_design():
    X = np.random.default_rng(2718).standard_normal((20, 5))
    return X, X @ np.array([1.5, -1.0, 0.0, 0.0, 0.0])


def toy_data():
    # n=2, d=1, X=(1,1)', Y=(1,3)': OLS beta = 2
    return RegressionData(y=(1.0, 3.0), x=((1.0,), (1.0,)))


def seeded_data(seed=0, n=20, d=5):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    beta0 = np.zeros(d)
    beta0[:2] = (1.5, -1.0)
    y = X @ beta0 + rng.standard_normal(n)
    return RegressionData(y=tuple(y), x=tuple(tuple(r) for r in X))


# -------------------------------------------------------------- validation

def test_spec_validation():
    with pytest.raises(ValueError):
        PenaltySpec(kind="l1", lam=1.0)
    with pytest.raises(ValueError):
        PenaltySpec(kind="l0", lam=0.0)
    with pytest.raises(ValueError):
        PenaltySpec(kind="bridge", lam=1.0, q=1.0)
    with pytest.raises(ValueError):
        PenaltySpec(kind="scad", lam=1.0, a=2.0)
    with pytest.raises(ValueError):
        PenaltySpec(kind="mcp", lam=1.0, gamma=1.0)


def test_data_requires_full_rank():
    with pytest.raises(ValueError):
        RegressionData(y=(1.0, 2.0), x=((1.0, 2.0), (2.0, 4.0)))
    with pytest.raises(ValueError):
        RegressionData(y=(1.0,), x=((1.0, 0.0),))  # n < d


# ----------------------------------------------------------------- penalty

@pytest.mark.parametrize("spec", [
    PenaltySpec(kind="l0", lam=2.0),
    PenaltySpec(kind="bridge", lam=1.5, q=0.5),
    PenaltySpec(kind="scad", lam=1.0, a=3.7),
    PenaltySpec(kind="mcp", lam=1.0, gamma=3.0),
])
def test_penalty_zero_at_origin(spec):
    assert penalty_value(spec, np.zeros(4)) == 0.0


def test_l0_counts_support():
    spec = PenaltySpec(kind="l0", lam=1.0)
    assert penalty_value(spec, [0.0, 3.0, -2.0]) == 2.0


def test_scad_plateau_value():
    spec = PenaltySpec(kind="scad", lam=1.0, a=3.7)
    for t in (3.7, 5.0, 100.0):
        assert penalty_rho(spec, t) == pytest.approx(2.35, abs=1e-12)


def test_scad_rho_matches_derivative_quadrature():
    spec = PenaltySpec(kind="scad", lam=1.0, a=3.7)
    for t in (0.5, 1.0, 2.0, 3.0, 4.5):
        want = scad_rho_quadrature(spec.lam, spec.a, t)
        assert penalty_rho(spec, t) == pytest.approx(want, abs=1e-6)
        # slope consistency at a few interior points
        h = 1e-6
        fd = (penalty_rho(spec, t + h) - penalty_rho(spec, t - h)) / (2 * h)
        assert fd == pytest.approx(scad_derivative(spec, t), abs=1e-5)


def test_mcp_formulas():
    spec = PenaltySpec(kind="mcp", lam=1.0, gamma=3.0)
    assert penalty_rho(spec, 1.0) == pytest.approx(1.0 - 1.0 / 6.0)
    assert penalty_rho(spec, 3.0) == pytest.approx(1.5)
    assert penalty_rho(spec, 10.0) == pytest.approx(1.5)


def test_penalty_even_and_monotone():
    rng = np.random.default_rng(1)
    specs = [PenaltySpec(kind="bridge", lam=1.0, q=0.3),
             PenaltySpec(kind="scad", lam=0.7, a=3.7),
             PenaltySpec(kind="mcp", lam=0.9, gamma=2.0),
             PenaltySpec(kind="l0", lam=0.4)]
    for spec in specs:
        ts = np.sort(rng.uniform(0, 5, 20))
        vals = [penalty_rho(spec, t) for t in ts]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        for t in ts:
            assert penalty_rho(spec, -t) == penalty_rho(spec, t)


@pytest.mark.parametrize("kind", sorted(SMOOTH_PARAMS))
def test_penalty_terms_match_definitions(kind):
    params = SMOOTH_PARAMS[kind]
    spec = PenaltySpec(kind=kind, **params)
    t = np.random.default_rng(3).uniform(1e-6, 6.0, 200)
    rho, slope = penalty_terms(spec, t)
    for ti, r, g in zip(t, rho, slope):
        want_r, want_g = penalty_rho_slope(kind, params, ti)
        assert r == pytest.approx(want_r, rel=1e-14, abs=1e-15)
        assert g == pytest.approx(want_g, rel=1e-14, abs=1e-15)


# --------------------------------------------------------------- objective

def test_objective_at_zero_is_half_norm():
    data = seeded_data()
    spec = PenaltySpec(kind="scad", lam=1.0)
    want = 0.5 * float(data.y_arr @ data.y_arr)
    assert penalized_objective(spec, data, np.zeros(data.d)) == pytest.approx(want)


def test_objective_tiny_lambda_matches_ols_value():
    data = seeded_data()
    beta_hat = ols_beta(data.x_arr, data.y_arr)
    resid = data.y_arr - data.x_arr @ beta_hat
    want = 0.5 * float(resid @ resid)
    spec = PenaltySpec(kind="scad", lam=1e-12)
    assert penalized_objective(spec, data, beta_hat) == pytest.approx(want, abs=1e-9)


def test_l0_two_candidate_example():
    data = toy_data()
    spec = PenaltySpec(kind="l0", lam=10.0)
    assert penalized_objective(spec, data, [0.0]) == pytest.approx(5.0)
    assert penalized_objective(spec, data, [2.0]) == pytest.approx(11.0)


# ---------------------------------------------------------------- partition

def test_partition_counts():
    assert len(partition_domain(PenaltySpec(kind="l0", lam=1.0), 1).pieces) == 2
    assert len(partition_domain(PenaltySpec(kind="l0", lam=1.0), 3).pieces) == 8
    assert len(partition_domain(PenaltySpec(kind="bridge", lam=1.0), 2).pieces) == 4
    assert len(partition_domain(PenaltySpec(kind="scad", lam=1.0), 2).pieces) == 1
    assert len(partition_domain(PenaltySpec(kind="mcp", lam=1.0), 7).pieces) == 1


def test_partition_enumeration_cap():
    with pytest.raises(ExplicitBound):
        partition_domain(PenaltySpec(kind="l0", lam=1.0), 21)


def test_partition_pieces_fix_zero_coordinates():
    dom = partition_domain(PenaltySpec(kind="l0", lam=1.0), 2)
    dims = sorted(p.intrinsic_dim for p in dom.pieces)
    assert dims == [0, 1, 1, 2]


# ----------------------------------------------------------- global minimum

def test_global_minimize_l0_toy():
    report = global_minimize(PenaltySpec(kind="l0", lam=10.0), toy_data())
    assert report.verdict == "unique"
    assert report.global_value == pytest.approx(5.0, abs=1e-12)
    assert report.clusters[0].representative == (0.0,)


def test_global_minimize_near_zero_lambda_recovers_ols():
    data = seeded_data(3)
    beta_hat = ols_beta(data.x_arr, data.y_arr)
    for kind in ("scad", "mcp"):
        spec = PenaltySpec(kind=kind, lam=1e-12)
        report = global_minimize(spec, data, MultistartConfig(seed=0, n_starts=24))
        got = np.asarray(report.clusters[0].representative)
        assert report.verdict == "unique"
        assert np.max(np.abs(got - beta_hat)) < 1e-5
        resid = data.y_arr - data.x_arr @ beta_hat
        assert report.global_value == pytest.approx(0.5 * float(resid @ resid),
                                                    abs=1e-8)


def test_l0_enumeration_matches_bruteforce_oracle():
    data = seeded_data(11)
    spec = PenaltySpec(kind="l0", lam=1.0)
    want_beta, want_val = best_subset_bruteforce(data.x_arr, data.y_arr, spec.lam)
    report = global_minimize(spec, data)
    assert report.global_value == pytest.approx(want_val, abs=1e-10)
    assert np.allclose(report.clusters[0].representative, want_beta, atol=1e-8)


def test_l0_multistart_agrees_with_enumeration():
    for seed in (0, 1, 2):
        data = seeded_data(seed)
        spec = PenaltySpec(kind="l0", lam=1.0)
        enum = global_minimize(spec, data)
        multi = multistart_global_minimize(spec, data,
                                           MultistartConfig(seed=seed, n_starts=128))
        assert abs(enum.global_value - multi.global_value) < 1e-8


def test_seeded_trials_unique_all_penalties():
    specs = [PenaltySpec(kind="l0", lam=1.0),
             PenaltySpec(kind="bridge", lam=0.5, q=0.5),
             PenaltySpec(kind="scad", lam=1.0, a=3.7),
             PenaltySpec(kind="mcp", lam=1.0, gamma=3.0)]
    rng = np.random.default_rng(77)
    X = rng.standard_normal((20, 5))
    beta0 = np.array([1.5, -1.0, 0.0, 0.0, 0.0])
    for spec in specs:
        for trial in range(3):  # desk-size smoke; the 200-trial run is acceptance
            y = X @ beta0 + np.random.default_rng(100 + trial).standard_normal(20)
            data = RegressionData(y=tuple(y), x=tuple(tuple(r) for r in X))
            report = global_minimize(spec, data, MultistartConfig(seed=trial,
                                                                  n_starts=64))
            assert report.verdict == "unique"


def test_ols_solution_matches_normal_equations():
    data = seeded_data(5)
    assert np.allclose(ols_solution(data), ols_beta(data.x_arr, data.y_arr),
                       atol=1e-10)


def test_regression_objective_grad_z_matches_fd():
    from argmin_unique.penalized import regression_objective

    data = seeded_data(9)
    obj = regression_objective(PenaltySpec(kind="scad", lam=0.8), data)
    rng = np.random.default_rng(4)
    for _ in range(100):
        beta = rng.uniform(-2, 2, data.d)
        y = rng.standard_normal(data.n)
        analytic = obj.grad_z(beta, y)
        h = 1e-5
        for i in rng.choice(data.n, size=3, replace=False):
            yp, ym = y.copy(), y.copy()
            yp[i] += h
            ym[i] -= h
            fd = (obj.eval(beta, yp) - obj.eval(beta, ym)) / (2 * h)
            assert abs(analytic[i] - fd) <= 1e-4 * (1 + abs(analytic[i]))


# ------------------------------------------------------ per-support route

@pytest.mark.parametrize("kind", ["l0", "bridge", "scad", "mcp"])
def test_support_objective_gradient_matches_fd(kind):
    spec = PenaltySpec(kind=kind, **SMOOTH_PARAMS.get(kind, {"lam": 1.0}))
    data = seeded_data(6)
    rng = np.random.default_rng(8)
    for _ in range(30):
        cols = [k for k in range(data.d) if rng.random() < 0.6] or [0]
        sign = rng.choice([-1.0, 1.0], size=len(cols))
        # interior of the orthant: |b_k| well away from zero
        b = sign * rng.uniform(0.05, 5.0, size=len(cols))
        f = support_objective(spec, data.x_arr[:, cols], data.y_arr, sign)
        value, grad = f(b)
        full = np.zeros(data.d)
        full[cols] = b
        assert value == pytest.approx(penalized_objective(spec, data, full),
                                      rel=1e-13)
        fd = fd_gradient(lambda v: f(v)[0], b, h=1e-6)
        assert np.allclose(grad, fd, rtol=1e-6, atol=1e-5)


def test_support_route_matches_oracle_on_criterion7_draws():
    # The oracle's descents stop at the optimum with scipy's line-search
    # failure flag on several of these draws (bridge 37, 130, 160, 174, 184,
    # 191; scad 118, 198), so a route that drops such descents fails here.
    X, mean = criterion7_design()
    x = tuple(tuple(r) for r in X)
    starts = {"bridge": 64, "scad": 8, "mcp": 8}
    for kind, params in SMOOTH_PARAMS.items():
        spec = PenaltySpec(kind=kind, **params)
        for trial in range(200):
            y = mean + np.random.default_rng(9000 + trial).standard_normal(20)
            data = RegressionData(y=tuple(y), x=x)
            rep = global_minimize(spec, data, MultistartConfig(
                seed=trial, n_starts=starts[kind]))
            want = penalized_support_minimum(kind, params, X, y)
            assert rep.global_value <= want + rep.eps_value, (kind, trial)
            for c in rep.clusters:
                again = penalized_objective(spec, data, c.representative)
                assert abs(c.value - again) <= 1e-12 * abs(again), (kind, trial)


def test_support_route_enumeration_cap():
    d = 21
    rng = np.random.default_rng(0)
    data = RegressionData(y=tuple(rng.standard_normal(d + 1)),
                          x=tuple(tuple(r) for r in
                                  rng.standard_normal((d + 1, d))))
    with pytest.raises(ExplicitBound):
        global_minimize(PenaltySpec(kind="scad", lam=1.0), data)


def test_multistart_reports_objective_at_representative():
    # A bridge coefficient left just inside its piece's nonzero margin used
    # to carry the descent's infeasibility charge into the reported value.
    X, mean = criterion7_design()
    s = (1 << 24) + 57
    y = mean + np.random.default_rng(
        np.random.SeedSequence(seed_key(s, 0))).standard_normal(20)
    data = RegressionData(y=tuple(y), x=tuple(tuple(r) for r in X))
    spec = PenaltySpec(kind="bridge", lam=0.5, q=0.5)
    rep = multistart_global_minimize(spec, data,
                                     MultistartConfig(seed=s, n_starts=64))
    for c in rep.clusters:
        again = penalized_objective(spec, data, c.representative)
        assert abs(c.value - again) <= 1e-12 * abs(again)
