import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from scipy.optimize import minimize

import argmin_unique
from argmin_unique import (Domain, MixtureSample, MultistartConfig, Objective,
                           PenaltySpec, RegressionData, box,
                           cluster_minimizers, fit_mle, globalopt,
                           make_example1, make_example2,
                           multiplicity_probability, multistart_minimize,
                           sublevel_components, value_function)
from argmin_unique.baselines import QuadraticModel
from argmin_unique.domain import eval_block
from argmin_unique.globalopt import decide, lbfgsb_descend, seed_key
from argmin_unique.penalized import partition_domain, regression_objective
from argmin_unique.serialize import canonical_json

from oracles import (ex1_roots, ex2_roots, multistart_reference,
                     single_linkage_reference)


# ----------------------------------------------------------------- clusters

def test_cluster_separated_points():
    pts = [([1.918], 0.0), ([1.9181], 0.0), ([-1.1196], 0.0)]
    clusters = cluster_minimizers(pts, eps_value=1e-6, delta_cluster=0.01)
    assert len(clusters) == 2


def test_cluster_single_point():
    assert len(cluster_minimizers([([0.0], 1.0)], 1e-6, 0.01)) == 1


def test_cluster_chaining_merges():
    pts = [([0.0], 0.0), ([0.009], 0.0), ([0.018], 0.0)]
    clusters = cluster_minimizers(pts, eps_value=1e-6, delta_cluster=0.01)
    assert len(clusters) == 1
    assert clusters[0].hits == 3


def test_cluster_drops_values_above_band():
    pts = [([0.0], 0.0), ([5.0], 1.0)]
    clusters = cluster_minimizers(pts, eps_value=1e-6, delta_cluster=0.01)
    assert len(clusters) == 1


def _cluster_dicts(points, eps, delta):
    return [c.to_dict() for c in cluster_minimizers(points, eps, delta)]


@pytest.mark.parametrize("seed", range(12))
def test_cluster_matches_union_find_reference(seed):
    # clouds of 1-80 points in 1-3 dims: chains along a line, exact
    # duplicates, and values on a coarse grid so that representatives tie
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(1, 81)), int(rng.integers(1, 4))
    pts = rng.normal(size=(n, d)) * rng.uniform(0.01, 1.0)
    pts[: n // 3] = np.outer(np.arange(n // 3) * 0.009, np.ones(d))
    pts[rng.integers(0, n, n // 4)] = pts[rng.integers(0, n, n // 4)]
    values = np.round(rng.uniform(0.0, 2e-6, n), 7)
    points = list(zip(pts, values))
    delta = 0.05 * rng.uniform()
    assert _cluster_dicts(points, 1e-6, delta) == \
        single_linkage_reference(points, 1e-6, delta)


def test_cluster_mixture_tie_sample_matches_reference(monkeypatch):
    # J = 2 fit to one N(0, 1) sample: a chained set of tied fits
    seen = []
    real = globalopt.cluster_minimizers

    def recording(points, eps, delta):
        seen.append((points, eps, delta))
        return real(points, eps, delta)

    monkeypatch.setattr(globalopt, "cluster_minimizers", recording)
    sample = MixtureSample(z=tuple(np.random.default_rng(1).standard_normal(50)))
    report = fit_mle(sample, 2, MultistartConfig(n_starts=100, seed=0))
    assert len(seen) == 1 and report.n_clusters == 14
    assert [c.to_dict() for c in report.clusters] == \
        single_linkage_reference(*seen[0])


WIDE = Domain(pieces=(box(-10.0, 10.0),))  # diameter 20


def test_decide_tolerances_and_verdicts():
    cfg = MultistartConfig()
    pts = [([0.0], 2.0, True), ([1.0], 2.0, True), ([5.0], 3.0, True)]
    rep = decide(pts, WIDE, cfg)
    assert rep.global_value == 2.0
    assert rep.eps_value == pytest.approx(3e-6)
    assert rep.delta_cluster == pytest.approx(0.02)
    assert rep.verdict == "multiple" and rep.n_clusters == 2
    assert decide(pts[:1], WIDE, cfg).verdict == "unique"
    failed = [([7.0], 1.0, False)] * 4  # 3 of 7 candidates ok
    assert decide(pts + failed, WIDE, cfg).verdict == "inconclusive"
    fixed = decide(pts, WIDE,
                   MultistartConfig(eps_value=2.0, delta_cluster=10.0))
    assert fixed.verdict == "unique" and fixed.clusters[0].hits == 3


def test_decide_without_points_is_inconclusive():
    for results in ([], [([0.0], float("nan"), True)]):
        rep = decide(results, WIDE, MultistartConfig())
        assert rep.verdict == "inconclusive" and rep.clusters == ()
        assert np.isnan(rep.global_value) and rep.converged_fraction == 0.0


def test_decide_ignores_candidate_order_and_fails_non_finite_values():
    pts = [((0.0,), float("nan"), True), ((1.0,), 2.0, True),
           ((3.0,), 2.0, True), ((5.0,), float("inf"), True)]
    reports = {canonical_json(decide(list(p), WIDE, MultistartConfig())
                              .to_dict())
               for p in itertools.permutations(pts)}
    assert len(reports) == 1
    rep = decide(pts, WIDE, MultistartConfig())
    assert rep.converged_fraction == 0.5 and rep.global_value == 2.0
    assert rep.verdict == "multiple" and rep.n_clusters == 2


def test_decide_clusters_finite_candidates_when_none_is_ok():
    pts = [([0.0], 2.0, False), ([1.0], float("nan"), False),
           ([4.0], 2.0, False), ([4.001], 2.0 + 1e-7, False),
           ([9.0], 5.0, False)]
    rep = decide(pts, WIDE, MultistartConfig())
    assert rep.verdict == "inconclusive" and rep.converged_fraction == 0.0
    assert rep.global_value == 2.0
    assert [c.hits for c in rep.clusters] == [1, 2]


@pytest.mark.parametrize("name", ["eps_value", "delta_cluster"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
def test_config_rejects_bad_tolerances(name, bad):
    with pytest.raises(ValueError, match=name):
        MultistartConfig(**{name: bad})


def test_lbfgsb_descend_converges_at_a_bound():
    # (x - 3)^2 on [0, 1]: the minimum sits on the upper bound, where the
    # gradient is nonzero but the projected gradient vanishes
    def f(x):
        return float((x[0] - 3.0) ** 2), np.array([2.0 * (x[0] - 3.0)])

    x, value, ok = lbfgsb_descend(f, np.array([0.2]), [(0.0, 1.0)],
                                  MultistartConfig())
    assert ok
    assert x[0] == pytest.approx(1.0) and value == pytest.approx(4.0)


def test_lbfgsb_descend_flags_an_unconverged_run():
    def f(x):
        return float(x @ x), 2.0 * x

    x, value, ok = lbfgsb_descend(f, np.array([5.0, -4.0]), [(-9.0, 9.0)] * 2,
                                  MultistartConfig(max_iters=0))
    assert not ok and value == pytest.approx(float(x @ x))


# ------------------------------------------------------------- sobol starts

SOBOL_KEYS = [
    seed_key(0, 0), seed_key(11, 3),             # multistart: (seed, piece)
    seed_key(-1, 0), seed_key(-(1 << 40), 2),    # negative seeds wrap
    seed_key(7, 1 << 20),                        # value_function
    seed_key((2801 << 24) + (5 << 3) + 1, 31),   # penalized-mc: (seed, mask)
]


@pytest.mark.parametrize("dim", range(1, 22))
def test_sobol_matches_scipy_bit_for_bit(dim):
    from scipy.stats import qmc  # the package itself never imports it

    for n, key in itertools.product([1, 2, 3, 5, 8, 31, 64, 200, 1024, 4096],
                                    SOBOL_KEYS):
        rng = np.random.default_rng(np.random.SeedSequence(key))
        engine = qmc.Sobol(d=dim, scramble=True, seed=rng)
        want = engine.random(2 ** int(np.ceil(np.log2(n))))[:n]
        got = globalopt._sobol(dim, n, key)
        assert got.dtype == want.dtype and np.array_equal(got, want), (n, key)


def test_plain_piece_starts_are_the_repaired_sobol_points():
    piece = box([-10.0, 0.0, -1.0], [10.0, 3.0, 1.0])
    span = piece.upper_arr - piece.lower_arr
    want = [piece.repair(piece.lower_arr + row * span)
            for row in globalopt._sobol(3, 50, seed_key(5, 2))]
    assert np.array_equal(globalopt._sobol_starts(piece, 50, (5, 2)), want)


NO_STATS_RUN = """
import sys
import numpy as np
from argmin_unique import (MultistartConfig, PenaltySpec, RegressionData,
                           global_minimize, multistart_minimize, value_function)
from argmin_unique.baselines import QuadraticModel

X = np.random.default_rng(2718).standard_normal((12, 3))
y = X @ np.array([1.5, -1.0, 0.0]) + np.random.default_rng(1).standard_normal(12)
data = RegressionData(y=tuple(y), x=tuple(map(tuple, X)))
cfg = MultistartConfig(n_starts=16)
for kind, params in [("bridge", {"lam": 0.5, "q": 0.5}),
                     ("scad", {"lam": 1.0, "a": 3.7}),
                     ("mcp", {"lam": 1.0, "gamma": 3.0})]:
    global_minimize(PenaltySpec(kind=kind, **params), data, cfg)
model = QuadraticModel(dim=4)
z = np.full(4, 0.3)
multistart_minimize(model.objective(), model.domain, z, cfg)
value_function(model.objective(), model.domain.pieces[0], z, grid=64, cfg=cfg)
assert "scipy.stats" not in sys.modules, "scipy.stats was imported"
"""


def test_detectors_run_without_importing_scipy_stats():
    src = str(Path(argmin_unique.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", NO_STATS_RUN], env=env, check=True)


# ----------------------------------------------------------- value function

def test_value_function_boundary_minimum(quad_objective):
    assert value_function(quad_objective, box(0.0, 1.0), 2.0) == pytest.approx(1.0, abs=1e-8)


def test_value_function_interior_minimum(quad_objective):
    assert value_function(quad_objective, box(0.0, 1.0), 0.5) == pytest.approx(0.0, abs=1e-10)


def test_value_function_example1(fig1_left_z):
    model = make_example1()
    got = value_function(model.objective(), box(-5.0, 5.0), fig1_left_z)
    assert got == pytest.approx(-float(fig1_left_z @ fig1_left_z), abs=1e-6)


def test_value_function_monotone_in_domain(quad_objective):
    z = 3.7
    small = value_function(quad_objective, box(0.0, 1.0), z)
    big = value_function(quad_objective, box(-5.0, 5.0), z)
    assert small >= big


def test_value_function_bounds_pointwise_evaluations(quad_objective):
    z = 1.3
    v = value_function(quad_objective, box(-2.0, 2.0), z)
    for t in np.linspace(-2, 2, 17):
        assert v <= quad_objective.eval(np.array([t]), np.array([z])) + 1e-12


# ------------------------------------------------------------- multistart

def test_multistart_quadratic_unique(quad_objective, quad_domain):
    report = multistart_minimize(quad_objective, quad_domain, 1.0,
                                 MultistartConfig(seed=0, n_starts=40))
    assert report.verdict == "unique"
    assert report.clusters[0].representative[0] == pytest.approx(1.0, abs=1e-6)


def test_multistart_example1_multiplicity(fig1_left_z):
    model = make_example1()
    report = multistart_minimize(model.objective(), model.pi_domain,
                                 fig1_left_z, MultistartConfig(seed=0))
    assert report.verdict == "multiple" and report.n_clusters == 2
    got = sorted(c.representative[0] for c in report.clusters)
    assert got == pytest.approx(list(ex1_roots(fig1_left_z)), abs=1e-3)


def test_multistart_example2_multiplicity():
    model = make_example2()
    z = np.array([-0.23, -0.28, 1.31])
    report = multistart_minimize(model.objective(), model.pi_domain, z,
                                 MultistartConfig(seed=0))
    got = sorted(c.representative[0] for c in report.clusters)
    assert report.verdict == "multiple"
    assert got == pytest.approx(list(ex2_roots(z)), abs=1e-3)


def test_multistart_diverging_objective_is_inconclusive(quad_domain):
    bad = Objective(eval=lambda t, z: float("nan"))
    report = multistart_minimize(bad, quad_domain, 0.0,
                                 MultistartConfig(seed=1, n_starts=8))
    assert report.verdict == "inconclusive"


def test_multistart_rerun_is_byte_identical(fig1_left_z):
    model = make_example1()
    cfg = MultistartConfig(seed=4, n_starts=64)
    r1 = multistart_minimize(model.objective(), model.pi_domain, fig1_left_z, cfg)
    r2 = multistart_minimize(model.objective(), model.pi_domain, fig1_left_z, cfg)
    assert canonical_json(r1.to_dict()) == canonical_json(r2.to_dict())


def test_verdict_invariance_under_affine_rescaling(fig1_left_z):
    model = make_example1()
    base = model.objective()
    c = 7.0
    shifted = Objective(eval=lambda t, z: c * base.eval(t, z) + 3.0,
                        admissible_directions=base.admissible_directions)
    cfg = MultistartConfig(seed=2, n_starts=80)
    r_base = multistart_minimize(base, model.pi_domain, fig1_left_z, cfg)
    eps_scaled = r_base.eps_value * c
    r_scaled = multistart_minimize(shifted, model.pi_domain, fig1_left_z,
                                   MultistartConfig(seed=2, n_starts=80,
                                                    eps_value=eps_scaled))
    assert r_base.verdict == r_scaled.verdict
    got = sorted(c_.representative[0] for c_ in r_scaled.clusters)
    want = sorted(c_.representative[0] for c_ in r_base.clusters)
    assert got == pytest.approx(want, abs=1e-5)


def _criterion7_l0_case():
    """Objective, domain, y and config of criterion 7's first l0 draw."""
    X = np.random.default_rng(2718).standard_normal((20, 5))
    beta0 = np.array([1.5, -1.0, 0.0, 0.0, 0.0])
    y = X @ beta0 + np.random.default_rng(9000).standard_normal(20)
    data = RegressionData(y=tuple(y), x=tuple(tuple(r) for r in X))
    spec = PenaltySpec(kind="l0", lam=1.0)
    return (regression_objective(spec, data), partition_domain(spec, data.d),
            data.y_arr, MultistartConfig(seed=0, n_starts=32))


def _multistart_case(name):
    if name.startswith("ex"):
        model = make_example1() if name.startswith("ex1") else make_example2()
        z = {"ex1-left": [-1.03, 1.29, 2.77], "ex1-right": [-1.82, -0.52, 0.16],
             "ex2-a": [-0.23, -0.28, 1.31], "ex2-b": [-0.76, -0.25, -1.65]}[name]
        return (model.objective(), model.pi_domain, np.array(z),
                MultistartConfig(seed=0))
    if name.startswith("quad"):
        model = QuadraticModel(dim=int(name[-1]))
        return (model.objective(), model.domain,
                np.linspace(-0.7, 0.9, model.dim),
                MultistartConfig(seed=3, n_starts=50))
    return _criterion7_l0_case()


@pytest.mark.parametrize("name", ["ex1-left", "ex1-right", "ex2-a", "ex2-b",
                                  "quad1", "quad2", "l0"])
def test_multistart_matches_per_start_reference(name):
    obj, domain, z, cfg = _multistart_case(name)
    got = multistart_minimize(obj, domain, z, cfg)
    want = multistart_reference(obj, domain, z, cfg)
    assert canonical_json(got.to_dict()) == canonical_json(want.to_dict())


def _rosenbrock(U):
    return (100.0 * (U[:, 1] - U[:, 0] ** 2) ** 2 + (1.0 - U[:, 0]) ** 2)


def _terraces(U):
    # piecewise constant: equal values tie in the simplex order and force
    # shrinks
    return np.floor(4.0 * np.sum((U - 0.3) ** 2, axis=1))


def _nan_corner(U):
    # NaN where u_0 > 1.5: NaN values sort last and fail every comparison
    value = np.sum((U - 1.2) ** 2, axis=1)
    return np.where(U[:, 0] > 1.5, np.nan, value)


_EX1_OBJECTIVE = make_example1().objective()


def _weakid(U):
    return _EX1_OBJECTIVE.block_eval(U, np.array([-1.03, 1.29, 2.77]))


@pytest.mark.parametrize("fun, lo, hi, max_iter", [
    (_rosenbrock, [-2.0, -2.0], [2.0, 2.0], 400),
    (_terraces, [-1.0, -1.0, -1.0], [1.0, 1.0, 1.0], 600),
    (_nan_corner, [-2.0, -2.0, -2.0, -2.0], [2.0, 2.0, 2.0, 2.0], 400),
    (_weakid, [-6.0], [6.0], 400),
    (_rosenbrock, [-2.0, -2.0], [2.0, 2.0], 6),
])
def test_batched_nelder_mead_matches_scipy_start_by_start(fun, lo, hi,
                                                          max_iter):
    lo, hi = np.array(lo), np.array(hi)
    n = len(lo)
    rng = np.random.default_rng(17)
    starts = lo + (hi - lo) * rng.uniform(size=(24, n))
    # within 5% of the upper bound, the initial simplex reflects inward
    starts[:8, 0] = hi[0] * rng.uniform(0.96, 1.0, size=8)
    starts[8:12] = hi * 0.99
    starts[12] = 0.0
    xs, values, oks = globalopt._nelder_mead(
        lambda U, owner: fun(U), starts, np.tile(lo, (len(starts), 1)),
        np.tile(hi, (len(starts), 1)), max_iter, xatol=1e-9, fatol=1e-10)
    for x0, x, value, ok in zip(starts, xs, values, oks):
        res = minimize(lambda u: fun(u[None])[0], x0, method="Nelder-Mead",
                       bounds=list(zip(lo, hi)),
                       options={"maxiter": max_iter, "xatol": 1e-9,
                                "fatol": 1e-10})
        assert x.tobytes() == res.x.tobytes()
        assert np.array_equal(value, res.fun, equal_nan=True)
        assert ok == res.success
    if max_iter < 10:
        assert not oks.any()


def test_one_point_and_block_objectives_give_identical_reports(quad_objective,
                                                               quad_domain):
    blocks = []

    def block(T, z):
        blocks.append(len(T))
        d = T - z
        return np.sum(d * d, axis=1)

    block_objective = Objective(eval=quad_objective.eval, block_eval=block)
    cfg = MultistartConfig(seed=5, n_starts=40)
    one = multistart_minimize(quad_objective, quad_domain, 0.4, cfg)
    many = multistart_minimize(block_objective, quad_domain, 0.4, cfg)
    assert max(blocks) > 1  # the block path was taken
    assert canonical_json(one.to_dict()) == canonical_json(many.to_dict())


def test_index_reading_objective_is_evaluated_row_by_row():
    # a one-point objective that reads coordinates by index returns a
    # (d,) array, not d values, when handed a (d, d) block
    obj = Objective(eval=lambda t, z: (t[0] - z[0]) ** 2 + (t[1] - z[1]) ** 2)
    domain = Domain(pieces=(box([-2.0, -2.0], [2.0, 2.0]),))
    z = np.array([0.3, -0.4])
    block = np.array([[0.0, 0.0], [1.0, 1.0]])
    assert list(eval_block(obj, block, z)) == [obj.eval(t, z) for t in block]
    for cfg in (MultistartConfig(seed=0, n_starts=1),
                MultistartConfig(seed=2, n_starts=2),
                MultistartConfig(seed=1, n_starts=30)):
        got = multistart_minimize(obj, domain, z, cfg)
        want = multistart_reference(obj, domain, z, cfg)
        assert canonical_json(got.to_dict()) == canonical_json(want.to_dict())


def test_block_eval_of_wrong_shape_is_refused():
    obj = Objective(eval=lambda t, z: float(t[0] ** 2),
                    block_eval=lambda T, z: T ** 2)
    with pytest.raises(ValueError):
        eval_block(obj, np.array([[0.1], [0.2]]), np.zeros(1))


# ------------------------------------------------------ sublevel components

def test_sublevel_alternating():
    assert sublevel_components([0, 1, 0, 1, 0], 0.5) == 3


def test_sublevel_single_valley():
    assert sublevel_components([3, 2, 1, 2, 3], 0.5) == 1


def test_sublevel_convex_quadratic_grid():
    t = np.linspace(-1, 1, 101)
    assert sublevel_components((t - 0.2) ** 2, 1e-4) == 1


def test_sublevel_eps_stack_matches_one_call_per_eps():
    rng = np.random.default_rng(3)
    block = np.cumsum(rng.standard_normal((60, 7)), axis=0)
    eps = np.array([[2.0], [0.5], [0.01]]) * np.ptp(block, axis=0)
    counts = sublevel_components(block, eps)
    assert counts.shape == (3, 7)
    for row, e in zip(counts, eps):
        assert np.array_equal(row, sublevel_components(block, e))
        for j in range(7):
            assert row[j] == sublevel_components(block[:, j], e[j])
    assert list(sublevel_components([0, 1, 0, 1, 0], [0.5, 2.0])) == [3, 1]


def test_sublevel_rejects_nonfinite():
    with pytest.raises(ValueError):
        sublevel_components([0.0, float("inf")], 0.5)


# --------------------------------------------------- multiplicity sampling

def test_multiplicity_probability_convex_quadratic():
    model = QuadraticModel()
    est = multiplicity_probability(model, n_draws=60, seed=0,
                                   cfg=MultistartConfig(n_starts=16))
    assert est.fraction == 0.0
    assert est.standard_error == 0.0
    assert est.n_draws == 60


def test_multiplicity_probability_order_independent():
    model = QuadraticModel()
    cfg = MultistartConfig(n_starts=8)
    e1 = multiplicity_probability(model, 20, seed=3, cfg=cfg)
    e2 = multiplicity_probability(model, 20, seed=3, cfg=cfg)
    assert e1 == e2
