import numpy as np
import pytest

from argmin_unique import (MultistartConfig, Objective, box, cluster_minimizers,
                           interval_domain, make_example1, make_example2,
                           multiplicity_probability, multistart_minimize,
                           sublevel_components, value_function)
from argmin_unique.baselines import QuadraticModel
from argmin_unique.globalopt import build_report, lbfgsb_descend
from argmin_unique.serialize import canonical_json

from oracles import ex1_roots, ex2_roots


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


def test_build_report_tolerances_and_verdicts():
    cfg = MultistartConfig()
    pts = [([0.0], 2.0), ([1.0], 2.0), ([5.0], 3.0)]
    rep = build_report(pts, 1.0, 20.0, cfg)
    assert rep.global_value == 2.0
    assert rep.eps_value == pytest.approx(3e-6)
    assert rep.delta_cluster == pytest.approx(0.02)
    assert rep.verdict == "multiple" and rep.n_clusters == 2
    assert build_report(pts[:1], 1.0, 20.0, cfg).verdict == "unique"
    assert build_report(pts, 0.49, 20.0, cfg).verdict == "inconclusive"
    fixed = build_report(pts, 1.0, 20.0,
                         MultistartConfig(eps_value=2.0, delta_cluster=10.0))
    assert fixed.verdict == "unique" and fixed.clusters[0].hits == 3


def test_build_report_without_points_is_inconclusive():
    rep = build_report([], 1.0, 20.0, MultistartConfig())
    assert rep.verdict == "inconclusive" and rep.clusters == ()
    assert np.isnan(rep.global_value) and rep.converged_fraction == 0.0


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


# ------------------------------------------------------ sublevel components

def test_sublevel_alternating():
    assert sublevel_components([0, 1, 0, 1, 0], 0.5) == 3


def test_sublevel_single_valley():
    assert sublevel_components([3, 2, 1, 2, 3], 0.5) == 1


def test_sublevel_convex_quadratic_grid():
    t = np.linspace(-1, 1, 101)
    assert sublevel_components((t - 0.2) ** 2, 1e-4) == 1


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
