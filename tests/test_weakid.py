import numpy as np
import pytest

from argmin_unique import (MultistartConfig, check_injectivity_condition,
                           check_rank_condition, count_alignment_roots,
                           find_alignment_roots, limit_components,
                           limit_objective, make_example1, make_example2,
                           profile, profile_report)
from argmin_unique.globalopt import seed_key
from argmin_unique.weakid import (WeakIdModel, limit_objective_grad_z,
                                  with_pi_bound)

from oracles import ex1_roots, ex1_value, ex2_roots, ex2_value, fd_gradient


def bilinear_model():
    """h(beta, pi) = beta * pi: the simplest identification-loss map."""

    def h(beta, pi):
        return np.array([float(np.atleast_1d(beta)[0]) * pi])

    def h_beta(beta, pi):
        pi = np.asarray(pi, dtype=float)
        if pi.ndim == 0:
            return np.array([[float(pi)]])
        return pi[:, None, None]

    return WeakIdModel(d_beta=1, d_h=1, h=h, h_beta=h_beta, beta0=(0.0,),
                       pi0=0.0, b=(0.0,), H=np.eye(2), name="bilinear")


# ------------------------------------------------------------- construction

def test_model_validation_rejects_bad_H():
    with pytest.raises(ValueError):
        WeakIdModel(d_beta=1, d_h=1, h=lambda b, p: np.array([0.0]),
                    h_beta=None, beta0=(0.0,), pi0=0.0, b=(0.0,),
                    H=np.array([[1.0, 2.0], [2.0, 1.0]]))  # not PD


def test_example1_plugin_values():
    m = make_example1()
    assert m.h(np.array([1.0, 0.0]), 2.5) == pytest.approx([2.5])
    assert np.allclose(m.h_beta_at(3.0), [[3.0, 9.0]])


def test_example2_plugin_values():
    m = make_example2()
    assert np.allclose(m.h(np.array([2.0]), 1.0), [4.0, 4.0])
    assert np.allclose(m.h_beta_at(2.0), [[6.0], [0.0]])


def test_fd_h_beta_fallback_matches_analytic():
    m = make_example1()
    m_fd = WeakIdModel(d_beta=2, d_h=1, h=m.h, h_beta=None, beta0=(0.0, 0.0),
                       pi0=0.0, b=(0.0, 0.0), H=np.eye(3))
    for pi in (-2.0, 0.3, 4.0):
        assert np.allclose(m_fd.h_beta_at(pi), m.h_beta_at(pi), atol=1e-5)


# -------------------------------------------------------------- components

def test_components_zero_drift_when_b_zero():
    m = make_example1()
    for pi in (-3.0, 0.0, 2.2):
        comps = limit_components(m, pi)
        assert np.allclose(comps.g, 0.0)


def test_components_example1_frame_at_pi_one():
    comps = limit_components(make_example1(), 1.0)
    assert np.allclose(comps.S, [[1, 0], [0, 1], [1, 1]])
    null_dir = np.array([-1.0, -1.0, 1.0]) / np.sqrt(3.0)
    assert np.allclose(comps.P @ null_dir, 0.0, atol=1e-12)


def test_components_example2_never_loads_third_coordinate():
    m = make_example2()
    for pi in (-2.0, 0.5, 3.0):
        comps = limit_components(m, pi)
        assert np.allclose(comps.S[2], 0.0)
        assert np.allclose(comps.P[2], 0.0, atol=1e-14)


@pytest.mark.parametrize("factory", [make_example1, make_example2])
def test_projector_invariants_on_grid(factory):
    m = factory()
    for pi in np.linspace(-6, 6, 101):
        comps = limit_components(m, pi)
        P, S = comps.P, comps.S
        assert np.max(np.abs(P @ P - P)) <= 1e-10
        assert np.max(np.abs(P - P.T)) <= 1e-10
        assert np.max(np.abs(P @ S - S)) <= 1e-10
        assert np.linalg.matrix_rank(P, tol=1e-8) == m.d_beta


def test_nonzero_b_shifts_drift():
    m = make_example1(b=(1.0, -0.5))
    comps = limit_components(m, 2.0)
    hb = np.array([[2.0, 4.0]])
    hb0 = np.array([[0.0, 0.0]])
    want = np.concatenate([np.zeros(2), (hb - hb0) @ np.array([1.0, -0.5])])
    assert np.allclose(comps.g, want)


# ---------------------------------------------------------- limit objective

def test_objective_collapses_to_projection_quadratic(fig1_left_z):
    m = make_example1()
    for pi in (-2.0, 0.7, 3.1):
        comps = limit_components(m, pi)
        want = -float(fig1_left_z @ comps.P @ fig1_left_z)
        assert limit_objective(m, pi, fig1_left_z) == pytest.approx(want, abs=1e-12)


def test_example1_closed_form_oracle():
    m = make_example1()
    rng = np.random.default_rng(6)
    for _ in range(50):
        pi = rng.uniform(-6, 6)
        z = rng.standard_normal(3)
        assert limit_objective(m, pi, z) == pytest.approx(ex1_value(pi, z), abs=1e-8)


def test_example2_closed_form_oracle():
    m = make_example2()
    rng = np.random.default_rng(9)
    for _ in range(50):
        pi = rng.uniform(-6, 6)
        z = rng.standard_normal(3)
        assert limit_objective(m, pi, z) == pytest.approx(ex2_value(pi, z), abs=1e-8)


def test_example2_ignores_third_z_coordinate():
    m = make_example2()
    rng = np.random.default_rng(12)
    for _ in range(10):
        pi = rng.uniform(-6, 6)
        z = rng.standard_normal(3)
        g = fd_gradient(lambda zz: limit_objective(m, pi, zz), z)
        assert abs(g[2]) < 1e-8


def test_profile_matches_scalar_evaluations(fig1_left_z):
    m = make_example1()
    pis = np.linspace(-6, 6, 37)
    batched = profile(m, pis, fig1_left_z)
    scalar = [limit_objective(m, p, fig1_left_z) for p in pis]
    assert np.allclose(batched, scalar, atol=1e-12)


def test_grad_z_matches_fd():
    m = make_example1()
    rng = np.random.default_rng(14)
    for _ in range(20):
        pi = rng.uniform(-5, 5)
        z = rng.standard_normal(3)
        analytic = limit_objective_grad_z(m, pi, z)
        fd = fd_gradient(lambda zz: limit_objective(m, pi, zz), z)
        assert np.allclose(analytic, fd, atol=1e-6)


def test_kappa_offset_enters_additively(fig1_left_z):
    m = make_example1(kappa=lambda pi: 0.3 * pi * pi)
    base = make_example1()
    for pi in (-1.0, 0.5, 2.0):
        assert limit_objective(m, pi, fig1_left_z) == pytest.approx(
            limit_objective(base, pi, fig1_left_z) + 0.3 * pi * pi, abs=1e-12)


# --------------------------------------------------------------- checkers

def test_rank_condition_example1_passes():
    report = check_rank_condition(make_example1(), np.linspace(-6, 6, 31))
    assert report.passed and report.min_rank == 1


def test_rank_condition_example2_fails_and_hits_rank_zero():
    m = make_example2()
    # pairs with pi1 + pi1^2 = pi2 + pi2^2 have difference exactly zero
    r1, r2 = ex2_roots(np.array([-0.23, -0.28, 1.31]))
    report = check_rank_condition(m, [r1, r2, 0.5])
    assert not report.passed
    assert any(rank == 0 for _, _, rank in report.failures)


def test_rank_condition_bilinear_passes():
    report = check_rank_condition(bilinear_model(), np.linspace(-6, 6, 31))
    assert report.passed


def test_injectivity_example2_passes():
    report = check_injectivity_condition(make_example2(), n_beta=40, seed=0)
    assert report.passed
    assert report.flagged_fraction == 0.0


def test_injectivity_example1_fails():
    report = check_injectivity_condition(make_example1(), n_beta=40, seed=0)
    assert not report.passed
    assert report.flagged_fraction > 0.5


def test_injectivity_bilinear_passes():
    report = check_injectivity_condition(bilinear_model(), n_beta=40, seed=0)
    assert report.passed


# ----------------------------------------------------------- alignment roots

def test_bilinear_alignment_single_root():
    m = bilinear_model()
    z = np.array([2.0, 3.0])  # pi * z1 = z2 -> pi = 1.5
    roots = find_alignment_roots(m, z)
    assert roots == pytest.approx([1.5], abs=1e-8)


def test_example1_alignment_roots_follow_discriminant(fig1_left_z):
    m = make_example1()
    roots = find_alignment_roots(m, fig1_left_z)
    assert list(roots) == pytest.approx(list(ex1_roots(fig1_left_z)), abs=1e-8)
    z_neg = np.array([0.3, 1.0, -1.0])  # z1^2 + 4 z2 z3 < 0
    assert count_alignment_roots(m, z_neg) == 0


def test_detector_multiplicity_iff_two_alignment_roots():
    """Cross-module consistency: flagged draws solve the alignment equation.

    Every multiple-minimizer draw must place its two representatives on the
    alignment-equation roots (within 1e-3); checked on 100 flagged draws.
    """
    m = with_pi_bound(make_example1(), 50.0)
    cfg = MultistartConfig(seed=0, n_starts=1001, delta_cluster=0.05)
    rng = np.random.default_rng(42)
    checked_multiple = 0
    draws = 0
    while checked_multiple < 100 and draws < 250:
        draws += 1
        z = rng.standard_normal(3)
        roots = find_alignment_roots(m, z, grid_size=3001)
        report = profile_report(m, z, cfg=cfg)
        if len(roots) == 2:
            assert report.verdict == "multiple"
            got = sorted(c.representative[0] for c in report.clusters)
            assert got == pytest.approx(list(roots), abs=1e-3)
            checked_multiple += 1
        else:
            assert report.verdict == "unique"
    assert checked_multiple >= 100


def test_profile_report_example1_roots(fig1_left_z):
    m = make_example1()
    report = profile_report(m, fig1_left_z, cfg=MultistartConfig(seed=0))
    assert report.verdict == "multiple"
    got = sorted(c.representative[0] for c in report.clusters)
    assert got == pytest.approx(list(ex1_roots(fig1_left_z)), abs=1e-3)


@pytest.mark.parametrize("factory", [make_example1, make_example2])
def test_profile_report_never_above_its_grid(factory):
    """Refined dips stay in the domain and never rise above the grid minimum."""
    m = with_pi_bound(factory(), 50.0)
    cfg = MultistartConfig(n_starts=1001, delta_cluster=0.05)
    grid = np.linspace(-50.0, 50.0, 1001)
    rng = np.random.default_rng(8)
    for _ in range(50):
        z = rng.standard_normal(3)
        report = profile_report(m, z, cfg=cfg)
        assert report.converged_fraction == 1.0
        assert report.global_value <= profile(m, grid, z).min()
        assert all(abs(c.representative[0]) <= 50.0 for c in report.clusters)


def test_profile_report_keeps_flat_valley_in_one_cluster():
    """Criterion 3's draw 1062: one root sits in a valley flat to 1e-11.

    Each grid dip is refined inside its own bracket, so the flat valley
    around the root near -144.6 yields one cluster, not three.
    """
    m = with_pi_bound(make_example1(), 200.0)
    cfg = MultistartConfig(n_starts=4001, delta_cluster=0.05)
    rng = np.random.default_rng(np.random.SeedSequence(seed_key(2024, 1062)))
    z = m.sample_z(rng)
    assert z == pytest.approx([0.37095, 0.00250, -1.26767], abs=1e-5)
    report = profile_report(m, z, cfg=cfg)
    assert report.n_clusters == 2
    assert report.converged_fraction == 1.0
    got = sorted(c.representative[0] for c in report.clusters)
    for pi, r in zip(got, sorted(ex1_roots(z))):
        assert abs(pi - r) <= 1e-3 * (1 + abs(r))
