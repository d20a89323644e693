import dataclasses

import numpy as np
import pytest

from argmin_unique import (NotDistinct, Objective, box, check_triple,
                           make_example1, make_example2, objective_gap,
                           scan_grid)
from argmin_unique.baselines import QuadraticModel
from argmin_unique.mixture import nll_objective
from argmin_unique.serialize import canonical_json

from oracles import ex1_roots, ex2_roots, scan_reference, triple_reference


@pytest.fixture
def quad(quad_objective):
    return quad_objective


# ------------------------------------------------------------ objective gap

def test_gap_symmetric_points(quad):
    assert objective_gap(quad, 0.0, 2.0, 1.0) == pytest.approx(0.0, abs=1e-14)


def test_gap_asymmetric(quad):
    assert objective_gap(quad, 0.0, 1.0, 1.0) == pytest.approx(1.0, abs=1e-14)


def test_gap_rejects_coincident_points(quad):
    with pytest.raises(NotDistinct):
        objective_gap(quad, 0.5, 0.5 + 1e-12, 1.0)


def test_gap_at_example1_root_pair(fig1_left_z):
    model = make_example1()
    r1, r2 = ex1_roots(fig1_left_z)
    gap = objective_gap(model.objective(), [r1], [r2], fig1_left_z)
    assert abs(gap) < 1e-6


# ------------------------------------------------------------- check_triple

def test_quadratic_z_margin_never_vanishes(quad):
    # d(gap)/dz = 2(s - t) != 0, so no quadratic triple can be degenerate
    rng = np.random.default_rng(0)
    for _ in range(25):
        t, s, z = rng.uniform(-5, 5, size=3)
        if abs(t - s) < 1e-3:
            continue
        verdict = check_triple(quad, t, s, z)
        assert not verdict.degenerate
        assert verdict.margins["d"] == pytest.approx(2 * abs(s - t), rel=1e-5)


def test_symmetric_quadratic_triple_is_condition_b(quad):
    # gap = 0 but both points are non-stationary: descent at t fires first
    verdict = check_triple(quad, 0.0, 2.0, 1.0)
    assert verdict.condition == "b"


def test_example1_degenerate_at_rounded_roots(fig1_left_z):
    model = make_example1()
    verdict = check_triple(model.objective(), [1.91800], [-1.11955],
                           fig1_left_z, tol=1e-4)
    assert verdict.degenerate
    assert all(m <= 1e-4 for m in verdict.margins.values())


def test_example1_off_root_is_condition_a(fig1_left_z):
    model = make_example1()
    verdict = check_triple(model.objective(), [1.918], [0.5], fig1_left_z,
                           tol=1e-4)
    assert verdict.condition == "a"


def test_swap_symmetry(quad):
    rng = np.random.default_rng(7)
    pairs = {"a": "a", "b": "c", "c": "b", "d": "d"}
    for _ in range(20):
        t, s, z = rng.uniform(-5, 5, size=3)
        if abs(t - s) < 1e-2:
            continue
        v1 = check_triple(quad, t, s, z)
        v2 = check_triple(quad, s, t, z)
        assert v2.condition == pairs[v1.condition]
        assert v1.margins["a"] == pytest.approx(v2.margins["a"], abs=1e-12)
        assert v1.margins["b"] == pytest.approx(v2.margins["c"], abs=1e-9)


def test_rescaling_invariance(quad):
    scaled = Objective(eval=lambda t, z: 10.0 * quad.eval(t, z),
                       grad_t=lambda t, z: 10.0 * quad.grad_t(t, z),
                       grad_z=lambda t, z: 10.0 * quad.grad_z(t, z),
                       admissible_directions=quad.admissible_directions)
    rng = np.random.default_rng(21)
    for _ in range(20):
        t, s, z = rng.uniform(-5, 5, size=3)
        if abs(t - s) < 1e-2:
            continue
        tol = 1e-6
        v1 = check_triple(quad, t, s, z, tol=tol)
        v2 = check_triple(scaled, t, s, z, tol=10 * tol)
        assert v1.condition == v2.condition


def test_mixture_condition_d_margin_positive():
    """Distinct parameters always leave a nonzero score-gap coordinate."""
    rng = np.random.default_rng(5)
    obj = nll_objective(2)
    z = np.sort(rng.standard_normal(9))  # distinct with probability one
    for _ in range(25):
        w1 = rng.dirichlet((2.0, 2.0))
        w2 = rng.dirichlet((2.0, 2.0))
        m1 = np.sort(rng.uniform(-3, 3, 2))
        m2 = np.sort(rng.uniform(-3, 3, 2))
        if abs(m1 - m2).max() < 1e-2:
            continue
        t = np.concatenate([w1, m1])
        s = np.concatenate([w2, m2])
        verdict = check_triple(obj, t, s, z)
        assert verdict.margins["d"] > 1e-6
        assert not verdict.degenerate


# ---------------------------------------------------------------- scan_grid

def test_scan_quadratic_grid_has_no_degenerate_triples(quad_domain, quad):
    report = scan_grid(quad, quad_domain, z_region=box(-3.0, 3.0), resolution=11)
    assert report.total_triples == 11 * 10 // 2 * 11
    assert len(report.degenerate) == 0


def test_scan_example1_through_root_pair_flags_degeneracy(fig1_left_z):
    model = make_example1()
    r1, r2 = ex1_roots(fig1_left_z)
    t_points = [[r1], [r2], [0.5], [-3.0]]
    report = scan_grid(model.objective(), model.pi_domain,
                       t_points=t_points, z_points=[fig1_left_z])
    assert len(report.degenerate) >= 1
    flagged = report.degenerate[0]
    assert all(m <= flagged.tolerance for m in flagged.margins.values())
    got_pis = sorted((flagged.t[0], flagged.s[0]))
    assert got_pis == pytest.approx([r1, r2], abs=1e-9)


def test_scan_example2_paired_roots_flag_degeneracy():
    model = make_example2()
    z = np.array([-0.23, -0.28, 1.31])
    r1, r2 = ex2_roots(z)  # pi1 + pi1^2 = pi2 + pi2^2 = z2/z1
    report = scan_grid(model.objective(), model.pi_domain,
                       t_points=[[r1], [r2], [1.5]], z_points=[z])
    assert len(report.degenerate) >= 1


def test_scan_report_serializes():
    model = QuadraticModel()
    report = scan_grid(model.objective(), model.domain,
                       z_region=box(-2.0, 2.0), resolution=3)
    data = report.to_dict()
    assert set(data) == {"grid_spec", "total_triples", "degenerate"}
    assert data["total_triples"] == 3 * 2 // 2 * 3


@pytest.mark.parametrize("tol", [-1.0, 0.0, np.nan, np.inf])
def test_tolerance_must_be_finite_and_positive(quad, quad_domain, tol):
    with pytest.raises(ValueError):
        scan_grid(quad, quad_domain, z_region=box(-3.0, 3.0), resolution=3,
                  tol=tol)
    with pytest.raises(ValueError):
        check_triple(quad, 0.0, 2.0, 1.0, tol=tol)


def _ex_scan(model, tol=None):
    return (model.objective(), model.pi_domain), {
        "z_region": box([-3.0] * model.d_z, [3.0] * model.d_z),
        "resolution": 3, "tol": tol}


def _scan_cases():
    fig1_z = np.array([-1.03, 1.29, 2.77])
    fig2_z = np.array([-0.23, -0.28, 1.31])
    quad, quad2 = QuadraticModel(), QuadraticModel(dim=2)
    ex1, ex2 = make_example1(pi_bound=6.0), make_example2(pi_bound=6.0)
    return {
        "quadratic-1d": ((quad.objective(), quad.domain),
                         {"z_region": box(-3.0, 3.0), "resolution": 11}),
        "quadratic-2d": ((quad2.objective(), quad2.domain),
                         {"z_region": box([-3.0] * 2, [3.0] * 2),
                          "resolution": 4}),
        "example1-cube": _ex_scan(ex1),
        "example2-cube": _ex_scan(ex2),
        "example1-cube-tol": _ex_scan(ex1, tol=1e-2),
        "example2-cube-tol": _ex_scan(ex2, tol=1e-2),
        "example1-roots": ((make_example1().objective(),
                            make_example1().pi_domain),
                           {"t_points": [[r] for r in ex1_roots(fig1_z)]
                            + [[0.5], [-3.0]], "z_points": [fig1_z]}),
        "example2-roots": ((make_example2().objective(),
                            make_example2().pi_domain),
                           {"t_points": [[r] for r in ex2_roots(fig2_z)]
                            + [[1.5]], "z_points": [fig2_z]}),
    }


@pytest.mark.parametrize("case", list(_scan_cases()))
def test_scan_matches_per_triple_reference(case):
    args, kwargs = _scan_cases()[case]
    got = canonical_json(scan_grid(*args, **kwargs).to_dict())
    assert got == canonical_json(scan_reference(*args, **kwargs))


def test_check_triple_margins_match_reference():
    # example 1 values take both signs, and most triples are not degenerate
    model = make_example1(pi_bound=6.0)
    obj = model.objective()
    rng = np.random.default_rng(11)
    for _ in range(30):
        t, s = rng.uniform(-6.0, 6.0, size=(2, 1))
        z = rng.standard_normal(3)
        verdict = check_triple(obj, t, s, z)
        ref = triple_reference(obj, t, s, z)
        assert verdict.margins == ref["margins"]
        assert verdict.tolerance == ref["tolerance"]


def test_scan_cube_flags_flat_profiles():
    # the reference comparison above is not vacuous: Q(., z) is flat in pi
    # at z = 0 for example 1 (3 pairs) and wherever z1 = z2 = 0 for
    # example 2 (3 pairs x 3 values of z3)
    for model, want in ((make_example1(pi_bound=6.0), 3),
                        (make_example2(pi_bound=6.0), 9)):
        args, kwargs = _ex_scan(model)
        report = scan_grid(*args, **kwargs)
        assert len(report.degenerate) == want
        assert all(v.z[:2] == (0.0, 0.0) for v in report.degenerate)


def _counting(obj):
    calls = [0]

    def counted(t, z):
        calls[0] += 1
        return obj.eval(t, z)

    return dataclasses.replace(obj, eval=counted), calls


def test_scan_evaluates_each_point_and_z_once():
    # Q once per (point, z) plus the finite-difference descent stencils:
    # 11 points x 11 z for the quadratic (analytic t-gradient); for
    # example 1 at one z, 11 values, 4 evaluations at each of 9 interior
    # points and 3 at each end
    quad = QuadraticModel()
    obj, calls = _counting(quad.objective())
    scan_grid(obj, quad.domain, z_region=box(-3.0, 3.0), resolution=11)
    assert calls[0] <= 121
    ex1 = make_example1(pi_bound=6.0)
    obj, calls = _counting(ex1.objective())
    scan_grid(obj, ex1.pi_domain, z_points=[[0.3, -1.2, 0.7]])
    assert calls[0] <= 53
