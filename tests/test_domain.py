import math

import numpy as np
import pytest

from argmin_unique import (Domain, Objective, PenaltySpec, box,
                           DegenerateObjective, InvalidDirection,
                           directional_derivative_t, eval_objective, grad_z,
                           make_example1)
from argmin_unique.mixture import nll_objective
from argmin_unique.penalized import partition_domain
from argmin_unique.weakid import limit_objective, with_pi_bound

from oracles import ex1_roots, fd_gradient


# ---------------------------------------------------------------- validation

def test_box_rejects_inverted_bounds():
    with pytest.raises(ValueError):
        box([0.0, 0.0], [1.0, -1.0])


def test_box_rejects_zero_eq_coefficient():
    with pytest.raises(ValueError):
        box([0.0], [1.0], eq_constraints=(((0.0,), 0.5),))


def test_box_rejects_bad_order_indices():
    with pytest.raises(ValueError):
        box([0.0, 0.0], [1.0, 1.0], order_constraints=((1, 1),))
    with pytest.raises(ValueError):
        box([0.0, 0.0], [1.0, 1.0], order_constraints=((0, 5),))


@pytest.mark.parametrize("build", [
    lambda: box([0.0, -np.inf], [1.0, 1.0]),
    lambda: box([0.0], [np.inf]),
    lambda: make_example1(pi_bound=np.inf),
    lambda: with_pi_bound(make_example1(), np.inf),
], ids=["lower-inf", "upper-inf", "example1-pi-bound", "with-pi-bound"])
def test_box_rejects_non_finite_bounds(build):
    with pytest.raises(ValueError):
        build()


def test_domain_rejects_overlapping_pieces():
    with pytest.raises(ValueError):
        Domain(pieces=(box(0.0, 1.0), box(0.5, 2.0)))
    with pytest.raises(ValueError):
        Domain(pieces=(box([-1.0, -1.0], [1.0, 1.0], nonzero=(0,)),
                       box([0.0, 0.0], [2.0, 2.0], nonzero=(0,))))
    # the two l0 pieces at d = 1 share their bounds but not their constraints
    Domain(pieces=(box(-10.0, 10.0, eq_constraints=(((1.0,), 0.0),)),
                   box(-10.0, 10.0, nonzero=(0,))))


def test_domain_holds_large_sparsity_partition():
    d = 12
    dom = partition_domain(PenaltySpec(kind="l0", lam=1.0), d)
    assert len(dom.pieces) == 2 ** d
    rng = np.random.default_rng(7)
    for _ in range(20):
        support = rng.random(d) < 0.5
        t = np.where(support, rng.uniform(0.1, 9.0, d) * rng.choice([-1, 1], d),
                     0.0)
        piece = dom.piece_of(t)
        assert piece.nonzero == tuple(np.flatnonzero(support))


def test_domain_accepts_separated_pieces():
    dom = Domain(pieces=(box(0.0, 1.0), box(2.0, 3.0)))
    assert dom.contains([0.5]) and dom.contains([2.5])
    assert not dom.contains([1.5])


# ------------------------------------------------------------ eval_objective

def test_quadratic_minimum_value(quad_objective):
    assert eval_objective(quad_objective, 1.0, 1.0) == 0.0


def test_mixture_nll_single_point_single_component():
    obj = nll_objective(1)
    got = eval_objective(obj, [1.0, 0.0], [0.0])  # weights=(1,), means=(0,)
    assert got == pytest.approx(0.5 * math.log(2 * math.pi), abs=1e-12)


def test_example1_objective_near_root(fig1_left_z):
    model = make_example1()
    got = limit_objective(model, 1.918, fig1_left_z)
    assert got == pytest.approx(-float(fig1_left_z @ fig1_left_z), abs=1e-4)


def test_degenerate_objective_raises():
    obj = Objective(eval=lambda t, z: float("inf"))
    with pytest.raises(DegenerateObjective):
        eval_objective(obj, 0.0, 0.0)


def test_eval_is_deterministic(quad_objective):
    a = eval_objective(quad_objective, 0.123456, 0.654321)
    b = eval_objective(quad_objective, 0.123456, 0.654321)
    assert a == b  # bit-identical


# ------------------------------------------------- directional derivatives

def test_directional_derivative_quadratic(quad_objective):
    got = directional_derivative_t(quad_objective, 0.0, 1.0, [1.0])
    assert got == pytest.approx(-2.0, abs=1e-9)


def test_directional_derivative_stationary(quad_objective):
    for delta in ([1.0], [-1.0]):
        got = directional_derivative_t(quad_objective, 1.0, 1.0, delta)
        assert got == pytest.approx(0.0, abs=1e-9)


def test_directional_derivative_example1_root(fig1_left_z):
    model = make_example1()
    obj = model.objective()
    root = max(ex1_roots(fig1_left_z))
    for delta in ([1.0], [-1.0]):
        got = directional_derivative_t(obj, [root], fig1_left_z, delta)
        assert abs(got) < 1e-3


def test_inadmissible_direction_raises(quad_objective):
    # at the right boundary, +1 points outside the box
    with pytest.raises(InvalidDirection):
        directional_derivative_t(quad_objective, 10.0, 0.0, [1.0])


def test_boundary_uses_one_sided_stencil(quad_objective):
    got = directional_derivative_t(quad_objective, -10.0, 0.0, [1.0])
    # d/dt (t - z)^2 at t=-10, z=0 is -20; FD objective has no analytic grad
    obj = Objective(eval=quad_objective.eval,
                    admissible_directions=quad_objective.admissible_directions)
    got_fd = directional_derivative_t(obj, -10.0, 0.0, [1.0])
    assert got == pytest.approx(-20.0, abs=1e-9)
    assert got_fd == pytest.approx(-20.0, abs=1e-6)


# ----------------------------------------------------------------- grad_z

def test_grad_z_quadratic(quad_objective):
    assert grad_z(quad_objective, 0.0, 1.0) == pytest.approx([2.0], abs=1e-9)


def test_grad_z_example1_root_is_minus_2z(fig1_left_z):
    model = make_example1()
    obj = model.objective()
    root = max(ex1_roots(fig1_left_z))
    got = grad_z(obj, [root], fig1_left_z)
    assert np.allclose(got, -2.0 * fig1_left_z, atol=1e-3)


def test_mixture_grad_z_matches_score_form():
    obj = nll_objective(1)
    # single component: score at z is (z - mu); identical params cancel
    g = grad_z(obj, [1.0, 0.5], [0.3])
    assert g[0] == pytest.approx(0.3 - 0.5, abs=1e-9)


# ------------------------------------------------------------- properties

def test_analytic_gradients_match_fd():
    """max over seeded (t, z) samples of |analytic - FD| stays within bound."""
    model = make_example1()
    obj = model.objective()
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        t = rng.uniform(-5.0, 5.0, size=1)
        z = rng.standard_normal(3)
        analytic = np.asarray(obj.grad_z(t, z))
        fd = fd_gradient(lambda zz: obj.eval(t, zz), z)
        bound = 1e-4 * (1.0 + np.abs(analytic))
        worst = max(worst, float(np.max(np.abs(analytic - fd) / bound)))
        assert np.all(np.abs(analytic - fd) <= bound)
    assert worst <= 1.0


def test_quadratic_grads_match_fd(quad_objective):
    rng = np.random.default_rng(3)
    for _ in range(100):
        t = rng.uniform(-8, 8, size=1)
        z = rng.uniform(-8, 8, size=1)
        a_t = quad_objective.grad_t(t, z)[0]
        a_z = quad_objective.grad_z(t, z)[0]
        f_t = (quad_objective.eval(t + 1e-5, z) - quad_objective.eval(t - 1e-5, z)) / 2e-5
        f_z = (quad_objective.eval(t, z + 1e-5) - quad_objective.eval(t, z - 1e-5)) / 2e-5
        assert abs(a_t - f_t) <= 1e-4 * (1 + abs(a_t))
        assert abs(a_z - f_z) <= 1e-4 * (1 + abs(a_z))


# --------------------------------------------------- admissible directions

def test_interior_directions_contain_both_signs():
    b = box([0.0, 0.0], [1.0, 1.0])
    dirs = b.admissible_directions([0.5, 0.5])
    want = {(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)}
    got = {tuple(np.round(d, 9)) for d in dirs}
    assert got == want


def test_boundary_face_keeps_only_inward():
    b = box([0.0], [1.0])
    dirs = b.admissible_directions([0.0])
    assert {tuple(d) for d in dirs} == {(1.0,)}
    dirs = b.admissible_directions([1.0])
    assert {tuple(d) for d in dirs} == {(-1.0,)}


def test_equality_constraint_projects_directions():
    # simplex-style constraint t0 + t1 = 1: directions live in its null space
    b = box([0.0, 0.0], [1.0, 1.0], eq_constraints=(((1.0, 1.0), 1.0),))
    dirs = b.admissible_directions([0.5, 0.5])
    assert len(dirs) == 2
    for d in dirs:
        assert abs(d @ np.ones(2)) < 1e-12
        assert np.linalg.norm(d) == pytest.approx(1.0)


def test_order_constraint_feasibility():
    b = box([-1.0, -1.0], [1.0, 1.0], order_constraints=((0, 1),))
    assert b.contains([-0.5, 0.5])
    assert not b.contains([0.5, -0.5])


def test_nonzero_constraint_feasibility():
    b = box([-1.0], [1.0], nonzero=(0,))
    assert b.contains([0.5])
    assert not b.contains([0.0])

