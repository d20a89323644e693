import numpy as np
import pytest

from argmin_unique import (Domain, MultistartConfig, Objective, PenaltySpec,
                           RegressionData, box, global_minimize)

# criterion 7's smooth penalties: (tuning constants, multistart starts)
CRITERION7_SMOOTH = {"bridge": ({"lam": 0.5, "q": 0.5}, 64),
                     "scad": ({"lam": 1.0, "a": 3.7}, 8),
                     "mcp": ({"lam": 1.0, "gamma": 3.0}, 8)}


@pytest.fixture
def quad_objective():
    """Q(t, z) = (t - z)^2 on [-10, 10], with analytic gradients."""
    dom = Domain(pieces=(box(-10.0, 10.0),))

    def fn(t, z):
        d = t - z
        return float(d @ d)

    return Objective(eval=fn,
                     grad_t=lambda t, z: 2.0 * (t - z),
                     grad_z=lambda t, z: 2.0 * (z - t),
                     admissible_directions=dom.admissible_directions)


@pytest.fixture
def quad_domain():
    return Domain(pieces=(box(-10.0, 10.0),))


@pytest.fixture
def fig1_left_z():
    return np.array([-1.03, 1.29, 2.77])


@pytest.fixture(scope="session")
def criterion7_smooth_reports():
    """Criterion 7's bridge, scad and mcp detections, run once per session.

    The design is ``default_rng(2718)`` normal 20 x 5 with beta0 = (1.5, -1,
    0, 0, 0); draw ``trial`` adds ``default_rng(9000 + trial)`` noise and is
    searched with multistart seed ``trial``.  Maps each penalty to
    (spec, [(data, report)] for its 200 draws).
    """
    X = np.random.default_rng(2718).standard_normal((20, 5))
    mean = X @ np.array([1.5, -1.0, 0.0, 0.0, 0.0])
    x = tuple(tuple(r) for r in X)
    reports = {}
    for kind, (params, n_starts) in CRITERION7_SMOOTH.items():
        spec = PenaltySpec(kind=kind, **params)
        rows = []
        for trial in range(200):
            y = mean + np.random.default_rng(9000 + trial).standard_normal(20)
            data = RegressionData(y=tuple(y), x=x)
            cfg = MultistartConfig(seed=trial, n_starts=n_starts)
            rows.append((data, global_minimize(spec, data, cfg)))
        reports[kind] = (spec, rows)
    return reports
