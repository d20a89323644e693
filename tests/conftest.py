import numpy as np
import pytest

from argmin_unique import Domain, Objective, box


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
