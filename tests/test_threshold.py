import numpy as np
import pytest
from scipy.stats import norm

from argmin_unique import (GPPath, GPSpec, KernelNotPSD,
                           argmin_uniqueness_trial, objective_profile,
                           simulate_path)
from argmin_unique.globalopt import sublevel_components
from argmin_unique.threshold import (PATH_BLOCK, build_factor,
                                     endpoint_decomposition,
                                     endpoint_shift_gap_derivative,
                                     exponential_kernel, gaussian_kernel,
                                     kernel_matrix)
from oracles import (gp_profile_reference, single_path_reference,
                     trial_reference)


def small_spec(**kwargs):
    defaults = dict(m_bound=5.0, grid_size=101)
    defaults.update(kwargs)
    return GPSpec(**defaults)


def flat_path(spec, c=0.0):
    return GPPath(t_grid=spec.grid, values=np.full(spec.grid_size, c))


# -------------------------------------------------------------- validation

def test_spec_rejects_even_grid():
    with pytest.raises(ValueError):
        GPSpec(grid_size=100)


def test_spec_rejects_non_finite_m_bound():
    for bound in (np.inf, np.nan, 0.0):
        with pytest.raises(ValueError, match="m_bound"):
            GPSpec(m_bound=bound)


def test_spec_rejects_bad_gamma():
    with pytest.raises(ValueError):
        GPSpec(gamma=0.0)
    with pytest.raises(ValueError):
        GPSpec(gamma=1.0)


def test_exponential_kernel_matrix_entries():
    spec = small_spec(grid_size=3, m_bound=1.0, kernel=exponential_kernel)
    K = kernel_matrix(spec)
    h = 1.0
    want = np.exp(-np.abs(np.subtract.outer([-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0])))
    assert np.allclose(K, want)
    assert K[0, 0] == 1.0 and K[0, 1] == pytest.approx(np.exp(-h))
    assert K[0, 2] == pytest.approx(np.exp(-2 * h))


def test_non_psd_kernel_raises_after_escalation():
    def bad_kernel(t, s):
        t, s = np.asarray(t), np.asarray(s)
        diag = np.abs(t - s) < 1e-9
        var = np.where(t > 0, 0.05, 1.0)
        return np.where(diag, var, 0.9)

    spec = small_spec(grid_size=3, m_bound=1.0, kernel=bad_kernel)
    with pytest.raises(KernelNotPSD):
        build_factor(spec)


def test_kernel_must_be_positive():
    spec = small_spec(kernel=lambda t, s: np.asarray(t) - np.asarray(s))
    with pytest.raises(ValueError):
        kernel_matrix(spec)


# -------------------------------------------------------------- simulation

def test_simulation_deterministic_per_seed():
    spec = small_spec()
    a = simulate_path(spec, seed=3)
    b = simulate_path(spec, seed=3)
    assert np.array_equal(a.values, b.values)
    c = simulate_path(spec, seed=4)
    assert not np.array_equal(a.values, c.values)


def test_zero_drift_mean_at_origin():
    spec = small_spec(drift=lambda t: np.zeros_like(np.asarray(t, dtype=float)))
    factor = build_factor(spec)
    i0 = spec.zero_index
    n = 10_000
    vals = np.empty(n)
    for s in range(n):
        vals[s] = simulate_path(spec, seed=s, factor=factor).values[i0]
    # var W(0) = 1, so the mean estimate carries se = 1/sqrt(n)
    assert abs(vals.mean()) < 3.0 / np.sqrt(n)


def test_endpoint_decomposition_residual_uncorrelated():
    spec = small_spec()
    factor = build_factor(spec)
    n = 10_000
    idx = np.linspace(0, spec.grid_size - 1, 11).astype(int)
    zs = np.empty(n)
    bs = np.empty((n, len(idx)))
    for s in range(n):
        path = simulate_path(spec, seed=s, factor=factor)
        z, B = endpoint_decomposition(spec, path)
        zs[s] = z
        bs[s] = B[idx]
    var_z = zs.var(ddof=1)
    for k in range(len(idx)):
        cov = np.mean((zs - zs.mean()) * (bs[:, k] - bs[:, k].mean()))
        se = np.sqrt(var_z * bs[:, k].var(ddof=1) / n)
        assert abs(cov) < max(4.0 * se, 1e-12)


# ---------------------------------------------------------------- objective

def test_flat_path_at_balance_gives_zero_profile():
    spec = small_spec()  # gamma = 0.5 = Phi(0)
    Q = objective_profile(spec, flat_path(spec, 0.0))
    assert np.allclose(Q, 0.0, atol=1e-14)


def test_constant_positive_path_minimizes_at_left_end():
    spec = small_spec()
    Q = objective_profile(spec, flat_path(spec, 1.0))  # Phi(1) > 0.5
    assert np.argmin(Q) == 0
    slope = np.diff(Q) / np.diff(spec.grid)
    assert np.allclose(slope, norm.cdf(1.0) - 0.5, atol=1e-12)


def test_objective_zero_at_origin_for_every_path():
    spec = small_spec()
    factor = build_factor(spec)
    for s in range(5):
        path = simulate_path(spec, seed=s, factor=factor)
        assert objective_profile(spec, path)[spec.zero_index] == 0.0


def test_discrete_derivative_sign_matches_integrand():
    spec = small_spec()
    path = simulate_path(spec, seed=11)
    Q = objective_profile(spec, path)
    F = norm.cdf(path.values)
    avg = 0.5 * (F[1:] + F[:-1]) - spec.gamma
    signs_match = np.sign(np.diff(Q)) == np.sign(avg)
    assert np.all(signs_match | (np.abs(avg) < 1e-12))


def test_endpoint_shift_gap_derivative_positive():
    # the exponential kernel keeps the endpoint-shift column detectably
    # positive over the whole grid (the smooth kernel underflows far from M)
    spec = small_spec(kernel=exponential_kernel)
    factor = build_factor(spec)
    rng = np.random.default_rng(0)
    for s in range(20):
        path = simulate_path(spec, seed=s, factor=factor)
        k2, k1 = sorted(rng.choice(spec.grid_size, size=2, replace=False))
        if k1 == k2:
            continue
        d = endpoint_shift_gap_derivative(spec, path, k1, k2)
        assert d > 0.0


# -------------------------------------------------------------------- trial

def test_trial_eps_schedule_must_decrease():
    with pytest.raises(ValueError):
        argmin_uniqueness_trial(small_spec(), 5, eps_schedule=(1e-3, 1e-3))


@pytest.mark.parametrize("schedule", [(-1.0, -2.0), (0.1, 0.0)])
def test_trial_eps_schedule_must_be_positive(schedule):
    with pytest.raises(ValueError):
        argmin_uniqueness_trial(small_spec(), 5, eps_schedule=schedule)


def test_trial_fraction_nondecreasing_as_eps_shrinks():
    spec = small_spec(grid_size=501)
    trial = argmin_uniqueness_trial(spec, 200, seed=0)
    fr = trial.single_fractions
    assert all(b >= a for a, b in zip(fr, fr[1:]))
    assert fr[-1] >= 0.95


def test_trial_flat_paths_never_single():
    spec = small_spec()
    paths = [flat_path(spec, 0.0) for _ in range(4)]
    trial = argmin_uniqueness_trial(spec, 4, paths=paths)
    assert trial.single_fractions == (0.0, 0.0, 0.0, 0.0)


def test_trial_grid_refinement_keeps_flags_stable():
    spec = GPSpec(grid_size=1001)
    factor = build_factor(spec)
    n = 120
    coarse_flags, fine_flags = [], []
    for s in range(n):
        path = simulate_path(spec, seed=s, factor=factor)
        Q = objective_profile(spec, path)
        for flags, values in ((fine_flags, Q), (coarse_flags, Q[::4])):
            rng_q = values.max() - values.min()
            eps = 1e-3 * rng_q
            mask = values <= values.min() + eps
            ncomp = int(mask[0]) + int(np.sum(mask[1:] & ~mask[:-1]))
            flags.append(ncomp > 1)
    disagree = sum(a != b for a, b in zip(coarse_flags, fine_flags))
    assert disagree <= max(2, int(0.02 * n))


def test_trial_blocks_match_per_path_reference():
    spec = small_spec()
    n, seed, schedule = PATH_BLOCK + 44, 5, (1e-2, 1e-3)
    assert n % PATH_BLOCK
    factor = build_factor(spec)
    drift = np.asarray(spec.drift(spec.grid), dtype=float)
    ref = np.stack([drift + factor.L @ np.random.default_rng(seed + i)
                    .standard_normal(spec.grid_size) for i in range(n)], axis=1)
    block = simulate_path(spec, seed, factor, n_paths=n).values
    assert np.max(np.abs(block - ref)) <= 1e-12 * np.max(np.abs(ref))
    counts = np.zeros((n, len(schedule)), dtype=int)
    singles = np.zeros(len(schedule), dtype=int)
    for i in range(n):
        Q = objective_profile(spec, GPPath(t_grid=spec.grid, values=ref[:, i]))
        value_range = float(Q.max() - Q.min())
        for e_idx, mult in enumerate(schedule):
            eps = mult * value_range
            counts[i, e_idx] = sublevel_components(Q, eps)
            singles[e_idx] += counts[i, e_idx] == 1 and value_range > eps
    trial = argmin_uniqueness_trial(spec, n, eps_schedule=schedule, seed=seed)
    assert np.array_equal(trial.component_counts, counts)
    assert trial.single_fractions == tuple(float(s) / n for s in singles)


def test_trial_rejects_non_finite_drift():
    spec = small_spec(drift=lambda t: np.where(np.asarray(t) > 4.9, np.inf, 0.0))
    with pytest.raises(ValueError, match="finite"):
        argmin_uniqueness_trial(spec, 3)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes())


# (grid size, kernel, n_paths): partial, full and multi-block trials
ORACLE_CASES = [
    (3, gaussian_kernel, 1), (5, exponential_kernel, 3),
    (101, gaussian_kernel, 50), (101, exponential_kernel, 255),
    (101, gaussian_kernel, 257), (101, exponential_kernel, 300),
    (1001, gaussian_kernel, 500), (1001, exponential_kernel, 600),
    (1001, gaussian_kernel, 700), (1001, gaussian_kernel, 2000),
    (101, exponential_kernel, 1), (1001, exponential_kernel, 3),
]


@pytest.mark.parametrize("grid_size,kernel,n", ORACLE_CASES)
def test_trial_is_bit_identical_to_column_oracle(grid_size, kernel, n):
    spec = GPSpec(grid_size=grid_size, kernel=kernel)
    seed, schedule = 7, (1e-2, 3e-3, 1e-3, 3e-4)
    ref = trial_reference(spec, n, schedule, seed, block=PATH_BLOCK)
    factor = build_factor(spec)
    assert _same_bits(factor.L, ref["L"])
    trial = argmin_uniqueness_trial(spec, n, eps_schedule=schedule, seed=seed)
    assert _same_bits(trial.component_counts, ref["counts"])
    assert trial.single_fractions == ref["fractions"]
    for b, start in enumerate(range(0, n, PATH_BLOCK)):
        block = simulate_path(spec, seed + start, factor,
                              n_paths=min(PATH_BLOCK, n - start))
        assert _same_bits(block.values, ref["blocks"][b])
        assert _same_bits(objective_profile(spec, block), ref["profiles"][b])
    single = simulate_path(spec, seed, factor)
    W = single_path_reference(spec, ref["L"], seed)
    assert _same_bits(single.values, W)
    assert _same_bits(objective_profile(spec, single),
                      gp_profile_reference(spec, W))
