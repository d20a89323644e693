"""Gaussian-process functional for threshold-style limit objectives.

A Gaussian path W on a symmetric grid over [-M, M] feeds the functional
Q(t) = integral_0^t Phi(W(y)) dy - t * gamma (Phi the standard normal cdf).
The trial machinery diagnoses argmin multiplicity per path by counting
eps-sublevel runs of the discretized profile.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import ndtr

from .errors import KernelNotPSD
from .globalopt import sublevel_components

PATH_BLOCK = 256  # paths per matrix product in argmin_uniqueness_trial


def gaussian_kernel(t, s):
    """exp(-(t-s)^2 / 2): smooth paths, strictly positive everywhere."""
    return np.exp(-0.5 * (np.asarray(t) - np.asarray(s)) ** 2)


def exponential_kernel(t, s):
    """exp(-|t-s|): strictly positive but non-differentiable paths."""
    return np.exp(-np.abs(np.asarray(t) - np.asarray(s)))


def linear_drift(t):
    return np.asarray(t, dtype=float)


@dataclass(frozen=True)
class GPSpec:
    """Process and functional settings.

    The grid is symmetric with an odd number of points so that t = 0 is a
    grid node (the integral's anchor).  The kernel must be strictly
    positive on the grid; this is validated when the factor is built.
    """

    m_bound: float = 5.0
    grid_size: int = 1001
    drift: Callable = linear_drift
    kernel: Callable = gaussian_kernel
    gamma: float = 0.5
    jitter: float = 1e-10

    def __post_init__(self):
        if not self.m_bound > 0:
            raise ValueError("m_bound must be positive")
        if self.grid_size < 3 or self.grid_size % 2 == 0:
            raise ValueError("grid_size must be odd and at least 3 (0 on grid)")
        if not 0 < self.gamma < 1:
            raise ValueError("gamma must lie in (0, 1)")
        if not self.jitter > 0:
            raise ValueError("jitter must be positive")

    @cached_property
    def grid(self) -> np.ndarray:
        return np.linspace(-self.m_bound, self.m_bound, self.grid_size)

    @property
    def zero_index(self) -> int:
        return self.grid_size // 2


def kernel_matrix(spec: GPSpec) -> np.ndarray:
    t = spec.grid
    K = np.asarray(spec.kernel(t[:, None], t[None, :]), dtype=float)
    if not np.allclose(K, K.T, atol=1e-12):
        raise ValueError("kernel matrix is not symmetric")
    if K.min() <= 0:
        raise ValueError("kernel must be strictly positive on the grid")
    return K


@dataclass(frozen=True)
class KernelFactor:
    """Shared Cholesky factor of the (jittered) kernel matrix."""

    grid: np.ndarray
    L: np.ndarray
    jitter_used: float


def build_factor(spec: GPSpec) -> KernelFactor:
    """Factorize the kernel, escalating jitter x10 up to 3 times."""
    K = kernel_matrix(spec)
    jitter = spec.jitter
    for attempt in range(4):
        try:
            L = np.linalg.cholesky(K + jitter * np.eye(len(K)))
            return KernelFactor(grid=spec.grid, L=L, jitter_used=jitter)
        except np.linalg.LinAlgError:
            jitter *= 10.0
    raise KernelNotPSD(
        f"kernel factorization failed up to jitter {jitter / 10:.1e}")


@dataclass(frozen=True)
class GPPath:
    """Path values on a grid: one path of shape (G,) or a (G, k) block of paths.

    The grid runs along axis 0, so column j of a block is one path.
    """

    t_grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t_grid, dtype=float)
        w = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "t_grid", t)
        object.__setattr__(self, "values", w)
        if t.ndim != 1 or w.ndim > 2 or w.shape[:1] != t.shape:
            raise ValueError("grid / value length mismatch")
        if not np.all(np.isfinite(w)):
            raise ValueError("path values must be finite")


def simulate_path(spec: GPSpec, seed: int,
                  factor: Optional[KernelFactor] = None,
                  n_paths: Optional[int] = None) -> GPPath:
    """Seeded draws W = drift + L @ xi on the grid.

    One path of shape (G,) when ``n_paths`` is None; otherwise a
    (G, n_paths) block whose column i draws xi from
    ``default_rng(seed + i)``, so a block holds the same paths as separate
    calls with seeds seed, seed + 1, ...  The block is one matrix product.
    """
    if factor is None:
        factor = build_factor(spec)
    k = 1 if n_paths is None else n_paths
    xi = np.empty((spec.grid_size, k))
    for i in range(k):
        xi[:, i] = np.random.default_rng(seed + i).standard_normal(spec.grid_size)
    w = np.asarray(spec.drift(spec.grid), dtype=float)[:, None] + factor.L @ xi
    return GPPath(t_grid=spec.grid, values=w[:, 0] if n_paths is None else w)


def objective_profile(spec: GPSpec, path: GPPath) -> np.ndarray:
    """Q(t_k) for every grid node, by signed cumulative trapezoid from 0.

    Works along axis 0, so a (G, k) block gives the k profiles as columns.
    """
    t = path.t_grid
    F = ndtr(path.values)  # standard normal cdf
    shape = (-1,) + (1,) * (F.ndim - 1)
    incr = 0.5 * (F[1:] + F[:-1]) * np.diff(t).reshape(shape)
    i0 = spec.zero_index
    Q = np.zeros_like(F)
    Q[i0 + 1:] = np.cumsum(incr[i0:], axis=0)
    Q[:i0] = -np.cumsum(incr[:i0][::-1], axis=0)[::-1]
    return Q - (t * spec.gamma).reshape(shape)


def limit_objective_path(spec: GPSpec, path: GPPath, k: int) -> float:
    """Q at grid index k (negative t integrates backward from 0)."""
    if not 0 <= k < spec.grid_size:
        raise IndexError(f"grid index {k} out of range")
    return float(objective_profile(spec, path)[k])


def end_shift(spec: GPSpec) -> np.ndarray:
    """Column Sigma_{., M} / Sigma_{M, M}: the path response to the endpoint value."""
    K = kernel_matrix(spec)
    return K[:, -1] / K[-1, -1]


def endpoint_decomposition(spec: GPSpec, path: GPPath) -> tuple:
    """Split W into drift + residual + shift * Z with Z = W(M) - m(M).

    The residual is uncorrelated with Z; this is the conditioning device
    that reduces the path functional to a scalar source of randomness.
    """
    m = np.asarray(spec.drift(spec.grid), dtype=float)
    Z = float(path.values[-1] - m[-1])
    B = path.values - m - end_shift(spec) * Z
    return Z, B


def endpoint_shift_gap_derivative(spec: GPSpec, path: GPPath, k1: int, k2: int,
                                  step: float = 1e-4) -> float:
    """FD derivative of Q(t_k1) - Q(t_k2) along the endpoint-shift direction.

    For t_k1 > t_k2 the exact derivative is the integral of
    phi(W(y)) Sigma_{y,M} / Sigma_{M,M} over [t_k2, t_k1], which is strictly
    positive for positive kernels.
    """
    shift = end_shift(spec)
    up = GPPath(t_grid=path.t_grid, values=path.values + step * shift)
    dn = GPPath(t_grid=path.t_grid, values=path.values - step * shift)
    qu = objective_profile(spec, up)
    qd = objective_profile(spec, dn)
    return float(((qu[k1] - qu[k2]) - (qd[k1] - qd[k2])) / (2 * step))


@dataclass(frozen=True)
class TrialReport:
    """Single-component fractions per epsilon multiplier.

    ``component_counts`` holds the per-path run counts (n_paths x n_eps);
    a path counts as single only when it has one run and its profile is
    not entirely flat relative to epsilon (an all-tied profile is never
    counted as unique).
    """

    n_paths: int
    eps_schedule: tuple
    single_fractions: tuple
    component_counts: np.ndarray = field(repr=False)

    def to_dict(self) -> dict:
        return {"n_paths": self.n_paths,
                "eps_schedule": list(self.eps_schedule),
                "single_fractions": list(self.single_fractions)}


def trial_settings(n_paths: int, eps_schedule: Sequence[float]) -> tuple:
    """The eps schedule as a tuple of floats, after checking the settings.

    ValueError unless n_paths >= 1 and the schedule decreases strictly.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be at least 1")
    eps_schedule = tuple(float(e) for e in eps_schedule)
    if any(e2 >= e1 for e1, e2 in zip(eps_schedule, eps_schedule[1:])):
        raise ValueError("eps_schedule must be strictly decreasing")
    return eps_schedule


def argmin_uniqueness_trial(spec: GPSpec, n_paths: int,
                            eps_schedule: Sequence[float] = (1e-2, 3e-3, 1e-3, 3e-4),
                            seed: int = 0,
                            paths: Optional[Sequence[GPPath]] = None) -> TrialReport:
    """Fraction of paths whose eps-sublevel set is a single run, per eps.

    ``eps_schedule`` lists multipliers of each path's own value range and
    must decrease strictly; the single fraction is nondecreasing along it.
    Injected ``paths`` override simulation (used for degenerate cases).

    Paths are drawn and profiled in blocks of ``PATH_BLOCK`` columns, one
    matrix product ``drift + L @ Xi`` per block, which bounds the working
    arrays at a few (G, PATH_BLOCK) blocks however many paths there are.
    Path i draws its noise from ``default_rng(seed + i)``, so trials whose
    seeds differ by less than ``n_paths`` share most of their paths: seeds
    1 and 7 at 2000 paths share 1994 paths.
    """
    eps_schedule = trial_settings(n_paths, eps_schedule)
    if paths is None:
        factor = build_factor(spec)
    else:
        paths = list(paths)[:n_paths]
        if len(paths) < n_paths:
            raise ValueError("not enough injected paths")
    counts = np.zeros((n_paths, len(eps_schedule)), dtype=int)
    singles = np.zeros(len(eps_schedule), dtype=int)
    for start in range(0, n_paths, PATH_BLOCK):
        stop = min(start + PATH_BLOCK, n_paths)
        if paths is None:
            block = simulate_path(spec, seed + start, factor,
                                  n_paths=stop - start)
        else:
            block = GPPath(t_grid=paths[start].t_grid,
                           values=np.stack([p.values for p in paths[start:stop]],
                                           axis=1))
        Q = objective_profile(spec, block)
        value_range = Q.max(axis=0) - Q.min(axis=0)
        for e_idx, mult in enumerate(eps_schedule):
            eps = mult * value_range
            ncomp = sublevel_components(Q, eps)
            counts[start:stop, e_idx] = ncomp
            singles[e_idx] += np.sum((ncomp == 1) & (value_range > eps))
    fractions = tuple(float(s) / n_paths for s in singles)
    return TrialReport(n_paths=n_paths, eps_schedule=eps_schedule,
                       single_fractions=fractions, component_counts=counts)
