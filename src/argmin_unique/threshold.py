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
        if not (np.isfinite(self.m_bound) and self.m_bound > 0):
            raise ValueError("m_bound must be finite and positive")
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
    # the exact test is a tenth of allclose's cost and settles every
    # kernel that is symmetric in floating point
    if not (np.array_equal(K, K.T) or np.allclose(K, K.T, atol=1e-12)):
        raise ValueError("kernel matrix is not symmetric")
    if K.min() <= 0:
        raise ValueError("kernel must be strictly positive on the grid")
    return K


@dataclass(frozen=True)
class KernelFactor:
    """Shared Cholesky factor of the (jittered) kernel matrix."""

    grid: np.ndarray
    L: np.ndarray


def build_factor(spec: GPSpec) -> KernelFactor:
    """Factorize the kernel, escalating jitter x10 up to 3 times."""
    K = kernel_matrix(spec)
    diag = K.diagonal().copy()
    jitter = spec.jitter
    for attempt in range(4):
        np.fill_diagonal(K, diag + jitter)
        try:
            L = np.linalg.cholesky(K)
            return KernelFactor(grid=spec.grid, L=L)
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
    ``default_rng(seed + i)``.  The block is one matrix product, so its
    columns agree with separate calls with seeds seed, seed + 1, ... to
    rounding (a one-column product takes another BLAS kernel), not bit for
    bit.  Each path's normals fill one contiguous row of a (k, G) buffer.
    """
    if factor is None:
        factor = build_factor(spec)
    xi = np.empty((1 if n_paths is None else n_paths, spec.grid_size))
    for i, row in enumerate(xi):
        np.random.default_rng(seed + i).standard_normal(out=row)
    # the product takes a C-ordered (G, k) copy: L @ xi.T would call
    # another BLAS kernel, whose bits differ for some grid sizes and widths
    w = factor.L @ np.ascontiguousarray(xi.T)
    w += np.asarray(spec.drift(spec.grid), dtype=float)[:, None]
    return GPPath(t_grid=spec.grid, values=w[:, 0] if n_paths is None else w)


def objective_profile(spec: GPSpec, path: GPPath) -> np.ndarray:
    """Q(t_k) for every grid node, by signed cumulative trapezoid from 0.

    A (G, k) block gives the k profiles as columns.  The work runs along
    the contiguous last axis of a path-major (k, G) buffer, in place, and
    the block's result is the (G, k) transposed view of that buffer.
    """
    t = path.t_grid
    W = path.values.T
    F = ndtr(W, out=np.empty(W.shape))  # standard normal cdf
    Q = np.empty_like(F)
    i0 = spec.zero_index
    # Q[..., j] holds the trapezoid increment over [t_j, t_j+1] for j < i0
    # and over [t_j-1, t_j] for j > i0, so each half accumulates in place
    np.add(F[..., 1:i0 + 1], F[..., :i0], out=Q[..., :i0])
    np.add(F[..., i0 + 1:], F[..., i0:-1], out=Q[..., i0 + 1:])
    Q[..., i0] = 0.0
    Q *= 0.5
    Q *= np.insert(np.diff(t), i0, 1.0)
    right, left = Q[..., i0 + 1:], Q[..., i0 - 1::-1]
    np.cumsum(right, axis=-1, out=right)
    np.cumsum(left, axis=-1, out=left)
    tg = t * spec.gamma
    # -c - tg on the left as (-tg) - c: the same sum, one pass
    np.subtract(-tg[:i0], Q[..., :i0], out=Q[..., :i0])
    np.subtract(Q[..., i0:], tg[i0:], out=Q[..., i0:])
    return Q.T


def end_shift(spec: GPSpec) -> np.ndarray:
    """Column Sigma_{., M} / Sigma_{M, M}: the path response to the endpoint value."""
    K = kernel_matrix(spec)
    return K[:, -1] / K[-1, -1]


def endpoint_decomposition(spec: GPSpec, path: GPPath) -> tuple:
    """Split W into drift + residual + shift * Z with Z = W(M) - m(M).

    The residual is uncorrelated with Z; this is the conditioning device
    that reduces the path functional to a scalar source of randomness.
    It is the endpoint conditioning behind condition (d) for the threshold
    example: given the residual, the gap between two grid points moves with
    Z at a nonzero rate (``endpoint_shift_gap_derivative``).
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

    ValueError unless n_paths >= 1 and the schedule is positive and
    decreases strictly.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be at least 1")
    eps_schedule = tuple(float(e) for e in eps_schedule)
    if not all(e > 0 for e in eps_schedule):
        raise ValueError("eps_schedule entries must be positive")
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
    mults = np.asarray(eps_schedule)[:, None]
    for start in range(0, n_paths, PATH_BLOCK):
        stop = min(start + PATH_BLOCK, n_paths)
        if paths is None:
            block = simulate_path(spec, seed + start, factor,
                                  n_paths=stop - start)
        else:
            block = GPPath(t_grid=paths[start].t_grid,
                           values=np.stack([p.values for p in paths[start:stop]]).T)
        Q = objective_profile(spec, block)
        value_range = Q.max(axis=0) - Q.min(axis=0)
        eps = mults * value_range  # (n_eps, k): one row per multiplier
        ncomp = sublevel_components(Q, eps)
        counts[start:stop] = ncomp.T
        singles += np.sum((ncomp == 1) & (value_range > eps), axis=1)
    fractions = tuple(float(s) / n_paths for s in singles)
    return TrialReport(n_paths=n_paths, eps_schedule=eps_schedule,
                       single_fractions=fractions, component_counts=counts)
