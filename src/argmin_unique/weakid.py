"""Limit objective for weakly identified models and its multiplicity diagnostics.

The model is described by a reduced-form map ``h(beta, pi)`` whose
injectivity in ``pi`` depends on ``beta``.  Near the identification-loss
point ``beta0`` the profiled objective converges to a quadratic form in a
Gaussian vector ``z`` built from the projection onto the columns of
``S(pi) = H^(1/2) [I; h_beta(beta0, pi)]``.  Two rank/injectivity checks
pin down when that limit keeps a unique minimizer; the alignment-equation
root count explains every multiple-minimizer draw.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Optional

import numpy as np
from scipy.optimize import minimize

from .domain import Domain, Objective, as_vector, box
# cluster_minimizers stays a module attribute: bench/layers.py wraps it here
from .globalopt import (ArgminReport, DEFAULT_CONFIG, MultistartConfig,
                        build_report, cluster_minimizers)

DEFAULT_PI_BOUND = 6.0
EIGENVALUE_FLOOR = 1e-12
# odd, with a power of two of gaps, so the middle sample sits exactly on the
# current best point; each refinement round shrinks a bracket eightfold
REFINE_SAMPLES = 17


@dataclass(frozen=True)
class LimitComponents:
    """Pieces of the limit objective at one pi: drift g, frame S, projector P."""

    g: np.ndarray
    S: np.ndarray
    P: np.ndarray


@dataclass(frozen=True)
class WeakIdModel:
    """A weak-identification limit model.

    ``h(beta, pi) -> (d_h,)`` and ``h_beta(beta, pi) -> (d_h, d_beta)``;
    ``h_beta`` may also accept a 1-d array of pi values and return a stacked
    ``(G, d_h, d_beta)`` array, which speeds up profile evaluation.  When
    ``h_beta`` is None it is filled in by central differences of ``h``.
    ``kappa`` is a deterministic offset in pi (None means 0); the z-sampler
    defaults to a standard normal of dimension d_beta + d_h.
    """

    d_beta: int
    d_h: int
    h: Callable
    h_beta: Optional[Callable]
    beta0: tuple
    pi0: float
    b: tuple
    H: tuple
    kappa: Optional[Callable] = None
    pi_domain: Domain = None  # type: ignore[assignment]
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "beta0", tuple(float(v) for v in as_vector(self.beta0)))
        object.__setattr__(self, "b", tuple(float(v) for v in as_vector(self.b)))
        H = np.atleast_2d(np.asarray(self.H, dtype=float))
        object.__setattr__(self, "H", tuple(tuple(r) for r in H))
        if self.pi_domain is None:
            object.__setattr__(self, "pi_domain",
                               Domain(pieces=(box(-DEFAULT_PI_BOUND, DEFAULT_PI_BOUND),)))
        d_z = self.d_beta + self.d_h
        if H.shape != (d_z, d_z):
            raise ValueError("H must be (d_beta + d_h) square")
        if not np.allclose(H, H.T, atol=1e-12):
            raise ValueError("H must be symmetric")
        if np.linalg.eigvalsh(H).min() <= 0:
            raise ValueError("H must be positive definite")
        if len(self.b) != self.d_beta:
            raise ValueError("b must have length d_beta")

    @property
    def d_z(self) -> int:
        return self.d_beta + self.d_h

    @cached_property
    def H_arr(self) -> np.ndarray:
        return np.asarray(self.H)

    @cached_property
    def sqrt_H(self) -> np.ndarray:
        vals, vecs = np.linalg.eigh(self.H_arr)
        vals = np.maximum(vals, EIGENVALUE_FLOOR)
        return (vecs * np.sqrt(vals)) @ vecs.T

    @cached_property
    def _hb_at_pi0(self) -> np.ndarray:
        return self.h_beta_at(self.pi0)

    def h_beta_at(self, pi) -> np.ndarray:
        if self.h_beta is not None:
            return np.atleast_2d(np.asarray(self.h_beta(np.asarray(self.beta0), pi),
                                            dtype=float))
        return _fd_h_beta(self.h, np.asarray(self.beta0), pi, self.d_h)

    def h_beta_stack(self, pis: np.ndarray) -> np.ndarray:
        """(G, d_h, d_beta) stack; uses a vectorized h_beta when it works."""
        pis = np.asarray(pis, dtype=float)
        if self.h_beta is not None:
            try:
                out = np.asarray(self.h_beta(np.asarray(self.beta0), pis), dtype=float)
                if out.shape == (len(pis), self.d_h, self.d_beta):
                    return out
            except (TypeError, ValueError):
                pass
        return np.stack([self.h_beta_at(p) for p in pis])

    def kappa_at(self, pi) -> float:
        return 0.0 if self.kappa is None else float(self.kappa(pi))

    def sample_z(self, rng: np.random.Generator) -> np.ndarray:
        return rng.standard_normal(self.d_z)

    def objective(self) -> Objective:
        def fn(t, z):
            return limit_objective(self, float(t[0]), z)

        def gz(t, z):
            return limit_objective_grad_z(self, float(t[0]), z)

        return Objective(eval=fn, grad_z=gz,
                         admissible_directions=self.pi_domain.admissible_directions)

    def detect(self, z, cfg: MultistartConfig = DEFAULT_CONFIG) -> ArgminReport:
        return profile_report(self, z, cfg=cfg)


def _fd_h_beta(h: Callable, beta0: np.ndarray, pi, d_h: int,
               step: float = 1e-6) -> np.ndarray:
    cols = []
    for k in range(len(beta0)):
        bp, bm = beta0.copy(), beta0.copy()
        bp[k] += step
        bm[k] -= step
        cols.append((as_vector(h(bp, pi)) - as_vector(h(bm, pi))) / (2 * step))
    return np.stack(cols, axis=1).reshape(d_h, len(beta0))


def _frames(model: WeakIdModel, pis) -> tuple:
    """Frames S(pi) (G, d_z, d_beta) and drifts g(pi) (G, d_z) on a 1-d grid.

    S = H^(1/2) [I; h_beta] and g = H^(1/2) [0; (h_beta - h_beta(pi0)) b],
    written with the two column blocks of H^(1/2).
    """
    hbs = model.h_beta_stack(np.asarray(pis, dtype=float).ravel())
    top, bottom = model.sqrt_H[:, :model.d_beta], model.sqrt_H[:, model.d_beta:]
    S = top + bottom @ hbs
    g = ((hbs - model._hb_at_pi0) @ np.asarray(model.b)) @ bottom.T
    return S, g


def limit_components(model: WeakIdModel, pi) -> LimitComponents:
    """g(pi), S(pi) and the projector P(pi) onto the span of S."""
    S, g = _frames(model, [pi])
    S, g = S[0], g[0]
    return LimitComponents(g=g, S=S, P=S @ np.linalg.solve(S.T @ S, S.T))


def limit_objective(model: WeakIdModel, pi, z) -> float:
    """Profiled limit objective at (pi, z): ``profile`` at one point."""
    return float(profile(model, [pi], z)[0])


def limit_objective_grad_z(model: WeakIdModel, pi, z) -> np.ndarray:
    comps = limit_components(model, pi)
    v = model.sqrt_H @ as_vector(z) + comps.g
    return 2.0 * model.sqrt_H @ (comps.g - comps.P @ v)


def profile(model: WeakIdModel, pis, z) -> np.ndarray:
    """Q(pi, z) on a 1-d grid of pi values (batched linear algebra)."""
    pis = np.asarray(pis, dtype=float).ravel()
    S, g = _frames(model, pis)
    Hz = model.sqrt_H @ as_vector(z)
    St = np.swapaxes(S, 1, 2)
    Sv = St @ (Hz + g)[..., None]
    quad = np.einsum("gjk,gjk->g", Sv, np.linalg.solve(St @ S, Sv))
    if model.kappa is None:
        kap = 0.0
    else:
        kap = np.asarray([model.kappa_at(p) for p in pis])
    return 2.0 * g @ Hz - quad + kap


def _grid_dips(values: np.ndarray) -> np.ndarray:
    """Indices of grid values no higher than their neighbours, ends included."""
    dip = np.empty(len(values), dtype=bool)
    dip[1:-1] = (values[1:-1] <= values[:-2]) & (values[1:-1] <= values[2:])
    dip[0] = values[0] <= values[1]
    dip[-1] = values[-1] <= values[-2]
    return np.nonzero(dip)[0]


def _refine_dips(f: Callable, grid: np.ndarray, values: np.ndarray,
                 xtol: float) -> tuple:
    """Minimize f near each dip of ``values`` on a uniform grid, all at once.

    ``f`` maps a 1-d array of points to their values in one batched call.
    Dip i stays in the bracket [grid[i-1], grid[i+1]].  Each round samples
    REFINE_SAMPLES points spanning one half-width on either side of every
    dip's best point so far (one call of ``f`` for all dips) and moves each
    dip to its best sample; the half-width starts at one grid step and
    shrinks to one sample spacing per round until it is at most ``xtol``.
    The best point is itself sampled, so a dip's value never rises above
    its grid value.  Returns (points, values), one per dip.
    """
    i = _grid_dips(values)
    lo = grid[np.maximum(i - 1, 0), None]
    hi = grid[np.minimum(i + 1, len(grid) - 1), None]
    x, fx = grid[i], values[i]
    rows = np.arange(len(i))
    offsets = np.linspace(-1.0, 1.0, REFINE_SAMPLES)
    half = grid[1] - grid[0]
    while half > xtol:
        t = np.clip(x[:, None] + half * offsets, lo, hi)
        v = f(t.ravel()).reshape(t.shape)
        best = np.argmin(v, axis=1)
        x, fx = t[rows, best], v[rows, best]
        half *= 2.0 / (REFINE_SAMPLES - 1)
    return x, fx


def profile_report(model: WeakIdModel, z,
                   cfg: MultistartConfig = DEFAULT_CONFIG) -> ArgminReport:
    """Dense-grid detector for 1-d pi domains: grid dips refined in brackets.

    Deterministic (no randomness: the starts are the grid itself).  The
    grid has cfg.n_starts points per piece, at least 201.  Every dip is
    refined by ``_refine_dips`` to 1e-10 in pi and yields one candidate, so
    the converged fraction is 1.
    """
    z = as_vector(z)
    G = max(cfg.n_starts, 201)
    candidates = []
    for piece in model.pi_domain.pieces:
        pis = np.linspace(piece.lower[0], piece.upper[0], G)
        xs, qs = _refine_dips(lambda p: profile(model, p, z), pis,
                              profile(model, pis, z), xtol=1e-10)
        candidates += [(np.array([x]), float(q)) for x, q in zip(xs, qs)]
    return build_report(candidates, 1.0, model.pi_domain.diameter(), cfg)


@dataclass(frozen=True)
class RankConditionReport:
    """Numerical rank of h_beta differences across pi pairs."""

    passed: bool
    rank_required: int
    n_pairs: int
    min_rank: int
    failures: tuple  # (pi1, pi2, rank), truncated

    def to_dict(self) -> dict:
        return {"passed": self.passed, "rank_required": self.rank_required,
                "n_pairs": self.n_pairs, "min_rank": self.min_rank,
                "failures": [list(f) for f in self.failures]}


def check_rank_condition(model: WeakIdModel, pi_grid,
                         rel_threshold: float = 1e-8,
                         max_failures: int = 50) -> RankConditionReport:
    """PASS iff rank(h_beta(beta0, pi1) - h_beta(beta0, pi2)) = d_h for all pairs.

    The singular-value cutoff is relative to the scale of the derivative
    family over the grid, so an exactly-cancelling pair reports rank 0.
    """
    pis = np.asarray(pi_grid, dtype=float).ravel()
    hbs = model.h_beta_stack(pis)
    scale = max(float(np.max(np.abs(hbs))), 1.0)
    failures = []
    min_rank = model.d_h
    n_pairs = 0
    for i in range(len(pis)):
        for j in range(i + 1, len(pis)):
            n_pairs += 1
            diff = hbs[i] - hbs[j]
            svals = np.linalg.svd(diff, compute_uv=False)
            rank = int(np.sum(svals > rel_threshold * scale))
            if rank < model.d_h:
                min_rank = min(min_rank, rank)
                if len(failures) < max_failures:
                    failures.append((float(pis[i]), float(pis[j]), rank))
    return RankConditionReport(passed=not failures, rank_required=model.d_h,
                               n_pairs=n_pairs, min_rank=min_rank,
                               failures=tuple(failures))


@dataclass(frozen=True)
class InjectivityReport:
    """Fraction of sampled beta for which pi -> h(beta,.) - h(beta0,.) folds."""

    passed: bool
    flagged_fraction: float
    n_beta: int
    fail_tolerance: float
    examples: tuple  # flagged beta vectors, truncated

    def to_dict(self) -> dict:
        return {"passed": self.passed, "flagged_fraction": self.flagged_fraction,
                "n_beta": self.n_beta, "fail_tolerance": self.fail_tolerance,
                "examples": [list(e) for e in self.examples]}


def _min_collision(model: WeakIdModel, beta: np.ndarray, pis: np.ndarray,
                   separation: float) -> float:
    """Smallest sup-norm gap between map values at pi points kept apart."""
    beta0 = np.asarray(model.beta0)
    vals = np.asarray([as_vector(model.h(beta, p)) - as_vector(model.h(beta0, p))
                       for p in pis])
    diff = np.abs(vals[:, None, :] - vals[None, :, :]).max(axis=2)
    sep = np.abs(pis[:, None] - pis[None, :])
    diff[sep <= separation] = np.inf
    i, j = np.unravel_index(np.argmin(diff), diff.shape)
    if not np.isfinite(diff[i, j]):
        return np.inf
    lo = float(pis.min())
    hi = float(pis.max())

    def gap(x):
        p1, p2 = float(x[0]), float(x[1])
        if not (lo <= p1 <= hi and lo <= p2 <= hi):
            return 1e6
        if abs(p1 - p2) <= separation:
            return 1e6
        v1 = as_vector(model.h(beta, p1)) - as_vector(model.h(beta0, p1))
        v2 = as_vector(model.h(beta, p2)) - as_vector(model.h(beta0, p2))
        return float(np.max(np.abs(v1 - v2)))

    res = minimize(gap, x0=[pis[i], pis[j]], method="Nelder-Mead",
                   options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 400})
    return min(float(diff[i, j]), float(res.fun))


def check_injectivity_condition(model: WeakIdModel, n_beta: int = 100,
                                radius: float = 0.5, grid_size: int = 241,
                                seed: int = 0, separation: float = 0.05,
                                collision_tol: float = 1e-8,
                                fail_tolerance: float = 0.05,
                                max_examples: int = 10) -> InjectivityReport:
    """PASS iff pi -> h(beta, pi) - h(beta0, pi) stays injective for sampled beta.

    beta is drawn from a ball around beta0 (excluding beta0 itself); a draw
    is flagged when two pi values farther apart than ``separation`` map
    within ``collision_tol`` of each other after local refinement.
    """
    rng = np.random.default_rng(seed)
    beta0 = np.asarray(model.beta0)
    pieces = model.pi_domain.pieces
    pis = np.concatenate([np.linspace(p.lower[0], p.upper[0], grid_size)
                          for p in pieces])
    flagged = 0
    examples = []
    for _ in range(n_beta):
        direction = rng.standard_normal(model.d_beta)
        direction /= np.linalg.norm(direction)
        r = radius * rng.uniform(0.1, 1.0)  # excludes beta0
        beta = beta0 + r * direction
        scale = 1.0 + max(abs(v) for v in (beta - beta0))
        if _min_collision(model, beta, pis, separation) <= collision_tol * scale:
            flagged += 1
            if len(examples) < max_examples:
                examples.append(tuple(beta))
    frac = flagged / n_beta
    return InjectivityReport(passed=frac <= fail_tolerance,
                             flagged_fraction=frac, n_beta=n_beta,
                             fail_tolerance=fail_tolerance,
                             examples=tuple(examples))


def find_alignment_roots(model: WeakIdModel, z, grid_size: int = 2001,
                         root_tol: float = 1e-8,
                         separation: float = 1e-3) -> tuple:
    """Well-separated pi solutions of the alignment equation.

    The equation is h_beta(beta0, pi) (z1 - b) = z2 - h_beta(beta0, pi0) b.
    The count of these roots is the mechanism behind multiple-minimizer
    draws: each root is a pi where the projected residual vanishes exactly.
    """
    z = as_vector(z)
    scale = 1.0 + float(np.linalg.norm(z))
    b = np.asarray(model.b)
    coef = z[:model.d_beta] - b
    target = z[model.d_beta:] - model._hb_at_pi0 @ b

    def squared(pis):
        r = model.h_beta_stack(pis) @ coef - target
        return np.einsum("gi,gi->g", r, r)

    roots = []
    for piece in model.pi_domain.pieces:
        pis = np.linspace(piece.lower[0], piece.upper[0], grid_size)
        xs, sq = _refine_dips(squared, pis, squared(pis), xtol=1e-12)
        roots += [float(x) for x, v in zip(xs, sq)
                  if np.sqrt(max(float(v), 0.0)) <= root_tol * scale]
    roots.sort()
    merged = []
    for r in roots:
        if not merged or r - merged[-1] > separation:
            merged.append(r)
    return tuple(merged)


def count_alignment_roots(model: WeakIdModel, z, **kwargs) -> int:
    return len(find_alignment_roots(model, z, **kwargs))


def make_example1(b=(0.0, 0.0), H=None, kappa=None,
                  pi_bound: float = DEFAULT_PI_BOUND) -> WeakIdModel:
    """Built-in model 1: h(beta, pi) = beta1 pi + beta2 pi^2 (scalar output).

    The quadratic folds in pi, so the injectivity condition fails and the
    limit objective has two minimizers with positive probability.
    """
    if H is None:
        H = np.eye(3)

    def h(beta, pi):
        return np.array([beta[0] * pi + beta[1] * pi ** 2])

    def h_beta(beta, pi):
        pi = np.asarray(pi, dtype=float)
        return np.stack([pi, pi ** 2], -1)[..., None, :]

    return WeakIdModel(d_beta=2, d_h=1, h=h, h_beta=h_beta,
                       beta0=(0.0, 0.0), pi0=0.0, b=tuple(b), H=H,
                       kappa=kappa,
                       pi_domain=Domain(pieces=(box(-pi_bound, pi_bound),)),
                       name="example1")


def make_example2(b=(0.0,), H=None, kappa=None,
                  pi_bound: float = DEFAULT_PI_BOUND) -> WeakIdModel:
    """Built-in model 2: h(beta, pi) = [beta (pi + pi^2); beta^2 pi].

    The derivative in beta kills the informative second component at
    beta0 = 0, so the rank condition fails whenever pi1 + pi1^2 = pi2 + pi2^2.
    """
    if H is None:
        H = np.eye(3)

    def h(beta, pi):
        be = float(np.atleast_1d(beta)[0])
        return np.array([be * (pi + pi ** 2), be ** 2 * pi])

    def h_beta(beta, pi):
        pi = np.asarray(pi, dtype=float)
        return np.stack([pi + pi ** 2, np.zeros_like(pi)], -1)[..., None]

    return WeakIdModel(d_beta=1, d_h=2, h=h, h_beta=h_beta,
                       beta0=(0.0,), pi0=0.0, b=tuple(b), H=H,
                       kappa=kappa,
                       pi_domain=Domain(pieces=(box(-pi_bound, pi_bound),)),
                       name="example2")


def with_pi_bound(model: WeakIdModel, bound: float) -> WeakIdModel:
    """Same model on a wider/narrower symmetric pi interval."""
    return replace(model, pi_domain=Domain(pieces=(box(-bound, bound),)))
