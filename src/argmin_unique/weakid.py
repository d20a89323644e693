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
from .errors import SingularDesign
# cluster_minimizers stays a module attribute: bench/layers.py wraps it here
from .globalopt import (ArgminReport, DEFAULT_CONFIG, MultistartConfig,
                        build_report, cluster_minimizers)

DEFAULT_PI_BOUND = 6.0
EIGENVALUE_FLOOR = 1e-12


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

    @cached_property
    def _b_is_zero(self) -> bool:
        return not np.any(np.asarray(self.b))

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


def _solve_small(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve gram @ x = rhs for tiny symmetric positive definite systems."""
    n = gram.shape[0]
    if n == 1:
        if gram[0, 0] == 0.0:
            raise SingularDesign("S'S singular")
        return rhs / gram[0, 0]
    if n == 2:
        det = gram[0, 0] * gram[1, 1] - gram[0, 1] * gram[1, 0]
        if det == 0.0:
            raise SingularDesign("S'S singular")
        return np.array([
            (gram[1, 1] * rhs[0] - gram[0, 1] * rhs[1]) / det,
            (gram[0, 0] * rhs[1] - gram[1, 0] * rhs[0]) / det,
        ])
    try:
        return np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError as exc:  # unreachable: identity block keeps rank
        raise SingularDesign("S'S singular") from exc


def _frame_and_drift(model: WeakIdModel, pi) -> tuple:
    """(S, g) at one pi without forming the projector."""
    hb = model.h_beta_at(pi)
    T = np.empty((model.d_z, model.d_beta))
    T[:model.d_beta] = np.eye(model.d_beta)
    T[model.d_beta:] = hb
    S = model.sqrt_H @ T
    if model._b_is_zero:
        g = np.zeros(model.d_z)
    else:
        gv = np.zeros(model.d_z)
        gv[model.d_beta:] = (hb - model._hb_at_pi0) @ np.asarray(model.b)
        g = model.sqrt_H @ gv
    return S, g


def limit_components(model: WeakIdModel, pi) -> LimitComponents:
    """g(pi), S(pi) and the projector P(pi) onto the span of S."""
    S, g = _frame_and_drift(model, pi)
    gram = S.T @ S
    try:
        gram_inv = np.linalg.inv(gram)
    except np.linalg.LinAlgError as exc:  # unreachable: identity block keeps rank
        raise SingularDesign("S'S singular") from exc
    P = S @ gram_inv @ S.T
    return LimitComponents(g=g, S=S, P=P)


def limit_objective(model: WeakIdModel, pi, z) -> float:
    """Profiled limit objective at (pi, z)."""
    S, g = _frame_and_drift(model, pi)
    Hz = model.sqrt_H @ np.asarray(z, dtype=float)
    v = Hz + g
    Sv = S.T @ v
    quad = float(Sv @ _solve_small(S.T @ S, Sv))
    lin = 0.0 if model._b_is_zero else 2.0 * float(Hz @ g)
    return lin - quad + model.kappa_at(pi)


def limit_objective_grad_z(model: WeakIdModel, pi, z) -> np.ndarray:
    S, g = _frame_and_drift(model, pi)
    v = model.sqrt_H @ as_vector(z) + g
    Pv = S @ _solve_small(S.T @ S, S.T @ v)
    return 2.0 * model.sqrt_H @ (g - Pv)


def profile(model: WeakIdModel, pis, z) -> np.ndarray:
    """Q(pi, z) on a 1-d grid of pi values (batched linear algebra)."""
    pis = np.asarray(pis, dtype=float).ravel()
    G = len(pis)
    hbs = model.h_beta_stack(pis)                       # (G, d_h, d_beta)
    hb0 = model._hb_at_pi0
    b = np.asarray(model.b)
    sqH = model.sqrt_H
    eye = np.broadcast_to(np.eye(model.d_beta), (G, model.d_beta, model.d_beta))
    T = np.concatenate([np.array(eye), hbs], axis=1)    # (G, d_z, d_beta)
    S = np.einsum("ij,gjk->gik", sqH, T)
    gvec = np.concatenate([np.zeros((G, model.d_beta)),
                           np.einsum("gij,j->gi", hbs - hb0[None], b)], axis=1)
    g = np.einsum("ij,gj->gi", sqH, gvec)
    gram = np.einsum("gij,gik->gjk", S, S)
    gram_inv = np.linalg.inv(gram)
    Hz = sqH @ as_vector(z)
    v = Hz[None, :] + g
    Sv = np.einsum("gij,gi->gj", S, v)
    quad = np.einsum("gj,gjk,gk->g", Sv, gram_inv, Sv)
    lin = 2.0 * g @ Hz
    if model.kappa is None:
        kap = 0.0
    else:
        kap = np.asarray([model.kappa_at(p) for p in pis])
    return lin - quad + kap


def profile_report(model: WeakIdModel, z, grid_size: Optional[int] = None,
                   cfg: MultistartConfig = DEFAULT_CONFIG) -> ArgminReport:
    """Dense-grid detector for 1-d pi domains: grid dips polished locally.

    Deterministic (no randomness: the starts are the grid itself).  The
    grid defaults to cfg.n_starts points per piece, at least 201.
    """
    z = as_vector(z)
    G = grid_size if grid_size is not None else max(cfg.n_starts, 201)
    candidates = []
    n_polished = n_ok = 0
    for piece in model.pi_domain.pieces:
        lo, hi = piece.lower[0], piece.upper[0]
        pis = np.linspace(lo, hi, G)
        q = profile(model, pis, z)
        interior = np.zeros(G, dtype=bool)
        interior[1:-1] = (q[1:-1] <= q[:-2]) & (q[1:-1] <= q[2:])
        interior[0] = q[0] <= q[1]
        interior[-1] = q[-1] <= q[-2]
        for i in np.nonzero(interior)[0]:
            res = minimize(lambda p: limit_objective(model, float(p[0]), z),
                           x0=[pis[i]], method="Nelder-Mead",
                           bounds=[(lo, hi)],
                           options={"xatol": 1e-10, "fatol": 1e-13,
                                    "maxiter": cfg.max_iters})
            n_polished += 1
            n_ok += bool(res.success)
            candidates.append((np.array([float(res.x[0])]), float(res.fun)))
    return build_report(candidates, n_ok / max(1, n_polished),
                        model.pi_domain.diameter(), cfg)


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


def alignment_residual(model: WeakIdModel, pi, z) -> np.ndarray:
    """Residual of h_beta(beta0, pi) (z1 - b) = z2 - h_beta(beta0, pi0) b."""
    z = as_vector(z)
    z1, z2 = z[:model.d_beta], z[model.d_beta:]
    hb = model.h_beta_at(pi)
    b = np.asarray(model.b)
    return hb @ (z1 - b) - (z2 - model._hb_at_pi0 @ b)


def find_alignment_roots(model: WeakIdModel, z, grid_size: int = 2001,
                         root_tol: float = 1e-8,
                         separation: float = 1e-3) -> tuple:
    """Well-separated pi solutions of the alignment equation.

    The count of these roots is the mechanism behind multiple-minimizer
    draws: each root is a pi where the projected residual vanishes exactly.
    """
    z = as_vector(z)
    scale = 1.0 + float(np.linalg.norm(z))
    b = np.asarray(model.b)
    target = z[model.d_beta:] - model._hb_at_pi0 @ b

    def squared(p):
        r = alignment_residual(model, float(p[0]), z)
        return float(r @ r)

    roots = []
    for piece in model.pi_domain.pieces:
        lo, hi = piece.lower[0], piece.upper[0]
        pis = np.linspace(lo, hi, grid_size)
        hbs = model.h_beta_stack(pis)
        res = hbs @ (z[:model.d_beta] - b) - target[None, :]
        sq = np.einsum("gi,gi->g", res, res)
        cand = np.zeros(grid_size, dtype=bool)
        cand[1:-1] = (sq[1:-1] <= sq[:-2]) & (sq[1:-1] <= sq[2:])
        cand[0] = sq[0] <= sq[1]
        cand[-1] = sq[-1] <= sq[-2]
        for i in np.nonzero(cand)[0]:
            r = minimize(squared, x0=[pis[i]], method="Nelder-Mead",
                         bounds=[(lo, hi)],
                         options={"xatol": 1e-12, "fatol": 1e-16, "maxiter": 400})
            if np.sqrt(max(float(r.fun), 0.0)) <= root_tol * scale:
                roots.append(float(r.x[0]))
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
        if pi.ndim == 0:
            return np.array([[float(pi), float(pi) ** 2]])
        return np.stack([pi, pi ** 2], axis=-1)[:, None, :]

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
        if pi.ndim == 0:
            return np.array([[float(pi) + float(pi) ** 2], [0.0]])
        zero = np.zeros_like(pi)
        return np.stack([pi + pi ** 2, zero], axis=-1)[..., None]

    return WeakIdModel(d_beta=1, d_h=2, h=h, h_beta=h_beta,
                       beta0=(0.0,), pi0=0.0, b=tuple(b), H=H,
                       kappa=kappa,
                       pi_domain=Domain(pieces=(box(-pi_bound, pi_bound),)),
                       name="example2")


def with_pi_bound(model: WeakIdModel, bound: float) -> WeakIdModel:
    """Same model on a wider/narrower symmetric pi interval."""
    return replace(model, pi_domain=Domain(pieces=(box(-bound, bound),)))
