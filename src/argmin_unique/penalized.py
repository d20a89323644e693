"""Penalized least squares with sparsity-inducing (possibly nonconvex) penalties.

Supported penalties are coordinate-separable: subset-count (l0), bridge
|b|^q with q in (0,1), smoothly clipped absolute deviation (scad), and the
minimax concave penalty (mcp).  The parameter space is partitioned into
pieces on which the penalty is continuous: 2^d zero/nonzero pieces for the
discontinuous or kinked penalties, a single box for scad/mcp.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
import numpy as np

from .domain import DEFAULT_MARGIN, Box, Domain, Objective, as_vector
from .errors import ExplicitBound
# cluster_minimizers stays a module attribute: bench/layers.py wraps it here
from .globalopt import (ArgminReport, DEFAULT_CONFIG, MultistartConfig,
                        _sobol_starts, cluster_minimizers, decide,
                        lbfgsb_descend, multistart_minimize)

PENALTY_KINDS = ("l0", "bridge", "scad", "mcp")
ENUMERATION_CAP = 20
DEFAULT_RADIUS = 10.0


@dataclass(frozen=True)
class PenaltySpec:
    """One of the supported penalties with its tuning constants."""

    kind: str
    lam: float
    q: float = 0.5       # bridge exponent
    a: float = 3.7       # scad knee
    gamma: float = 3.0   # mcp concavity

    def __post_init__(self):
        if self.kind not in PENALTY_KINDS:
            raise ValueError(f"kind must be one of {PENALTY_KINDS}")
        if not self.lam > 0:
            raise ValueError("lam must be positive")
        if not np.all(np.isfinite([self.lam, self.q, self.a, self.gamma])):
            raise ValueError("lam, q, a and gamma must be finite")
        if self.kind == "bridge" and not 0 < self.q < 1:
            raise ValueError("bridge exponent q must lie in (0, 1)")
        if self.kind == "scad" and not self.a > 2:
            raise ValueError("scad requires a > 2")
        if self.kind == "mcp" and not self.gamma > 1:
            raise ValueError("mcp requires gamma > 1")

    @property
    def separable_smooth(self) -> bool:
        return self.kind in ("scad", "mcp")


def penalty_terms(spec: PenaltySpec, t: np.ndarray) -> tuple:
    """(rho(t), rho'(t)) elementwise at t = |beta_k| >= 0.

    The slope is the right derivative: lam at 0 for scad and mcp, 0 for l0
    (constant off zero) and +inf for bridge at 0.
    """
    lam = spec.lam
    if spec.kind == "l0":
        return np.where(t > 0, lam, 0.0), np.zeros_like(t)
    if spec.kind == "bridge":
        with np.errstate(divide="ignore"):
            return lam * t ** spec.q, lam * spec.q * t ** (spec.q - 1.0)
    if spec.kind == "scad":
        a = spec.a
        inner = t <= lam
        mid = t <= a * lam
        rho = np.where(inner, lam * t,
                       np.where(mid, (2 * a * lam * t - t * t - lam * lam)
                                / (2 * (a - 1)), (a + 1) * lam * lam / 2))
        slope = np.where(inner, lam, np.maximum(a * lam - t, 0.0) / (a - 1))
        return rho, slope
    g = spec.gamma
    inner = t <= g * lam
    rho = np.where(inner, lam * t - t * t / (2 * g), g * lam * lam / 2)
    return rho, np.maximum(lam - t / g, 0.0)


def penalty_value(spec: PenaltySpec, beta) -> float:
    """Separable penalty sum_k rho(|beta_k|); zero at beta = 0."""
    b = as_vector(beta)
    if spec.kind == "l0":
        return spec.lam * float(np.count_nonzero(b))
    return float(np.sum(penalty_terms(spec, np.abs(b))[0]))


@dataclass(frozen=True)
class RegressionData:
    """Response and full-column-rank design."""

    y: tuple
    x: tuple  # row-major n x d

    def __post_init__(self):
        y = np.atleast_1d(np.asarray(self.y, dtype=float))
        X = np.atleast_2d(np.asarray(self.x, dtype=float))
        object.__setattr__(self, "y", tuple(y))
        object.__setattr__(self, "x", tuple(tuple(r) for r in X))
        if X.shape[0] != len(y):
            raise ValueError("row count of x must match length of y")
        if X.shape[1] < 1:
            raise ValueError("x must have at least one column")
        if X.shape[0] < X.shape[1]:
            raise ValueError("need n >= d")
        s = np.linalg.svd(X, compute_uv=False)
        if s[-1] <= 1e-10 * s[0]:
            raise ValueError("design matrix is rank deficient")

    @property
    def n(self) -> int:
        return len(self.y)

    @property
    def d(self) -> int:
        return len(self.x[0])

    @cached_property
    def y_arr(self) -> np.ndarray:
        return np.asarray(self.y)

    @cached_property
    def x_arr(self) -> np.ndarray:
        return np.asarray(self.x)


def penalized_objective(spec: PenaltySpec, data: RegressionData, beta) -> float:
    """0.5 ||y - X beta||^2 + penalty(beta)."""
    b = np.atleast_1d(np.asarray(beta, dtype=float))
    resid = data.y_arr - data.x_arr @ b
    return 0.5 * float(resid @ resid) + penalty_value(spec, b)


def regression_objective(spec: PenaltySpec, data: RegressionData) -> Objective:
    """Objective in (beta, y): the design stays fixed, y is the random input."""
    X = data.x_arr

    def fn(beta, y):
        resid = y - X @ beta
        return 0.5 * float(resid @ resid) + penalty_value(spec, beta)

    def gz(beta, y):
        return y - X @ beta

    dom = partition_domain(spec, data.d)
    return Objective(eval=fn, grad_z=gz,
                     admissible_directions=dom.admissible_directions)


def check_enumeration_cap(d: int) -> None:
    """Raise ExplicitBound when 2^d supports exceed the enumeration cap."""
    if d > ENUMERATION_CAP:
        raise ExplicitBound(f"2^{d} supports exceed the d <= {ENUMERATION_CAP} cap")


def partition_domain(spec: PenaltySpec, d: int) -> Domain:
    """Pieces on which the penalty is continuous.

    l0/bridge: 2^d pieces, piece p holding support mask p (zeros pinned by
    equality constraints, the rest kept off zero).  scad/mcp: one box.  The
    detectors work per support mask on the one box; only
    ``regression_objective``'s admissible directions and the multistart
    cross-check build the 2^d pieces.
    """
    if d < 1:
        raise ValueError("d must be positive")
    if not spec.separable_smooth:
        check_enumeration_cap(d)
    return _partition(spec.separable_smooth, d)


@lru_cache(maxsize=16)
def _partition(one_box: bool, d: int) -> Domain:
    """Build a partition once per shape; its immutable pieces also keep
    their cached constraint bases across calls."""
    lower = tuple([-DEFAULT_RADIUS] * d)
    upper = tuple([DEFAULT_RADIUS] * d)
    if one_box:
        return Domain(pieces=(Box(lower=lower, upper=upper),))
    pieces = []
    for mask in range(2 ** d):
        support = tuple(k for k in range(d) if mask >> k & 1)
        zeros = tuple(k for k in range(d) if k not in support)
        eq = tuple((tuple(1.0 if i == k else 0.0 for i in range(d)), 0.0)
                   for k in zeros)
        pieces.append(Box(lower=lower, upper=upper, eq_constraints=eq,
                          nonzero=support))
    return Domain(pieces=tuple(pieces))


def enumerate_best_subsets(spec: PenaltySpec, data: RegressionData) -> list:
    """Exact per-support least squares for the l0 penalty.

    Returns (beta, value) for every support, value = 0.5||resid||^2 + lam |S|.
    """
    if spec.kind != "l0":
        raise ValueError("enumeration applies to the l0 penalty")
    d = data.d
    check_enumeration_cap(d)
    X, y = data.x_arr, data.y_arr
    out = []
    for mask in range(2 ** d):
        support = [k for k in range(d) if mask >> k & 1]
        beta = np.zeros(d)
        if support:
            sol, *_ = np.linalg.lstsq(X[:, support], y, rcond=None)
            beta[support] = sol
        resid = y - X @ beta
        value = 0.5 * float(resid @ resid) + spec.lam * len(support)
        out.append((beta, value))
    return out


def support_objective(spec: PenaltySpec, X_S: np.ndarray, y: np.ndarray,
                      sign: np.ndarray):
    """Value and gradient of 0.5||y - X_S b||^2 + sum_k rho(|b_k|).

    Valid inside the sign orthant ``sign * b > 0``, where |b| = sign * b and
    the objective is smooth.
    """

    def fun_and_grad(b):
        r = y - X_S @ b
        rho, slope = penalty_terms(spec, sign * b)
        return 0.5 * float(r @ r) + float(np.sum(rho)), sign * slope - X_S.T @ r

    return fun_and_grad


def _orthant_descent(spec: PenaltySpec, X_S: np.ndarray, y: np.ndarray,
                     b0: np.ndarray, cfg: MultistartConfig) -> tuple:
    """L-BFGS-B inside the sign orthant of b0, kept DEFAULT_MARGIN off zero."""
    sign = np.where(b0 < 0, -1.0, 1.0)
    lo = np.where(sign > 0, DEFAULT_MARGIN, -DEFAULT_RADIUS)
    hi = np.where(sign > 0, DEFAULT_RADIUS, -DEFAULT_MARGIN)
    return lbfgsb_descend(support_objective(spec, X_S, y, sign),
                          np.clip(b0, lo, hi), list(zip(lo, hi)), cfg)


def _support_route(spec: PenaltySpec, data: RegressionData,
                   cfg: MultistartConfig) -> ArgminReport:
    """Per-support L-BFGS-B for bridge, scad and mcp.

    Each nonempty support S, by its mask, starts from its least-squares
    fit, moved into that fit's sign orthant, and from Sobol starts on the
    whole box read on S.  Bridge draws n_starts // 2^d starts per mask,
    keyed (seed, mask), the key of partition piece mask; scad/mcp draw all
    n_starts for the full support, keyed (seed, 0) like their one piece.
    b = 0 is a candidate too.  Reported values are the objective at the
    reported point.  No partition piece is built: ``partition_domain``'s
    pieces serve only ``regression_objective`` and the multistart.
    """
    d = data.d
    X, y = data.x_arr, data.y_arr
    whole = _partition(True, d)
    piece, full = whole.pieces[0], 2 ** d - 1
    results = [(np.zeros(d), 0.5 * float(y @ y), True)]
    for mask in range(1, full + 1):
        if not spec.separable_smooth:
            extra = _sobol_starts(piece, max(1, cfg.n_starts // 2 ** d),
                                  (cfg.seed, mask))
        elif mask == full:
            extra = _sobol_starts(piece, cfg.n_starts, (cfg.seed, 0))
        else:
            extra = []
        cols = [k for k in range(d) if mask >> k & 1]
        X_S = X[:, cols]
        ls = np.linalg.lstsq(X_S, y, rcond=None)[0]
        for b0 in [ls] + [t0[cols] for t0 in extra]:
            b_S, value, ok = _orthant_descent(spec, X_S, y, b0, cfg)
            beta = np.zeros(d)
            beta[cols] = b_S
            results.append((beta, value, ok))
    return decide(results, whole, cfg)


def global_minimize(spec: PenaltySpec, data: RegressionData,
                    cfg: MultistartConfig = DEFAULT_CONFIG) -> ArgminReport:
    """Global minimum report: exact enumeration for l0, per support otherwise.

    Both routes run over every support, so d above ENUMERATION_CAP raises
    ExplicitBound.
    """
    check_enumeration_cap(data.d)
    if spec.kind == "l0":
        return decide([(beta, value, True) for beta, value
                       in enumerate_best_subsets(spec, data)],
                      _partition(True, data.d), cfg)
    return _support_route(spec, data, cfg)


def multistart_global_minimize(spec: PenaltySpec, data: RegressionData,
                               cfg: MultistartConfig = DEFAULT_CONFIG
                               ) -> ArgminReport:
    """Multistart route for any penalty (the l0 cross-check of enumeration)."""
    obj = regression_objective(spec, data)
    return multistart_minimize(obj, partition_domain(spec, data.d),
                               data.y_arr, cfg)


@dataclass(frozen=True)
class PenalizedModel:
    """y ~ N(X beta0, I) draws fed to the global-minimum detector."""

    spec: PenaltySpec
    x: tuple
    beta0: tuple

    @cached_property
    def data_template(self) -> np.ndarray:
        return np.asarray(self.x)

    def sample_z(self, rng: np.random.Generator) -> np.ndarray:
        X = self.data_template
        return X @ np.asarray(self.beta0) + rng.standard_normal(X.shape[0])

    def detect(self, z, cfg: MultistartConfig) -> ArgminReport:
        data = RegressionData(y=tuple(z), x=self.x)
        return global_minimize(self.spec, data, cfg)
