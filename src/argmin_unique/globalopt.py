"""Global minimizer detection: multistart search, clustering, verdicts.

The detector never certifies anything: it reports the set of near-optimal
clusters it found at explicit value / distance tolerances, and a verdict
("unique", "multiple", "inconclusive") that is the finite-precision
analogue of argmin uniqueness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Protocol, Sequence

import numpy as np
from scipy.optimize import minimize

from .domain import Box, Domain, Objective, as_vector, eval_objective


@dataclass(frozen=True)
class MultistartConfig:
    """Settings for the multistart detector.

    ``eps_value`` / ``delta_cluster`` default to scale-aware values
    (1e-6 * (1 + |best|) and 1e-3 * domain diameter) when None.
    """

    n_starts: int = 200
    seed: int = 0
    local_tol: float = 1e-10
    max_iters: int = 400
    eps_value: Optional[float] = None
    delta_cluster: Optional[float] = None

    def __post_init__(self):
        if self.n_starts < 1:
            raise ValueError("n_starts must be at least 1")


DEFAULT_CONFIG = MultistartConfig()


@dataclass(frozen=True)
class Cluster:
    representative: tuple
    value: float
    hits: int

    def to_dict(self) -> dict:
        return {"representative": list(self.representative),
                "value": self.value, "hits": self.hits}


@dataclass(frozen=True)
class ArgminReport:
    """Clustered near-optimal points plus the tolerances that produced them."""

    global_value: float
    clusters: tuple
    eps_value: float
    delta_cluster: float
    verdict: str  # "unique" | "multiple" | "inconclusive"
    converged_fraction: float

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    def to_dict(self) -> dict:
        return {
            "global_value": self.global_value,
            "clusters": [c.to_dict() for c in self.clusters],
            "eps_value": self.eps_value,
            "delta_cluster": self.delta_cluster,
            "verdict": self.verdict,
            "n_clusters": self.n_clusters,
            "converged_fraction": self.converged_fraction,
        }


def cluster_minimizers(points: Sequence, eps_value: float,
                       delta_cluster: float) -> list:
    """Single-linkage clusters of the points within eps_value of the best.

    ``points`` is a sequence of (t, value) pairs.  Chaining applies: points
    linked through neighbors closer than delta_cluster share a cluster.
    """
    if not points:
        raise ValueError("points must be nonempty")
    pts = [(as_vector(t), float(v)) for t, v in points]
    best = min(v for _, v in pts)
    near = [(t, v) for t, v in pts if v <= best + eps_value]
    n = len(near)
    coords = np.asarray([t for t, _ in near])
    # union-find over the delta_cluster graph
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if np.linalg.norm(coords[i] - coords[j]) <= delta_cluster:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
    groups: dict = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    clusters = []
    for members in groups.values():
        rep_i = min(members, key=lambda i: (near[i][1], tuple(near[i][0])))
        clusters.append(Cluster(representative=tuple(near[rep_i][0]),
                                value=near[rep_i][1], hits=len(members)))
    clusters.sort(key=lambda c: (c.value, c.representative))
    return clusters


def build_report(points: Sequence, converged_fraction: float, diameter: float,
                 cfg: MultistartConfig) -> ArgminReport:
    """Cluster candidate (t, value) points into an ArgminReport.

    Tolerances come from cfg, else 1e-6 * (1 + |best|) for values and
    1e-3 * diameter for distances.  The verdict is "inconclusive" when
    fewer than half of the local searches converged (or there are no
    points), otherwise "unique" for a single cluster and "multiple" beyond.
    """
    if not points:
        return ArgminReport(global_value=float("nan"), clusters=(),
                            eps_value=float("nan"), delta_cluster=float("nan"),
                            verdict="inconclusive", converged_fraction=0.0)
    best = min(v for _, v in points)
    eps = cfg.eps_value if cfg.eps_value is not None else 1e-6 * (1 + abs(best))
    delta = (cfg.delta_cluster if cfg.delta_cluster is not None
             else 1e-3 * diameter)
    clusters = cluster_minimizers(points, eps, delta)
    if converged_fraction < 0.5:
        verdict = "inconclusive"
    else:
        verdict = "unique" if len(clusters) == 1 else "multiple"
    return ArgminReport(global_value=best, clusters=tuple(clusters),
                        eps_value=eps, delta_cluster=delta, verdict=verdict,
                        converged_fraction=converged_fraction)


def seed_key(*parts) -> tuple:
    """Non-negative entropy tuple for SeedSequence (negative seeds wrap)."""
    return tuple(int(p) & 0xFFFFFFFFFFFFFFFF for p in parts)


def _sobol_starts(piece: Box, n: int, key: tuple) -> list:
    """Deterministic stratified starts inside a piece (repaired if constrained)."""
    if piece.intrinsic_dim == 0:
        return [piece.anchor]
    # imported here: scipy.stats adds about 20 MB to every process that
    # imports the package, and only the multistart needs it
    from scipy.stats import qmc

    rng = np.random.default_rng(np.random.SeedSequence(seed_key(*key)))
    sampler = qmc.Sobol(d=piece.dim, scramble=True, seed=rng)
    unit = sampler.random(int(2 ** np.ceil(np.log2(max(n, 1)))))[:n]
    span = piece.upper_arr - piece.lower_arr
    starts = []
    for row in unit:
        t = piece.lower_arr + row * span
        t = piece.repair(t)
        if t is not None:
            starts.append(t)
    if not starts:
        fallback = piece.repair(piece.anchor)
        if fallback is not None:
            starts.append(fallback)
    return starts


def _penalized(fn: Callable, piece: Box, z: np.ndarray) -> Callable:
    """Objective in intrinsic coordinates with a finite infeasibility penalty."""

    def wrapped(u):
        t = piece.from_intrinsic(u)
        v = piece.violation(t)
        value = fn(piece.clip(t), z)
        if v > 0:
            return value + 1e3 * v + 1e6 * v * v
        return value

    return wrapped


def _descend(obj: Objective, piece: Box, z: np.ndarray, t_start: np.ndarray,
             cfg: MultistartConfig) -> tuple:
    """Simplex descent plus a derivative polish; returns (t, value, ok)."""
    if piece.intrinsic_dim == 0:
        v = eval_objective(obj, t_start, z)
        return t_start, v, True
    plain_box = (not piece.eq_constraints and not piece.order_constraints
                 and not piece.nonzero)
    if plain_box:
        # bounds alone keep iterates feasible; skip the coordinate change
        raw = obj.eval

        def fn(u):
            return raw(u, z)

        u0 = np.asarray(t_start, dtype=float)
        bounds = list(zip(piece.lower, piece.upper))
    else:
        fn = _penalized(obj.eval, piece, z)
        u0 = piece.to_intrinsic(t_start)
        lo_u, hi_u = piece.intrinsic_bounds()
        bounds = list(zip(lo_u, hi_u))
    res = minimize(fn, u0, method="Nelder-Mead", bounds=bounds,
                   options={"maxiter": cfg.max_iters * max(1, len(u0)),
                            "fatol": cfg.local_tol, "xatol": 1e-9})
    u_best, v_best, ok = res.x, float(res.fun), bool(res.success)
    try:
        pol = minimize(fn, u_best, method="L-BFGS-B", bounds=bounds,
                       options={"maxiter": cfg.max_iters})
        if np.isfinite(pol.fun) and pol.fun <= v_best:
            u_best, v_best = pol.x, float(pol.fun)
            ok = ok or bool(pol.success)
    except (ValueError, FloatingPointError):
        pass
    if not plain_box:
        # report Q at the point itself, without the infeasibility charge
        t_best = piece.from_intrinsic(u_best)
        v_best = float(obj.eval(t_best, z))
    else:
        t_best = u_best
    if piece.violation(t_best) > 1e-7 or not np.isfinite(v_best):
        return t_best, v_best, False
    return t_best, v_best, ok


def lbfgsb_descend(fun_and_grad: Callable, x0: np.ndarray, bounds: Sequence,
                   cfg: MultistartConfig) -> tuple:
    """Bounded quasi-Newton descent with an analytic gradient.

    ``fun_and_grad`` maps x to (value, gradient).  Returns (x, value, ok)
    with the value re-evaluated at the returned x.  ``ok`` is a projected
    gradient test, ||x - clip(x - g)||_inf <= 1e-5 (1 + |value|), rather
    than scipy's success flag: at tight tolerances the line search often
    gives up ("ABNORMAL_TERMINATION_IN_LNSRCH") at a point that is already
    the minimum.
    """
    res = minimize(fun_and_grad, x0, jac=True, method="L-BFGS-B",
                   bounds=bounds,
                   options={"maxiter": cfg.max_iters, "ftol": 1e-15,
                            "gtol": cfg.local_tol})
    x = res.x
    value, grad = fun_and_grad(x)
    lo, hi = np.asarray(bounds, dtype=float).T
    step = x - np.clip(x - grad, lo, hi)
    ok = bool(np.isfinite(value)
              and np.max(np.abs(step)) <= 1e-5 * (1 + abs(value)))
    return x, float(value), ok


def multistart_minimize(obj: Objective, domain: Domain, z,
                        cfg: MultistartConfig = DEFAULT_CONFIG) -> ArgminReport:
    """Seeded multistart over every domain piece, clustered into a report.

    Deterministic for a fixed (cfg.seed, domain, z): the starts of piece k
    come from a Sobol sequence keyed by (cfg.seed, k), and every start is
    descended in order.
    """
    z = as_vector(z)
    per_piece = max(1, cfg.n_starts // len(domain.pieces))
    results = [_descend(obj, piece, z, t0, cfg)
               for p_idx, piece in enumerate(domain.pieces)
               for t0 in _sobol_starts(piece, per_piece, (cfg.seed, p_idx))]
    return report_descents(results, domain.diameter(), cfg)


def report_descents(results: Sequence, diameter: float,
                    cfg: MultistartConfig) -> ArgminReport:
    """Report from (t, value, ok) descent results.

    Converged descents are clustered when there are any, otherwise every
    finite one; the converged fraction counts all descents.
    """
    finite = [(t, v, ok) for t, v, ok in results if np.isfinite(v)]
    converged = [(t, v) for t, v, ok in finite if ok]
    frac = len(converged) / max(1, len(results))
    pool_pts = converged if converged else [(t, v) for t, v, _ in finite]
    return build_report(pool_pts, frac, diameter, cfg)


def value_function(obj: Objective, K: Box, z, grid: int = 1024,
                   cfg: MultistartConfig = DEFAULT_CONFIG) -> float:
    """inf of Q(., z) over the box K: dense grid seeding plus local polish."""
    z = as_vector(z)
    if K.intrinsic_dim == 0:
        return eval_objective(obj, K.anchor, z)
    free = K.intrinsic_dim
    per_axis = max(2, int(round(grid ** (1.0 / free))))
    if K.eq_constraints or free > 3:
        pts = _sobol_starts(K, grid, (cfg.seed, 1 << 20))
    else:
        axes = [np.linspace(lo, hi, per_axis) for lo, hi in zip(K.lower, K.upper)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = [p for p in np.stack([g.ravel() for g in mesh], axis=1)
               if K.contains(p, slack=1e-9)]
    values = [eval_objective(obj, p, z) for p in pts]
    order = np.argsort(values)
    best = values[order[0]]
    for idx in order[:3]:
        _, v, _ = _descend(obj, K, z, as_vector(pts[idx]), cfg)
        if np.isfinite(v):
            best = min(best, v)
    return float(best)


def sublevel_components(values, eps):
    """Number of maximal index runs with value <= min + eps along axis 0.

    ``values`` is one 1-d grid (the count is an int) or a (G, k) block of
    k grids as columns, with ``eps`` a scalar or one value per column (the
    counts are a (k,) array).
    """
    v = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError("values must be finite")
    mask = v <= v.min(axis=0) + eps
    runs = mask[0] + np.sum(mask[1:] & ~mask[:-1], axis=0)
    return int(runs) if v.ndim == 1 else runs


class ZModel(Protocol):
    """A model bundling a z-sampler with a multiplicity detector."""

    def sample_z(self, rng: np.random.Generator) -> np.ndarray: ...

    def detect(self, z, cfg: MultistartConfig) -> ArgminReport: ...


@dataclass(frozen=True)
class MultiplicityEstimate:
    fraction: float
    standard_error: float
    n_draws: int
    n_multiple: int
    n_inconclusive: int

    def to_dict(self) -> dict:
        return {"fraction": self.fraction, "standard_error": self.standard_error,
                "n_draws": self.n_draws, "n_multiple": self.n_multiple,
                "n_inconclusive": self.n_inconclusive}


def multiplicity_probability(model: ZModel, n_draws: int, seed: int = 0,
                             cfg: MultistartConfig = DEFAULT_CONFIG
                             ) -> MultiplicityEstimate:
    """Fraction of z-draws whose detector verdict is "multiple".

    Each draw gets an independent RNG stream keyed by (seed, draw index),
    so draw i can be replayed on its own from ``seed_key(seed, i)``.
    """
    if n_draws < 1:
        raise ValueError("n_draws must be at least 1")
    verdicts = []
    for i in range(n_draws):
        rng = np.random.default_rng(np.random.SeedSequence(seed_key(seed, i)))
        verdicts.append(model.detect(model.sample_z(rng), cfg).verdict)
    n_multiple = sum(v == "multiple" for v in verdicts)
    n_inc = sum(v == "inconclusive" for v in verdicts)
    p = n_multiple / n_draws
    se = float(np.sqrt(p * (1 - p) / n_draws))
    return MultiplicityEstimate(fraction=p, standard_error=se, n_draws=n_draws,
                                n_multiple=n_multiple, n_inconclusive=n_inc)
