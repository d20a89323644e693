"""Global minimizer detection: multistart search, clustering, verdicts.

The detector never certifies anything: it reports the set of near-optimal
clusters it found at explicit value / distance tolerances, and a verdict
("unique", "multiple", "inconclusive") that is the finite-precision
analogue of argmin uniqueness.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Protocol, Sequence

import numpy as np
import scipy
from scipy.optimize import minimize

from .domain import (Box, Domain, Objective, as_vector, eval_block,
                     eval_objective, mesh_points)


@dataclass(frozen=True)
class MultistartConfig:
    """Settings for the multistart detector.

    ``eps_value`` / ``delta_cluster`` default to scale-aware values
    (1e-6 * (1 + |best|) and 1e-3 * domain diameter) when None; a value
    given must be finite and positive.
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
        for name in ("eps_value", "delta_cluster"):
            value = getattr(self, name)
            if value is not None and not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive")


DEFAULT_CONFIG = MultistartConfig()


@dataclass(frozen=True, slots=True)
class Cluster:
    representative: tuple
    value: float
    hits: int

    def to_dict(self) -> dict:
        return {"representative": list(self.representative),
                "value": self.value, "hits": self.hits}


@dataclass(frozen=True, slots=True)
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


def _components(linked: np.ndarray) -> np.ndarray:
    """Connected-component labels of a symmetric (n, n) boolean link matrix.

    Each node is labelled with the smallest index in its component.  Every
    round gives each node the smallest label among itself and its linked
    neighbours, then replaces each label by that label's own new label, so
    a chain of length L settles in O(log L) rounds.
    """
    labels = np.arange(len(linked))
    while True:
        low = np.where(linked, labels, labels[:, None]).min(axis=1)
        if np.array_equal(low, labels):
            return labels
        labels = low[low]


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
    if not near:  # a NaN best value keeps no point
        return []
    # squared distances summed one coordinate at a time: memory stays at
    # a few (n, n) arrays whatever the dimension
    sq = np.zeros((len(near), len(near)))
    for x in np.asarray([t for t, _ in near]).T:
        sq += (x[:, None] - x[None, :]) ** 2
    linked = np.sqrt(sq) <= delta_cluster
    groups: dict = {}
    for i, label in enumerate(_components(linked).tolist()):
        groups.setdefault(label, []).append(i)
    clusters = []
    for members in groups.values():
        rep_i = min(members, key=lambda i: (near[i][1], tuple(near[i][0])))
        clusters.append(Cluster(representative=tuple(near[rep_i][0]),
                                value=near[rep_i][1], hits=len(members)))
    clusters.sort(key=lambda c: (c.value, c.representative))
    return clusters


def decide(results: Sequence, domain: Domain,
           cfg: MultistartConfig) -> ArgminReport:
    """The one path from candidate (t, value, ok) triples to an ArgminReport.

    A candidate with a non-finite value counts as failed.  The ok
    candidates are clustered, or every finite one when none is ok, and
    ``converged_fraction`` is the share of ok candidates.  Tolerances come
    from cfg, else 1e-6 * (1 + |best|) for values and 1e-3 * the domain's
    diameter for distances.  The verdict is "inconclusive" when fewer than
    half of the candidates are ok (or none is finite), otherwise "unique"
    for a single cluster and "multiple" beyond.
    """
    finite = [(t, v, ok) for t, v, ok in results if np.isfinite(v)]
    if not finite:
        return ArgminReport(global_value=float("nan"), clusters=(),
                            eps_value=float("nan"), delta_cluster=float("nan"),
                            verdict="inconclusive", converged_fraction=0.0)
    converged = [(t, v) for t, v, ok in finite if ok]
    frac = len(converged) / len(results)
    points = converged or [(t, v) for t, v, _ in finite]
    best = min(v for _, v in points)
    eps = cfg.eps_value if cfg.eps_value is not None else 1e-6 * (1 + abs(best))
    delta = (cfg.delta_cluster if cfg.delta_cluster is not None
             else 1e-3 * domain.diameter())
    clusters = cluster_minimizers(points, eps, delta)
    if frac < 0.5:
        verdict = "inconclusive"
    else:
        verdict = "unique" if len(clusters) == 1 else "multiple"
    return ArgminReport(global_value=best, clusters=tuple(clusters),
                        eps_value=eps, delta_cluster=delta, verdict=verdict,
                        converged_fraction=frac)


def seed_key(*parts) -> tuple:
    """Non-negative entropy tuple for SeedSequence (negative seeds wrap)."""
    return tuple(int(p) & 0xFFFFFFFFFFFFFFFF for p in parts)


_SOBOL_BITS = 30  # scipy's default: 2^30 points per engine


@functools.lru_cache(maxsize=None)
def _direction_bits(dim: int) -> np.ndarray:
    """(dim, 30, 30) bits of the Sobol direction numbers, high bit first.

    Row j of dimension d holds direction number j of d.  The primitive
    polynomials and initial numbers are Joe and Kuo's, read from the file
    that scipy installs, without importing ``scipy.stats``.
    """
    path = Path(scipy.__file__).parent / "stats" / "_sobol_direction_numbers.npz"
    with np.load(path) as data:
        poly, vinit = data["poly"][:dim], data["vinit"][:dim]
    v = np.ones((dim, _SOBOL_BITS), dtype=np.int64)
    for d in range(1, dim):
        p = int(poly[d])
        m = p.bit_length() - 1
        v[d, :m] = vinit[d, :m]
        for j in range(m, _SOBOL_BITS):
            new = int(v[d, j - m])
            for k in range(m):
                if p >> (m - 1 - k) & 1:
                    new ^= int(v[d, j - k - 1]) << (k + 1)
            v[d, j] = new
    high_first = np.arange(_SOBOL_BITS - 1, -1, -1)
    v <<= high_first
    bits = ((v[:, :, None] >> high_first) & 1).astype(float)
    bits.setflags(write=False)  # one cached array shared by every call
    return bits


def _sobol(dim: int, n: int, key: tuple) -> np.ndarray:
    """The first n points (n, dim) of a scrambled Sobol sequence.

    Bit for bit the points of ``scipy.stats.qmc.Sobol(dim, scramble=True,
    seed=default_rng(SeedSequence(key)))``: like scipy's engine, it draws
    from the first child of that seed sequence, first a random digital
    shift, then one random lower-triangular matrix per dimension (unit
    diagonal) that scrambles the direction numbers over GF(2) (a linear
    matrix scramble).  Point m is the shift XOR the scrambled direction
    numbers of the set bits of m's Gray code, times 2^-30.
    """
    bits = _SOBOL_BITS
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(key, spawn_key=(0,))))
    shift = (rng.integers(2, size=(dim, bits), dtype=np.uint32)
             @ 2 ** np.arange(bits, dtype=np.uint32))
    ltm = np.tril(rng.integers(2, size=(dim, bits, bits), dtype=np.uint32))
    ltm[:, np.arange(bits), np.arange(bits)] = 1
    # every sum below is at most 30, so float64 products are exact
    scrambled = (_direction_bits(dim) @ ltm.transpose(0, 2, 1)) % 2
    directions = (scrambled @ 2.0 ** np.arange(bits - 1, -1, -1)).astype(np.uint32)
    # Gray-code order by reflection: points 2^k..2^(k+1)-1 are points
    # 2^k-1..0 XOR direction number k
    points = np.zeros((1, dim), dtype=np.uint32)
    for column in directions.T:
        if len(points) >= n:
            break
        points = np.concatenate([points, points[::-1] ^ column])
    return (points[:n] ^ shift) * 2.0 ** -bits


def _sobol_starts(piece: Box, n: int, key: tuple) -> list:
    """n deterministic stratified starts inside a piece, Sobol points keyed by key.

    A plain piece's points are clipped to it; a constrained piece repairs
    each point, drops the infeasible ones and falls back to its repaired
    anchor when none is left.
    """
    if piece.intrinsic_dim == 0:
        return [piece.anchor]
    lower, upper = piece.lower_arr, piece.upper_arr
    block = lower + _sobol(piece.dim, n, seed_key(*key)) * (upper - lower)
    if _is_plain(piece):
        return list(np.clip(block, lower, upper))
    starts = [t for t in map(piece.repair, block) if t is not None]
    if not starts:
        fallback = piece.repair(piece.anchor)
        if fallback is not None:
            starts.append(fallback)
    return starts


def _is_plain(piece: Box) -> bool:
    return (not piece.eq_constraints and not piece.order_constraints
            and not piece.nonzero)


def _block_objective(obj: Objective, pieces: Sequence, z: np.ndarray,
                     plain: bool) -> Callable:
    """Q on a block of descent coordinates; row r belongs to pieces[owner[r]].

    Plain boxes are searched in t itself, so the block goes to
    ``eval_block`` as it is.  Constrained pieces are searched in intrinsic
    coordinates: each row is mapped to its piece and charged a finite
    penalty for its constraint violation.
    """
    if plain:
        return lambda U, owner: eval_block(obj, U, z)
    lower = np.array([p.lower_arr for p in pieces])
    upper = np.array([p.upper_arr for p in pieces])

    def penalized(U, owner):
        T = np.array([pieces[o].from_intrinsic(u) for u, o in zip(U, owner)])
        v = np.array([pieces[o].violation(t) for t, o in zip(T, owner)])
        value = eval_block(obj, np.clip(T, lower[owner], upper[owner]), z)
        return np.where(v > 0, value + 1e3 * v + 1e6 * v * v, value)

    return penalized


def _nelder_mead(f: Callable, x0: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                 max_iter: int, xatol: float, fatol: float) -> tuple:
    """Bounded Nelder-Mead from every row of x0 (k, n), all starts at once.

    ``lo`` and ``hi`` are (k, n) bounds, one row per start.  ``f(U, owner)``
    returns the values of the rows of a block U, row r a point of start
    owner[r].  Each step evaluates the trial points of every active start
    in one call, plus one call for the expansions and contractions and one
    for the shrinks.  The rules are those of scipy's
    ``minimize(method="Nelder-Mead", bounds=...)`` without adaptive
    parameters, step for step: the initial simplex moves coordinate i by
    5% (to 0.00025 from zero), reflects vertices above the upper bound and
    clips; every trial point is clipped; a start stops once
    max|sim[1:] - sim[0]| <= xatol and max|f[0] - f[1:]| <= fatol, or when
    the iteration count (from 1) reaches max_iter.  Returns the best
    vertices (k, n), their values (k,) and whether each start stopped on
    the tolerance test (k,), as scipy's x, fun and success would be.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    # a * xbar - b * worst for kind 0 (expansion), 1 (outside contraction)
    # and 2 (inside contraction); kind 3 takes the reflection xr
    coef = np.array([[1 + rho * chi, rho * chi], [1 + psi * rho, psi * rho],
                     [1 - psi, -psi]])
    k, n = x0.shape
    sim = np.repeat(np.clip(x0, lo, hi)[:, None, :], n + 1, axis=1)
    axis = np.arange(n)
    moved = sim[:, axis + 1, axis]
    sim[:, axis + 1, axis] = np.where(moved != 0, (1 + 0.05) * moved, 0.00025)
    up = hi[:, None, :]
    sim = np.clip(np.where(sim > up, 2 * up - sim, sim), lo[:, None, :], up)
    live = np.arange(k)
    fsim = f(sim.reshape(-1, n), np.repeat(live, n + 1)).reshape(k, n + 1)
    rows = live[:, None]
    for _ in range(2):  # scipy sorts twice before its first step
        order = np.argsort(fsim, axis=1)
        sim, fsim = sim[rows, order], fsim[rows, order]
    x, fx = sim[:, 0].copy(), fsim.min(axis=1)
    ok = np.zeros(k, dtype=bool)
    iterations = 1
    while iterations < max_iter:
        done = np.abs(fsim[:, :1] - fsim[:, 1:]).max(axis=1) <= fatol
        if done.any():
            done &= np.abs(sim[:, 1:] - sim[:, :1]).max(axis=(1, 2)) <= xatol
        if done.any():
            ok[live[done]] = True
            x[live[done]] = sim[done, 0]
            fx[live[done]] = fsim[done].min(axis=1)
            stay = ~done
            live, sim, fsim = live[stay], sim[stay], fsim[stay]
            lo, hi, rows = lo[stay], hi[stay], rows[:len(live)]
            if not len(live):
                break
        xbar = np.add.reduce(sim[:, :-1], 1) / n
        worst = sim[:, -1]
        xr = np.clip((1 + rho) * xbar - rho * worst, lo, hi)
        fxr = f(xr, live)
        kind = np.where(fxr < fsim[:, 0], 0,
                        np.where(fxr < fsim[:, -2], 3,
                                 np.where(fxr < fsim[:, -1], 1, 2)))
        trial = np.flatnonzero(kind < 3)
        shrink = trial[:0]
        if len(trial):
            kt = kind[trial]
            a, b = coef[kt].T
            x2 = np.clip(a[:, None] * xbar[trial] - b[:, None] * worst[trial],
                         lo[trial], hi[trial])
            f2 = f(x2, live[trial])
            f_ref = np.where(kt == 2, fsim[trial, -1], fxr[trial])
            take = np.where(kt == 1, f2 <= f_ref, f2 < f_ref)
            xr[trial[take]] = x2[take]
            fxr[trial[take]] = f2[take]
            shrink = trial[(kt > 0) & ~take]
        if len(shrink):
            best = sim[shrink, :1]
            pts = np.clip(best + sigma * (sim[shrink, 1:] - best),
                          lo[shrink, None], hi[shrink, None])
        sim[:, -1], fsim[:, -1] = xr, fxr
        if len(shrink):
            sim[shrink, 1:] = pts
            fsim[shrink, 1:] = f(pts.reshape(-1, n),
                                 np.repeat(live[shrink], n)).reshape(-1, n)
        iterations += 1
        order = np.argsort(fsim, axis=1)
        sim, fsim = sim[rows, order], fsim[rows, order]
    x[live], fx[live] = sim[:, 0], fsim.min(axis=1)
    return x, fx, ok


def _descend(obj: Objective, jobs: Sequence, z: np.ndarray,
             cfg: MultistartConfig) -> list:
    """Descend every (piece, start) job; returns one (t, value, ok) each.

    Jobs on pieces of the same kind (plain box or constrained) and
    intrinsic dimension share one ``_nelder_mead`` run, whose steps
    evaluate the objective on a block of points (``eval_block``: one
    ``Objective.block_eval`` call, or one ``eval`` call per row), and each
    start stops on its own test, so each ends where a Nelder-Mead run of
    its own would.  A plain box is searched in t itself; a constrained
    piece in intrinsic coordinates with a finite infeasibility penalty,
    charged per row.  Each start then gets an L-BFGS-B polish, kept when
    it does not raise the value.  The reported value is Q at the reported
    point, and a start is ok when its simplex or its polish converged, the
    point is feasible and the value finite.
    """
    results = [None] * len(jobs)
    groups: dict = {}
    for i, (piece, t0) in enumerate(jobs):
        if piece.intrinsic_dim == 0:
            results[i] = (t0, eval_objective(obj, t0, z), True)
        else:
            key = (_is_plain(piece), piece.intrinsic_dim)
            groups.setdefault(key, []).append(i)
    for (plain, n), members in groups.items():
        pieces = [jobs[i][0] for i in members]
        if plain:
            u0 = np.array([jobs[i][1] for i in members], dtype=float)
            bounds = [(p.lower_arr, p.upper_arr) for p in pieces]
        else:
            u0 = np.array([p.to_intrinsic(jobs[i][1])
                           for p, i in zip(pieces, members)])
            bounds = [p.intrinsic_bounds() for p in pieces]
        lo = np.array([b[0] for b in bounds])
        hi = np.array([b[1] for b in bounds])
        f = _block_objective(obj, pieces, z, plain)
        xs, values, oks = _nelder_mead(f, u0, lo, hi, cfg.max_iters * n,
                                       xatol=1e-9, fatol=cfg.local_tol)
        for j, (piece, i) in enumerate(zip(pieces, members)):
            u_best, v_best, ok = xs[j], float(values[j]), bool(oks[j])
            try:
                pol = minimize(lambda u: f(u[None], [j])[0], u_best,
                               method="L-BFGS-B", bounds=list(zip(lo[j], hi[j])),
                               options={"maxiter": cfg.max_iters})
                if np.isfinite(pol.fun) and pol.fun <= v_best:
                    u_best, v_best = pol.x, float(pol.fun)
                    ok = ok or bool(pol.success)
            except (ValueError, FloatingPointError):
                pass
            if plain:
                t_best = u_best
            else:
                # report Q at the point itself, without the infeasibility charge
                t_best = piece.from_intrinsic(u_best)
                v_best = float(obj.eval(t_best, z))
            if piece.violation(t_best) > 1e-7 or not np.isfinite(v_best):
                ok = False
            results[i] = (t_best, v_best, ok)
    return results


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
    come from a Sobol sequence keyed by (cfg.seed, k).  ``_descend`` runs
    one bounded Nelder-Mead over all starts of a piece (and of every other
    piece of the same kind and intrinsic dimension): each simplex step
    evaluates the objective on the block of every active start's trial
    points (in one call when it has a ``block_eval``), and each start
    leaves on its own convergence test, so
    every start ends where its own scipy Nelder-Mead run would.  Each
    start then gets its own L-BFGS-B polish.
    """
    z = as_vector(z)
    per_piece = max(1, cfg.n_starts // len(domain.pieces))
    jobs = [(piece, t0) for p_idx, piece in enumerate(domain.pieces)
            for t0 in _sobol_starts(piece, per_piece, (cfg.seed, p_idx))]
    return decide(_descend(obj, jobs, z, cfg), domain, cfg)


def value_function(obj: Objective, K: Box, z, grid: int = 1024,
                   cfg: MultistartConfig = DEFAULT_CONFIG) -> float:
    """inf of Q(., z) over the box K: dense grid seeding plus local polish.

    The paper's value function over one piece of the domain: a tie between
    two pieces is a tie between their value functions.
    """
    z = as_vector(z)
    if K.intrinsic_dim == 0:
        return eval_objective(obj, K.anchor, z)
    free = K.intrinsic_dim
    per_axis = max(2, int(round(grid ** (1.0 / free))))
    if K.eq_constraints or free > 3:
        pts = _sobol_starts(K, grid, (cfg.seed, 1 << 20))
    else:
        pts = mesh_points([K], per_axis)
    values = [eval_objective(obj, p, z) for p in pts]
    order = np.argsort(values)
    best = values[order[0]]
    for _, v, _ in _descend(obj, [(K, as_vector(pts[i])) for i in order[:3]],
                            z, cfg):
        if np.isfinite(v):
            best = min(best, v)
    return float(best)


def sublevel_components(values, eps):
    """Number of maximal index runs with value <= min + eps along axis 0.

    ``values`` is one 1-d grid or a (G, k) block of k grids as columns.
    ``eps`` is a scalar, one value per column, or an (m, k) stack of m
    thresholds per column (m thresholds for a 1-d grid); the counts have
    the shape of ``min + eps``, an int for one grid and one threshold.
    The minimum and the finiteness check are computed once for the stack.
    """
    v = np.asarray(values, dtype=float).T  # the grid along the last axis
    if not np.all(np.isfinite(v)):
        raise ValueError("values must be finite")
    level = np.asarray(v.min(axis=-1) + eps)
    mask = v <= level[..., None]
    runs = mask[..., 0] + np.count_nonzero(mask[..., 1:] > mask[..., :-1],
                                           axis=-1)
    return int(runs) if runs.ndim == 0 else runs


class ZModel(Protocol):
    """A model bundling a z-sampler with a multiplicity detector."""

    def sample_z(self, rng: np.random.Generator) -> np.ndarray: ...

    def detect(self, z, cfg: MultistartConfig) -> ArgminReport: ...


@dataclass(frozen=True, slots=True)
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
