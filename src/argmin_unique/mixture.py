"""Finite normal mixtures: likelihood, score identities, multistart EM.

Parameters live in the ordered chart (weights positive and summing to one,
means strictly increasing); the unrestricted chart (unordered means,
possible ties) is supported for evaluating fits and for expanding a single
global minimizer into the full argmin set by permutation/reweighting.
Component variances are fixed to one.
"""

from __future__ import annotations

import csv
import itertools
import logging
import math
from dataclasses import dataclass
from functools import cached_property
import numpy as np
from scipy.special import logsumexp

from .domain import Box, Domain, Objective, as_vector
# cluster_minimizers stays a module attribute: bench/layers.py wraps it here
from .globalopt import (ArgminReport, DEFAULT_CONFIG, MultistartConfig,
                        build_report, cluster_minimizers, seed_key)

logger = logging.getLogger(__name__)

WEIGHT_FLOOR = 1e-8
MEAN_GAP = 1e-8
MEAN_BOUND = 10.0
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _check_weights(weights: tuple) -> None:
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or len(w) < 1:
        raise ValueError("weights must be a nonempty vector")
    if np.any(w < WEIGHT_FLOOR):
        raise ValueError(f"weights must be at least {WEIGHT_FLOOR}")
    if abs(w.sum() - 1.0) > 1e-12:
        raise ValueError("weights must sum to 1 within 1e-12")


@dataclass(frozen=True)
class MixtureParams:
    """Ordered-chart parameters: strictly increasing means."""

    weights: tuple
    means: tuple

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        object.__setattr__(self, "means", tuple(float(m) for m in self.means))
        _check_weights(self.weights)
        if len(self.means) != len(self.weights):
            raise ValueError("weights and means must have equal length")
        mu = np.asarray(self.means)
        if np.any(np.diff(mu) < MEAN_GAP):
            raise ValueError(f"means must increase by at least {MEAN_GAP}")

    @property
    def n_components(self) -> int:
        return len(self.weights)

    @cached_property
    def weights_arr(self) -> np.ndarray:
        return np.asarray(self.weights)

    @cached_property
    def means_arr(self) -> np.ndarray:
        return np.asarray(self.means)


@dataclass(frozen=True)
class UnrestrictedParams:
    """Unordered means, ties allowed; weights positive summing to one."""

    weights: tuple
    means: tuple

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        object.__setattr__(self, "means", tuple(float(m) for m in self.means))
        w = np.asarray(self.weights)
        if np.any(w <= 0):
            raise ValueError("weights must be positive")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1 within 1e-12")
        if len(self.means) != len(self.weights):
            raise ValueError("weights and means must have equal length")

    @property
    def n_components(self) -> int:
        return len(self.weights)

    @cached_property
    def weights_arr(self) -> np.ndarray:
        return np.asarray(self.weights)

    @cached_property
    def means_arr(self) -> np.ndarray:
        return np.asarray(self.means)


@dataclass(frozen=True)
class MixtureSample:
    """Observations; the score identities require them pairwise distinct."""

    z: tuple

    def __post_init__(self):
        object.__setattr__(self, "z", tuple(float(v) for v in self.z))
        if len(self.z) < 1:
            raise ValueError("sample must be nonempty")
        srt = np.sort(np.asarray(self.z))
        if np.any(np.diff(srt) == 0.0):
            raise ValueError("observations must be pairwise distinct")

    @property
    def n(self) -> int:
        return len(self.z)

    @cached_property
    def z_arr(self) -> np.ndarray:
        return np.asarray(self.z)


def _log_density(weights: np.ndarray, means: np.ndarray, z) -> np.ndarray:
    z = np.atleast_1d(np.asarray(z, dtype=float))
    logs = (np.log(weights)[None, :]
            - 0.5 * (z[:, None] - means[None, :]) ** 2 - _LOG_SQRT_2PI)
    return logsumexp(logs, axis=1)


def mixture_density(params, z: float) -> float:
    """Mixture density sum_j w_j phi(z - mu_j); always in (0, phi(0)]."""
    return float(np.exp(_log_density(params.weights_arr, params.means_arr, z)[0]))


def mixture_nll(params, sample) -> float:
    """Negative log-likelihood, evaluated through log-sum-exp (never 0-density)."""
    z = sample.z_arr if isinstance(sample, MixtureSample) else as_vector(sample)
    return float(-np.sum(_log_density(params.weights_arr, params.means_arr, z)))


def _score(params, z: float) -> float:
    """d/dz of the negative log-density: sum_k r_k(z) (z - mu_k)."""
    w, mu = params.weights_arr, params.means_arr
    logs = np.log(w) - 0.5 * (z - mu) ** 2
    r = np.exp(logs - logsumexp(logs))
    return float(np.sum(r * (z - mu)))


def score_gap(params1, params2, sample: MixtureSample, i: int) -> float:
    """Difference of per-observation scores at z_i (0-based index).

    Equals the z_i-derivative of the NLL difference between the two
    parameter vectors; matches finite differences of mixture_nll.
    """
    if not 0 <= i < sample.n:
        raise IndexError(f"observation index {i} out of range")
    zi = sample.z[i]
    return _score(params1, zi) - _score(params2, zi)


def score_gap_cleared(params1, params2, z: float) -> float:
    """Denominator-cleared pairing form of the score gap.

    Returns sum_{j,k} w2_j w1_k phi(z - mu2_j) phi(z - mu1_k) (mu1_k - mu2_j),
    which equals -f(z; p1) f(z; p2) * score_gap(p1, p2) at z.  Antisymmetric
    under swapping the two parameter vectors.
    """
    w1, mu1 = params1.weights_arr, params1.means_arr
    w2, mu2 = params2.weights_arr, params2.means_arr
    phi1 = np.exp(-0.5 * (z - mu1) ** 2) / math.sqrt(2.0 * math.pi)
    phi2 = np.exp(-0.5 * (z - mu2) ** 2) / math.sqrt(2.0 * math.pi)
    pair = np.outer(w2 * phi2, w1 * phi1) * (mu1[None, :] - mu2[:, None])
    return float(pair.sum())


def mixture_domain(J: int, mean_bound: float = MEAN_BOUND) -> Domain:
    """Ordered-chart box: weights on the simplex, means increasing in a box."""
    lower = [WEIGHT_FLOOR] * J + [-mean_bound] * J
    upper = [1.0] * J + [mean_bound] * J
    eq = ((tuple([1.0] * J + [0.0] * J), 1.0),)
    order = tuple((J + j, J + j + 1) for j in range(J - 1))
    return Domain(pieces=(Box(lower=tuple(lower), upper=tuple(upper),
                              eq_constraints=eq, order_constraints=order),))


def params_from_point(point, J: int) -> MixtureParams:
    """Decode a flattened (weights, means) vector from a report cluster."""
    v = as_vector(point)
    if len(v) != 2 * J:
        raise ValueError("point length must be 2J")
    w = np.clip(v[:J], WEIGHT_FLOOR, None)
    w = w / w.sum()
    mu = np.sort(v[J:])
    for j in range(1, J):
        if mu[j] - mu[j - 1] < MEAN_GAP:
            mu[j] = mu[j - 1] + MEAN_GAP
    return MixtureParams(weights=tuple(w), means=tuple(mu))


def nll_objective(J: int) -> Objective:
    """Objective over the ordered chart; z is the full flattened sample."""

    def fn(t, z):
        w = np.clip(t[:J], WEIGHT_FLOOR, None)
        w = w / w.sum()
        return float(-np.sum(_log_density(w, t[J:], z)))

    def gz(t, z):
        w = np.clip(t[:J], WEIGHT_FLOOR, None)
        w = w / w.sum()
        mu = t[J:]
        logs = (np.log(w)[None, :] - 0.5 * (z[:, None] - mu[None, :]) ** 2)
        r = np.exp(logs - logsumexp(logs, axis=1)[:, None])
        return np.sum(r * (z[:, None] - mu[None, :]), axis=1)

    dom = mixture_domain(J)
    return Objective(eval=fn, grad_z=gz,
                     admissible_directions=dom.admissible_directions)


def _em_batch(z: np.ndarray, J: int, n_starts: int, seed: int,
              max_iter: int, tol: float):
    """Run all EM starts simultaneously; returns (tau, mu, nll, n_iter)."""
    n = len(z)
    rng = np.random.default_rng(np.random.SeedSequence(seed_key(seed, 0xE)))
    mu = z[rng.integers(0, n, size=(n_starts, J))]
    mu.sort(axis=1)
    tau = rng.dirichlet(np.ones(J), size=n_starts)
    tau = np.clip(tau, WEIGHT_FLOOR, None)
    tau /= tau.sum(axis=1, keepdims=True)
    Z = z[None, :, None]
    prev = np.full(n_starts, np.inf)
    it = 0
    for it in range(max_iter):
        logw = (np.log(tau)[:, None, :]
                - 0.5 * (Z - mu[:, None, :]) ** 2 - _LOG_SQRT_2PI)
        lse = logsumexp(logw, axis=2)
        nll = -lse.sum(axis=1)
        resp = np.exp(logw - lse[..., None])
        tau = resp.mean(axis=1)
        tau = np.clip(tau, WEIGHT_FLOOR, None)
        tau /= tau.sum(axis=1, keepdims=True)
        mass = resp.sum(axis=1)
        mu = (resp * Z).sum(axis=1) / np.maximum(mass, 1e-300)
        idx = np.argsort(mu, axis=1, kind="stable")
        mu = np.take_along_axis(mu, idx, axis=1)
        tau = np.take_along_axis(tau, idx, axis=1)
        improvement = prev - nll
        prev = nll
        if np.all(np.abs(improvement) < tol):
            break
    logw = (np.log(tau)[:, None, :]
            - 0.5 * (Z - mu[:, None, :]) ** 2 - _LOG_SQRT_2PI)
    nll = -logsumexp(logw, axis=2).sum(axis=1)
    return tau, mu, nll, it + 1


def fit_mle(sample: MixtureSample, J: int,
            cfg: MultistartConfig = DEFAULT_CONFIG,
            force: bool = False) -> ArgminReport:
    """Multistart EM over the ordered chart, clustered into an ArgminReport.

    Cluster representatives are flattened (weights, means) vectors; decode
    with params_from_point.  Requires J <= sqrt(n) unless ``force`` (the
    uniqueness guarantee is only established under that condition).
    """
    if J < 1:
        raise ValueError("J must be positive")
    if J * J > sample.n:
        if not force:
            raise ValueError(
                f"J={J} exceeds sqrt(n)={math.sqrt(sample.n):.3f}; "
                "pass force=True to search anyway")
        logger.warning("fitting with J=%d > sqrt(n=%d): uniqueness is not "
                       "guaranteed in this regime", J, sample.n)
    z = sample.z_arr
    tau, mu, nll, _ = _em_batch(z, J, n_starts=cfg.n_starts, seed=cfg.seed,
                                max_iter=max(cfg.max_iters, 200),
                                tol=cfg.local_tol)
    # map into the ordered chart: sorted already; enforce the mean gap
    for j in range(1, J):
        lag = mu[:, j] - mu[:, j - 1]
        mu[:, j] = np.where(lag < MEAN_GAP, mu[:, j - 1] + MEAN_GAP, mu[:, j])
    finite = np.isfinite(nll)
    frac = float(finite.mean())
    points = [(np.concatenate([tau[s], mu[s]]), float(nll[s]))
              for s in range(len(nll)) if finite[s]]
    return build_report(points, frac, mixture_domain(J).diameter(), cfg)


@dataclass(frozen=True)
class ArgminSet:
    """Argmin set over the unrestricted chart, described by one minimizer.

    ``distinct_means`` (sorted) and ``weight_per_mean`` determine membership:
    a candidate belongs iff its total weight on each distinct mean matches.
    When all means are distinct the set is exactly the J! permutations.
    """

    source: UnrestrictedParams
    distinct_means: tuple
    weight_per_mean: tuple
    has_ties: bool

    def is_member(self, cand: UnrestrictedParams, mean_tol: float = 1e-9,
                  weight_tol: float = 1e-10) -> bool:
        if cand.n_components != self.source.n_components:
            return False
        for mu_k, w_k in zip(self.distinct_means, self.weight_per_mean):
            got = float(np.sum(cand.weights_arr[
                np.abs(cand.means_arr - mu_k) <= mean_tol]))
            if abs(got - w_k) > weight_tol:
                return False
        # every candidate mean must land on some distinct mean
        for nu in cand.means_arr:
            if np.min(np.abs(np.asarray(self.distinct_means) - nu)) > mean_tol:
                return False
        return True

    def permutation_members(self) -> tuple:
        """The finite member list (permutations); requires distinct means."""
        if self.has_ties:
            raise ValueError("tied means give a continuum; enumerate instead")
        pairs = list(zip(self.source.weights, self.source.means))
        members = []
        for perm in itertools.permutations(pairs):
            members.append(UnrestrictedParams(
                weights=tuple(p[0] for p in perm),
                means=tuple(p[1] for p in perm)))
        return tuple(members)

    def enumerate_representatives(self, steps: int = 4) -> tuple:
        """Representative reweightings on a simplex grid (tie groups only)."""
        groups = []
        for mu_k, w_k in zip(self.distinct_means, self.weight_per_mean):
            size = int(np.sum(np.abs(self.source.means_arr - mu_k) <= 1e-9))
            groups.append((mu_k, w_k, size))
        reps = [()]
        for mu_k, w_k, size in groups:
            extended = []
            for prefix in reps:
                for combo in _simplex_grid(size, w_k, steps):
                    extended.append(prefix + tuple((c, mu_k) for c in combo))
            reps = extended
        out = []
        for rep in reps:
            w = tuple(p[0] for p in rep)
            m = tuple(p[1] for p in rep)
            total = sum(w)
            w = tuple(v / total for v in w)
            out.append(UnrestrictedParams(weights=w, means=m))
        return tuple(out)


def _simplex_grid(size: int, total: float, steps: int) -> list:
    """Interior grid points of the scaled simplex {w > 0, sum w = total}."""
    if size == 1:
        return [(total,)]
    out = []
    for cuts in itertools.product(range(1, steps), repeat=size - 1):
        parts = np.diff([0, *sorted(cuts), steps]) / steps * total
        if np.all(parts > 0):
            out.append(tuple(parts))
    return sorted(set(out))


def argmin_set_expand(best: UnrestrictedParams) -> ArgminSet:
    """Describe the full unrestricted argmin set generated by one minimizer."""
    mu = best.means_arr
    w = best.weights_arr
    distinct = []
    for m in np.sort(mu):
        if not distinct or m - distinct[-1] > 1e-9:
            distinct.append(float(m))
    weight_per = tuple(float(np.sum(w[np.abs(mu - m) <= 1e-9])) for m in distinct)
    return ArgminSet(source=best, distinct_means=tuple(distinct),
                     weight_per_mean=weight_per,
                     has_ties=len(distinct) < best.n_components)


@dataclass(frozen=True)
class MixtureModel:
    """Sampling model for multiplicity experiments: z ~ mixture, fit by EM."""

    true_params: MixtureParams
    n: int
    fit_J: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")

    def sample_z(self, rng: np.random.Generator) -> np.ndarray:
        comp = rng.choice(self.true_params.n_components, size=self.n,
                          p=self.true_params.weights_arr)
        z = self.true_params.means_arr[comp] + rng.standard_normal(self.n)
        # ties have probability zero; re-draw defensively if they occur
        while len(np.unique(z)) < self.n:
            z = self.true_params.means_arr[comp] + rng.standard_normal(self.n)
        return z

    def detect(self, z, cfg: MultistartConfig) -> ArgminReport:
        return fit_mle(MixtureSample(z=tuple(z)), self.fit_J, cfg)


def read_sample_csv(path) -> MixtureSample:
    """Single-column CSV of observations (optional header)."""
    values = []
    with open(path, newline="") as handle:
        for row in csv.reader(handle):
            if not row:
                continue
            try:
                values.append(float(row[0]))
            except ValueError:
                continue  # header line
    return MixtureSample(z=tuple(values))


def write_sample_csv(path, sample: MixtureSample) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["z"])
        for v in sample.z:
            writer.writerow([repr(v)])
