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

from .domain import Box, Domain, Objective, as_vector
# cluster_minimizers stays a module attribute: bench/layers.py wraps it here
from .globalopt import (ArgminReport, DEFAULT_CONFIG, MultistartConfig,
                        cluster_minimizers, decide, seed_key)

logger = logging.getLogger(__name__)

WEIGHT_FLOOR = 1e-8
MEAN_GAP = 1e-8
MEAN_BOUND = 10.0
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass(frozen=True)
class UnrestrictedParams:
    """Unordered means, ties allowed; weights positive summing to one."""

    weights: tuple
    means: tuple

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        object.__setattr__(self, "means", tuple(float(m) for m in self.means))
        if not np.all(np.isfinite(self.weights + self.means)):
            raise ValueError("weights and means must be finite")
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


class MixtureParams(UnrestrictedParams):
    """Ordered-chart parameters: an unrestricted point whose weights are at
    least WEIGHT_FLOOR and whose means increase by at least MEAN_GAP."""

    def __post_init__(self):
        super().__post_init__()
        if np.any(self.weights_arr < WEIGHT_FLOOR):
            raise ValueError(f"weights must be at least {WEIGHT_FLOOR}")
        if np.any(np.diff(self.means_arr) < MEAN_GAP):
            raise ValueError(f"means must increase by at least {MEAN_GAP}")


@dataclass(frozen=True)
class MixtureSample:
    """Observations; the score identities require them pairwise distinct."""

    z: tuple

    def __post_init__(self):
        object.__setattr__(self, "z", tuple(float(v) for v in self.z))
        if len(self.z) < 1:
            raise ValueError("sample must be nonempty")
        if not np.all(np.isfinite(self.z)):
            raise ValueError("observations must be finite")
        srt = np.sort(np.asarray(self.z))
        if np.any(np.diff(srt) == 0.0):
            raise ValueError("observations must be pairwise distinct")

    @property
    def n(self) -> int:
        return len(self.z)

    @cached_property
    def z_arr(self) -> np.ndarray:
        return np.asarray(self.z)


def _posterior(weights: np.ndarray, means: np.ndarray, z) -> tuple:
    """Log density and responsibilities, component-major.

    ``weights`` and ``means`` are (J,) for one mixture or (J, S) for S
    mixtures at once, and ``z`` is an (n,) vector or a scalar (n = 1).
    Returns log f(z), of shape (n,) or (S, n), and the responsibilities
    r_j(z) = w_j phi(z - mu_j) / f(z), of shape (J, n) or (J, S, n), by one
    log-sum-exp over axis 0.
    """
    logs = np.log(weights)[..., None] - 0.5 * (z - means[..., None]) ** 2
    top = logs.max(axis=0)
    terms = np.exp(logs - top)
    total = terms.sum(axis=0)
    return top + np.log(total) - _LOG_SQRT_2PI, terms / total


def _log_density(weights: np.ndarray, means: np.ndarray, z) -> np.ndarray:
    return _posterior(weights, means, np.atleast_1d(np.asarray(z, dtype=float)))[0]


def mixture_density(params, z: float) -> float:
    """Mixture density sum_j w_j phi(z - mu_j); always in (0, phi(0)]."""
    return float(np.exp(_log_density(params.weights_arr, params.means_arr, z)[0]))


def mixture_nll(params, sample) -> float:
    """Negative log-likelihood, evaluated through log-sum-exp (never 0-density)."""
    z = sample.z_arr if isinstance(sample, MixtureSample) else as_vector(sample)
    return float(-np.sum(_log_density(params.weights_arr, params.means_arr, z)))


def _score(params, z: float) -> float:
    """d/dz of the negative log-density: sum_k r_k(z) (z - mu_k)."""
    mu = params.means_arr
    r = _posterior(params.weights_arr, mu, z)[1][:, 0]
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


def mixture_domain(J: int) -> Domain:
    """Ordered-chart box: weights on the simplex, means increasing in a box."""
    lower = [WEIGHT_FLOOR] * J + [-MEAN_BOUND] * J
    upper = [1.0] * J + [MEAN_BOUND] * J
    eq = ((tuple([1.0] * J + [0.0] * J), 1.0),)
    order = tuple((J + j, J + j + 1) for j in range(J - 1))
    return Domain(pieces=(Box(lower=tuple(lower), upper=tuple(upper),
                              eq_constraints=eq, order_constraints=order),))


def _spread_means(mu: np.ndarray) -> np.ndarray:
    """Sorted means (..., J), each moved up in place where needed so that
    its rounded gap to its predecessor is at least MEAN_GAP."""
    for j in range(1, mu.shape[-1]):
        prev = mu[..., j - 1]
        low = prev + MEAN_GAP  # one float up where the sum rounded down
        low = np.where(low - prev < MEAN_GAP, np.nextafter(low, np.inf), low)
        mu[..., j] = np.where(mu[..., j] - prev < MEAN_GAP, low, mu[..., j])
    return mu


def params_from_point(point, J: int) -> MixtureParams:
    """Decode a flattened (weights, means) vector from a report cluster."""
    v = as_vector(point)
    if len(v) != 2 * J:
        raise ValueError("point length must be 2J")
    w = np.clip(v[:J], WEIGHT_FLOOR, None)
    w = w / w.sum()
    mu = _spread_means(np.sort(v[J:]))
    return MixtureParams(weights=tuple(w), means=tuple(mu))


def nll_objective(J: int) -> Objective:
    """Objective over the ordered chart; z is the full flattened sample.

    The mixture likelihood as an ``Objective``, so the genericity checks of
    conditions (a)-(d) apply to the mixture example.
    """

    def fn(t, z):
        w = np.clip(t[:J], WEIGHT_FLOOR, None)
        w = w / w.sum()
        return float(-np.sum(_log_density(w, t[J:], z)))

    def gz(t, z):
        w = np.clip(t[:J], WEIGHT_FLOOR, None)
        w = w / w.sum()
        mu = t[J:]
        r = _posterior(w, mu, z)[1]
        return np.sum(r * (z - mu[:, None]), axis=0)

    dom = mixture_domain(J)
    return Objective(eval=fn, grad_z=gz,
                     admissible_directions=dom.admissible_directions)


def _em_batch(z: np.ndarray, J: int, n_starts: int, seed: int,
              max_iter: int, tol: float):
    """Run all EM starts in one component-major batch.

    Start s stops once one step moves none of its weights and means by tol
    or more; only the starts still moving are updated.  Returns (tau, mu,
    nll, ok): (S, J) weights and increasing means, the (S,) NLL there, and
    whether each start stopped within max_iter steps.
    """
    n = len(z)
    rng = np.random.default_rng(np.random.SeedSequence(seed_key(seed, 0xE)))
    mu = z[rng.integers(0, n, size=(n_starts, J))]
    mu.sort(axis=1)
    tau = rng.dirichlet(np.ones(J), size=n_starts)
    tau = np.clip(tau, WEIGHT_FLOOR, None)
    tau /= tau.sum(axis=1, keepdims=True)
    w, m = tau.T.copy(), mu.T.copy()
    ok = np.zeros(n_starts, dtype=bool)
    active = np.arange(n_starts)
    for _ in range(max_iter):
        w_a, m_a = w[:, active], m[:, active]
        resp = _posterior(w_a, m_a, z)[1]
        mass = resp.sum(axis=2)
        w_new = np.clip(mass / n, WEIGHT_FLOOR, None)
        w_new /= w_new.sum(axis=0)
        m_new = (resp @ z) / np.maximum(mass, 1e-300)
        idx = np.argsort(m_new, axis=0, kind="stable")
        m_new = np.take_along_axis(m_new, idx, axis=0)
        w_new = np.take_along_axis(w_new, idx, axis=0)
        step = np.maximum(np.abs(w_new - w_a).max(axis=0),
                          np.abs(m_new - m_a).max(axis=0))
        w[:, active], m[:, active] = w_new, m_new
        done = step < tol
        ok[active[done]] = True
        active = active[~done]
        if not active.size:
            break
    nll = -_posterior(w, m, z)[0].sum(axis=1)
    return w.T, m.T, nll, ok


def fit_mle(sample: MixtureSample, J: int,
            cfg: MultistartConfig = DEFAULT_CONFIG,
            force: bool = False) -> ArgminReport:
    """Multistart EM over the ordered chart, clustered into an ArgminReport.

    Each of cfg.n_starts EM runs stops once one step changes its weights
    and means by less than cfg.local_tol; a run still moving after
    cfg.max_iters steps counts as failed.  Converged runs are clustered
    (every finite run when none converged), and ``converged_fraction`` is
    the share of converged runs.  Cluster representatives are flattened
    (weights, means) vectors; decode with params_from_point.  Requires
    J <= sqrt(n) unless ``force`` (the uniqueness guarantee is only
    established under that condition).
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
    tau, mu, nll, ok = _em_batch(sample.z_arr, J, n_starts=cfg.n_starts,
                                 seed=cfg.seed, max_iter=cfg.max_iters,
                                 tol=cfg.local_tol)
    mu = _spread_means(mu)  # into the ordered chart (EM sorts the means)
    results = [(np.concatenate([tau[s], mu[s]]), float(nll[s]), bool(ok[s]))
               for s in range(len(nll))]
    return decide(results, mixture_domain(J), cfg)


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
        # ties have probability zero; MixtureSample rejects a tied draw
        return self.true_params.means_arr[comp] + rng.standard_normal(self.n)

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
