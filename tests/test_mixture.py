import math

import numpy as np
import pytest

from argmin_unique import (MixtureParams, MixtureSample, MultistartConfig,
                           UnrestrictedParams, argmin_set_expand, fit_mle,
                           mixture_density, mixture_nll, score_gap,
                           score_gap_cleared)
from argmin_unique.globalopt import seed_key
from argmin_unique.mixture import params_from_point, read_sample_csv

from oracles import SQRT_2PI, mixture_nll_direct, phi


def make_sample(rng, n=50, means=(-2.0, 2.0)):
    comp = rng.integers(0, len(means), n)
    z = np.asarray(means)[comp] + rng.standard_normal(n)
    return MixtureSample(z=tuple(z))


# -------------------------------------------------------------- validation

def test_params_require_increasing_means():
    with pytest.raises(ValueError):
        MixtureParams(weights=(0.5, 0.5), means=(1.0, 1.0))


def test_params_require_weights_summing_to_one():
    with pytest.raises(ValueError):
        MixtureParams(weights=(0.5, 0.4), means=(0.0, 1.0))


def test_sample_requires_distinct_observations():
    with pytest.raises(ValueError):
        MixtureSample(z=(1.0, 1.0, 2.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_params_and_sample_reject_non_finite_values(bad):
    # a NaN mean passed the increasing-means test, and sampling from it
    # never ended: np.unique merges NaNs, so the sample stayed short of n
    with pytest.raises(ValueError):
        MixtureParams(weights=(0.5, 0.5), means=(0.0, bad))
    with pytest.raises(ValueError):
        MixtureParams(weights=(0.5, bad), means=(0.0, 1.0))
    with pytest.raises(ValueError):
        MixtureSample(z=(0.5, bad, 1.5))
    with pytest.raises(ValueError, match="finite"):
        UnrestrictedParams(weights=(0.5, 0.5), means=(0.0, bad))
    with pytest.raises(ValueError, match="finite"):
        UnrestrictedParams(weights=(0.5, bad), means=(0.0, 1.0))


# ----------------------------------------------------------------- density

def test_density_single_standard_component():
    p = MixtureParams(weights=(1.0,), means=(0.0,))
    assert mixture_density(p, 0.0) == pytest.approx(1 / math.sqrt(2 * math.pi), abs=1e-12)


def test_density_symmetric_pair():
    a = 1.3
    p = MixtureParams(weights=(0.5, 0.5), means=(-a, a))
    assert mixture_density(p, 0.0) == pytest.approx(phi(a), abs=1e-12)


def test_density_weighted_two_component():
    p = MixtureParams(weights=(0.3, 0.7), means=(0.0, 2.0))
    # 0.3 phi(1) + 0.7 phi(-1) = phi(1)
    assert mixture_density(p, 1.0) == pytest.approx(phi(1.0), abs=1e-12)
    assert phi(1.0) == pytest.approx(0.24197, abs=1e-5)


# --------------------------------------------------------------------- nll

def test_nll_single_observation():
    p = MixtureParams(weights=(1.0,), means=(0.0,))
    s = MixtureSample(z=(0.0,))
    assert mixture_nll(p, s) == pytest.approx(0.5 * math.log(2 * math.pi), abs=1e-12)


def test_nll_two_observations():
    p = MixtureParams(weights=(1.0,), means=(0.0,))
    s = MixtureSample(z=(0.0, 1.0))
    assert mixture_nll(p, s) == pytest.approx(math.log(2 * math.pi) + 0.5, abs=1e-12)


def test_nll_matches_direct_sum():
    rng = np.random.default_rng(0)
    p = MixtureParams(weights=(0.25, 0.75), means=(-1.0, 2.5))
    s = make_sample(rng, n=20)
    assert mixture_nll(p, s) == pytest.approx(
        mixture_nll_direct(p.weights, p.means, s.z), rel=1e-12)


def test_nll_invariant_under_sample_permutation():
    p = MixtureParams(weights=(0.4, 0.6), means=(-1.0, 1.0))
    z = (0.3, -2.0, 1.7, 0.9)
    a = mixture_nll(p, MixtureSample(z=z))
    b = mixture_nll(p, MixtureSample(z=z[::-1]))
    assert a == b


def test_nll_invariant_under_component_permutation():
    # evaluated through the unrestricted interface
    a = UnrestrictedParams(weights=(0.3, 0.7), means=(0.0, 2.0))
    b = UnrestrictedParams(weights=(0.7, 0.3), means=(2.0, 0.0))
    s = MixtureSample(z=(0.1, 1.4, -0.8))
    assert mixture_nll(a, s) == pytest.approx(mixture_nll(b, s), abs=1e-14)


def test_nll_survives_extreme_observations():
    p = MixtureParams(weights=(1.0,), means=(0.0,))
    v = mixture_nll(p, MixtureSample(z=(60.0,)))
    assert np.isfinite(v)  # log-sum-exp path, no underflow to -inf


# --------------------------------------------------------------- score gap

def test_score_gap_identical_params_is_zero():
    p = MixtureParams(weights=(0.5, 0.5), means=(-1.0, 1.0))
    s = MixtureSample(z=(0.2, 1.3, -0.7))
    for i in range(s.n):
        assert score_gap(p, p, s, i) == 0.0


def test_score_gap_single_components():
    p1 = MixtureParams(weights=(1.0,), means=(0.0,))
    p2 = MixtureParams(weights=(1.0,), means=(1.0,))
    s = MixtureSample(z=(0.4, -3.0, 7.0))
    for i in range(s.n):
        assert score_gap(p1, p2, s, i) == pytest.approx(1.0, abs=1e-12)


def test_score_gap_matches_fd_of_nll_difference():
    rng = np.random.default_rng(17)
    for _ in range(100):
        J1, J2 = rng.integers(1, 4, size=2)
        p1 = MixtureParams(weights=tuple(rng.dirichlet(np.full(J1, 2.0))),
                           means=tuple(np.sort(rng.uniform(-3, 3, J1)) * 1.0
                                       + np.arange(J1) * 1e-6))
        p2 = MixtureParams(weights=tuple(rng.dirichlet(np.full(J2, 2.0))),
                           means=tuple(np.sort(rng.uniform(-3, 3, J2)) * 1.0
                                       + np.arange(J2) * 1e-6))
        z = tuple(np.sort(rng.standard_normal(4)))
        s = MixtureSample(z=z)
        i = int(rng.integers(0, len(z)))
        h = 1e-5

        def nll_diff(zi):
            zs = list(z)
            zs[i] = zi
            return (mixture_nll_direct(p1.weights, p1.means, zs)
                    - mixture_nll_direct(p2.weights, p2.means, zs))

        fd = (nll_diff(z[i] + h) - nll_diff(z[i] - h)) / (2 * h)
        assert score_gap(p1, p2, s, i) == pytest.approx(fd, abs=1e-6)


def test_score_gap_nonzero_somewhere_for_distinct_params():
    """The uniqueness mechanism: distinct params leave a detectable score gap."""
    rng = np.random.default_rng(23)
    for _ in range(100):
        J = int(rng.integers(1, 4))
        p1 = MixtureParams(weights=tuple(rng.dirichlet(np.full(J, 2.0))),
                           means=tuple(np.sort(rng.uniform(-3, 3, J))))
        p2 = MixtureParams(weights=tuple(rng.dirichlet(np.full(J, 2.0))),
                           means=tuple(np.sort(rng.uniform(-3, 3, J))))
        if (max(abs(np.subtract(p1.weights, p2.weights))) < 1e-3
                and max(abs(np.subtract(p1.means, p2.means))) < 1e-3):
            continue
        s = MixtureSample(z=tuple(np.sort(rng.standard_normal(9))))  # n >= J^2
        assert max(abs(score_gap(p1, p2, s, i)) for i in range(s.n)) > 1e-6


def test_score_gap_index_bounds():
    p = MixtureParams(weights=(1.0,), means=(0.0,))
    s = MixtureSample(z=(0.0, 1.0))
    with pytest.raises(IndexError):
        score_gap(p, p, s, 2)


# ----------------------------------------------------- cleared pairing form

def test_cleared_form_identical_params_is_zero():
    p = MixtureParams(weights=(0.5, 0.5), means=(-1.0, 1.0))
    assert score_gap_cleared(p, p, 0.7) == pytest.approx(0.0, abs=1e-15)


def test_cleared_form_single_component_value():
    p1 = MixtureParams(weights=(1.0,), means=(0.0,))
    p2 = MixtureParams(weights=(1.0,), means=(1.0,))
    got = score_gap_cleared(p1, p2, 0.0)
    assert got == pytest.approx(-phi(1.0) * phi(0.0), abs=1e-12)
    assert got == pytest.approx(-0.09653, abs=1e-5)


def test_cleared_form_antisymmetric():
    rng = np.random.default_rng(2)
    p1 = MixtureParams(weights=(0.4, 0.6), means=(-0.5, 1.5))
    p2 = MixtureParams(weights=(0.2, 0.8), means=(0.0, 2.0))
    for z in rng.standard_normal(5):
        assert score_gap_cleared(p1, p2, z) == pytest.approx(
            -score_gap_cleared(p2, p1, z), abs=1e-15)


def test_cleared_form_equals_denominator_cleared_score_gap():
    """f(z;p1) f(z;p2) score_gap = -cleared form, to 1e-10 relative."""
    rng = np.random.default_rng(31)
    for _ in range(100):
        J1, J2 = rng.integers(1, 4, size=2)
        p1 = MixtureParams(weights=tuple(rng.dirichlet(np.full(J1, 2.0))),
                           means=tuple(np.sort(rng.uniform(-2, 2, J1))))
        p2 = MixtureParams(weights=tuple(rng.dirichlet(np.full(J2, 2.0))),
                           means=tuple(np.sort(rng.uniform(-2, 2, J2))))
        z = float(rng.standard_normal())
        s = MixtureSample(z=(z,))
        lhs = (mixture_density(p1, z) * mixture_density(p2, z)
               * score_gap(p1, p2, s, 0))
        rhs = -score_gap_cleared(p1, p2, z)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-14)


# ------------------------------------------------------------------ fit_mle

def test_fit_single_component_closed_form():
    rng = np.random.default_rng(8)
    s = MixtureSample(z=tuple(rng.standard_normal(25) + 0.37))
    report = fit_mle(s, 1, MultistartConfig(seed=0, n_starts=10))
    assert report.verdict == "unique"
    params = params_from_point(report.clusters[0].representative, 1)
    assert params.means[0] == pytest.approx(np.mean(s.z), abs=1e-6)
    assert params.weights[0] == pytest.approx(1.0)


def test_fit_two_components_unique_and_beats_truth():
    rng = np.random.default_rng(123)
    s = make_sample(rng, n=50)
    report = fit_mle(s, 2, MultistartConfig(seed=0, n_starts=100))
    assert report.verdict == "unique"
    truth = MixtureParams(weights=(0.5, 0.5), means=(-2.0, 2.0))
    assert report.global_value <= mixture_nll(truth, s)


def test_fit_seed_independent_representative():
    rng = np.random.default_rng(55)
    s = make_sample(rng, n=50)
    r1 = fit_mle(s, 2, MultistartConfig(seed=1, n_starts=60))
    r2 = fit_mle(s, 2, MultistartConfig(seed=2, n_starts=60))
    a = np.asarray(r1.clusters[0].representative)
    b = np.asarray(r2.clusters[0].representative)
    assert np.max(np.abs(a - b)) < 1e-4


def test_fit_rejects_too_many_components():
    rng = np.random.default_rng(4)
    s = make_sample(rng, n=8)
    with pytest.raises(ValueError):
        fit_mle(s, 3, MultistartConfig(seed=0, n_starts=4))
    # the documented override still runs
    report = fit_mle(s, 3, MultistartConfig(seed=0, n_starts=4), force=True)
    assert report.verdict in ("unique", "multiple", "inconclusive")


def draw_mixture(seed, weights, means, n):
    rng = np.random.default_rng(seed)
    comp = rng.choice(len(weights), size=n, p=weights)
    return np.asarray(means)[comp] + rng.standard_normal(n)


def reference_em(z, J, cfg):
    """One EM run per start from the E- and M-step formulas.

    Starts come from the seed_key(seed, 0xE) stream as in fit_mle.  A run
    stops once a step moves no weight or mean by cfg.local_tol or more,
    and fails after cfg.max_iters steps.  Returns (nll, means, ok) per run.
    """
    n = len(z)
    rng = np.random.default_rng(np.random.SeedSequence(seed_key(cfg.seed, 0xE)))
    mu0 = np.sort(z[rng.integers(0, n, size=(cfg.n_starts, J))], axis=1)
    w0 = rng.dirichlet(np.ones(J), size=cfg.n_starts)
    runs = []
    for w, mu in zip(w0, mu0):
        ok = False
        for _ in range(cfg.max_iters):
            dens = w * np.exp(-0.5 * (z[:, None] - mu) ** 2) / SQRT_2PI
            r = dens / dens.sum(axis=1, keepdims=True)
            w_new = r.mean(axis=0)
            mu_new = (r * z[:, None]).sum(axis=0) / r.sum(axis=0)
            order = np.argsort(mu_new)
            w_new, mu_new = w_new[order], mu_new[order]
            step = max(np.max(np.abs(w_new - w)), np.max(np.abs(mu_new - mu)))
            w, mu = w_new, mu_new
            if step < cfg.local_tol:
                ok = True
                break
        runs.append((mixture_nll_direct(w, mu, z), mu, ok))
    return runs


def test_fit_capped_starts_count_as_failed():
    z = draw_mixture(3, (0.3, 0.4, 0.3), (-3.0, 0.0, 3.0), 200)
    report = fit_mle(MixtureSample(z=tuple(z)), 3,
                     MultistartConfig(seed=0, n_starts=50, max_iters=3))
    assert report.converged_fraction == 0.0
    assert report.verdict == "inconclusive"


@pytest.mark.parametrize("seed,weights,means,n", [
    (124, (0.5, 0.5), (-1.2, 1.2), 50),
    (3, (0.3, 0.4, 0.3), (-3.0, 0.0, 3.0), 200),
], ids=["J2", "J3"])
def test_fit_matches_per_start_reference_em(seed, weights, means, n):
    J = len(weights)
    z = draw_mixture(seed, weights, means, n)
    # a cap that stops some starts short, so the converged share is tested
    cfg = MultistartConfig(seed=4, n_starts=30, max_iters=75)
    runs = reference_em(z, J, cfg)
    report = fit_mle(MixtureSample(z=tuple(z)), J, cfg)
    converged = [run for run in runs if run[2]]
    assert 0 < len(converged) < len(runs)
    assert report.converged_fraction == len(converged) / len(runs)
    assert sum(c.hits for c in report.clusters) <= len(converged)
    best_nll, best_means, _ = min(converged, key=lambda run: run[0])
    assert abs(report.global_value - best_nll) <= 1e-9 * (1 + abs(best_nll))
    got = params_from_point(report.clusters[0].representative, J).means
    assert np.max(np.abs(np.asarray(got) - best_means)) <= 1e-6


# --------------------------------------------------------------- argmin set

def test_argmin_set_distinct_means_is_permutations():
    best = UnrestrictedParams(weights=(0.3, 0.7), means=(0.0, 1.0))
    expansion = argmin_set_expand(best)
    assert not expansion.has_ties
    members = expansion.permutation_members()
    got = {(m.weights, m.means) for m in members}
    want = {((0.3, 0.7), (0.0, 1.0)), ((0.7, 0.3), (1.0, 0.0))}
    assert got == want
    for m in members:
        assert expansion.is_member(m)
    assert not expansion.is_member(
        UnrestrictedParams(weights=(0.5, 0.5), means=(0.0, 1.0)))


def test_argmin_set_tied_means_accepts_reweightings():
    best = UnrestrictedParams(weights=(0.3, 0.7), means=(0.0, 0.0))
    expansion = argmin_set_expand(best)
    assert expansion.has_ties
    s = MixtureSample(z=(0.2, -1.0))
    base = mixture_nll(best, s)
    for a in (0.1, 0.25, 0.5, 0.9):
        cand = UnrestrictedParams(weights=(a, 1.0 - a), means=(0.0, 0.0))
        assert expansion.is_member(cand)
        assert mixture_nll(cand, s) == pytest.approx(base, abs=1e-10)
    assert not expansion.is_member(
        UnrestrictedParams(weights=(0.5, 0.5), means=(0.0, 1.0)))


def test_argmin_set_singleton():
    best = UnrestrictedParams(weights=(1.0,), means=(0.4,))
    expansion = argmin_set_expand(best)
    assert expansion.permutation_members() == (best,)


# ----------------------------------------------------------- multiplicity

def test_mixture_model_multiplicity_fraction_zero():
    from argmin_unique import MixtureModel, multiplicity_probability

    model = MixtureModel(
        true_params=MixtureParams(weights=(0.5, 0.5), means=(-2.0, 2.0)),
        n=50, fit_J=2)
    est = multiplicity_probability(model, n_draws=25, seed=0,
                                   cfg=MultistartConfig(seed=0, n_starts=40))
    assert est.fraction == 0.0
    assert est.n_inconclusive == 0


# --------------------------------------------------------------------- io

def test_sample_csv_roundtrip(tmp_path):
    s = MixtureSample(z=(0.25, -1.5, 3.125))
    path = tmp_path / "sample.csv"
    path.write_text("z\n" + "".join(f"{v!r}\n" for v in s.z))
    assert read_sample_csv(path) == s
