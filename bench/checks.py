"""Correctness checks on the package's outputs.

Each checker takes plain data (report dicts, file bytes, parsed CSV rows)
and returns a list of failure messages; an empty list means the output
passed.  References are the closed forms and brute force in
``tests/oracles.py`` or computations written here from the definitions,
never the package's own code paths.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
from scipy.optimize import minimize

import oracles

RADIUS = 10.0      # coefficient box of the penalized pieces
MARGIN = 1e-8      # nonzero margin of the penalized pieces
FLAT = 1e-10       # relative rise below which a weakid minimum counts as flat


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * (1.0 + abs(b))


# ---------------------------------------------------------------- penalized

def penalty(kind: str, params: dict, b) -> float:
    """Separable penalty sum_k rho(|b_k|), written from the definitions."""
    t = np.abs(np.asarray(b, dtype=float))
    lam = params["lam"]
    if kind == "l0":
        return lam * float(np.count_nonzero(t))
    if kind == "bridge":
        return lam * float(np.sum(t ** params["q"]))
    if kind == "scad":
        a = params["a"]
        mid = (2 * a * lam * t - t * t - lam * lam) / (2 * (a - 1))
        return float(np.sum(np.where(t <= lam, lam * t,
                                     np.where(t <= a * lam, mid,
                                              (a + 1) * lam * lam / 2))))
    g = params["gamma"]
    return float(np.sum(np.where(t <= g * lam, lam * t - t * t / (2 * g),
                                 g * lam * lam / 2)))


def _penalty_slope(kind: str, params: dict, t: np.ndarray) -> np.ndarray:
    """d rho / d t for t > 0."""
    lam = params["lam"]
    if kind == "bridge":
        return lam * params["q"] * t ** (params["q"] - 1.0)
    if kind == "scad":
        a = params["a"]
        return np.where(t <= lam, lam, np.maximum(a * lam - t, 0.0) / (a - 1))
    g = params["gamma"]
    return np.maximum(lam - t / g, 0.0)


def objective(kind: str, params: dict, X, y, b) -> float:
    r = y - X @ b
    return 0.5 * float(r @ r) + penalty(kind, params, b)


def independent_minimum(kind: str, params: dict, X, y) -> float:
    """Lowest value found by L-BFGS-B with the analytic gradient per support.

    On each support the free coefficients keep the signs of the support's
    least-squares fit (the objective is smooth inside such an orthant);
    scad and mcp, which are C1 everywhere, also get one run over the whole
    box from the full least-squares point.
    """
    d = X.shape[1]
    best = objective(kind, params, X, y, np.zeros(d))
    runs = []
    for mask in range(1, 2 ** d):
        cols = [k for k in range(d) if mask >> k & 1]
        ols = np.linalg.lstsq(X[:, cols], y, rcond=None)[0]
        sign = np.where(ols < 0, -1.0, 1.0)
        bounds = [(MARGIN, RADIUS) if s > 0 else (-RADIUS, -MARGIN) for s in sign]
        runs.append((cols, np.clip(ols, [lo for lo, _ in bounds],
                                   [hi for _, hi in bounds]), bounds))
    if kind in ("scad", "mcp"):
        full = np.linalg.lstsq(X, y, rcond=None)[0]
        runs.append((list(range(d)), np.clip(full, -RADIUS, RADIUS),
                     [(-RADIUS, RADIUS)] * d))
    for cols, x0, bounds in runs:
        Xs = X[:, cols]

        def f(bs):
            r = y - Xs @ bs
            t = np.abs(bs)
            value = 0.5 * float(r @ r) + penalty(kind, params, bs)
            grad = -Xs.T @ r + np.sign(bs) * _penalty_slope(kind, params, t)
            return value, grad

        res = minimize(f, x0, jac=True, method="L-BFGS-B", bounds=bounds)
        best = min(best, float(res.fun))
    return best


def check_l0(report: dict, params: dict, X, y) -> list:
    """Reported value and support equal exhaustive best-subset search."""
    want_beta, want_value = oracles.best_subset_bruteforce(X, y, params["lam"])
    rep = np.asarray(report["clusters"][0]["representative"])
    fails = []
    if not _close(report["global_value"], want_value, 1e-9):
        fails.append(f"l0 value {report['global_value']!r} != brute force "
                     f"{want_value!r}")
    got = sorted(np.nonzero(rep)[0].tolist())
    want = sorted(np.nonzero(want_beta)[0].tolist())
    if got != want:
        fails.append(f"l0 support {got} != brute force {want}")
    return fails


def check_penalized(report: dict, kind: str, params: dict, X, y,
                    search: bool) -> list:
    """Value re-evaluates, beats 0 and OLS, no lower point found, unique."""
    fails = []
    if report["verdict"] != "unique":
        fails.append(f"{kind} verdict {report['verdict']} (theorem: unique)")
    value = report["global_value"]
    for c in report["clusters"]:
        b = np.asarray(c["representative"])
        again = objective(kind, params, X, y, b)
        # Known fault: a bridge coefficient left inside its piece's nonzero
        # margin keeps the descent's infeasibility charge 1e3 v + 1e6 v^2 in
        # the reported value (scad and mcp pieces have no such margin).
        small = (b != 0.0) & (np.abs(b) < MARGIN)
        v = MARGIN * int(np.count_nonzero(small)) if kind == "bridge" else 0.0
        tol = 1e-9 * (1.0 + abs(again))
        if not -tol <= c["value"] - again <= tol + 1e3 * v + 1e6 * v * v:
            fails.append(f"{kind} reported value {c['value']!r} re-evaluates "
                         f"to {again!r}")
    ols = np.clip(oracles.ols_beta(X, y), -RADIUS, RADIUS)
    for label, ref in (("beta=0", np.zeros(X.shape[1])), ("OLS", ols)):
        ref_value = objective(kind, params, X, y, ref)
        if value > ref_value + 1e-9 * (1.0 + abs(ref_value)):
            fails.append(f"{kind} value {value!r} above {label} {ref_value!r}")
    if search:
        lower = independent_minimum(kind, params, X, y)
        if lower < value - report["eps_value"]:
            fails.append(f"{kind} independent search found {lower!r} < "
                         f"{value!r} - eps")
    return fails


# ---------------------------------------------------------------- weakid

def weakid_value(example: int, pis, z) -> np.ndarray:
    """Closed-form profile of the built-in examples (b=0, H=I, no offset)."""
    pis = np.asarray(pis, dtype=float)
    z = np.asarray(z, dtype=float)
    if example == 1:
        resid = z[2] - pis * z[0] - pis ** 2 * z[1]
        return -(z @ z) + resid ** 2 / (1.0 + pis ** 2 + pis ** 4)
    u = pis + pis ** 2
    return -((z[0] + u * z[1]) ** 2) / (1.0 + u * u)


def weakid_roots(example: int, z) -> tuple:
    return (oracles.ex1_roots(z) if example == 1 else oracles.ex2_roots(z))


def weakid_floor(example: int, z) -> float:
    z = np.asarray(z, dtype=float)
    return -float(z @ z) if example == 1 else -float(z[0] ** 2 + z[1] ** 2)


def _tie_tolerance(value: float) -> float:
    """The package's documented default eps_value: 1e-6 * (1 + |best|)."""
    return 1e-6 * (1.0 + abs(value))


def _profile_minima(example: int, z, bound: float) -> tuple:
    """(positions, values) of the profile's local minima, edges included.

    Grid local minima on 4001 points, each refined by three rounds of a
    101-point search around the current best (final spacing below 1e-6).
    """
    grid = np.linspace(-bound, bound, 4001)
    values = weakid_value(example, grid, z)
    padded = np.concatenate([[np.inf], values, [np.inf]])
    at = grid[(values <= padded[:-2]) & (values <= padded[2:])]
    half = grid[1] - grid[0]
    rows = np.arange(len(at))
    for _ in range(3):
        pts = np.clip(at[:, None] + np.linspace(-half, half, 101)[None, :],
                      -bound, bound)
        vals = weakid_value(example, pts, z)
        k = vals.argmin(axis=1)
        at, best = pts[rows, k], vals[rows, k]
        half /= 50.0
    return at, best


def classify_draw(example: int, z, bound: float, delta: float,
                  grid_step: float = 0.0) -> tuple:
    """(roots inside, true minimum, ambiguous?) from the closed form.

    A draw is ambiguous when the detector's tolerances cannot resolve it:
    two roots lie within ``delta`` of each other, a root lies within
    ``delta`` of the interval's edge, or a local minimum of the profile
    away from the minimizers comes within twice the value tolerance of the
    minimum (a flat tail, or a near-tie of two local minima).

    Two known faults of the dense-grid detector are kept out the same way:
    it merges roots closer than about two steps of its grid (roots within
    four ``grid_step`` make a draw ambiguous), and it can split a lone
    minimizer whose profile rises by less than ``FLAT`` (relative) within
    ``delta`` on both sides into two clusters.
    """
    roots = weakid_roots(example, z)
    inside = tuple(r for r in roots if -bound <= r <= bound)
    at, values = _profile_minima(example, z, bound)
    if inside:
        low, anchors = weakid_floor(example, z), np.asarray(inside)
    else:
        k = int(values.argmin())
        low, anchors = float(values[k]), at[k:k + 1]
    if any(abs(abs(r) - bound) <= delta for r in roots):
        return inside, low, True
    if any(b - a <= max(delta, 4.0 * grid_step) for a, b in zip(roots, roots[1:])):
        return inside, low, True
    far = np.abs(at[:, None] - anchors[None, :]).min(axis=1) > max(delta,
                                                                   4.0 * grid_step)
    near = values <= low + 2.0 * _tie_tolerance(low)
    if np.any(far & near):
        return inside, low, True
    if len(inside) < 2:
        for a in anchors:
            side = weakid_value(example, np.clip([a - delta, a + delta],
                                                 -bound, bound), z)
            if side.max() - low <= FLAT * (1.0 + abs(low)):
                return inside, low, True
    return inside, low, False


def _at_root(example: int, z, pi: float, root: float, eps: float) -> bool:
    """pi lies within 1e-3 (1 + |root|) of the root, or in its eps-basin.

    Far from 0 the profile is so flat that a whole interval around a root
    ties the floor within eps; any point of that interval sits at the root.
    """
    if abs(pi - root) <= 1e-3 * (1 + abs(root)):
        return True
    path = weakid_value(example, np.linspace(pi, root, 64), z)
    return bool(path.max() <= weakid_floor(example, z) + eps)


def check_weakid_draw(report: dict, example: int, z, bound: float,
                      delta: float, grid_step: float = 0.0) -> tuple:
    """(failures, ambiguous?) of one draw's report against the closed form.

    Every cluster must re-evaluate to its value and sit within the report's
    value tolerance of the true minimum.  For unambiguous draws the verdict
    is ``multiple`` exactly when both roots lie in the interval, each
    cluster sits at a root and each root has a cluster.
    """
    inside, low, ambiguous = classify_draw(example, z, bound, delta, grid_step)
    eps = report["eps_value"]
    fails = []
    where = f"example {example} z={[float(v) for v in z]}"
    reps = [c["representative"][0] for c in report["clusters"]]
    for pi, c in zip(reps, report["clusters"]):
        again = float(weakid_value(example, pi, z))
        if not _close(c["value"], again, 1e-9):
            fails.append(f"{where}: cluster value {c['value']!r} at {pi!r} "
                         f"!= closed form {again!r}")
        if c["value"] > low + eps:
            fails.append(f"{where}: cluster value {c['value']!r} above the "
                         f"minimum {low!r} + eps")
    if ambiguous:
        return fails, True
    want = "multiple" if len(inside) == 2 else "unique"
    if report["verdict"] != want:
        fails.append(f"{where}: verdict {report['verdict']}, roots inside "
                     f"{inside}")
    for pi in reps:
        if inside and not any(_at_root(example, z, pi, r, eps) for r in inside):
            fails.append(f"{where}: cluster at {pi!r} is no root of {inside}")
    for r in inside:
        if not any(_at_root(example, z, pi, r, eps) for pi in reps):
            fails.append(f"{where}: no cluster at root {r!r}")
    return fails, False


def check_fraction(n_multiple: int, n_draws: int) -> list:
    """Example-1 multiple fraction within 3 combined SE of the oracle."""
    p_oracle, se_oracle = oracles.discriminant_probability()
    p = n_multiple / n_draws
    se = math.sqrt(p * (1 - p) / n_draws)
    gap = abs(p - p_oracle)
    limit = 3.0 * math.sqrt(se * se + se_oracle * se_oracle)
    if gap > limit:
        return [f"example 1 fraction {p:.4f} vs oracle {p_oracle:.4f}: "
                f"gap {gap:.4f} > {limit:.4f}"]
    return []


# ---------------------------------------------------------------- CLI files

def parse_profile_csv(text: str) -> np.ndarray:
    rows = [line.split(",") for line in text.splitlines()
            if line and not line.startswith("#")]
    if rows[0] != ["pi", "Q"]:
        raise ValueError(f"unexpected header {rows[0]}")
    return np.asarray(rows[1:], dtype=float)


def check_profile_csv(text: str, example: int, z, n_rows: int) -> list:
    """Every (pi, Q) row equals the closed form."""
    try:
        data = parse_profile_csv(text)
    except (ValueError, IndexError) as exc:
        return [f"profile CSV unreadable: {exc}"]
    if data.shape != (n_rows, 2):
        return [f"profile CSV has shape {data.shape}, want ({n_rows}, 2)"]
    want = weakid_value(example, data[:, 0], z)
    err = np.abs(data[:, 1] - want) / (1.0 + np.abs(want))
    if err.max() > 1e-9:
        k = int(err.argmax())
        return [f"profile CSV row {k}: Q={data[k, 1]!r}, closed form "
                f"{want[k]!r}"]
    return []


def check_mixture(report: dict, sample, true_weights, true_means) -> list:
    """Reported NLL matches a direct sum and beats the true parameters."""
    fit = report["fit"]
    direct = oracles.mixture_nll_direct(fit["weights"], fit["means"], sample)
    truth = oracles.mixture_nll_direct(true_weights, true_means, sample)
    fails = []
    if not _close(fit["nll"], direct, 1e-8):
        fails.append(f"mixture nll {fit['nll']!r} != direct {direct!r}")
    if fit["nll"] > truth + 1e-9 * (1.0 + abs(truth)):
        fails.append(f"mixture nll {fit['nll']!r} above truth {truth!r}")
    return fails


def check_threshold(report: dict) -> list:
    trial = report["trial"]
    fr = dict(zip(trial["eps_schedule"], trial["single_fractions"]))
    fails = []
    if fr.get(1e-3, 0.0) < 0.99:
        fails.append(f"threshold single fraction at 1e-3 is {fr.get(1e-3)}")
    seq = trial["single_fractions"]
    if any(b < a for a, b in zip(seq, seq[1:])):
        fails.append(f"threshold fractions decrease along schedule: {seq}")
    return fails


def check_scan(report: dict, want_triples: int) -> list:
    scan = report["scan"]
    fails = []
    if scan["total_triples"] != want_triples:
        fails.append(f"scan checked {scan['total_triples']} triples, "
                     f"want {want_triples}")
    if scan["degenerate"]:
        fails.append(f"scan found {len(scan['degenerate'])} degenerate triples")
    return fails


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_identical(first: dict, again: dict) -> list:
    """Files of a repeated command are byte-identical to the first run's."""
    fails = []
    for name in sorted(set(first) | set(again)):
        if first.get(name) != again.get(name):
            fails.append(f"{name} differs from the first repeat")
    return fails
