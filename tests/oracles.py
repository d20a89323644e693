"""Independent oracles used to freeze expected values in the tests.

Everything here is deliberately written from closed forms or brute force,
never by calling the code paths under test.
"""

import math

import numpy as np

SQRT_2PI = math.sqrt(2.0 * math.pi)


def phi(x: float) -> float:
    return math.exp(-0.5 * x * x) / SQRT_2PI


def quadratic_roots(a: float, b: float, c: float):
    """Real roots of a x^2 + b x + c = 0 (empty/one/two, ascending)."""
    if a == 0.0:
        return (-c / b,) if b != 0 else ()
    disc = b * b - 4 * a * c
    if disc < 0:
        return ()
    if disc == 0:
        return (-b / (2 * a),)
    r1 = (-b - math.sqrt(disc)) / (2 * a)
    r2 = (-b + math.sqrt(disc)) / (2 * a)
    return tuple(sorted((r1, r2)))


def ex1_value(pi: float, z) -> float:
    """Closed-form reduction of the first built-in model (b=0, H=I, kappa=0)."""
    z = np.asarray(z, dtype=float)
    resid = z[2] - pi * z[0] - pi * pi * z[1]
    return float(-(z @ z) + resid * resid / (1.0 + pi ** 2 + pi ** 4))


def ex1_roots(z):
    """pi values where the first model attains -||z||^2: z2 p^2 + z1 p - z3 = 0."""
    z = np.asarray(z, dtype=float)
    return quadratic_roots(z[1], z[0], -z[2])


def ex2_value(pi: float, z) -> float:
    """Closed form for the second model: -(z1 + u z2)^2 / (1 + u^2), u = pi + pi^2."""
    z = np.asarray(z, dtype=float)
    u = pi + pi * pi
    return float(-((z[0] + u * z[1]) ** 2) / (1.0 + u * u))


def ex2_roots(z):
    """Minimizing pi pair: u* = z2/z1, then roots of pi^2 + pi - u* = 0."""
    z = np.asarray(z, dtype=float)
    u_star = z[1] / z[0]
    return quadratic_roots(1.0, 1.0, -u_star)


def discriminant_probability(n: int = 1_000_000, seed: int = 20240901):
    """Brute-force P(z1^2 + 4 z2 z3 > 0) under a standard normal z."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, 3))
    hits = z[:, 0] ** 2 + 4.0 * z[:, 1] * z[:, 2] > 0
    p = float(hits.mean())
    se = math.sqrt(p * (1 - p) / n)
    return p, se


def central_difference(f, x: float, h: float = 1e-5) -> float:
    return (f(x + h) - f(x - h)) / (2 * h)


def fd_gradient(f, x, h: float = 1e-5):
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    for i in range(len(x)):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        out[i] = (f(xp) - f(xm)) / (2 * h)
    return out


def scad_rho_quadrature(lam: float, a: float, t: float, n: int = 20000) -> float:
    """Integrate the scad slope from 0 to t (trapezoid, independent route)."""
    def slope(u):
        return lam if u <= lam else max(a * lam - u, 0.0) / (a - 1)

    grid = np.linspace(0.0, abs(t), n)
    vals = np.asarray([slope(u) for u in grid])
    return float(np.trapezoid(vals, grid))


def ols_beta(X, y):
    """Normal-equations solution (the design is full rank by construction)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.linalg.solve(X.T @ X, X.T @ y)


def best_subset_bruteforce(X, y, lam: float):
    """Exhaustive subset-count search; returns (best beta, best value)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, d = X.shape
    best_beta, best_val = None, np.inf
    for mask in range(2 ** d):
        support = [k for k in range(d) if mask >> k & 1]
        beta = np.zeros(d)
        if support:
            beta[support] = np.linalg.lstsq(X[:, support], y, rcond=None)[0]
        resid = y - X @ beta
        val = 0.5 * float(resid @ resid) + lam * len(support)
        if val < best_val:
            best_val, best_beta = val, beta
    return best_beta, best_val


def penalty_rho_slope(kind: str, params: dict, t: float):
    """(rho(t), d rho / dt) at t = |b| > 0, straight from the definitions."""
    lam = params["lam"]
    if kind == "bridge":
        q = params["q"]
        return lam * t ** q, lam * q * t ** (q - 1.0)
    if kind == "scad":
        a = params["a"]
        if t <= lam:
            return lam * t, lam
        if t <= a * lam:
            return ((2 * a * lam * t - t * t - lam * lam) / (2 * (a - 1)),
                    (a * lam - t) / (a - 1))
        return (a + 1) * lam * lam / 2, 0.0
    if kind == "mcp":
        g = params["gamma"]
        if t <= g * lam:
            return lam * t - t * t / (2 * g), lam - t / g
        return g * lam * lam / 2, 0.0
    raise ValueError(f"no smooth penalty {kind!r}")


def penalized_support_minimum(kind: str, params: dict, X, y,
                              radius: float = 10.0, margin: float = 1e-8):
    """Lowest penalized least-squares value found support by support.

    Every nonempty support runs one L-BFGS-B descent with the analytic
    gradient, started at its least-squares fit and bounded to that fit's
    sign orthant (|b_k| in [margin, radius]); b = 0 is also a candidate.
    """
    from scipy.optimize import minimize

    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    d = X.shape[1]
    best = 0.5 * float(y @ y)
    for mask in range(1, 2 ** d):
        cols = [k for k in range(d) if mask >> k & 1]
        Xs = X[:, cols]
        start = np.linalg.lstsq(Xs, y, rcond=None)[0]
        signs = [-1.0 if v < 0 else 1.0 for v in start]
        bounds = [(margin, radius) if s > 0 else (-radius, -margin)
                  for s in signs]

        def f(b, Xs=Xs, signs=signs):
            r = y - Xs @ b
            value, grad = 0.5 * float(r @ r), -(Xs.T @ r)
            for k, (bk, s) in enumerate(zip(b, signs)):
                rho, slope = penalty_rho_slope(kind, params, s * bk)
                value += rho
                grad[k] += s * slope
            return value, grad

        x0 = np.clip(start, [lo for lo, _ in bounds], [hi for _, hi in bounds])
        res = minimize(f, x0, jac=True, method="L-BFGS-B", bounds=bounds,
                       options={"ftol": 1e-14, "gtol": 1e-9, "maxiter": 1000})
        best = min(best, f(res.x)[0])
    return best


def mixture_nll_direct(weights, means, sample) -> float:
    """Plain-sum mixture NLL (no log-sum-exp), for cross-checking."""
    weights = np.asarray(weights, dtype=float)
    means = np.asarray(means, dtype=float)
    total = 0.0
    for z in sample:
        total -= math.log(sum(w * phi(z - m) for w, m in zip(weights, means)))
    return total


def permutation_set(weights, means):
    """All distinct permutations of (weight, mean) pairs."""
    import itertools

    out = set()
    for perm in itertools.permutations(range(len(weights))):
        out.add((tuple(weights[i] for i in perm), tuple(means[i] for i in perm)))
    return out
