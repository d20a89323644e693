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


def _mesh(boxes, resolution: int):
    pts = []
    for b in boxes:
        axes = [np.linspace(lo, hi, resolution) for lo, hi in zip(b.lower, b.upper)]
        grid = np.meshgrid(*axes, indexing="ij")
        cand = np.stack([g.ravel() for g in grid], axis=1)
        pts.extend(p for p in cand if b.contains(p, slack=1e-9))
    return np.asarray(pts)


def triple_reference(obj, t, s, z, tol=None) -> dict:
    """Margins and tolerance of one (t, s, z) triple, from scratch.

    Uses the ``domain`` helpers: a = |Q(t,z) - Q(s,z)|, b / c = best
    admissible descent rate -dQ/dh at t / s (0 if none), d = max
    |grad_z Q(t,z) - grad_z Q(s,z)|; tol defaults to
    1e-6 (1 + |Q(t,z)| + |Q(s,z)|).
    """
    from argmin_unique.domain import (directional_derivative_t,
                                      eval_objective, grad_z)

    def descent(point):
        best = 0.0
        for d in obj.admissible_directions(point):
            best = max(best, -directional_derivative_t(obj, point, z, d))
        return best

    qt, qs = eval_objective(obj, t, z), eval_objective(obj, s, z)
    margins = {
        "a": abs(qt - qs),
        "b": descent(t),
        "c": descent(s),
        "d": float(np.max(np.abs(grad_z(obj, t, z) - grad_z(obj, s, z)))),
    }
    return {"margins": margins,
            "tolerance": tol if tol is not None else 1e-6 * (1.0 + abs(qt) + abs(qs))}


def scan_reference(obj, domain, z_region=None, resolution: int = 11, tol=None,
                   t_points=None, z_points=None,
                   min_separation=None) -> dict:
    """Nondegeneracy scan as a plain loop over (t, s, z) triples.

    Each triple gets its margins from ``triple_reference``; it is
    degenerate when no margin exceeds its tolerance.  Returns the scan
    report's dict.
    """
    from argmin_unique.domain import as_vector

    tp = (np.asarray([as_vector(p) for p in t_points]) if t_points is not None
          else _mesh(domain.pieces, resolution))
    zp = (np.asarray([as_vector(p) for p in z_points]) if z_points is not None
          else _mesh([z_region], resolution))
    if min_separation is None:
        spans = np.concatenate([np.asarray(p.upper) - np.asarray(p.lower)
                                for p in domain.pieces])
        min_separation = 0.5 * float(spans.min()) / max(resolution - 1, 1)
    total, degenerate = 0, []
    for i in range(len(tp)):
        for j in range(i + 1, len(tp)):
            t, s = tp[i], tp[j]
            if np.linalg.norm(t - s) <= min_separation:
                continue
            for z in zp:
                total += 1
                ref = triple_reference(obj, t, s, z, tol)
                margins = ref["margins"]
                if any(m > ref["tolerance"] for m in margins.values()):
                    continue
                degenerate.append({
                    "t": list(t), "s": list(s), "z": list(z),
                    "condition": "degenerate",
                    "margin": max(margins.values()), **ref,
                })
    degenerate.sort(key=lambda v: (v["t"], v["s"], v["z"]))
    spec = (f"t-points={len(tp)}, z-points={len(zp)}, resolution={resolution}, "
            f"min_separation={min_separation:.3g}")
    return {"grid_spec": spec, "total_triples": total, "degenerate": degenerate}


def single_linkage_reference(points, eps_value: float, delta_cluster: float):
    """Single-linkage clusters by union-find over every pair of points.

    Keeps the points within eps_value of the best value, links pairs at
    Euclidean distance <= delta_cluster, and returns one dict per cluster:
    its lowest (value, coordinates) member as representative, and its size,
    sorted by (value, representative).
    """
    pts = [(np.atleast_1d(np.asarray(t, dtype=float)), float(v)) for t, v in points]
    best = min(v for _, v in pts)
    near = [(t, v) for t, v in pts if v <= best + eps_value]
    parent = list(range(len(near)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(near)):
        for j in range(i + 1, len(near)):
            if np.linalg.norm(near[i][0] - near[j][0]) <= delta_cluster:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
    groups = {}
    for i in range(len(near)):
        groups.setdefault(find(i), []).append(i)
    clusters = []
    for members in groups.values():
        rep = min(members, key=lambda i: (near[i][1], tuple(near[i][0])))
        clusters.append({"representative": list(near[rep][0]),
                         "value": near[rep][1], "hits": len(members)})
    clusters.sort(key=lambda c: (c["value"], c["representative"]))
    return clusters



def gp_profile_reference(spec, W) -> np.ndarray:
    """Q along axis 0 of one path (G,) or a (G, k) block, from a zero array."""
    from scipy.special import ndtr

    t = spec.grid
    shape = (-1,) + (1,) * (W.ndim - 1)
    F = ndtr(W)
    incr = 0.5 * (F[1:] + F[:-1]) * np.diff(t).reshape(shape)
    i0 = len(t) // 2
    Q = np.zeros_like(F)
    Q[i0 + 1:] = np.cumsum(incr[i0:], axis=0)
    Q[:i0] = -np.cumsum(incr[:i0][::-1], axis=0)[::-1]
    return Q - (t * spec.gamma).reshape(shape)


def trial_reference(spec, n_paths: int, eps_schedule, seed: int,
                    block: int = 256) -> dict:
    """The threshold trial as loops over columns, bit for bit.

    Cholesky of K + jitter * I (first attempt only), each block of
    ``block`` paths drawn column by column into a (G, k) array and mapped
    through one ``drift + L @ xi`` product, ``gp_profile_reference`` along
    axis 0, and one sublevel count per eps.  Returns L, the path blocks and
    their profiles, the (n_paths, n_eps) run counts and the single-run
    fractions.
    """
    t = spec.grid
    G = len(t)
    K = np.asarray(spec.kernel(t[:, None], t[None, :]), dtype=float)
    L = np.linalg.cholesky(K + spec.jitter * np.eye(G))
    drift = np.asarray(spec.drift(t), dtype=float)
    blocks, profiles = [], []
    counts = np.zeros((n_paths, len(eps_schedule)), dtype=int)
    singles = [0] * len(eps_schedule)
    for start in range(0, n_paths, block):
        k = min(block, n_paths - start)
        xi = np.empty((G, k))
        for i in range(k):
            xi[:, i] = np.random.default_rng(seed + start + i).standard_normal(G)
        W = drift[:, None] + L @ xi
        Q = gp_profile_reference(spec, W)
        blocks.append(W)
        profiles.append(Q)
        value_range = Q.max(axis=0) - Q.min(axis=0)
        for e_idx, mult in enumerate(eps_schedule):
            eps = mult * value_range
            mask = Q <= Q.min(axis=0) + eps
            runs = mask[0] + np.sum(mask[1:] & ~mask[:-1], axis=0)
            counts[start:start + k, e_idx] = runs
            singles[e_idx] += int(np.sum((runs == 1) & (value_range > eps)))
    return {"L": L, "blocks": blocks, "profiles": profiles, "counts": counts,
            "fractions": tuple(float(s) / n_paths for s in singles)}


def single_path_reference(spec, L, seed: int) -> np.ndarray:
    """One path drift + L @ xi, xi from default_rng(seed), as a (G, 1) product."""
    t = spec.grid
    xi = np.random.default_rng(seed).standard_normal(len(t))[:, None]
    return (np.asarray(spec.drift(t), dtype=float)[:, None] + L @ xi)[:, 0]


def _descend_reference(obj, piece, z, t_start, cfg):
    """One start: scipy Nelder-Mead plus an L-BFGS-B polish, (t, value, ok)."""
    from scipy.optimize import minimize

    from argmin_unique.domain import eval_objective

    if piece.intrinsic_dim == 0:
        return t_start, eval_objective(obj, t_start, z), True
    plain_box = (not piece.eq_constraints and not piece.order_constraints
                 and not piece.nonzero)
    if plain_box:
        def fn(u):
            return obj.eval(u, z)

        u0 = np.asarray(t_start, dtype=float)
        bounds = list(zip(piece.lower, piece.upper))
    else:
        def fn(u):
            t = piece.from_intrinsic(u)
            v = piece.violation(t)
            value = obj.eval(piece.clip(t), z)
            if v > 0:
                return value + 1e3 * v + 1e6 * v * v
            return value

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
        t_best = piece.from_intrinsic(u_best)
        v_best = float(obj.eval(t_best, z))
    else:
        t_best = u_best
    if piece.violation(t_best) > 1e-7 or not np.isfinite(v_best):
        return t_best, v_best, False
    return t_best, v_best, ok


def multistart_reference(obj, domain, z, cfg):
    """The multistart as one scipy Nelder-Mead run per start, in order.

    The package's Sobol starts per piece, each descended on its own by
    ``_descend_reference`` (one-point calls of ``obj.eval``), then the
    package's ``decide``.  Returns the ArgminReport.
    """
    from argmin_unique.domain import as_vector
    from argmin_unique.globalopt import _sobol_starts, decide

    z = as_vector(z)
    per_piece = max(1, cfg.n_starts // len(domain.pieces))
    results = [_descend_reference(obj, piece, z, t0, cfg)
               for p_idx, piece in enumerate(domain.pieces)
               for t0 in _sobol_starts(piece, per_piece, (cfg.seed, p_idx))]
    return decide(results, domain, cfg)



def support_route_reference(spec, data, cfg):
    """The penalized detector with its starts drawn on the 2^d partition.

    Piece p of ``partition_domain`` draws the package's Sobol starts keyed
    (seed, p), each repaired into the piece, and hands their support
    coordinates to the support the piece holds (the full support for the
    one scad/mcp piece).  Each support then runs the package's orthant
    descents from its least-squares fit and those starts; l0 takes the
    package's enumeration instead.  The candidates go to the package's
    ``decide`` with the partition.  Returns the ArgminReport.
    """
    from argmin_unique.globalopt import _sobol_starts, decide
    from argmin_unique.penalized import (_orthant_descent,
                                         enumerate_best_subsets,
                                         partition_domain)

    d = data.d
    domain = partition_domain(spec, d)
    if spec.kind == "l0":
        return decide([(b, v, True) for b, v in enumerate_best_subsets(spec, data)],
                      domain, cfg)
    X, y = data.x_arr, data.y_arr
    per_piece = max(1, cfg.n_starts // len(domain.pieces))
    starts = {mask: [] for mask in range(1, 2 ** d)}
    for p_idx, piece in enumerate(domain.pieces):
        support = range(d) if spec.separable_smooth else piece.nonzero
        mask = sum(1 << k for k in support)
        if mask:
            starts[mask].extend(_sobol_starts(piece, per_piece, (cfg.seed, p_idx)))
    results = [(np.zeros(d), 0.5 * float(y @ y), True)]
    for mask, extra in starts.items():
        cols = [k for k in range(d) if mask >> k & 1]
        ls = np.linalg.lstsq(X[:, cols], y, rcond=None)[0]
        for b0 in [ls] + [t0[cols] for t0 in extra]:
            b_S, value, ok = _orthant_descent(spec, X[:, cols], y, b0, cfg)
            beta = np.zeros(d)
            beta[cols] = b_S
            results.append((beta, value, ok))
    return decide(results, domain, cfg)


def profile_report_reference(model, z, cfg):
    """The weakid dense-grid detector with every grid profile uncached.

    The package's ``profile_report`` with its grid values from a fresh
    ``profile`` call per draw instead of the model's cached grid part.
    Returns the ArgminReport.
    """
    from argmin_unique.globalopt import decide
    from argmin_unique.weakid import _refine_dips, profile

    G = max(cfg.n_starts, 201)
    candidates = []
    for piece in model.pi_domain.pieces:
        pis = np.linspace(piece.lower[0], piece.upper[0], G)
        xs, qs = _refine_dips(lambda p: profile(model, p, z), pis,
                              profile(model, pis, z), xtol=1e-10)
        candidates += [(np.array([x]), float(q), True) for x, q in zip(xs, qs)]
    return decide(candidates, model.pi_domain, cfg)
