"""Nondegeneracy diagnostics for pairs of candidate minimizers.

For a triple ``(t, s, z)`` with ``t != s`` the objective gap
``gap(t, s, z) = Q(t, z) - Q(s, z)`` is probed for four ways of ruling out
a simultaneous global minimum at both points:

  (a) the gap itself is nonzero,
  (b) some admissible direction at t strictly decreases the gap,
  (c) some admissible direction at s strictly increases the gap,
  (d) the z-gradient of the gap is nonzero.

A triple for which all four margins fall below tolerance is *degenerate*:
it witnesses exactly the kind of tie that makes multiple global minimizers
possible with positive probability.  Degenerate triples are reported, never
repaired.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Optional

import numpy as np

from .domain import (Box, Domain, Objective, as_vector,
                     directional_derivative_t, eval_objective, grad_z,
                     mesh_points)
from .errors import NotDistinct

CONDITION_ORDER = ("a", "b", "c", "d")


def _require_distinct(t: np.ndarray, s: np.ndarray, min_separation: float) -> None:
    if np.linalg.norm(t - s) <= min_separation:
        raise NotDistinct(f"points {t} and {s} are within {min_separation}")


def _require_tolerance(tol: Optional[float]) -> None:
    if tol is not None and not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be None or finite and positive, got {tol}")


def objective_gap(obj: Objective, t, s, z, min_separation: float = 1e-9) -> float:
    """Q(t, z) - Q(s, z); raises NotDistinct when t and s coincide."""
    t, s = as_vector(t), as_vector(s)
    _require_distinct(t, s, min_separation)
    return eval_objective(obj, t, z) - eval_objective(obj, s, z)


@dataclass(frozen=True)
class GenericityVerdict:
    """Outcome of checking one (t, s, z) triple.

    ``condition`` is one of "a", "b", "c", "d" (first condition satisfied,
    in that fixed order) or "degenerate".  ``margin`` is the witnessing
    magnitude; ``margins`` records all four tested magnitudes.
    """

    t: tuple
    s: tuple
    z: tuple
    condition: str
    margin: float
    tolerance: float
    margins: dict

    @property
    def degenerate(self) -> bool:
        return self.condition == "degenerate"

    def to_dict(self) -> dict:
        return {
            "t": list(self.t),
            "s": list(self.s),
            "z": list(self.z),
            "condition": self.condition,
            "margin": self.margin,
            "tolerance": self.tolerance,
            "margins": dict(self.margins),
        }


def _point_terms(obj: Objective, points, zs) -> tuple:
    """Per-point quantities every margin is built from, for each (point, z).

    Returns Q (P, M), the best admissible descent rate -dQ/dh, 0 when no
    direction descends (P, M), and grad_z (P, M, d_z).  Admissible
    directions depend on the point only, so they are looked up once per
    point and handed to ``directional_derivative_t`` through a copy of the
    objective that returns them.
    """
    if obj.admissible_directions is None:
        raise ValueError("objective must provide admissible_directions for t/s checks")
    q = np.empty((len(points), len(zs)))
    rate = np.empty_like(q)
    gz = []
    for p, point in enumerate(points):
        dirs = obj.admissible_directions(point)
        fixed = replace(obj, admissible_directions=lambda _t, dirs=dirs: dirs)
        for m, z in enumerate(zs):
            q[p, m] = eval_objective(obj, point, z)
            rate[p, m] = max([0.0] + [-directional_derivative_t(fixed, point, z, d)
                                      for d in dirs])
            gz.append(grad_z(obj, point, z))
    return q, rate, np.reshape(gz, (len(points), len(zs), -1))


def _margins(q, rate, gz, i, j, tol: Optional[float]) -> tuple:
    """Margins a-d and the tolerance of the pairs (i[k], j[k]) at every z.

    Each margin is a (K, M) array.  The default tolerance is
    1e-6 * (1 + |Q(t,z)| + |Q(s,z)|), scale-aware.
    """
    margins = {
        "a": np.abs(q[i] - q[j]),
        "b": rate[i],
        "c": rate[j],
        "d": np.max(np.abs(gz[i] - gz[j]), axis=-1),
    }
    if tol is None:
        tol = 1e-6 * (1.0 + np.abs(q[i]) + np.abs(q[j]))
    return margins, np.broadcast_to(tol, margins["a"].shape)


def _verdict(t, s, z, margins: dict, tol: float) -> GenericityVerdict:
    """Classify by the first condition (a)-(d) whose margin exceeds tol."""
    cond = next((c for c in CONDITION_ORDER if margins[c] > tol), "degenerate")
    margin = max(margins.values()) if cond == "degenerate" else margins[cond]
    return GenericityVerdict(t=tuple(t), s=tuple(s), z=tuple(z), condition=cond,
                             margin=margin, tolerance=tol, margins=margins)


def _triple(margins: dict, tols, k: int, m: int) -> tuple:
    """Scalar margins and tolerance of pair k at z index m."""
    return {c: float(v[k, m]) for c, v in margins.items()}, float(tols[k, m])


def check_triple(obj: Objective, t, s, z, tol: Optional[float] = None,
                 min_separation: float = 1e-9) -> GenericityVerdict:
    """Classify a triple by the first condition (a)-(d) that holds.

    All four margins are computed and attached to the verdict so that
    degenerate reports carry the full evidence.  This is the two-point
    case of ``scan_grid``.
    """
    t, s, z = as_vector(t), as_vector(s), as_vector(z)
    _require_tolerance(tol)
    _require_distinct(t, s, min_separation)
    margins, tols = _margins(*_point_terms(obj, [t, s], [z]), [0], [1], tol)
    return _verdict(t, s, z, *_triple(margins, tols, 0, 0))


@dataclass(frozen=True)
class ScanReport:
    """Grid-scan summary; only degenerate triples are listed in full."""

    grid_spec: str
    total_triples: int
    degenerate: tuple

    def to_dict(self) -> dict:
        return {
            "grid_spec": self.grid_spec,
            "total_triples": self.total_triples,
            "degenerate": [v.to_dict() for v in self.degenerate],
        }


def scan_grid(obj: Objective, domain: Domain, z_region: Optional[Box] = None,
              resolution: int = 11, tol: Optional[float] = None,
              t_points: Optional[Iterable] = None,
              z_points: Optional[Iterable] = None,
              min_separation: Optional[float] = None) -> ScanReport:
    """Check every (t, s, z) grid triple with t, s in distinct cells.

    Explicit ``t_points`` / ``z_points`` override the uniform meshes, which
    is how known tie candidates are routed through the scan.  Cost: Q, the
    descent rates and grad_z once per (point, z) for the P points that are
    in some pair and the M z points, then array work over pairs and z;
    verdicts are built only for degenerate triples.
    """
    _require_tolerance(tol)
    if resolution < 2:
        raise ValueError("resolution must be at least 2 per axis")
    if t_points is not None:
        tp = np.asarray([as_vector(p) for p in t_points])
    else:
        tp = mesh_points(domain.pieces, resolution)
    if z_points is not None:
        zp = np.asarray([as_vector(p) for p in z_points])
    elif z_region is not None:
        zp = mesh_points([z_region], resolution)
    else:
        raise ValueError("provide z_region or z_points")
    if min_separation is None:
        spans = np.concatenate([np.asarray(p.upper) - np.asarray(p.lower)
                                for p in domain.pieces])
        min_separation = 0.5 * float(spans.min()) / max(resolution - 1, 1)
    i, j = np.triu_indices(len(tp), 1)
    keep = ~(np.linalg.norm(tp[i] - tp[j], axis=-1) <= min_separation)
    i, j = i[keep], j[keep]
    degenerate = []
    used = np.unique(np.concatenate([i, j]))
    if len(used):
        terms = _point_terms(obj, tp[used], zp)
        margins, tols = _margins(*terms, np.searchsorted(used, i),
                                 np.searchsorted(used, j), tol)
        flagged = np.logical_or.reduce([margins[c] > tols for c in CONDITION_ORDER])
        for k, m in np.argwhere(~flagged):
            degenerate.append(_verdict(tp[i[k]], tp[j[k]], zp[m],
                                       *_triple(margins, tols, k, m)))
    degenerate.sort(key=lambda v: (v.t, v.s, v.z))
    spec = (f"t-points={len(tp)}, z-points={len(zp)}, resolution={resolution}, "
            f"min_separation={min_separation:.3g}")
    return ScanReport(grid_spec=spec, total_triples=len(i) * len(zp),
                      degenerate=tuple(degenerate))
