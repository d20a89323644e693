"""Optimization domains and objective handles.

A domain is a finite union of boxes, each optionally carrying linear
equality constraints ``a . t = c``, strict order constraints ``t_i < t_j``
and nonzero constraints ``|t_k| > 0`` (all strictness enforced with a small
numeric margin).  An objective is a handle bundling the function
``Q(t, z)``, optional analytic gradients, and the map from a point to its
admissible derivative directions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import DegenerateObjective, InvalidDirection

DEFAULT_MARGIN = 1e-8
_DIRECTION_TOL = 1e-9


def as_vector(x) -> np.ndarray:
    """Coerce scalars / sequences to a 1-d float array."""
    return np.atleast_1d(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class FDConfig:
    """Finite-difference settings (central scheme)."""

    step: float = 1e-5

    def __post_init__(self):
        if not self.step > 0:
            raise ValueError("FD step must be positive")


FD_DEFAULT = FDConfig()


@dataclass(frozen=True)
class Box:
    """A bounded box, possibly cut by linear equality / order / nonzero constraints.

    ``eq_constraints`` is a sequence of ``(coefficients, constant)`` pairs
    enforcing ``coefficients . t = constant``.  ``order_constraints`` is a
    sequence of index pairs ``(i, j)`` enforcing ``t_i + margin <= t_j``.
    ``nonzero`` lists coordinates required to satisfy ``|t_k| >= margin``
    (the complement-of-zero pieces used by sparsity partitions).
    """

    lower: tuple
    upper: tuple
    eq_constraints: tuple = ()
    order_constraints: tuple = ()
    nonzero: tuple = ()
    margin: float = DEFAULT_MARGIN

    def __post_init__(self):
        lower = tuple(float(v) for v in np.atleast_1d(self.lower))
        upper = tuple(float(v) for v in np.atleast_1d(self.upper))
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        eqs = tuple(
            (tuple(float(a) for a in np.atleast_1d(coef)), float(c))
            for coef, c in self.eq_constraints
        )
        object.__setattr__(self, "eq_constraints", eqs)
        object.__setattr__(self, "order_constraints",
                           tuple((int(i), int(j)) for i, j in self.order_constraints))
        object.__setattr__(self, "nonzero", tuple(int(k) for k in self.nonzero))
        if len(lower) != len(upper):
            raise ValueError("lower and upper must have equal length")
        if not all(l < u for l, u in zip(lower, upper)):
            raise ValueError("need lower_k < upper_k for every coordinate")
        if not self.margin > 0:
            raise ValueError("margin must be positive")
        d = len(lower)
        for coef, _ in eqs:
            if len(coef) != d:
                raise ValueError("equality coefficient length mismatch")
            if not np.any(np.abs(coef) > 0):
                raise ValueError("equality coefficient vector must be nonzero")
        for i, j in self.order_constraints:
            if i == j or not (0 <= i < d and 0 <= j < d):
                raise ValueError("order constraint indices must be distinct and in range")
        for k in self.nonzero:
            if not 0 <= k < d:
                raise ValueError("nonzero index out of range")

    @property
    def dim(self) -> int:
        return len(self.lower)

    @cached_property
    def lower_arr(self) -> np.ndarray:
        return np.asarray(self.lower, dtype=float)

    @cached_property
    def upper_arr(self) -> np.ndarray:
        return np.asarray(self.upper, dtype=float)

    @cached_property
    def _eq_system(self):
        """(A, c) of the stacked equality constraints, or None."""
        if not self.eq_constraints:
            return None
        A = np.asarray([coef for coef, _ in self.eq_constraints], dtype=float)
        c = np.asarray([con for _, con in self.eq_constraints], dtype=float)
        return A, c

    @cached_property
    def anchor(self) -> np.ndarray:
        """A particular point on the equality surface (box midpoint otherwise)."""
        mid = 0.5 * (self.lower_arr + self.upper_arr)
        if self._eq_system is None:
            return mid
        return self.project_eq(mid)

    @cached_property
    def null_basis(self) -> np.ndarray:
        """Orthonormal basis (d x k) of the equality constraints' null space."""
        d = self.dim
        if self._eq_system is None:
            return np.eye(d)
        A, _ = self._eq_system
        _, s, vt = np.linalg.svd(A)
        rank = int(np.sum(s > 1e-12 * max(1.0, s[0] if len(s) else 1.0)))
        return vt[rank:].T

    @property
    def intrinsic_dim(self) -> int:
        return self.null_basis.shape[1]

    def project_eq(self, t) -> np.ndarray:
        """Orthogonal projection onto the equality-constraint surface."""
        t = as_vector(t)
        if self._eq_system is None:
            return t
        A, c = self._eq_system
        correction = np.linalg.lstsq(A, A @ t - c, rcond=None)[0]
        return t - correction

    def to_intrinsic(self, t) -> np.ndarray:
        return self.null_basis.T @ (as_vector(t) - self.anchor)

    def from_intrinsic(self, u) -> np.ndarray:
        return self.anchor + self.null_basis @ as_vector(u)

    def intrinsic_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Conservative box bounds in intrinsic coordinates (interval arithmetic)."""
        N = self.null_basis
        lo = self.lower_arr - self.anchor
        hi = self.upper_arr - self.anchor
        lo_u = np.minimum(N * lo[:, None], N * hi[:, None]).sum(axis=0)
        hi_u = np.maximum(N * lo[:, None], N * hi[:, None]).sum(axis=0)
        return lo_u, hi_u

    def violation(self, t) -> float:
        """Total constraint violation at t (0 when feasible up to margins)."""
        t = as_vector(t)
        v = float(np.sum(np.maximum(self.lower_arr - t, 0.0))
                  + np.sum(np.maximum(t - self.upper_arr, 0.0)))
        if self._eq_system is not None:
            A, c = self._eq_system
            v += float(np.sum(np.abs(A @ t - c)))
        for i, j in self.order_constraints:
            v += max(0.0, t[i] + self.margin - t[j])
        for k in self.nonzero:
            v += max(0.0, self.margin - abs(t[k]))
        return v

    def contains(self, t, slack: float = 1e-9) -> bool:
        t = as_vector(t)
        if t.shape != (self.dim,):
            return False
        if np.any(t < self.lower_arr - slack) or np.any(t > self.upper_arr + slack):
            return False
        if self._eq_system is not None:
            A, c = self._eq_system
            if np.any(np.abs(A @ t - c) > max(slack, 1e-9)):
                return False
        for i, j in self.order_constraints:
            if not t[i] + self.margin - slack <= t[j]:
                return False
        for k in self.nonzero:
            if abs(t[k]) < self.margin - slack:
                return False
        return True

    def clip(self, t) -> np.ndarray:
        return np.clip(as_vector(t), self.lower_arr, self.upper_arr)

    def repair(self, t, rounds: int = 60) -> Optional[np.ndarray]:
        """Alternate clipping and equality projection; None if infeasible."""
        t = as_vector(t)
        for _ in range(rounds):
            t = self.clip(t)
            t2 = self.project_eq(t)
            if np.allclose(t2, t, atol=1e-12):
                t = t2
                break
            t = t2
        if self.order_constraints or self.nonzero:
            t = t.copy()
            for _ in range(len(self.order_constraints) + 1):  # bubble passes
                for i, j in self.order_constraints:
                    if t[i] + self.margin > t[j]:
                        t[i], t[j] = t[j], t[i]
            for i, j in self.order_constraints:
                if t[i] + self.margin > t[j]:  # ties after sorting
                    t[j] = t[i] + self.margin
            for k in self.nonzero:
                if abs(t[k]) < self.margin:
                    t[k] = self.margin if t[k] >= 0 else -self.margin
            t = self.project_eq(self.clip(t))
        return t if self.contains(t, slack=1e-7) else None

    def diameter(self) -> float:
        return float(np.linalg.norm(self.upper_arr - self.lower_arr))

    def admissible_directions(self, t) -> np.ndarray:
        """Unit directions along which one-sided t-derivatives are taken.

        Coordinate directions are mapped through the equality constraints
        onto the constraint surface; at a boundary face only the inward
        direction survives.  Returns an array of shape (k, dim).
        """
        t = as_vector(t)
        N = self.null_basis
        raw = []
        for k in range(self.dim):
            for sign in (1.0, -1.0):
                e = np.zeros(self.dim)
                e[k] = sign
                d = N @ (N.T @ e)
                nrm = np.linalg.norm(d)
                if nrm > 1e-12:
                    raw.append(d / nrm)
        kept, seen = [], set()
        h = 1e-7
        for d in raw:
            key = tuple(np.round(d, 9))
            if key in seen:
                continue
            seen.add(key)
            if self.contains(t + h * d, slack=1e-12):
                kept.append(d)
        if not kept:
            return np.zeros((0, self.dim))
        return np.asarray(kept)


def _provably_disjoint(a: Box, b: Box) -> bool:
    """Cheap sufficient conditions for two boxes to be disjoint."""
    if a.dim != b.dim:
        return True
    if np.any(a.upper_arr < b.lower_arr) or np.any(b.upper_arr < a.lower_arr):
        return True
    # eq "t_k = c" against nonzero "|t_k| >= margin" (and vice versa)
    for box1, box2 in ((a, b), (b, a)):
        for coef, c in box1.eq_constraints:
            coef = np.asarray(coef)
            nz = np.nonzero(np.abs(coef) > 0)[0]
            if len(nz) == 1:
                k, val = int(nz[0]), c / coef[nz[0]]
                if k in box2.nonzero and abs(val) < box2.margin:
                    return True
    # identical single-coordinate eq constraints with different constants
    eq_a = {tuple(np.round(np.asarray(c) / np.linalg.norm(c), 12)): v / np.linalg.norm(c)
            for c, v in a.eq_constraints}
    for c, v in b.eq_constraints:
        key = tuple(np.round(np.asarray(c) / np.linalg.norm(c), 12))
        if key in eq_a and abs(eq_a[key] - v / np.linalg.norm(c)) > a.margin:
            return True
    # reversed order constraints
    if any((j, i) in b.order_constraints for i, j in a.order_constraints):
        return True
    return False


@dataclass(frozen=True)
class Domain:
    """Finite union of boxes; pieces must be pairwise disjoint up to margins."""

    pieces: tuple

    def __post_init__(self):
        pieces = tuple(self.pieces)
        object.__setattr__(self, "pieces", pieces)
        if not pieces:
            raise ValueError("domain needs at least one piece")
        for i, j in itertools.combinations(range(len(pieces)), 2):
            a, b = pieces[i], pieces[j]
            if _provably_disjoint(a, b):
                continue
            # same constraint structure and overlapping bounds: reject
            if (a.eq_constraints == b.eq_constraints
                    and a.order_constraints == b.order_constraints
                    and a.nonzero == b.nonzero):
                raise ValueError(f"pieces {i} and {j} overlap")

    @property
    def dim(self) -> int:
        return self.pieces[0].dim

    def contains(self, t, slack: float = 1e-9) -> bool:
        return any(p.contains(t, slack) for p in self.pieces)

    def piece_of(self, t) -> Optional[Box]:
        for p in self.pieces:
            if p.contains(t, slack=1e-7):
                return p
        return None

    def diameter(self) -> float:
        lo = np.min([p.lower_arr for p in self.pieces], axis=0)
        hi = np.max([p.upper_arr for p in self.pieces], axis=0)
        return float(np.linalg.norm(hi - lo))

    def admissible_directions(self, t) -> np.ndarray:
        piece = self.piece_of(t)
        if piece is None:
            piece = min(self.pieces, key=lambda p: p.violation(t))
        return piece.admissible_directions(t)


def box(lower, upper, **kwargs) -> Box:
    """Convenience constructor accepting scalars for 1-d boxes."""
    return Box(lower=tuple(np.atleast_1d(np.asarray(lower, float))),
               upper=tuple(np.atleast_1d(np.asarray(upper, float))), **kwargs)


def interval_domain(lo: float, hi: float) -> Domain:
    return Domain(pieces=(box(lo, hi),))


@dataclass(frozen=True)
class Objective:
    """Handle for Q(t, z) with optional analytic gradients.

    ``eval`` maps (t, z) to a float.  ``grad_t`` and ``grad_z``, when given,
    return full gradient vectors and must match central finite differences
    (this is tested, not assumed).  ``admissible_directions`` maps t to an
    array of unit directions; None means every direction is admissible.
    """

    eval: Callable[[np.ndarray, np.ndarray], float]
    grad_t: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    grad_z: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    admissible_directions: Optional[Callable[[np.ndarray], np.ndarray]] = None


def eval_objective(obj: Objective, t, z) -> float:
    """Evaluate Q(t, z); non-finite results raise DegenerateObjective."""
    value = float(obj.eval(as_vector(t), as_vector(z)))
    if not np.isfinite(value):
        raise DegenerateObjective(f"objective non-finite at t={t}, z={z}")
    return value


def _direction_in(delta: np.ndarray, directions: np.ndarray) -> bool:
    if directions.size == 0:
        return False
    return bool(np.any(np.max(np.abs(directions - delta), axis=1) <= _DIRECTION_TOL))


def directional_derivative_t(obj: Objective, t, z, delta,
                             fd: FDConfig = FD_DEFAULT) -> float:
    """One-sided derivative of Q along an admissible direction at t.

    Uses the analytic t-gradient when available.  Otherwise central
    differences when the opposite direction is also admissible, and a
    second-order one-sided stencil at boundary points.
    """
    t, z, delta = as_vector(t), as_vector(z), as_vector(delta)
    nrm = np.linalg.norm(delta)
    if nrm == 0:
        raise InvalidDirection("zero direction")
    delta = delta / nrm
    two_sided = True
    if obj.admissible_directions is not None:
        dirs = obj.admissible_directions(t)
        if not _direction_in(delta, dirs):
            raise InvalidDirection(f"direction {delta} not admissible at t={t}")
        two_sided = _direction_in(-delta, dirs)
    if obj.grad_t is not None:
        return float(np.dot(as_vector(obj.grad_t(t, z)), delta))
    h = fd.step
    if two_sided:
        return (eval_objective(obj, t + h * delta, z)
                - eval_objective(obj, t - h * delta, z)) / (2 * h)
    # one-sided, second order: (-3 f(t) + 4 f(t+h) - f(t+2h)) / (2h)
    f0 = eval_objective(obj, t, z)
    f1 = eval_objective(obj, t + h * delta, z)
    f2 = eval_objective(obj, t + 2 * h * delta, z)
    return (-3.0 * f0 + 4.0 * f1 - f2) / (2 * h)


def grad_z(obj: Objective, t, z, fd: FDConfig = FD_DEFAULT) -> np.ndarray:
    """Gradient of Q with respect to z (analytic or central differences)."""
    t, z = as_vector(t), as_vector(z)
    if obj.grad_z is not None:
        return as_vector(obj.grad_z(t, z))
    h = fd.step
    out = np.empty_like(z)
    for i in range(len(z)):
        zp, zm = z.copy(), z.copy()
        zp[i] += h
        zm[i] -= h
        out[i] = (eval_objective(obj, t, zp) - eval_objective(obj, t, zm)) / (2 * h)
    return out
