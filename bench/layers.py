"""Span tracer and the wrappers that time each package layer from outside.

Every wrapped function is replaced at the module attribute where the
package looks it up at call time, so the package itself is unchanged.
Spans (name, parent span, op index, start, end) are appended to flat arrays
while the traced section runs and are reduced or written out only after it
ends.  A span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import os
from array import array
from time import perf_counter

import numpy as np


class Tracer:
    """In-memory span recorder with per-name counters."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list = []
        self.counters: dict = {}
        self.current_op = -1

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def enter(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.current_op)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def exit(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def summary(self) -> dict:
        """{name: (calls, total seconds, self seconds)} over all spans."""
        if not len(self.start):
            return {}
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        own = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        selft = np.bincount(name, weights=own, minlength=k)
        return {n: (int(calls[i]), float(total[i]), float(selft[i]))
                for i, n in enumerate(self.names)}

    def write(self, path) -> None:
        np.savez_compressed(
            path, names=np.asarray(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end))


def _wrap(tracer: Tracer, span: str, fn, after=None):
    nid = tracer.name_id(span)

    def wrapper(*args, **kwargs):
        idx = tracer.enter(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(idx)
        if after is not None:
            after(args, kwargs, result)
        return result

    return wrapper


class Patches:
    """Installs the layer wrappers; ``restore`` puts the originals back."""

    def __init__(self):
        self._saved: list = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def install(tracer: Tracer) -> Patches:
    """Wrap the public functions of every layer where the package calls them."""
    from argmin_unique import (cli, domain, genericity, globalopt, mixture,
                               penalized, threshold, weakid)

    p = Patches()
    count = tracer.count

    # globalopt: local descents, split by method, with scipy's nfev
    scipy_minimize = globalopt.minimize
    nm_id = tracer.name_id("globalopt.nelder_mead")
    lb_id = tracer.name_id("globalopt.lbfgsb")

    def minimize(fn, x0, *args, method=None, **kwargs):
        idx = tracer.enter(nm_id if method == "Nelder-Mead" else lb_id)
        try:
            res = scipy_minimize(fn, x0, *args, method=method, **kwargs)
        finally:
            tracer.exit(idx)
        count("globalopt.nfev", getattr(res, "nfev", 0))
        return res

    p.set(globalopt, "minimize", minimize)

    # clustering, looked up separately by each detector module
    cluster = _wrap(tracer, "globalopt.cluster", globalopt.cluster_minimizers,
                    lambda a, k, r: count("globalopt.cluster_points", len(a[0])))
    for module in (globalopt, penalized, weakid, mixture):
        p.set(module, "cluster_minimizers", cluster)

    p.set(domain.Box, "violation",
          _wrap(tracer, "domain.violation", domain.Box.violation))

    p.set(penalized, "penalty_value",
          _wrap(tracer, "penalized.penalty", penalized.penalty_value))
    p.set(penalized, "enumerate_best_subsets",
          _wrap(tracer, "penalized.enumerate", penalized.enumerate_best_subsets))

    p.set(weakid, "profile", _wrap(
        tracer, "weakid.profile", weakid.profile,
        lambda a, k, r: count("weakid.profile_points", np.size(r))))
    p.set(weakid, "limit_objective",
          _wrap(tracer, "weakid.scalar", weakid.limit_objective))
    p.set(weakid, "minimize", _wrap(tracer, "weakid.polish", weakid.minimize))

    fit = _wrap(tracer, "mixture.fit_mle", mixture.fit_mle)
    p.set(mixture, "fit_mle", fit)
    p.set(cli, "fit_mle", fit)

    p.set(threshold, "build_factor",
          _wrap(tracer, "threshold.factor", threshold.build_factor))
    p.set(threshold, "simulate_path",
          _wrap(tracer, "threshold.path", threshold.simulate_path))
    p.set(threshold, "objective_profile",
          _wrap(tracer, "threshold.profile", threshold.objective_profile))

    p.set(genericity, "check_triple",
          _wrap(tracer, "genericity.check", genericity.check_triple))
    p.set(cli, "scan_grid", _wrap(tracer, "genericity.scan", cli.scan_grid))

    # serialize: the CLI holds its own references to the writers
    def written(args, kwargs, result):
        count("serialize.bytes", os.path.getsize(args[0]))

    p.set(cli, "write_report",
          _wrap(tracer, "serialize.write", cli.write_report, written))
    p.set(cli, "write_csv",
          _wrap(tracer, "serialize.write", cli.write_csv, written))
    return p
