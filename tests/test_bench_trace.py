from pathlib import Path

import numpy as np

from argmin_unique import (MultistartConfig, PenaltySpec, RegressionData, cli,
                           domain, genericity, globalopt, make_example1,
                           mixture, penalized, threshold, weakid)

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_bench_trace_patches_package_attributes(monkeypatch):
    """The benchmark's ``--trace 1`` run wraps package functions by name.

    ``layers.install`` reads every attribute it patches, so it fails once
    one of them is removed; ``restore`` must put each original back.  While
    installed, the l0 and weakid detectors must cluster through the wrapped
    ``cluster_minimizers``, or the ``globalopt.cluster_ms`` metric reads 0.
    """
    monkeypatch.syspath_prepend(str(BENCH))
    import layers

    modules = (cli, domain, genericity, globalopt, mixture, penalized,
               threshold, weakid)
    before = [dict(vars(m)) for m in modules]
    violation = domain.Box.violation
    tracer = layers.Tracer()
    patches = layers.install(tracer)

    def cluster_spans():
        return tracer.summary().get("globalopt.cluster", (0,))[0]

    try:
        assert weakid.profile is not before[-1]["profile"]
        rng = np.random.default_rng(0)
        X = rng.standard_normal((10, 3))
        data = RegressionData(y=tuple(X @ [1.0, -1.0, 0.0]
                                      + rng.standard_normal(10)),
                              x=tuple(tuple(r) for r in X))
        penalized.global_minimize(PenaltySpec(kind="l0", lam=1.0), data)
        after_l0 = cluster_spans()
        assert after_l0 >= 1
        weakid.profile_report(make_example1(), [-1.03, 1.29, 2.77],
                              MultistartConfig(n_starts=201))
        assert cluster_spans() > after_l0
    finally:
        patches.restore()
    for module, attrs in zip(modules, before):
        assert dict(vars(module)) == attrs, module.__name__
    assert domain.Box.violation is violation
