from pathlib import Path

from argmin_unique import (cli, domain, genericity, globalopt, mixture,
                           penalized, threshold, weakid)

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_bench_trace_patches_package_attributes(monkeypatch):
    """The benchmark's ``--trace 1`` run wraps package functions by name.

    ``layers.install`` reads every attribute it patches, so it fails once
    one of them is removed; ``restore`` must put each original back.
    """
    monkeypatch.syspath_prepend(str(BENCH))
    import layers

    modules = (cli, domain, genericity, globalopt, mixture, penalized,
               threshold, weakid)
    before = [dict(vars(m)) for m in modules]
    violation = domain.Box.violation
    patches = layers.install(layers.Tracer())
    assert weakid.profile is not before[-1]["profile"]
    patches.restore()
    for module, attrs in zip(modules, before):
        assert dict(vars(module)) == attrs, module.__name__
    assert domain.Box.violation is violation
