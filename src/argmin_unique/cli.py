"""Command-line front end: experiment configs in, deterministic reports out.

Every command writes ``<prefix>.report.json`` (canonical JSON embedding the
config hash, seed and library version) and, where a curve is produced,
``<prefix>.profile.csv``.  Exit codes: 0 success, 2 configuration error,
3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import QuadraticModel
from .domain import box
from .errors import ConfigError, DiagnosticsError
from .genericity import scan_grid
from .globalopt import MultistartConfig, multiplicity_probability
from .mixture import (MixtureModel, MixtureParams, MixtureSample, fit_mle,
                      mixture_nll, params_from_point, read_sample_csv)
from .penalized import PenaltySpec, RegressionData, global_minimize
from .serialize import config_hash, write_csv, write_report
from .threshold import GPSpec, argmin_uniqueness_trial, trial_settings
from .weakid import make_example1, make_example2, profile

KAPPA_NOTE = "kappa term assumed identically zero in this profile"

FIGURE_CASES = (
    ("example1_left", 1, (-1.03, 1.29, 2.77)),
    ("example1_right", 1, (-1.82, -0.52, 0.16)),
    ("example2_left", 2, (-0.23, -0.28, 1.31)),
    ("example2_right", 2, (-0.76, -0.25, -1.65)),
)


def _parse_floats(text: str) -> tuple:
    try:
        values = tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"cannot parse float list {text!r}") from exc
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"float list {text!r} has a non-finite entry")
    return values


def _validated(build, **kwargs):
    """Build a config object or read an input file.

    Its validation errors and a missing or unreadable file are
    configuration errors.
    """
    try:
        return build(**kwargs)
    except (OSError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _report_envelope(command: str, config: dict, payload: dict) -> dict:
    return {
        "command": command,
        "config": config,
        "config_hash": config_hash(config),
        "seed": config.get("seed"),
        "version": __version__,
        **payload,
    }


def _ensure_parent(prefix: str) -> None:
    parent = Path(prefix).parent
    if str(parent) and not parent.exists():
        parent.mkdir(parents=True, exist_ok=True)


def _example_model(number: int, pi_bound: float):
    if number == 1:
        return make_example1(pi_bound=pi_bound)
    if number == 2:
        return make_example2(pi_bound=pi_bound)
    raise ConfigError(f"unknown example {number}")


def cmd_weakid(args) -> int:
    config = {
        "seed": args.seed, "example": args.example, "draws": args.draws,
        "z": list(_parse_floats(args.z)) if args.z else None,
        "eps": args.eps, "delta": args.delta,
        "pi_bound": args.pi_bound, "grid": args.grid,
    }
    model = _validated(_example_model, number=args.example,
                       pi_bound=args.pi_bound)
    if not args.z and args.draws < 1:
        raise ConfigError("need --z (single draw) or --draws >= 1 (Monte Carlo)")
    # one detector for both modes: the model's dense grid of --grid points
    cfg = _validated(MultistartConfig, seed=args.seed, n_starts=args.grid,
                     eps_value=args.eps, delta_cluster=args.delta)
    _ensure_parent(args.out)
    if args.z:
        z = np.asarray(_parse_floats(args.z))
        if len(z) != model.d_z:
            raise ConfigError(f"z must have {model.d_z} components")
        report = model.detect(z, cfg)
        pis = np.linspace(-args.pi_bound, args.pi_bound, args.grid)
        write_csv(f"{args.out}.profile.csv", ["pi", "Q"],
                  (pis, profile(model, pis, z)), comments=[KAPPA_NOTE])
        payload = {"argmin": report.to_dict(), "kappa_note": KAPPA_NOTE}
    else:
        estimate = multiplicity_probability(model, args.draws, seed=args.seed,
                                            cfg=cfg)
        payload = {"multiplicity": estimate.to_dict(), "kappa_note": KAPPA_NOTE}
    write_report(f"{args.out}.report.json",
                 _report_envelope("weakid", config, payload))
    return 0


def cmd_mixture(args) -> int:
    config = {
        "seed": args.seed, "components": args.components,
        "data": args.data, "n": args.n, "starts": args.starts,
        "weights": list(_parse_floats(args.weights)) if args.weights else None,
        "means": list(_parse_floats(args.means)) if args.means else None,
        "force": args.force,
    }
    if args.components < 1:
        raise ConfigError("--components must be at least 1")
    if args.data:
        sample = _validated(read_sample_csv, path=args.data)
    else:
        weights = _parse_floats(args.weights) if args.weights else (0.5, 0.5)
        means = _parse_floats(args.means) if args.means else (-2.0, 2.0)
        params = _validated(MixtureParams, weights=weights, means=means)
        model = _validated(MixtureModel, true_params=params, n=args.n,
                           fit_J=args.components)
        rng = np.random.default_rng(args.seed)
        sample = MixtureSample(z=tuple(model.sample_z(rng)))
    cfg = _validated(MultistartConfig, seed=args.seed, n_starts=args.starts)
    report = fit_mle(sample, args.components, cfg, force=args.force)
    if not report.clusters:
        raise DiagnosticsError("no converged fit")
    params = params_from_point(report.clusters[0].representative, args.components)
    payload = {
        "argmin": report.to_dict(),
        "fit": {"weights": list(params.weights), "means": list(params.means),
                "nll": mixture_nll(params, sample)},
    }
    _ensure_parent(args.out)
    write_report(f"{args.out}.report.json",
                 _report_envelope("mixture", config, payload))
    return 0


def cmd_penalized(args) -> int:
    config = {
        "seed": args.seed, "penalty": args.penalty, "lam": args.lam,
        "q": args.q, "a": args.a, "gamma": args.gamma,
        "data": args.data, "n": args.n, "d": args.d,
    }
    spec = _validated(PenaltySpec, kind=args.penalty, lam=args.lam, q=args.q,
                      a=args.a, gamma=args.gamma)
    if args.data:
        raw = _validated(np.loadtxt, fname=args.data, delimiter=",",
                         skiprows=1, ndmin=2)
        y, X = raw[:, 0], raw[:, 1:]
    else:
        if args.n < 1 or args.d < 1:
            raise ConfigError("--n and --d must be at least 1")
        rng = np.random.default_rng(args.seed)
        X = rng.standard_normal((args.n, args.d))
        beta0 = np.zeros(args.d)
        beta0[: max(1, args.d // 2)] = 1.0
        y = X @ beta0 + rng.standard_normal(args.n)
    data = _validated(RegressionData, y=tuple(y), x=tuple(tuple(r) for r in X))
    cfg = MultistartConfig(seed=args.seed)
    report = global_minimize(spec, data, cfg)
    if not report.clusters:
        raise DiagnosticsError("no converged fit")
    beta = np.asarray(report.clusters[0].representative)
    support = [int(k) for k in np.nonzero(np.abs(beta) > 1e-7)[0]]
    payload = {
        "argmin": report.to_dict(),
        "fit": {"beta": beta.tolist(), "support": support,
                "value": report.clusters[0].value, "verdict": report.verdict},
    }
    _ensure_parent(args.out)
    write_report(f"{args.out}.report.json",
                 _report_envelope("penalized", config, payload))
    return 0


def cmd_threshold(args) -> int:
    config = {
        "seed": args.seed, "paths": args.paths, "grid_size": args.grid_size,
        "m_bound": args.m_bound, "gamma": args.gamma,
        "eps_schedule": list(_parse_floats(args.eps_schedule)),
    }
    spec = _validated(GPSpec, m_bound=args.m_bound, grid_size=args.grid_size,
                      gamma=args.gamma)
    eps_schedule = _validated(trial_settings, n_paths=args.paths,
                              eps_schedule=_parse_floats(args.eps_schedule))
    trial = argmin_uniqueness_trial(spec, args.paths, eps_schedule=eps_schedule,
                                    seed=args.seed)
    payload = {"trial": trial.to_dict()}
    _ensure_parent(args.out)
    write_report(f"{args.out}.report.json",
                 _report_envelope("threshold", config, payload))
    return 0


def cmd_generic_check(args) -> int:
    config = {
        "seed": args.seed, "model": args.model, "resolution": args.resolution,
        "tol": args.tol, "z": list(_parse_floats(args.z)) if args.z else None,
    }
    if args.model == "quadratic":
        base = QuadraticModel()
        obj, domain, d_z = base.objective(), base.domain, base.dim
    elif args.model in ("example1", "example2"):
        model = _example_model(int(args.model[-1]), pi_bound=6.0)
        obj, domain, d_z = model.objective(), model.pi_domain, model.d_z
    else:
        raise ConfigError(f"unknown model {args.model!r}")
    z_region = box([-3.0] * d_z, [3.0] * d_z)
    if args.resolution < 2:
        raise ConfigError("--resolution must be at least 2")
    if args.tol is not None and not (math.isfinite(args.tol) and args.tol > 0):
        raise ConfigError("--tol must be finite and positive")
    z_points = [np.asarray(_parse_floats(args.z))] if args.z else None
    if z_points and len(z_points[0]) != d_z:
        raise ConfigError(f"z must have {d_z} components")
    report = scan_grid(obj, domain, z_region=z_region,
                       resolution=args.resolution, tol=args.tol,
                       z_points=z_points)
    payload = {"scan": report.to_dict()}
    _ensure_parent(args.out)
    write_report(f"{args.out}.report.json",
                 _report_envelope("generic-check", config, payload))
    return 0


def cmd_reproduce_figures(args) -> int:
    outdir = Path(args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    pis = np.linspace(-6.0, 6.0, 1201)
    for name, number, z in FIGURE_CASES:
        model = _example_model(number, pi_bound=6.0)
        q = profile(model, pis, np.asarray(z))
        write_csv(outdir / f"{name}.csv", ["pi", "Q"], (pis, q),
                  comments=[KAPPA_NOTE, f"z={','.join(str(v) for v in z)}"])
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="argmin-unique",
        description="Diagnostics for almost-sure uniqueness of global minimizers")
    parser.add_argument("--config", help="JSON config file replacing CLI flags")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("weakid", help="weak-identification limit objective")
    p.add_argument("--example", type=int, default=1, choices=(1, 2))
    p.add_argument("--z", help="comma-separated z vector (single-draw mode)")
    p.add_argument("--draws", type=int, default=0,
                   help="Monte Carlo draws (multiplicity-probability mode)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--pi-bound", type=float, default=6.0)
    p.add_argument("--grid", type=int, default=1201,
                   help="points of the detector's pi grid (at least 201 are "
                        "used) and of the profile CSV")
    p.add_argument("--out", default="weakid")
    p.set_defaults(func=cmd_weakid)

    p = sub.add_parser("mixture", help="normal mixture maximum likelihood")
    p.add_argument("--data", help="single-column CSV of observations")
    p.add_argument("--components", type=int, default=2)
    p.add_argument("--n", type=int, default=50)
    p.add_argument("--weights", help="true weights for simulation")
    p.add_argument("--means", help="true means for simulation")
    p.add_argument("--starts", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--force", action="store_true",
                   help="allow J > sqrt(n) (uniqueness no longer guaranteed)")
    p.add_argument("--out", default="mixture")
    p.set_defaults(func=cmd_mixture)

    p = sub.add_parser("penalized", help="penalized least squares")
    p.add_argument("--data", help="CSV with header y,x1,...,xd")
    p.add_argument("--penalty", default="scad",
                   choices=("l0", "bridge", "scad", "mcp"))
    p.add_argument("--lam", type=float, default=1.0)
    p.add_argument("--q", type=float, default=0.5)
    p.add_argument("--a", type=float, default=3.7)
    p.add_argument("--gamma", type=float, default=3.0)
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--d", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="penalized")
    p.set_defaults(func=cmd_penalized)

    p = sub.add_parser("threshold", help="Gaussian-process functional trial")
    p.add_argument("--paths", type=int, default=500)
    p.add_argument("--grid-size", type=int, default=1001)
    p.add_argument("--m-bound", type=float, default=5.0)
    p.add_argument("--gamma", type=float, default=0.5)
    p.add_argument("--eps-schedule", default="1e-2,3e-3,1e-3,3e-4")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="threshold")
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("generic-check", help="nondegeneracy grid scan")
    p.add_argument("--model", default="quadratic",
                   choices=("quadratic", "example1", "example2"))
    p.add_argument("--resolution", type=int, default=11)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--z", help="fix the z point instead of scanning a z grid")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="generic_check")
    p.set_defaults(func=cmd_generic_check)

    p = sub.add_parser("reproduce-figures",
                       help="profile CSVs for the built-in example draws")
    p.add_argument("--out-dir", default="figures")
    p.set_defaults(func=cmd_reproduce_figures)
    return parser


_CONFIG_KEYS = {
    "weakid": {"command", "example", "z", "draws", "seed", "eps", "delta",
               "pi_bound", "grid", "out"},
    "mixture": {"command", "data", "components", "n", "weights", "means",
                "starts", "seed", "force", "out"},
    "penalized": {"command", "data", "penalty", "lam", "q", "a", "gamma",
                  "n", "d", "seed", "out"},
    "threshold": {"command", "paths", "grid_size", "m_bound", "gamma",
                  "eps_schedule", "seed", "out"},
    "generic-check": {"command", "model", "resolution", "tol", "z", "seed",
                      "out"},
    "reproduce-figures": {"command", "out_dir"},
}


def _args_from_config(path: str, parser: argparse.ArgumentParser):
    try:
        with open(path) as handle:
            raw = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict) or "command" not in raw:
        raise ConfigError("config must be an object with a 'command' key")
    command = raw["command"]
    allowed = _CONFIG_KEYS.get(command)
    if allowed is None:
        raise ConfigError(f"unknown command {command!r}")
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    argv = [command]
    for key, value in raw.items():
        if key == "command" or value is None:
            continue
        flag = "--" + key.replace("_", "-")
        if isinstance(value, bool):
            if value:
                argv.append(flag)
        else:
            argv.append(f"{flag}={value}")
    return parser.parse_args(argv)


_VALUE_FLAGS = {"--z", "--weights", "--means", "--eps-schedule"}


def _merge_negative_values(argv):
    """Turn ['--z', '-1.03,...'] into ['--z=-1.03,...'] for argparse."""
    out, skip = [], False
    for i, arg in enumerate(argv):
        if skip:
            skip = False
            continue
        if (arg in _VALUE_FLAGS and i + 1 < len(argv)
                and argv[i + 1].startswith("-")
                and any(c.isdigit() for c in argv[i + 1])):
            out.append(f"{arg}={argv[i + 1]}")
            skip = True
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_merge_negative_values(list(argv)))
    try:
        if args.config:
            args = _args_from_config(args.config, parser)
        if not getattr(args, "command", None):
            parser.print_help()
            return 2
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DiagnosticsError, np.linalg.LinAlgError, ValueError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
