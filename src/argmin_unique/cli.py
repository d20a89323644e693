"""Command-line front end: experiment configs in, deterministic reports out.

Every command writes ``<prefix>.report.json`` (canonical JSON embedding the
parsed flags as its config, their hash, the seed and the library version)
and, where a curve is produced, ``<prefix>.profile.csv``.  Exit codes:
0 success, 2 configuration error, 3 numeric failure.
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
from .penalized import (PenaltySpec, RegressionData, check_enumeration_cap,
                        global_minimize)
from .serialize import config_hash, write_csv, write_report
from .threshold import GPSpec, argmin_uniqueness_trial, trial_settings
from .weakid import grid_profile, make_example1, make_example2

KAPPA_NOTE = "kappa term assumed identically zero in this profile"

FIGURE_CASES = (
    ("example1_left", 1, (-1.03, 1.29, 2.77)),
    ("example1_right", 1, (-1.82, -0.52, 0.16)),
    ("example2_left", 2, (-0.23, -0.28, 1.31)),
    ("example2_right", 2, (-0.76, -0.25, -1.65)),
)


def _finite_float(text: str) -> float:
    """argparse type of every float flag: a finite float or a ConfigError."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ConfigError(f"{text!r} is not a finite float")
    return value


def _seed(text: str) -> int:
    """argparse type of every --seed flag: a non-negative int or a ConfigError."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise ConfigError(f"--seed {text!r} is not a non-negative integer")
    return value


def _parse_floats(text: str) -> tuple:
    """argparse type of a comma-separated list of finite floats."""
    return tuple(_finite_float(v) for v in text.split(","))


def _validated(build, **kwargs):
    """Build a config object or read an input file.

    Its validation errors and a missing or unreadable file are
    configuration errors.
    """
    try:
        return build(**kwargs)
    except (OSError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _example_model(number: int, pi_bound: float):
    if number == 1:
        return make_example1(pi_bound=pi_bound)
    if number == 2:
        return make_example2(pi_bound=pi_bound)
    raise ConfigError(f"unknown example {number}")


def cmd_weakid(args) -> dict:
    model = _validated(_example_model, number=args.example,
                       pi_bound=args.pi_bound)
    if args.draws < 0 or bool(args.z) == (args.draws >= 1):
        raise ConfigError("need exactly one of --z (single draw) and --draws "
                          f">= 1 (Monte Carlo); got --draws {args.draws}")
    # one detector for both modes: the model's dense grid of --grid points
    cfg = _validated(MultistartConfig, seed=args.seed, n_starts=args.grid,
                     eps_value=args.eps, delta_cluster=args.delta)
    if not args.z:
        estimate = multiplicity_probability(model, args.draws, seed=args.seed,
                                            cfg=cfg)
        return {"multiplicity": estimate.to_dict(), "kappa_note": KAPPA_NOTE}
    z = np.asarray(args.z)
    if len(z) != model.d_z:
        raise ConfigError(f"z must have {model.d_z} components")
    report = model.detect(z, cfg)
    # at --grid >= 201 this is the detector's own grid, already cached
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    write_csv(f"{args.out}.profile.csv", ["pi", "Q"],
              grid_profile(model, -args.pi_bound, args.pi_bound, args.grid, z),
              comments=[KAPPA_NOTE])
    return {"argmin": report.to_dict(), "kappa_note": KAPPA_NOTE}


def cmd_mixture(args) -> dict:
    if args.components < 1:
        raise ConfigError("--components must be at least 1")
    if args.data:
        sample = _validated(read_sample_csv, path=args.data)
    else:
        params = _validated(MixtureParams, weights=args.weights or (0.5, 0.5),
                            means=args.means or (-2.0, 2.0))
        model = _validated(MixtureModel, true_params=params, n=args.n,
                           fit_J=args.components)
        rng = np.random.default_rng(args.seed)
        sample = _validated(MixtureSample, z=tuple(model.sample_z(rng)))
    if args.components ** 2 > sample.n and not args.force:
        raise ConfigError(f"--components {args.components} exceeds sqrt(n) = "
                          f"{math.sqrt(sample.n):.3f}; pass --force to fit anyway")
    cfg = _validated(MultistartConfig, seed=args.seed, n_starts=args.starts)
    report = fit_mle(sample, args.components, cfg, force=args.force)
    if not report.clusters:
        raise DiagnosticsError("no converged fit")
    params = params_from_point(report.clusters[0].representative, args.components)
    return {
        "argmin": report.to_dict(),
        "fit": {"weights": list(params.weights), "means": list(params.means),
                "nll": mixture_nll(params, sample)},
    }


def cmd_penalized(args) -> dict:
    spec = _validated(PenaltySpec, kind=args.penalty, lam=args.lam, q=args.q,
                      a=args.a, gamma=args.gamma)
    if args.data:
        raw = _validated(np.loadtxt, fname=args.data, delimiter=",",
                         skiprows=1, ndmin=2)
        check_enumeration_cap(raw.shape[1] - 1)
        y, X = raw[:, 0], raw[:, 1:]
    else:
        if args.n < 1 or args.d < 1:
            raise ConfigError("--n and --d must be at least 1")
        check_enumeration_cap(args.d)
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
    return {
        "argmin": report.to_dict(),
        "fit": {"beta": beta.tolist(), "support": support,
                "value": report.clusters[0].value, "verdict": report.verdict},
    }


def cmd_threshold(args) -> dict:
    spec = _validated(GPSpec, m_bound=args.m_bound, grid_size=args.grid_size,
                      gamma=args.gamma)
    eps_schedule = _validated(trial_settings, n_paths=args.paths,
                              eps_schedule=args.eps_schedule)
    trial = argmin_uniqueness_trial(spec, args.paths, eps_schedule=eps_schedule,
                                    seed=args.seed)
    return {"trial": trial.to_dict()}


def cmd_generic_check(args) -> dict:
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
    if args.tol is not None and not args.tol > 0:
        raise ConfigError("--tol must be positive")
    z_points = [np.asarray(args.z)] if args.z else None
    if z_points and len(z_points[0]) != d_z:
        raise ConfigError(f"z must have {d_z} components")
    report = scan_grid(obj, domain, z_region=z_region,
                       resolution=args.resolution, tol=args.tol,
                       z_points=z_points)
    return {"scan": report.to_dict()}


def cmd_reproduce_figures(args) -> None:
    outdir = Path(args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    models = {number: _example_model(number, pi_bound=6.0)
              for number in (1, 2)}
    for name, number, z in FIGURE_CASES:
        write_csv(outdir / f"{name}.csv", ["pi", "Q"],
                  grid_profile(models[number], -6.0, 6.0, 1201, np.asarray(z)),
                  comments=[KAPPA_NOTE, f"z={','.join(str(v) for v in z)}"])


def _build_parser() -> tuple:
    """The CLI parser and its subcommand parsers by name.

    Each flag is declared here once: its type gives the parsed value that
    the command reads and the report's config records, and its dest is
    the key a config file may set.
    """
    parser = argparse.ArgumentParser(
        prog="argmin-unique",
        description="Diagnostics for almost-sure uniqueness of global minimizers")
    parser.add_argument("--config", help="JSON config file replacing CLI flags")
    sub = parser.add_subparsers(dest="command")
    commands = {}

    def command(name, func, help):
        commands[name] = sub.add_parser(name, help=help)
        commands[name].set_defaults(func=func)
        return commands[name]

    p = command("weakid", cmd_weakid, "weak-identification limit objective")
    p.add_argument("--example", type=int, default=1, choices=(1, 2))
    p.add_argument("--z", type=_parse_floats,
                   help="comma-separated z vector (single-draw mode)")
    p.add_argument("--draws", type=int, default=0,
                   help="Monte Carlo draws (multiplicity-probability mode)")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--eps", type=_finite_float, default=None)
    p.add_argument("--delta", type=_finite_float, default=None)
    p.add_argument("--pi-bound", type=_finite_float, default=6.0)
    p.add_argument("--grid", type=int, default=1201,
                   help="points of the detector's pi grid (at least 201 are "
                        "used) and of the profile CSV")
    p.add_argument("--out", default="weakid")

    p = command("mixture", cmd_mixture, "normal mixture maximum likelihood")
    p.add_argument("--data", help="single-column CSV of observations")
    p.add_argument("--components", type=int, default=2)
    p.add_argument("--n", type=int, default=50)
    p.add_argument("--weights", type=_parse_floats,
                   help="true weights for simulation")
    p.add_argument("--means", type=_parse_floats,
                   help="true means for simulation")
    p.add_argument("--starts", type=int, default=100)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--force", action="store_true",
                   help="allow J > sqrt(n) (uniqueness no longer guaranteed)")
    p.add_argument("--out", default="mixture")

    p = command("penalized", cmd_penalized, "penalized least squares")
    p.add_argument("--data", help="CSV with header y,x1,...,xd")
    p.add_argument("--penalty", default="scad",
                   choices=("l0", "bridge", "scad", "mcp"))
    p.add_argument("--lam", type=_finite_float, default=1.0)
    p.add_argument("--q", type=_finite_float, default=0.5)
    p.add_argument("--a", type=_finite_float, default=3.7)
    p.add_argument("--gamma", type=_finite_float, default=3.0)
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--d", type=int, default=5)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default="penalized")

    p = command("threshold", cmd_threshold, "Gaussian-process functional trial")
    p.add_argument("--paths", type=int, default=500)
    p.add_argument("--grid-size", type=int, default=1001)
    p.add_argument("--m-bound", type=_finite_float, default=5.0)
    p.add_argument("--gamma", type=_finite_float, default=0.5)
    p.add_argument("--eps-schedule", type=_parse_floats,
                   default="1e-2,3e-3,1e-3,3e-4")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default="threshold")

    p = command("generic-check", cmd_generic_check, "nondegeneracy grid scan")
    p.add_argument("--model", default="quadratic",
                   choices=("quadratic", "example1", "example2"))
    p.add_argument("--resolution", type=int, default=11)
    p.add_argument("--tol", type=_finite_float, default=None)
    p.add_argument("--z", type=_parse_floats,
                   help="fix the z point instead of scanning a z grid")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default="generic_check")

    p = command("reproduce-figures", cmd_reproduce_figures,
                "profile CSVs for the built-in example draws")
    p.add_argument("--out-dir", default="figures")
    return parser, commands


def _args_from_config(path: str, parser: argparse.ArgumentParser, commands):
    """Parse a JSON config whose keys are a command's flags in dest form.

    A list value is passed as its entries' reprs joined by commas, so a
    report's recorded config replays as a config file.  A boolean sets a
    switch; for a flag that takes a value it is a configuration error.
    """
    try:
        with open(path) as handle:
            raw = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict) or not isinstance(raw.get("command"), str):
        raise ConfigError("config must be an object with a string 'command' key")
    command = raw["command"]
    if command not in commands:
        raise ConfigError(f"unknown command {command!r}")
    defaults = vars(commands[command].parse_args([]))
    del defaults["func"]
    unknown = set(raw) - set(defaults) - {"command"}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    argv = [command]
    for key, value in raw.items():
        if key == "command" or value is None:
            continue
        flag = "--" + key.replace("_", "-")
        if isinstance(value, bool):
            if not isinstance(defaults[key], bool):
                raise ConfigError(f"{key} takes a value, not a boolean")
            if value:
                argv.append(flag)
        elif isinstance(value, list):
            argv.append(f"{flag}={','.join(map(repr, value))}")
        else:
            argv.append(f"{flag}={value}")
    return parser.parse_args(argv)


def _merge_negative_values(argv):
    """Turn ['--z', '-1.03,...'] into ['--z=-1.03,...'] for argparse, which
    takes a dash-led value other than a plain negative number for a flag."""
    out = []
    for arg in argv:
        if (out and out[-1].startswith("--") and "=" not in out[-1]
                and arg.startswith("-") and any(c.isdigit() for c in arg)):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _write_report(args, payload: dict) -> None:
    """``<out>.report.json``: the payload under an envelope whose config is
    the parsed flags of the run."""
    config = {key: value for key, value in vars(args).items()
              if key not in ("command", "config", "func", "out")}
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    write_report(f"{args.out}.report.json", {
        "command": args.command,
        "config": config,
        "config_hash": config_hash(config),
        "seed": config.get("seed"),
        "version": __version__,
        **payload,
    })


def main(argv=None) -> int:
    parser, commands = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_merge_negative_values(list(argv)))
        if args.config:
            args = _args_from_config(args.config, parser, commands)
        if not getattr(args, "command", None):
            parser.print_help()
            return 2
        payload = args.func(args)
        if payload is not None:
            _write_report(args, payload)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DiagnosticsError, np.linalg.LinAlgError, ValueError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
