import json

import numpy as np
import pytest

from argmin_unique import cli
from argmin_unique.cli import FIGURE_CASES, main
from argmin_unique.globalopt import MultistartConfig
from argmin_unique.serialize import canonical_json, write_csv
from argmin_unique.weakid import make_example1, make_example2

from oracles import ex1_roots, ex2_roots


def run(args):
    return main(args)


def read_report(prefix):
    with open(f"{prefix}.report.json") as handle:
        return json.load(handle)


def test_weakid_single_draw(tmp_path):
    out = tmp_path / "fig1"
    code = run(["weakid", "--example", "1", "--z", "-1.03,1.29,2.77",
                "--seed", "0", "--out", str(out)])
    assert code == 0
    report = read_report(out)
    assert report["command"] == "weakid"
    assert report["argmin"]["verdict"] == "multiple"
    reps = sorted(c["representative"][0] for c in report["argmin"]["clusters"])
    assert reps == pytest.approx(list(ex1_roots([-1.03, 1.29, 2.77])), abs=1e-3)
    csv_lines = (out.parent / "fig1.profile.csv").read_text().splitlines()
    assert csv_lines[0].startswith("#")  # kappa disclaimer embedded
    assert csv_lines[1] == "pi,Q"
    assert len(csv_lines) == 2 + 1201


@pytest.mark.parametrize("name,example,z", FIGURE_CASES,
                         ids=[case[0] for case in FIGURE_CASES])
def test_weakid_single_draw_uses_model_detector(tmp_path, name, example, z):
    out = tmp_path / name
    code = run(["weakid", "--example", str(example),
                "--z=" + ",".join(str(v) for v in z), "--grid", "801",
                "--eps", "1e-7", "--delta", "0.02", "--seed", "3",
                "--out", str(out)])
    assert code == 0
    argmin = read_report(out)["argmin"]
    assert argmin["verdict"] == "multiple"
    roots = ex1_roots(z) if example == 1 else ex2_roots(z)
    reps = sorted(c["representative"][0] for c in argmin["clusters"])
    assert reps == pytest.approx(sorted(roots), abs=1e-3)
    # the same detector as --draws: the model's dense grid, sized by --grid
    model = make_example1() if example == 1 else make_example2()
    cfg = MultistartConfig(seed=3, n_starts=801, eps_value=1e-7,
                           delta_cluster=0.02)
    want = json.loads(canonical_json(model.detect(np.asarray(z), cfg).to_dict()))
    assert argmin == want
    csv_lines = (tmp_path / f"{name}.profile.csv").read_text().splitlines()
    assert len(csv_lines) == 2 + 801


def test_weakid_z_dimension_check(tmp_path):
    code = run(["weakid", "--example", "1", "--z", "1.0,2.0",
                "--out", str(tmp_path / "x")])
    assert code == 2
    assert not (tmp_path / "x.report.json").exists()


def test_mixture_simulated_fit(tmp_path):
    out = tmp_path / "mix"
    code = run(["mixture", "--n", "50", "--components", "2", "--seed", "3",
                "--starts", "40", "--out", str(out)])
    assert code == 0
    report = read_report(out)
    fit = report["fit"]
    assert len(fit["weights"]) == 2 and len(fit["means"]) == 2
    assert fit["means"][0] < fit["means"][1]
    assert report["argmin"]["verdict"] == "unique"


def test_mixture_force_gate(tmp_path):
    out = tmp_path / "mixbad"
    code = run(["mixture", "--n", "6", "--components", "4", "--seed", "1",
                "--starts", "8", "--out", str(out)])
    assert code == 2  # precondition violated without --force
    code = run(["mixture", "--n", "6", "--components", "4", "--seed", "1",
                "--starts", "8", "--force", "--out", str(out)])
    assert code == 0  # tied means keep the ordered chart's gap
    code = run(["mixture", "--n", "6", "--components", "2", "--seed", "1",
                "--starts", "8", "--out", str(out)])
    assert code == 0


def test_penalized_fit(tmp_path):
    out = tmp_path / "pen"
    code = run(["penalized", "--penalty", "l0", "--lam", "1.0", "--n", "20",
                "--d", "4", "--seed", "2", "--out", str(out)])
    assert code == 0
    report = read_report(out)
    assert report["fit"]["verdict"] == "unique"
    assert set(report["fit"]["support"]).issubset({0, 1, 2, 3})


def test_threshold_trial(tmp_path):
    out = tmp_path / "thr"
    code = run(["threshold", "--paths", "40", "--grid-size", "301",
                "--seed", "7", "--out", str(out)])
    assert code == 0
    report = read_report(out)
    fr = report["trial"]["single_fractions"]
    assert len(fr) == 4
    assert all(b >= a for a, b in zip(fr, fr[1:]))


def test_generic_check_quadratic(tmp_path):
    out = tmp_path / "gen"
    code = run(["generic-check", "--model", "quadratic", "--resolution", "5",
                "--out", str(out)])
    assert code == 0
    report = read_report(out)
    assert report["scan"]["degenerate"] == []


def test_reproduce_figures(tmp_path):
    outdir = tmp_path / "figs"
    code = run(["reproduce-figures", "--out-dir", str(outdir)])
    assert code == 0
    files = sorted(p.name for p in outdir.iterdir())
    assert files == ["example1_left.csv", "example1_right.csv",
                     "example2_left.csv", "example2_right.csv"]
    body = (outdir / "example1_left.csv").read_text().splitlines()
    data = np.loadtxt(body[3:], delimiter=",")
    assert np.all(np.isfinite(data))
    z = np.array([-1.03, 1.29, 2.77])
    idx = np.argmin(data[:, 1])
    assert data[idx, 1] == pytest.approx(-float(z @ z), abs=1e-3)
    roots = ex1_roots(z)
    assert min(abs(data[idx, 0] - r) for r in roots) < 0.02
    body2 = (outdir / "example2_left.csv").read_text().splitlines()
    data2 = np.loadtxt(body2[3:], delimiter=",")
    idx2 = np.argmin(data2[:, 1])
    roots2 = ex2_roots(np.array([-0.23, -0.28, 1.31]))
    assert min(abs(data2[idx2, 0] - r) for r in roots2) < 0.02


def test_config_file_mode(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "command": "weakid", "example": 1, "z": "-1.03,1.29,2.77",
        "seed": 0, "out": str(tmp_path / "cfgrun"),
    }))
    assert run(["--config", str(cfg)]) == 0
    assert (tmp_path / "cfgrun.report.json").exists()


def test_malformed_config_exits_2_without_outputs(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    assert run(["--config", str(cfg)]) == 2
    # keys are the command's own flag dests: no abbreviation ("pi" for
    # "pi_bound"), no other command's flag, no parser internals
    for key, value in [("bogus_key", 1), ("pi", 3.0), ("components", 2),
                       ("func", "cmd_weakid"), ("config", "other.json")]:
        cfg.write_text(json.dumps({"command": "weakid", "draws": 1, key: value,
                                   "out": str(tmp_path / "never")}))
        assert run(["--config", str(cfg)]) == 2, key
    cfg.write_text(json.dumps({"command": "unknown-cmd"}))
    assert run(["--config", str(cfg)]) == 2
    # a boolean sets a switch; a flag that takes a value rejects one
    for key in ("seed", "z", "pi_bound", "eps"):
        cfg.write_text(json.dumps({"command": "weakid", "draws": 1, key: True,
                                   "out": str(tmp_path / "never")}))
        assert run(["--config", str(cfg)]) == 2, key
        assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "never.report.json").exists()


CONFIG_CASES = [
    (["weakid", "--example", "1", "--z", "-1.03,1.29,2.77", "--grid", "401",
      "--eps", "1e-7", "--seed", "3"],
     {"command": "weakid", "example": 1, "z": "-1.03,1.29,2.77", "grid": 401,
      "eps": 1e-7, "seed": 3}),
    (["mixture", "--n", "30", "--starts", "10", "--weights", "0.4,0.6",
      "--means", "-1,2", "--seed", "2", "--force"],
     {"command": "mixture", "n": 30, "starts": 10, "weights": "0.4,0.6",
      "means": "-1,2", "seed": 2, "force": True}),
    (["penalized", "--penalty", "mcp", "--lam", "0.5", "--gamma", "2.5",
      "--n", "12", "--d", "3", "--seed", "4"],
     {"command": "penalized", "penalty": "mcp", "lam": 0.5, "gamma": 2.5,
      "n": 12, "d": 3, "seed": 4}),
    (["threshold", "--paths", "20", "--grid-size", "201", "--m-bound", "4",
      "--eps-schedule", "1e-2,1e-3", "--seed", "5"],
     {"command": "threshold", "paths": 20, "grid_size": 201, "m_bound": 4,
      "eps_schedule": "1e-2,1e-3", "seed": 5}),
    (["generic-check", "--model", "example1", "--resolution", "5",
      "--tol", "1e-6", "--z", "0.5,-0.25,1"],
     {"command": "generic-check", "model": "example1", "resolution": 5,
      "tol": 1e-6, "z": "0.5,-0.25,1"}),
]
CONFIG_IDS = ["weakid", "mixture", "penalized", "threshold", "generic-check"]


def assert_same_outputs(tmp_path, a, b):
    """Every output of run ``a`` exists for ``b`` with the same bytes."""
    outputs = sorted(p.name[len(a):] for p in tmp_path.glob(f"{a}.*"))
    assert outputs[-1] == ".report.json"
    for suffix in outputs:
        assert (tmp_path / f"{a}{suffix}").read_bytes() == \
            (tmp_path / f"{b}{suffix}").read_bytes()


@pytest.mark.parametrize("argv,config", CONFIG_CASES, ids=CONFIG_IDS)
def test_config_file_matches_flags(tmp_path, argv, config):
    """The same settings as flags and as a config file give the same bytes."""
    assert run(argv + ["--out", str(tmp_path / "flags")]) == 0
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({**config, "out": str(tmp_path / "file")}))
    assert run(["--config", str(cfg)]) == 0
    assert_same_outputs(tmp_path, "flags", "file")


@pytest.mark.parametrize("argv", [argv for argv, _ in CONFIG_CASES],
                         ids=CONFIG_IDS)
def test_report_config_replays(tmp_path, argv):
    """A report's config, written back as a config file, gives its bytes."""
    assert run(argv + ["--out", str(tmp_path / "flags")]) == 0
    report = read_report(tmp_path / "flags")
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({**report["config"], "command": report["command"],
                               "out": str(tmp_path / "replay")}))
    assert run(["--config", str(cfg)]) == 0
    assert_same_outputs(tmp_path, "flags", "replay")


def test_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["weakid", "--example", "2", "--z", "-0.23,-0.28,1.31",
                    "--seed", "5", "--out", str(out)]) == 0
    ra = (tmp_path / "a.report.json").read_bytes()
    rb = (tmp_path / "b.report.json").read_bytes()
    assert ra == rb
    assert (tmp_path / "a.profile.csv").read_bytes() == \
        (tmp_path / "b.profile.csv").read_bytes()


def test_write_csv_matches_row_formatting(tmp_path):
    pis = np.array([-6.0, -0.0, 1e-17, 2.5, np.inf, np.nan, 1 / 3])
    q = np.arange(7) * 1e12 / 7
    write_csv(tmp_path / "c.csv", ["pi", "Q"], (pis, q), comments=["a", "z=1"])
    rows = [f"{format(float(a), '.12g')},{format(float(b), '.12g')}\n"
            for a, b in zip(pis, q)]
    assert (tmp_path / "c.csv").read_text() == "# a\n# z=1\npi,Q\n" + "".join(rows)
    with pytest.raises(ValueError):
        write_csv(tmp_path / "d.csv", ["pi", "Q"], (pis, q[:-1]))
    assert not (tmp_path / "d.csv").exists()


def test_config_hash_tracks_tolerances(tmp_path):
    a, b = tmp_path / "t1", tmp_path / "t2"
    run(["weakid", "--example", "1", "--z", "-1.03,1.29,2.77", "--eps",
         "1e-6", "--out", str(a)])
    run(["weakid", "--example", "1", "--z", "-1.03,1.29,2.77", "--eps",
         "1e-5", "--out", str(b)])
    assert read_report(a)["config_hash"] != read_report(b)["config_hash"]


@pytest.mark.parametrize("args", [
    ["penalized", "--lam", "-1"],
    ["penalized", "--penalty", "bridge", "--q", "2"],
    ["threshold", "--grid-size", "100"],
    ["mixture", "--components", "0"],
    ["weakid", "--z", "1,2,3", "--grid", "0"],
    ["threshold", "--paths", "0"],
    ["penalized", "--d", "0"],
    ["weakid", "--draws", "2", "--pi-bound", "0"],
    ["threshold", "--paths", "-5"],
    ["threshold", "--eps-schedule", "1e-3,1e-2"],
    ["mixture", "--starts", "0"],
    ["mixture", "--n", "0"],
    ["mixture", "--weights", "0.5,0.6"],
    ["generic-check", "--resolution", "1"],
    ["penalized", "--n", "3", "--d", "5"],
    ["penalized", "--d", "-1"],
    ["penalized", "--n", "-3"],
    ["mixture", "--data", "{tmp}/missing.csv"],
    ["penalized", "--data", "{tmp}/missing.csv"],
    ["mixture", "--data", "{tmp}/repeated.csv"],
    ["mixture", "--data", "{tmp}/empty.csv"],
    ["mixture", "--data", "{tmp}/nan.csv"],
    ["weakid", "--example", "1", "--z=1,nan,2"],
    ["generic-check", "--model", "quadratic", "--z=inf"],
    ["generic-check", "--tol=-1"],
    ["generic-check", "--resolution", "3", "--tol", "nan"],
    ["generic-check", "--model", "example1", "--z=1,2"],
    ["generic-check", "--model", "quadratic", "--z=1,2"],
    ["weakid", "--example", "1", "--z=-1.03,1.29,2.77", "--eps", "nan"],
    ["weakid", "--example", "1", "--z=-1.03,1.29,2.77", "--eps=-1"],
    ["weakid", "--example", "1", "--z=-1.03,1.29,2.77", "--delta", "nan"],
    ["weakid", "--example", "1", "--z=-1.03,1.29,2.77", "--delta", "0"],
    ["threshold", "--m-bound", "inf"],
    ["weakid", "--draws", "2", "--pi-bound", "inf"],
    ["penalized", "--lam", "inf"],
    ["penalized", "--a", "inf"],
    ["penalized", "--penalty", "mcp", "--gamma", "inf"],
    ["generic-check", "--tol", "inf"],
    ["mixture", "--n", "20", "--starts", "3", "--weights", "0.5,0.5",
     "--means", "0,1e308"],
    ["mixture", "--n", "3", "--components", "2"],
    ["penalized", "--penalty", "l0", "--n", "30", "--d", "21"],
    ["weakid", "--example", "1", "--z=-1.03,1.29,2.77", "--draws", "5"],
    ["weakid", "--example", "1", "--z=-1.03,1.29,2.77", "--draws", "-4"],
    ["threshold", "--eps-schedule=-1,-2"],
    ["threshold", "--eps-schedule", "0.1,0"],
], ids=["penalized-lam", "penalized-q", "threshold-grid", "mixture-components",
        "weakid-grid", "threshold-paths-0", "penalized-d-0", "weakid-pi-bound",
        "threshold-paths-negative", "threshold-eps-increasing",
        "mixture-starts", "mixture-n", "mixture-weights",
        "generic-check-resolution", "penalized-n-below-d", "penalized-d-negative",
        "penalized-n-negative", "mixture-data-missing", "penalized-data-missing",
        "mixture-data-repeated", "mixture-data-empty", "mixture-data-nan",
        "weakid-z-nan", "generic-check-z-inf", "generic-check-tol-negative",
        "generic-check-tol-nan", "generic-check-example1-z-length",
        "generic-check-quadratic-z-length", "weakid-eps-nan",
        "weakid-eps-negative", "weakid-delta-nan", "weakid-delta-zero",
        "threshold-m-bound-inf", "weakid-pi-bound-inf", "penalized-lam-inf",
        "penalized-a-inf", "penalized-gamma-inf", "generic-check-tol-inf",
        "mixture-tied-sample", "mixture-components-above-sqrt-n",
        "penalized-l0-d-above-cap", "weakid-z-with-draws",
        "weakid-z-with-negative-draws", "threshold-eps-negative",
        "threshold-eps-zero"])
def test_invalid_settings_exit_2_without_outputs(tmp_path, args, capsys):
    (tmp_path / "repeated.csv").write_text("z\n0.5\n1.5\n0.5\n")
    (tmp_path / "empty.csv").write_text("z\n")
    (tmp_path / "nan.csv").write_text("z\n0.5\nnan\n1.5\n")
    args = [a.replace("{tmp}", str(tmp_path)) for a in args]
    out = tmp_path / "bad"
    assert run(args + ["--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "bad.report.json").exists()


@pytest.mark.parametrize("argv", [
    ["weakid", "--example", "1", "--z=-1.03,1.29,2.77"],
    ["mixture", "--n", "20", "--starts", "3"],
    ["penalized", "--penalty", "l0", "--n", "12", "--d", "3"],
    ["threshold", "--paths", "5", "--grid-size", "301"],
    ["generic-check", "--resolution", "3"],
], ids=["weakid", "mixture", "penalized", "threshold", "generic-check"])
def test_negative_seed_exits_2_without_outputs(tmp_path, argv, capsys):
    out = tmp_path / "bad"
    assert run(argv + ["--seed", "-1", "--out", str(out)]) == 2
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"command": argv[0], "seed": -1,
                                  "out": str(out)}))
    assert run(["--config", str(config)]) == 2
    assert capsys.readouterr().err.count("config error") == 2
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def test_penalized_cap_checked_before_data(tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("data built before the enumeration cap check")

    monkeypatch.setattr(cli, "RegressionData", refuse)
    out = tmp_path / "bad"
    assert run(["penalized", "--d", "21", "--n", "21", "--out", str(out)]) == 2
    header = ",".join(["y"] + [f"x{k}" for k in range(21)])
    row = ",".join(["1.0"] * 22)
    (tmp_path / "wide.csv").write_text(f"{header}\n" + f"{row}\n" * 22)
    assert run(["penalized", "--data", str(tmp_path / "wide.csv"),
                "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "bad.report.json").exists()
