import json

import numpy as np
import pytest

from argmin_unique.cli import FIGURE_CASES, main
from argmin_unique.globalopt import MultistartConfig
from argmin_unique.serialize import canonical_json
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
    assert code == 3  # precondition violated without --force
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


def test_malformed_config_exits_2_without_outputs(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    assert run(["--config", str(cfg)]) == 2
    cfg.write_text(json.dumps({"command": "weakid", "bogus_key": 1,
                               "out": str(tmp_path / "never")}))
    assert run(["--config", str(cfg)]) == 2
    cfg.write_text(json.dumps({"command": "unknown-cmd"}))
    assert run(["--config", str(cfg)]) == 2
    assert not (tmp_path / "never.report.json").exists()


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
], ids=["penalized-lam", "penalized-q", "threshold-grid", "mixture-components",
        "weakid-grid", "threshold-paths-0", "penalized-d-0", "weakid-pi-bound",
        "threshold-paths-negative", "threshold-eps-increasing",
        "mixture-starts", "mixture-n", "mixture-weights",
        "generic-check-resolution", "penalized-n-below-d"])
def test_invalid_settings_exit_2_without_outputs(tmp_path, args, capsys):
    out = tmp_path / "bad"
    assert run(args + ["--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "bad.report.json").exists()
