"""CLI surface: subcommands, exit codes, machine-parsable failure reasons."""

import json
import multiprocessing
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import lpdens
from lpdens.cli import main


def _dying_rep(design, hs, rep):
    # module level: the pool pickles the replication function by name
    os._exit(1)


def _reject(token):
    raise ValueError(f"non-JSON constant {token}")


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    rng = np.random.default_rng(41)
    path = tmp_path_factory.mktemp("cli") / "x.csv"
    np.savetxt(path, rng.exponential(size=1200), fmt="%.10f")
    return str(path)


@pytest.fixture(scope="module")
def design_json(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "design.json"
    path.write_text(json.dumps({
        "dgp": "exponential", "eval_points": [1.0], "n": 300, "reps": 12, "seed": 6,
    }))
    return str(path)


def test_density_happy_path(data_csv, capsys):
    code = main(["density", "--input", data_csv, "--grid", "10", "--format", "json"])
    records = json.loads(capsys.readouterr().out)
    assert code in (0, 2)
    assert len(records) == 10
    ok = [r for r in records if r["error"] is None]
    assert len(ok) >= 8
    for r in ok:
        assert set(r) == {"x", "v", "h", "p", "f_hat", "se", "ci_low", "ci_high",
                          "m_eff", "region", "error"}


def test_density_missing_input(capsys):
    code = main(["density", "--input", "/nonexistent.csv"])
    err = capsys.readouterr().err
    assert code == 1
    assert "error: input-not-found" in err


def test_density_partial_failure_exit_2(data_csv, capsys):
    code = main(["density", "--input", data_csv, "--grid-points=-5.0,1.0",
                 "--bandwidth", "0.4"])
    out = capsys.readouterr()
    records = json.loads(out.out)
    assert code == 2
    assert records[0]["error"] == "outside-support"
    assert records[1]["error"] is None
    assert "outside-support" in out.err


def test_density_heaped_default_grid_fits_each_point_once(tmp_path, capsys):
    # heaped at multiples of 0.25, the 25 quantiles hold 16 distinct values;
    # each repeat used to be fitted again and to warn about its x again
    values = np.round(np.random.default_rng(3).normal(size=500) / 0.25) * 0.25
    grid = lpdens.default_grid(lpdens.load_sample(values), 25)
    assert np.all(np.diff(grid) > 0)
    path = tmp_path / "heaped.csv"
    np.savetxt(path, values)
    code = main(["density", "--input", str(path), "--p", "3"])
    warned = [line.split()[1] for line in capsys.readouterr().err.splitlines()
              if line.startswith("warning: x=")]
    assert code == 2
    assert len(warned) == len(set(warned)) > 0


@pytest.mark.parametrize("h", ["nan", "inf", "0", "-1"])
def test_density_bad_fixed_bandwidth_is_a_value_error(data_csv, h, capsys):
    code = main(["density", "--input", data_csv, "--grid", "5", f"--bandwidth={h}"])
    out = capsys.readouterr()
    assert code == 1
    assert out.out == ""
    assert "error: value-error" in out.err


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_density_non_finite_grid_point_is_a_value_error(data_csv, fmt, capsys):
    # the grid is rejected before any point is formatted, so both formats fail alike
    code = main(["density", "--input", data_csv, "--grid-points", "0.5,nan", "--format", fmt])
    out = capsys.readouterr()
    assert code == 1
    assert out.out == ""
    assert out.err.splitlines() == ["error: value-error"]


def test_density_csv_output_file(data_csv, tmp_path, capsys):
    out = tmp_path / "dens.csv"
    code = main(["density", "--input", data_csv, "--grid", "5",
                 "--format", "csv", "--output", str(out), "--bandwidth", "0.4"])
    assert code in (0, 2)
    header = out.read_text().splitlines()[0]
    assert header == "x,v,h,p,f_hat,se,ci_low,ci_high,m_eff,region,error"


def test_test_subcommand(data_csv, capsys):
    code = main(["test", "--input", data_csv, "--cutoff", "1.0"])
    res = json.loads(capsys.readouterr().out)
    assert code == 0
    assert res["p_point"] == 2 and res["p_infer"] == 3
    assert res["n_minus"] + res["n_plus"] == 1200
    assert 0.0 <= res["p_value"] <= 1.0


def test_test_restricted_dispatch(data_csv, capsys):
    code = main(["test", "--input", data_csv, "--cutoff", "1.0",
                 "--model", "restricted"])
    res = json.loads(capsys.readouterr().out)
    assert code == 0
    assert res["model"] == "restricted"


def test_test_bandwidth_fallback_prints_warning(tmp_path, capsys):
    # N(0,1) rounded to 0.1: the MSE bandwidth's pilot fit is singular at
    # this cutoff, so the test runs at the preliminary bandwidth and says so
    path = tmp_path / "rounded.csv"
    np.savetxt(path, np.round(np.random.default_rng(0).normal(size=800), 1), fmt="%.1f")
    code = main(["test", "--input", str(path), "--cutoff", "0.05", "--model", "restricted"])
    out = capsys.readouterr()
    assert code == 0
    assert json.loads(out.out)["warnings"] == ["bandwidth-fallback-preliminary:SingularDesign"]
    assert out.err.splitlines() == ["warning: bandwidth-fallback-preliminary:SingularDesign"]


def test_test_order_zero_is_a_value_error(data_csv, capsys):
    code = main(["test", "--input", data_csv, "--cutoff", "1.0", "--p", "0"])
    assert code == 1
    assert "error: value-error" in capsys.readouterr().err


def test_test_empty_side(data_csv, capsys):
    code = main(["test", "--input", data_csv, "--cutoff", "-3.0"])
    err = capsys.readouterr().err
    assert code == 1
    assert "error: empty-side" in err


def test_simulate_runs_and_is_deterministic(design_json, capsys):
    code1 = main(["simulate", "--design", design_json, "--format", "csv"])
    out1 = capsys.readouterr().out
    code2 = main(["simulate", "--design", design_json, "--format", "csv",
                  "--threads", "3"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2


def test_simulate_seed_overrides_design(design_json, tmp_path, capsys):
    reseeded = tmp_path / "seed7.json"
    reseeded.write_text(json.dumps({**json.loads(Path(design_json).read_text()), "seed": 7}))
    assert main(["simulate", "--design", str(reseeded)]) == 0
    from_file = capsys.readouterr().out
    assert main(["simulate", "--design", design_json, "--seed", "7"]) == 0
    assert capsys.readouterr().out == from_file
    assert main(["simulate", "--design", design_json]) == 0
    assert capsys.readouterr().out != from_file


def test_simulate_dead_worker_is_tagged(design_json, monkeypatch, capsys):
    monkeypatch.setattr("lpdens.simulation._run_one_rep", _dying_rep)
    code = main(["simulate", "--design", design_json, "--threads", "2"])
    out = capsys.readouterr()
    assert code == 1
    assert out.out == ""
    assert out.err.splitlines() == ["error: broken-process-pool"]
    assert multiprocessing.active_children() == []


def test_simulate_zero_threads_is_a_value_error(design_json, capsys):
    code = main(["simulate", "--design", design_json, "--threads", "0"])
    assert code == 1
    assert "error: value-error" in capsys.readouterr().err


@pytest.mark.parametrize("argv, target", [
    (["density", "--grid", "5"], "lpdens.density.estimate_grid"),
    (["test", "--cutoff", "1.0"], "lpdens.cli.rbc_test"),
    (["simulate"], "lpdens.simulation.run_design"),
])
def test_memory_error_is_tagged(data_csv, design_json, monkeypatch, capsys, argv, target):
    # any allocation that fails under a command (say, the EDF of a huge
    # input) raises MemoryError; stand in for it where the command enters lpdens
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(target, out_of_memory)
    source = ["--design", design_json] if argv[0] == "simulate" else ["--input", data_csv]
    code = main(argv + source)
    assert code == 1
    assert "error: memory-error" in capsys.readouterr().err


def test_simulate_cdf_target_with_true_bandwidth_is_a_value_error(tmp_path, capsys):
    design = tmp_path / "v0.json"
    design.write_text(json.dumps({
        "dgp": "exponential", "eval_points": [0.5], "n": 400, "reps": 4, "v": 0,
    }))
    code = main(["simulate", "--design", str(design)])
    out = capsys.readouterr()
    assert code == 1
    assert out.out == ""
    assert out.err.splitlines() == ["error: value-error"]


def test_test_zero_standard_error_is_tagged(data_csv, monkeypatch, capsys):
    monkeypatch.setattr("lpdens.maniptest.difference_se", lambda sample, fit: 0.0)
    code = main(["test", "--input", data_csv, "--cutoff", "1.0"])
    out = capsys.readouterr()
    assert code == 1
    assert out.out == ""
    assert out.err.splitlines() == ["error: non-positive-variance"]


@pytest.mark.parametrize("argv", [
    ["density", "--grid", "5", "--bandwidth", "0.4"],
    ["test", "--cutoff", "1.0"],
    ["simulate"],
])
def test_unwritable_output_is_tagged(data_csv, design_json, tmp_path, capsys, argv):
    source = ["--design", design_json] if argv[0] == "simulate" else ["--input", data_csv]
    target = tmp_path / "missing-dir" / "out.json"
    code = main(argv + source + ["--output", str(target)])
    out = capsys.readouterr()
    assert code == 1
    assert out.out == ""
    assert out.err.splitlines() == ["error: output-not-writable"]
    assert not target.exists()


def test_simulate_malformed_design(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dgp": "exponential"}))
    code = main(["simulate", "--design", str(bad)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


_DESIGN = {"dgp": "exponential", "eval_points": [1.0], "n": 300, "reps": 4, "seed": 6}


@pytest.mark.parametrize("design", [
    {**_DESIGN, "seed": -1},
    {**_DESIGN, "seed": 2**64},
    {**_DESIGN, "eval_points": 1.0},
    [_DESIGN],
    {**_DESIGN, "n": None},
    {**_DESIGN, "n": 100.9},
    {**_DESIGN, "reps": 2.5},
    {**_DESIGN, "p": 2.7},
    {**_DESIGN, "seed": 1.5},
    {**_DESIGN, "bandwidth_rule": {"multiple": True}},
    {**_DESIGN, "bandwidth_rule": {"factor": 2.0}},
    {k: v for k, v in _DESIGN.items() if k != "n"},
], ids=["seed-negative", "seed-too-large", "eval-points-scalar", "array", "n-null",
        "n-float", "reps-float", "p-float", "seed-float", "multiple-bool", "rule-object",
        "n-missing"])
def test_simulate_malformed_design_is_a_value_error(tmp_path, capsys, design):
    # rejected before any worker starts: no traceback, no truncated value, no child left
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(design))
    code = main(["simulate", "--design", str(path)])
    out = capsys.readouterr()
    assert code == 1
    assert out.out == ""
    assert out.err.splitlines() == ["error: value-error"]
    assert multiprocessing.active_children() == []


def test_simulate_negative_seed_flag_is_a_value_error(design_json, capsys):
    # the --seed override passes the same checks as a seed in the file
    code = main(["simulate", "--design", design_json, "--seed", "-2", "--threads", "2"])
    out = capsys.readouterr()
    assert code == 1
    assert out.out == ""
    assert out.err.splitlines() == ["error: value-error"]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("orders", [["--v", "3"], ["--p", "-1"]], ids=["v-above-p", "p-negative"])
@pytest.mark.parametrize("bandwidth", [[], ["--bandwidth", "0.3"]], ids=["auto", "fixed"])
def test_density_order_outside_zero_to_p_is_a_value_error(data_csv, capsys, orders, bandwidth):
    # a fixed bandwidth used to skip the order check and fail every point instead
    code = main(["density", "--input", data_csv, "--grid", "5"] + orders + bandwidth)
    out = capsys.readouterr()
    assert code == 1
    assert out.out == ""
    assert out.err.splitlines() == ["error: value-error"]


def test_simulate_zero_reps(tmp_path, capsys):
    bad = tmp_path / "reps0.json"
    bad.write_text(json.dumps({
        "dgp": "exponential", "eval_points": [1.0], "n": 300, "reps": 0,
    }))
    code = main(["simulate", "--design", str(bad)])
    assert code == 1


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs most of a cold start; the normal CDF and quantile
    # come from scipy.special instead
    src = str(Path(lpdens.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, lpdens; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout
    assert out.strip() == "False"


def test_help_lists_defaults(capsys):
    with pytest.raises(SystemExit) as exited:
        main(["density", "--help"])
    assert exited.value.code == 0
    text = capsys.readouterr().out
    for token in ("--p", "--kernel", "--bandwidth", "--alpha",
                  "default: json", "triangular"):
        assert token in text
    assert "--threads" not in text
    with pytest.raises(SystemExit):
        main(["test", "--help"])
    text = capsys.readouterr().out
    assert "--output" in text and "--format" not in text
    with pytest.raises(SystemExit):
        main(["simulate", "--help"])
    assert "--threads" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["density", "--input", "{csv}", "--p", "abc"],
    ["density", "--input", "{csv}", "--grid-points", "1,x"],
    ["density", "--input", "{csv}", "--grid", "5", "--grid-points", "0.5"],
    ["density", "--input", "{csv}", "--grid-points", "0.5", "--grid", "25"],
    ["density", "--input", "{csv}", "--bandwidth", "abc"],
    ["test", "--input", "{csv}"],
    ["estimate"],
    [],
], ids=["bad-int", "bad-grid-point", "grid-and-grid-points", "grid-points-and-default-grid",
        "bad-bandwidth", "test-without-cutoff", "unknown-subcommand", "none"])
def test_usage_error_exits_1_with_a_tag(data_csv, capsys, argv):
    # exit 2 means partial per-point results, so argparse's own exit 2 is not used
    code = main([a.format(csv=data_csv) for a in argv])
    out = capsys.readouterr()
    assert code == 1
    assert out.out == ""
    assert out.err.startswith("usage: lpdens")
    assert out.err.splitlines()[-1] == "error: usage-error"


def test_threads_default_ignores_environment(design_json, monkeypatch):
    # --threads is the only worker-count setting; no environment variable sets it
    monkeypatch.setenv("LPDENS_THREADS", "2")
    from lpdens.cli import build_parser
    args = build_parser().parse_args(["simulate", "--design", design_json])
    assert args.threads == 1


@pytest.mark.parametrize("rule", ["mse_true", {"multiple": 0.5}])
def test_simulate_uniform_true_bandwidth_is_zero_bias(tmp_path, capsys, rule):
    # the flat density has zero true bias, so the true MSE-optimal bandwidth
    # does not exist; the estimated rule still runs
    design = {"dgp": "uniform01", "eval_points": [0.5, 0.05], "n": 500, "reps": 4,
              "bandwidth_rule": rule}
    path = tmp_path / "uniform.json"
    path.write_text(json.dumps(design))
    code = main(["simulate", "--design", str(path)])
    out = capsys.readouterr()
    assert code == 1
    assert out.out == ""
    assert out.err.splitlines() == ["error: zero-bias"]
    path.write_text(json.dumps({**design, "bandwidth_rule": "mse_estimated"}))
    assert main(["simulate", "--design", str(path)]) == 0
    assert len(json.loads(capsys.readouterr().out)) == 2


def test_simulate_all_failed_point_is_strict_json(tmp_path, capsys):
    # at x = 6 with n = 10 every replication's window is empty; the summary
    # statistics are undefined there and must be null, not NaN
    design = tmp_path / "empty.json"
    design.write_text(json.dumps({
        "dgp": "exponential", "eval_points": [6.0], "n": 10, "reps": 5,
        "bandwidth_rule": {"multiple": 0.05},
    }))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--design", str(design)]) == 0
        json_text = capsys.readouterr().out
        assert main(["simulate", "--design", str(design), "--format", "csv"]) == 0
        csv_text = capsys.readouterr().out

    (row,) = json.loads(json_text, parse_constant=_reject)
    assert [row[k] for k in ("bias", "sd", "rmse", "se_mean", "size")] == [None] * 5
    assert row["fail_rate"] == 1.0 and row["valid"] is False
    header, line = csv_text.splitlines()
    cells = dict(zip(header.split(","), line.split(",")))
    assert [cells[k] for k in ("bias", "sd", "rmse", "se_mean", "size")] == [""] * 5


def test_every_subcommand_prints_strict_json(data_csv, design_json, monkeypatch, capsys):
    # Python's json writes NaN and Infinity unless told not to; no reader of
    # strict JSON accepts them
    for argv in (["density", "--input", data_csv],
                 ["density", "--input", data_csv, "--grid", "5", "--bandwidth", "0.4"],
                 ["density", "--input", data_csv, "--grid-points=-5.0,1.0"],
                 ["test", "--input", data_csv, "--cutoff", "1.0"],
                 ["simulate", "--design", design_json]):
        assert main(argv) in (0, 2), argv
        assert json.loads(capsys.readouterr().out, parse_constant=_reject), argv
    # 1 - alpha/2 rounds to 1, so z would be infinite
    assert main(["density", "--input", data_csv, "--alpha", "1e-17"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines() == ["error: invalid-alpha"]
    monkeypatch.setattr("lpdens.density.standard_error", lambda sample, fit, v: float("nan"))
    assert main(["density", "--input", data_csv, "--grid", "5"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines() == ["error: value-error"]
