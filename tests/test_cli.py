"""End-to-end runs of the console entry points on toy configs."""

import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from privcell import cli, harness
from privcell.config import METHODS, load_experiment
from privcell.errors import DegenerateStepError
from privcell.fw import nuclear_norm_budget
from privcell.seeding import derive_master
from support import read_csv

REPO = Path(__file__).resolve().parent.parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

TOY = """\
M: 2
K: 2
N_a: 2
N_r: 2
tau_p: 2
tau_d: 4
sigma2: 1.0e-13
seed: 77
trials: 2
fw_iters: 4
"""


@pytest.fixture
def toy_config(tmp_path):
    p = tmp_path / "toy.yaml"
    p.write_text(TOY)
    return p


def test_parser_roundtrip(toy_config):
    args = cli.build_parser().parse_args(
        ["simulate", "--config", str(toy_config), "--method", "po",
         "--sweep", "epsilon", "--values", "0.5,1,5", "--trials", "3",
         "--seed", "42", "--out", "x.csv"]
    )
    assert args.command == "simulate"
    assert args.values == (0.5, 1.0, 5.0)
    assert args.seed == 42


def test_bad_value_list():
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(
            ["simulate", "--config", "c", "--values", "1,zebra", "--out", "o"]
        )


def test_missing_config_exits_2(tmp_path, capsys):
    rc = cli.main(
        ["simulate", "--config", str(tmp_path / "nope.yaml"),
         "--values", "1", "--out", str(tmp_path / "o.csv")]
    )
    assert rc == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_simulate_writes_csv(toy_config, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = cli.main(
        ["simulate", "--config", str(toy_config), "--method", "po",
         "--sweep", "epsilon", "--values", "1", "--out", str(out)]
    )
    assert rc == cli.EXIT_OK
    rows = read_csv(out)
    assert len(rows) == 1
    assert rows[0]["method"] == "po"
    assert rows[0]["trials"] == 2
    assert rows[0]["failures"] == 0
    assert "wrote" in capsys.readouterr().out


def test_simulate_method_override_beats_config(toy_config, tmp_path):
    out = tmp_path / "npsvd.csv"
    rc = cli.main(
        ["simulate", "--config", str(toy_config), "--method", "npsvd",
         "--values", "1", "--trials", "1", "--out", str(out)]
    )
    assert rc == cli.EXIT_OK
    assert read_csv(out)[0]["method"] == "npsvd"


def test_audit_clean_run(toy_config, tmp_path, capsys):
    out = tmp_path / "transcript.jsonl"
    rc = cli.main(
        ["audit", "--config", str(toy_config), "--method", "fw",
         "--out", str(out)]
    )
    assert rc == cli.EXIT_OK
    assert "audit: PASS" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines
    first = json.loads(lines[0])
    assert set(first) >= {"round", "sender", "receiver", "kind", "bytes"}


def test_audit_pilot_only(toy_config, tmp_path, capsys):
    # no completion traffic at all, just local detections
    rc = cli.main(
        ["audit", "--config", str(toy_config), "--method", "po",
         "--out", str(tmp_path / "t.jsonl")]
    )
    assert rc == cli.EXIT_OK
    assert "PASS" in capsys.readouterr().out


def test_crossval_prefers_more_iterations(tmp_path, capsys):
    # noiseless full observation: longer FW runs must score better
    cfg = tmp_path / "cv.yaml"
    cfg.write_text(TOY + "eps: 1.0e+9\n")
    rc = cli.main(
        ["crossval", "--config", str(cfg), "--method", "fw",
         "--param", "fw_iters", "--values", "1,40", "--trials", "2"]
    )
    assert rc == cli.EXIT_OK
    assert "best fw_iters=40" in capsys.readouterr().out


@pytest.mark.parametrize(
    "method, param, values",
    [("svd", "nuc_bound", "0.5,5,50"), ("npsvd", "nuc_bound", "0.5,5,50"),
     ("npfw", "fw_iters", "1,8,40")],
)
def test_crossval_param_the_method_never_reads_exits_2(toy_config, capsys, method, param, values):
    rc = cli.main(
        ["crossval", "--config", str(toy_config), "--method", method,
         "--param", param, "--values", values, "--trials", "1"]
    )
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"method {method!r} does not read {param!r}" in err


def test_crossval_where_every_trial_fails_exits_3(toy_config, capsys, monkeypatch):
    def degenerate(*args, **kwargs):
        raise DegenerateStepError("lifted top value is exactly zero")

    monkeypatch.setattr(harness, "run_trial", degenerate)
    rc = cli.main(
        ["crossval", "--config", str(toy_config), "--method", "fw",
         "--param", "fw_iters", "--values", "1,8", "--trials", "2"]
    )
    assert rc == cli.EXIT_RUNTIME
    err = capsys.readouterr().err
    assert "every fw_iters value in [1.0, 8.0]" in err
    assert "Traceback" not in err


# Gram rounds per trial on the toy config: fw_iters, the default
# np_fw_iters, one for the one-shot methods, none for pilot-only.
TOY_ROUNDS = {"fw": 4, "npfw": 200, "svd": 1, "npsvd": 1, "po": 0}


@pytest.mark.parametrize("method", sorted(METHODS))
def test_every_method_audits_and_simulates(method, toy_config, tmp_path, capsys):
    out = tmp_path / "t.jsonl"
    rc = cli.main(["audit", "--config", str(toy_config), "--method", method, "--out", str(out)])
    assert rc == cli.EXIT_OK
    assert "audit: PASS" in capsys.readouterr().out
    rounds, n_aps = TOY_ROUNDS[method], 2
    # M releases and one broadcast per round, then M local detections
    assert len(out.read_text().splitlines()) == n_aps * rounds + rounds + n_aps

    csv_out = tmp_path / "sweep.csv"
    rc = cli.main(
        ["simulate", "--config", str(toy_config), "--method", method,
         "--values", "1", "--out", str(csv_out)]
    )
    assert rc == cli.EXIT_OK
    row = read_csv(csv_out)[0]
    assert row["method"] == method
    assert row["failures"] == 0


def test_fractional_tau_d_sweep_value_exits_2(toy_config, tmp_path, capsys):
    out = tmp_path / "tau.csv"
    rc = cli.main(
        ["simulate", "--config", str(toy_config), "--method", "po",
         "--sweep", "tau_d", "--values", "20.7", "--out", str(out)]
    )
    assert rc == cli.EXIT_CONFIG
    assert "tau_d must be a whole number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "config, args",
    [("desk", ["--sweep", "tau_d", "--values", "1e18"]),
     ("desk", ["--sweep", "tau_d", "--values", "1e30"]),
     ("huge_m", ["--values", "1"])],
    ids=["tau_d-1e18", "tau_d-1e30", "yaml-M-1e18"],
)
def test_a_block_larger_than_numpy_allows_exits_2(tmp_path, capsys, config, args):
    """An (M, N_a, tau_c) complex128 block of more bytes than numpy's largest array is refused
    when the scenario is built, not left to a ValueError traceback from numpy.  Only sizes
    the check refuses are tried: a size that passes it would be allocated."""
    path = REPO / "configs" / "desk.yaml"
    if config == "huge_m":
        path = tmp_path / "huge.yaml"
        path.write_text(re.sub(r"^M: .*$", "M: 1000000000000000000", TOY, flags=re.M))
    out = tmp_path / "o.csv"
    rc = cli.main(["simulate", "--config", str(path), "--method", "po", *args, "--out", str(out)])
    assert rc == cli.EXIT_CONFIG
    assert "block exceeds numpy's maximum array size" in capsys.readouterr().err
    assert not out.exists()


def test_fractional_fw_iters_crossval_value_exits_2(toy_config, capsys):
    rc = cli.main(
        ["crossval", "--config", str(toy_config), "--method", "fw",
         "--param", "fw_iters", "--values", "8.5", "--trials", "1"]
    )
    assert rc == cli.EXIT_CONFIG
    assert "fw_iters must be a whole number" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "crossval"])
def test_empty_value_list_exits_2(toy_config, tmp_path, capsys, command):
    """A --values list with no number in it is rejected, not replaced by the config's."""
    out = tmp_path / "x.csv"
    argv = {
        "simulate": ["--method", "po", "--trials", "1", "--out", str(out)],
        "crossval": ["--method", "fw", "--param", "fw_iters", "--trials", "1"],
    }[command]
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--config", str(toy_config), "--values", ",", *argv])
    assert exc.value.code == 2
    assert "empty value list" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "line, name",
    [("eps: .nan", "eps"), ("eps: abc", "eps"), ("R_km: .nan", "R_km"),
     ("eps: 1" + "0" * 400, "eps"), ("values: [.nan]", "values")],
)
def test_non_numeric_float_field_exits_2(tmp_path, capsys, line, name):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(TOY + line + "\n")
    out = tmp_path / "o.csv"
    rc = cli.main(["simulate", "--config", str(cfg), "--values", "1", "--out", str(out)])
    assert rc == cli.EXIT_CONFIG
    assert f"{name} must be a finite real number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("method", ["fw", "svd", "po"])
@pytest.mark.parametrize("pl_a, why", [(-4000, "median gain inf"), (4000, "median gain 0.0")])
def test_gains_that_overflow_or_underflow_exit_2(tmp_path, capsys, method, pl_a, why):
    """pl_a = -4000 makes every gain 10^(-loss/10) overflow to inf and pl_a = 4000 makes it 0:
    no trial can run, so the run is refused before any CSV is written."""
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(TOY + f"pl_a: {pl_a}\n")
    out = tmp_path / "o.csv"
    rc = cli.main(["simulate", "--config", str(cfg), "--method", method, "--values", "1", "--out", str(out)])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "link gains must be finite with a positive median" in err and why in err
    assert not out.exists()


@pytest.mark.parametrize("method, eps", [("fw", "1e-305"), ("svd", "1e-305"), ("fw", "1e-299"),
                                         ("svd", "1e-301"), ("npfw", "1e-305")])
def test_a_budget_whose_noise_overflows_exits_2(tmp_path, capsys, method, eps):
    """At eps = 1e-305 the desk release noise std overflows to inf, and at fw's 1e-299 and
    svd's 1e-301 it is finite but the M-AP sum's std is not: the private methods are refused
    before any CSV is written, not run to a CSV of NaN rows.  npfw draws no noise, so it
    runs at that eps."""
    out = tmp_path / "o.csv"
    argv = ["simulate", "--config", str(REPO / "configs" / "desk.yaml"), "--method", method,
            "--values", eps, "--trials", "1", "--out", str(out)]
    rc = cli.main(argv)
    err = capsys.readouterr().err
    if method == "npfw":
        assert rc == cli.EXIT_OK
        assert read_csv(out)[0]["trials"] == 1
    else:
        assert rc == cli.EXIT_CONFIG
        assert "config error:" in err and "overflows" in err
        assert not out.exists()


@pytest.mark.parametrize(
    "lines, message",
    [("1: 2\nfoo: 3", "unknown config keys: ['foo', 1]"), ("method: {a: 1}", "unknown method {'a': 1}")],
)
def test_keys_and_methods_of_the_wrong_type_exit_2(tmp_path, capsys, lines, message):
    """audit on a config with a non-string unknown key or a mapping-valued method: exit 2 with one
    line on stderr, not a traceback."""
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(TOY + lines + "\n")
    rc = cli.main(["audit", "--config", str(cfg), "--out", str(tmp_path / "t.jsonl")])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert message in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("line", ["values: 1", "values: abc", "values: {a: 1}"])
def test_scalar_values_in_yaml_exits_2(tmp_path, capsys, line):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(TOY + line + "\n")
    out = tmp_path / "o.csv"
    rc = cli.main(["simulate", "--config", str(cfg), "--out", str(out)])
    assert rc == cli.EXIT_CONFIG
    assert "values must be a list of numbers" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("method, value", [("svd", "nan"), ("fw", "nan"), ("svd", "inf")])
def test_non_finite_sweep_value_exits_2(toy_config, tmp_path, capsys, method, value):
    """No run labelled private goes out with a NaN or infinite budget."""
    out = tmp_path / "o.csv"
    rc = cli.main(
        ["simulate", "--config", str(toy_config), "--method", method,
         "--values", value, "--out", str(out)]
    )
    assert rc == cli.EXIT_CONFIG
    assert "values must be a finite real number" in capsys.readouterr().err
    assert not out.exists()


def test_fractional_fw_iters_in_yaml_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(TOY.replace("fw_iters: 4", "fw_iters: 8.5"))
    rc = cli.main(
        ["simulate", "--config", str(cfg), "--values", "1", "--out", str(tmp_path / "o.csv")]
    )
    assert rc == cli.EXIT_CONFIG
    assert "fw_iters" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [("seed", "1.5"), ("seed", "true"), ("trials", "true"), ("seed", "abc"),
     ("seed", ".nan"), ("M", "true"), ("fw_iters", "true")],
)
def test_non_integer_int_field_exits_2(tmp_path, capsys, key, value):
    """An integer field given a fraction, a bool, a NaN or a word is rejected,
    never rounded, read as 1 or left to fail mid-run."""
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(re.sub(rf"^{key}: .*$", f"{key}: {value}", TOY, flags=re.M))
    out = tmp_path / "o.csv"
    rc = cli.main(["simulate", "--config", str(cfg), "--values", "1", "--out", str(out)])
    assert rc == cli.EXIT_CONFIG
    assert f"{key} must be an integer >= " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line", ["units: normalized", "shadow_convention: real", "signal_model: qpsk"])
def test_retired_config_key_exits_2(tmp_path, capsys, line):
    cfg = tmp_path / "old.yaml"
    cfg.write_text(TOY + line + "\n")
    rc = cli.main(["simulate", "--config", str(cfg), "--values", "1", "--out", str(tmp_path / "o.csv")])
    assert rc == cli.EXIT_CONFIG
    assert f"unknown config keys: ['{line.split(':')[0]}']" in capsys.readouterr().err



@pytest.mark.parametrize(
    "sweep, values, message",
    [("epsilon", "-1,0", "epsilon sweep values must be positive"),
     ("tau_d", "20,20.5", "tau_d must be a whole number")],
)
def test_sweep_value_off_its_axis_exits_2(toy_config, tmp_path, capsys, sweep, values, message):
    """A value the axis cannot take is rejected before any trial, not run as NaN rows or rounded."""
    out = tmp_path / "o.csv"
    rc = cli.main(
        ["simulate", "--config", str(toy_config), "--method", "fw", "--sweep", sweep,
         f"--values={values}", "--out", str(out)]
    )
    assert rc == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_negative_epsilon_in_yaml_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(TOY + "values: [-1.0]\n")
    out = tmp_path / "o.csv"
    rc = cli.main(["simulate", "--config", str(cfg), "--out", str(out)])
    assert rc == cli.EXIT_CONFIG
    assert "epsilon sweep values must be positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "audit"])
def test_unwritable_out_exits_2(toy_config, tmp_path, capsys, command, monkeypatch):
    """An --out in a missing directory is rejected with its path before any trial runs."""
    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(harness, "run_trial", no_trial)
    monkeypatch.setattr(cli, "run_trial", no_trial)
    out = str(tmp_path / "missing" / "x.out")
    argv = [command, "--config", str(toy_config), "--method", "po", "--out", out]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + (["--values", "1"] if command == "simulate" else []))
    assert exc.value.code == 2
    assert f"cannot write {out!r}" in capsys.readouterr().err
    assert not (tmp_path / "missing").exists()


def _script(name, *args, tmp_path):
    return subprocess.run(
        [sys.executable, str(REPO / "scripts" / name), *args],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize(
    "name, args, message",
    [("run_desk_sweeps.py", ["--trials", "0", "--out-dir", "res"], "trials must be an integer >= 1"),
     ("run_crossval.py", ["--trials", "0"], "trials must be an integer >= 1"),
     ("run_crossval.py", ["--iters-grid", "4,8.5"], "fw_iters must be a whole number"),
     ("run_crossval.py", ["--nuc-fractions", "0.5,x"], "--nuc-fractions must be comma-separated numbers"),
     ("run_crossval.py", ["--nuc-fractions", "0,0.5"], "--nuc-fractions must be positive and finite")],
)
def test_script_config_error_exits_2(tmp_path, name, args, message):
    """The scripts reject a bad input with exit 2 and one line, as the CLI does."""
    proc = _script(name, *args, "--config", str(REPO / "configs" / "desk.yaml"), tmp_path=tmp_path)
    assert proc.returncode == 2
    (line,) = proc.stderr.splitlines()
    assert line.startswith("config error: ") and message in line
    assert not (tmp_path / "res").exists()


def test_crossval_script_scales_fractions_by_the_scored_deployment(monkeypatch, capsys):
    """Fraction 1.0 is the nuclear budget of the deployment cross_validate scores on, and
    the best fraction printed is cross_validate's own pick, past a grid value scored NaN."""
    for var in BLAS_VARS:  # the script sets them on import; restored after the test
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("run_crossval", REPO / "scripts" / "run_crossval.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    grids = []

    def scored(exp, param, grid):
        grids.append(list(grid))
        return grid[2], list(zip(grid, [0.5, float("nan"), 0.3]))

    monkeypatch.setattr(script, "cross_validate", scored)
    monkeypatch.setattr(sys, "argv", ["run_crossval.py", "--method", "npfw", "--nuc-fractions", "0.5,1,2"])
    script.main()
    scen = load_experiment(REPO / "configs" / "desk.yaml").scenario
    scored_budget = nuclear_norm_budget(
        harness.draw_beta(scen, derive_master(scen.seed, "crossval")), scen.tau_c, scen.N_a
    )
    (grid,) = grids
    assert grid[1] == scored_budget
    assert grid[1] != nuclear_norm_budget(harness.draw_beta(scen, scen.seed), scen.tau_c, scen.N_a)
    assert capsys.readouterr().out.splitlines()[-1] == "best fraction: 2.00"


def _sweep_script(monkeypatch, axes):
    """scripts/run_desk_sweeps.py loaded as a module, its run_sweep calls appended to axes as
    (axis, methods) and each trial stubbed to (nmse, ser) = (0.5, 0.25)."""
    for var in BLAS_VARS:  # the script sets them on import; restored after the test
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("run_desk_sweeps", REPO / "scripts" / "run_desk_sweeps.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)

    def sweep(exp, methods):
        axes.append((exp.run.sweep, tuple(methods)))
        return harness.run_sweep(exp, methods)

    monkeypatch.setattr(script, "run_sweep", sweep)
    return script


@pytest.mark.parametrize("profile", ["desk", "m100_k25"])
def test_sweep_script_names_its_tables_after_the_profile(monkeypatch, tmp_path, profile):
    """run_desk_sweeps.py writes <profile stem>_<axis>.csv into --out-dir, so a full-scale
    run leaves the desk tables alone; one run_sweep call per axis, its trials stubbed out."""
    axes, written = [], []
    script = _sweep_script(monkeypatch, axes)
    monkeypatch.setattr(harness, "run_trial", lambda *args: harness.TrialResult(0.5, 0.25))
    monkeypatch.setattr(script, "emit_csv", lambda records, path: written.append(path))
    argv = ["run_desk_sweeps.py", "--out-dir", str(tmp_path), "--trials", "2"]
    if profile != "desk":  # desk is the script's default profile
        argv += ["--config", str(REPO / "configs" / f"{profile}.yaml")]
    monkeypatch.setattr(sys, "argv", argv)
    script.main()
    assert written == [tmp_path / f"{profile}_epsilon.csv", tmp_path / f"{profile}_tau_d.csv"]
    assert [axis for axis, _ in axes] == ["epsilon", "tau_d"]


def test_sweep_script_runs_each_non_private_method_once_per_epsilon_sweep(monkeypatch, tmp_path):
    """With run_trial stubbed: one run_sweep call per axis with its whole method list; on the
    epsilon axis each trial runs once per non-private method and once per value for the
    private ones, on the tau_d axis once per value for every method; every epsilon row is
    still written, each at its own value."""
    axes, calls, tables = [], [], {}
    script = _sweep_script(monkeypatch, axes)

    def trial(scenario, run, method, prepared, master_seed, trial, eps, net=None):
        calls.append((method, axes[-1][0], trial))
        return harness.TrialResult(0.5, 0.25)

    monkeypatch.setattr(harness, "run_trial", trial)
    monkeypatch.setattr(script, "emit_csv", lambda records, path: tables.setdefault(path.stem, records))
    monkeypatch.setattr(sys, "argv", ["run_desk_sweeps.py", "--out-dir", str(tmp_path), "--trials", "3"])
    script.main()
    assert axes == [("epsilon", tuple(METHODS)), ("tau_d", ("fw", "svd", "po"))]
    eps, taus = script.EPS_VALUES, script.TAU_VALUES
    for method in METHODS:
        private = METHODS[method].private
        for t in range(3):
            assert calls.count((method, "epsilon", t)) == (len(eps) if private else 1), method
        rows = [r for r in tables["desk_epsilon"] if r.method == method]
        assert [r.axis_value for r in rows] == list(eps)
        assert all((r.nmse, r.ser, r.trials) == (0.5, 0.25, 3) for r in rows)
    for method in ("fw", "svd", "po"):
        assert calls.count((method, "tau_d", 0)) == len(taus)
    assert len(tables["desk_tau_d"]) == 3 * len(taus)


def test_sweep_script_prints_each_methods_paired_step_from_po(monkeypatch, tmp_path, capsys):
    """A 3-trial sweep with run_trial stubbed: at each axis value, each completing method's
    paired NMSE step from po (harness.paired over the shared trials), in method order; on the
    epsilon axis po and the non-private methods keep their first-epsilon trials."""
    script = _sweep_script(monkeypatch, [])
    offsets = {"fw": (0.1, 0.2, 0.3), "svd": (-0.1, 0.05, 0.1), "npfw": (0.0, 0.0, 0.0), "npsvd": (0.2, 0.2, -0.4)}

    def nmse(method, trial, eps, tau_d):
        return 0.5 + 0.1 * trial + 0.01 * eps + tau_d / 1000 + offsets.get(method, (0.0,) * 3)[trial]

    def trial(scenario, run, method, prepared, master_seed, trial, eps, net=None):
        return harness.TrialResult(nmse(method, trial, eps, scenario.tau_d), 0.25)

    monkeypatch.setattr(harness, "run_trial", trial)
    monkeypatch.setattr(script, "emit_csv", lambda records, path: None)
    monkeypatch.setattr(sys, "argv", ["run_desk_sweeps.py", "--out-dir", str(tmp_path), "--trials", "3"])
    script.main()
    lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("  ")]

    def step(axis, value, method, eps, po_eps, tau_d):
        d = np.array([nmse(method, t, eps, tau_d) - nmse("po", t, po_eps, tau_d) for t in range(3)])
        se = np.std(d, ddof=1) / math.sqrt(3)
        return f"  {axis}={value:g} {method} - po: nmse {d.mean():+.5f} ± {se:.5f}, {np.count_nonzero(d > 0)}/3 rising"

    desk = load_experiment(REPO / "configs" / "desk.yaml")
    first = script.EPS_VALUES[0]
    want = [step("epsilon", eps, m, eps if METHODS[m].private else first, first, desk.scenario.tau_d)
            for eps in script.EPS_VALUES for m in ("fw", "svd", "npfw", "npsvd")]
    want += [step("tau_d", tau, m, desk.run.eps, desk.run.eps, tau) for tau in script.TAU_VALUES for m in ("fw", "svd")]
    assert lines == want


def test_simulate_prints_the_paired_step_between_adjacent_values(tmp_path, capsys):
    """Desk svd at the config seed: the paired NMSE step from epsilon 0.1 to 0.5 over the 50
    shared trials, printed between the two points' lines."""
    out = tmp_path / "svd.csv"
    rc = cli.main(["simulate", "--config", str(REPO / "configs" / "desk.yaml"), "--method", "svd", "--out", str(out)])
    assert rc == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("svd epsilon=0.1 ") and lines[2].startswith("svd epsilon=0.5 ")
    assert lines[1] == "  step: nmse +0.00048 ± 0.00008, 47/50 rising"
    assert sum(line.startswith("  step: ") for line in lines) == 4


def test_cli_pins_blas_before_numpy_loads():
    """The package root loads no numpy, so importing the CLI can still pin BLAS to one thread."""
    probe = (
        "import os, sys; import privcell; assert 'numpy' not in sys.modules, 'numpy loaded'; "
        "import privcell.cli; print([os.environ.get(v) for v in %r])" % (BLAS_VARS,)
    )
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = str(REPO / "src")
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(["1", "1", "1"])
