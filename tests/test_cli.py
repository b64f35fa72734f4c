"""End-to-end runs of the console entry points on toy configs."""

import json
import re

import pytest

from privcell import cli, harness
from privcell.config import METHODS
from privcell.errors import DegenerateStepError
from support import read_csv

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


@pytest.mark.parametrize("line", ["units: normalized", "shadow_convention: real"])
def test_retired_config_key_exits_2(tmp_path, capsys, line):
    cfg = tmp_path / "old.yaml"
    cfg.write_text(TOY + line + "\n")
    rc = cli.main(["simulate", "--config", str(cfg), "--values", "1", "--out", str(tmp_path / "o.csv")])
    assert rc == cli.EXIT_CONFIG
    assert f"unknown config keys: ['{line.split(':')[0]}']" in capsys.readouterr().err

