from pathlib import Path

import pytest

from privcell.config import (
    METHODS,
    RunConfig,
    experiment_from_mapping,
    load_experiment,
    with_overrides,
)
from privcell.errors import ConfigError

REPO = Path(__file__).resolve().parent.parent


BASE = {
    "M": 2, "K": 2, "N_a": 2, "N_r": 2, "tau_p": 2, "tau_d": 4,
}


def test_minimal_mapping():
    exp = experiment_from_mapping(dict(BASE))
    assert exp.scenario.M == 2
    assert exp.run.method == "fw"


def test_mapping_splits_scenario_and_run():
    exp = experiment_from_mapping(
        dict(BASE, sigma2=1e-12, method="svd", trials=7, values=[0.1, 1.0])
    )
    assert exp.scenario.sigma2 == 1e-12
    assert exp.run.method == "svd"
    assert exp.run.trials == 7
    assert exp.run.values == (0.1, 1.0)  # lists become tuples


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown config keys"):
        experiment_from_mapping(dict(BASE, trails=50))


def test_missing_scenario_keys():
    with pytest.raises(ConfigError, match="missing required"):
        experiment_from_mapping({"M": 2, "K": 2})


def test_root_must_be_mapping():
    with pytest.raises(ConfigError):
        experiment_from_mapping([1, 2, 3])


def test_run_validation():
    with pytest.raises(ConfigError):
        RunConfig(eps=-1.0)
    with pytest.raises(ConfigError):
        RunConfig(delta=1.5)
    with pytest.raises(ConfigError):
        RunConfig(method="lasso")
    with pytest.raises(ConfigError):
        RunConfig(sweep="snr")
    with pytest.raises(ConfigError):
        RunConfig(nuc_bound=-0.1)
    with pytest.raises(ConfigError):
        RunConfig(trials=0)
    for name in ("fw_iters", "np_fw_iters", "trials"):
        for bad in (8.5, 8.0, "8", None, True):
            with pytest.raises(ConfigError, match=name):
                RunConfig(**{name: bad})
    assert set(METHODS) == {"fw", "svd", "npfw", "npsvd", "po"}


@pytest.mark.parametrize(
    "sweep, values, message",
    [("epsilon", (1.0, -1.0), "epsilon sweep values must be positive"),
     ("epsilon", (0.0,), "epsilon sweep values must be positive"),
     ("tau_d", (20.0, 20.5), "tau_d must be a whole number"),
     ("tau_d", (0.0,), "tau_d sweep values must be >= 1")],
)
def test_sweep_values_checked_against_their_axis(sweep, values, message):
    with pytest.raises(ConfigError, match=message):
        RunConfig(sweep=sweep, values=values)


def test_sweep_values_in_range_pass():
    assert RunConfig(sweep="tau_d", values=(1.0, 20)).values == (1.0, 20)
    assert RunConfig(sweep="epsilon", values=(1e-3, 50.0)).values == (1e-3, 50.0)


def test_with_overrides_applies_run_fields_and_seed():
    exp = experiment_from_mapping(dict(BASE, values=[1.0], seed=3))
    out = with_overrides(exp, method="po", trials=None, sweep="tau_d", values=(4.0,), seed=9)
    assert (out.run.method, out.run.sweep, out.run.values) == ("po", "tau_d", (4.0,))
    assert out.run.trials == exp.run.trials  # None leaves the field as it is
    assert out.scenario.seed == 9
    assert (exp.run.method, exp.scenario.seed) == ("fw", 3)  # the input is not changed
    assert with_overrides(exp) == exp


def test_with_overrides_validates():
    exp = experiment_from_mapping(dict(BASE))
    with pytest.raises(ConfigError, match="trials must be an integer >= 1"):
        with_overrides(exp, trials=0)
    with pytest.raises(ConfigError, match="unknown method"):
        with_overrides(exp, method="ridge")
    with pytest.raises(ConfigError, match="tau_d must be a whole number"):
        with_overrides(exp, sweep="tau_d", values=(20.0, 20.5))
    with pytest.raises(ConfigError, match="seed must be an integer"):
        with_overrides(exp, seed=-1)


def test_load_yaml(tmp_path):
    p = tmp_path / "exp.yaml"
    p.write_text("M: 2\nK: 2\nN_a: 2\nN_r: 2\ntau_p: 2\ntau_d: 4\nmethod: po\n")
    exp = load_experiment(p)
    assert exp.run.method == "po"


def test_load_yaml_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_experiment(tmp_path / "missing.yaml")
    bad = tmp_path / "bad.yaml"
    bad.write_text("M: [unclosed\n")
    with pytest.raises(ConfigError):
        load_experiment(bad)
    empty = tmp_path / "empty.yaml"
    empty.write_text("")
    with pytest.raises(ConfigError):
        load_experiment(empty)


def test_shipped_configs_load():
    desk = load_experiment(REPO / "configs" / "desk.yaml")
    assert (desk.scenario.M, desk.scenario.K) == (20, 4)
    assert (desk.scenario.N_a, desk.scenario.N_r) == (4, 2)
    assert desk.scenario.tau_c == 60
    assert desk.run.delta == 0.1
    assert desk.run.trials == 50
    for name in ("m100_k5.yaml", "m100_k25.yaml"):
        exp = load_experiment(REPO / "configs" / name)
        assert exp.scenario.M == 100
        assert exp.scenario.tau_c == 100
