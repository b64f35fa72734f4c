"""Flat key-value experiment configs (YAML mappings of scalars).

A config file carries the physical scenario plus privacy budget, method
defaults, and sweep defaults in one flat mapping; `with_overrides` is the
one way the CLI and the scripts change the run-level fields and the seed.
Unknown keys are rejected so typos fail loudly.
"""

from dataclasses import dataclass, fields, replace
from typing import Optional

import yaml

from .channel import Scenario, check_int, check_real
from .errors import ConfigError

SCENARIO_KEYS = {f.name for f in fields(Scenario)}


@dataclass(frozen=True)
class Method:
    """How a method completes the observed block and draws its release noise."""

    completion: Optional[str]  # ITERATIVE, ONE_SHOT, or None (pilot-only)
    private: bool  # release noise calibrated to (eps, delta), else zero
    stage: Optional[str]  # seeding stage of the release noise


ITERATIVE = "iterative"  # fw.run_fw: one Gram round per FW step
ONE_SHOT = "one_shot"  # svdmc.run_svd: a single Gram round

METHODS = {
    "fw": Method(ITERATIVE, True, "dp_fw"),
    "svd": Method(ONE_SHOT, True, "dp_svd"),
    "npfw": Method(ITERATIVE, False, "dp_fw"),
    "npsvd": Method(ONE_SHOT, False, "dp_svd"),
    "po": Method(None, False, None),
}
COMPLETING = tuple(name for name, m in METHODS.items() if m.completion)
TUNABLE = ("nuc_bound", "fw_iters")  # RunConfig keys cross-validation can search


def method_spec(name):
    """The METHODS entry of `name`; a ConfigError for an unknown method, a name that is not a string included."""
    if not isinstance(name, str) or name not in METHODS:
        raise ConfigError(f"unknown method {name!r}, pick from {sorted(METHODS)}")
    return METHODS[name]


def tunable(name):
    """The TUNABLE keys method `name` reads: nuc_bound if iterative, fw_iters if also private."""
    spec = method_spec(name)
    if spec.completion != ITERATIVE:
        return ()
    return TUNABLE if spec.private else TUNABLE[:1]


def whole(name, value):
    """value as an int; a ConfigError unless it is a whole number."""
    if not float(value).is_integer():
        raise ConfigError(f"{name} must be a whole number, got {value!r}")
    return int(value)


@dataclass
class RunConfig:
    """Method, budget, and sweep defaults for one experiment."""

    eps: float = 1.0
    delta: float = 0.1
    fw_iters: int = 20  # private FW rounds
    np_fw_iters: int = 200  # non-private FW rounds
    nuc_bound: float = 0.0  # 0 = derive from the large-scale gains
    clip_bound: float = 0.0  # 0 = derive from the large-scale gains
    method: str = "fw"
    sweep: str = "epsilon"  # epsilon | tau_d
    values: tuple = ()
    trials: int = 50

    def __post_init__(self):
        for name in ("fw_iters", "np_fw_iters", "trials"):
            check_int(name, getattr(self, name), 1)
        for name in ("eps", "delta", "nuc_bound", "clip_bound"):
            check_real(name, getattr(self, name))
        if self.sweep not in ("epsilon", "tau_d"):
            raise ConfigError(f"unknown sweep axis {self.sweep!r}")
        if not isinstance(self.values, (list, tuple)):
            raise ConfigError(f"values must be a list of numbers, got {self.values!r}")
        for v in self.values:
            check_real("values", v)
            if self.sweep == "tau_d" and whole("tau_d", v) < 1:
                raise ConfigError(f"tau_d sweep values must be >= 1, got {v!r}")
            if self.sweep == "epsilon" and v <= 0:
                raise ConfigError(f"epsilon sweep values must be positive, got {v!r}")
        if self.eps <= 0:
            raise ConfigError(f"eps must be positive, got {self.eps}")
        if not 0 < self.delta < 1:
            raise ConfigError(f"delta must lie in (0, 1), got {self.delta}")
        if self.nuc_bound < 0 or self.clip_bound < 0:
            raise ConfigError("bound overrides must be non-negative (0 = derived)")
        method_spec(self.method)


RUN_KEYS = {f.name for f in fields(RunConfig)}


@dataclass
class ExperimentConfig:
    scenario: Scenario
    run: RunConfig


def _coerce(raw):
    if isinstance(raw, list):
        return tuple(raw)
    return raw


def experiment_from_mapping(mapping):
    """Build an ExperimentConfig from one flat mapping."""
    if not isinstance(mapping, dict):
        raise ConfigError(f"config root must be a mapping, got {type(mapping).__name__}")
    unknown = set(mapping) - SCENARIO_KEYS - RUN_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown, key=repr)}")
    missing = {"M", "K", "N_a", "N_r", "tau_p", "tau_d"} - set(mapping)
    if missing:
        raise ConfigError(f"missing required scenario keys: {sorted(missing)}")
    scen_kwargs = {k: mapping[k] for k in mapping if k in SCENARIO_KEYS}
    run_kwargs = {k: _coerce(mapping[k]) for k in mapping if k in RUN_KEYS}
    return ExperimentConfig(scenario=Scenario(**scen_kwargs), run=RunConfig(**run_kwargs))


def with_overrides(exp, **changes):
    """A new validated ExperimentConfig: exp with the given RunConfig fields and seed.

    A None value leaves its field as it is, so unset CLI flags can be
    passed straight through.
    """
    changes = {k: v for k, v in changes.items() if v is not None}
    scenario = exp.scenario
    if "seed" in changes:
        scenario = replace(scenario, seed=changes.pop("seed"))
    return ExperimentConfig(scenario=scenario, run=replace(exp.run, **changes))


def load_experiment(path):
    """Load and validate a flat YAML config file."""
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except yaml.YAMLError as e:
        raise ConfigError(f"config {path} is not valid YAML: {e}") from e
    if raw is None:
        raise ConfigError(f"config {path} is empty")
    return experiment_from_mapping(raw)
