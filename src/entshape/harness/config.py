"""Experiment configuration: plain key = value files plus CLI overrides.

Every parameter is scalar, so the config format is one ``key = value`` per
line with ``#`` comments. The schema is documented in the README; unknown
keys are rejected so typos fail loudly before any computation starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

EXPERIMENTS = ("table1", "table2", "flow", "sweep", "er", "selfcheck")
CONVENTIONS = ("paper", "oracle", "both")
SIDES = ("one", "two", "both")
ER_STATES = ("werner", "werner_channel", "depolarizing", "amplitude_damping", "bell")
# Closed domain of er_param per state family; the bell state takes no parameter.
ER_PARAM_DOMAINS = {
    "werner": (-1 / 3, 1.0),
    "werner_channel": (0.0, 0.75),
    "depolarizing": (0.0, 0.75),
    "amplitude_damping": (0.0, 1.0),
}


class ConfigError(ValueError):
    """Invalid configuration; the CLI maps this to exit code 2."""


@dataclass
class ExperimentConfig:
    experiment: str
    convention: str = ""
    sides: str = "both"
    p: float = 0.2
    gamma: float = 0.3
    p_prime: float | None = None
    n_pairs: int = 4
    rounds: int = 2
    run_count: int = 10_000
    batch_count: int = 10
    master_seed: int = 20260808
    dd_pulse_count: int = 4
    dd_pulse_frequency: float = 10.0
    dd_noise_density: float = 1.625  # gives p' ~= 0.17 from p = 0.2 at f = 10
    er_state: str = "werner"
    er_param: float = 0.8
    sweep_start: float = 0.05
    sweep_stop: float = 0.5
    sweep_count: int = 10
    t_total: float = 1.0
    t_step: float = 0.02
    out_dir: str = "results"
    quiet: bool = False

    def validate(self) -> None:
        for key in sorted(_FLOAT_KEYS):
            value = getattr(self, key)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{key} = {value} is not finite")
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}; pick from {EXPERIMENTS}")
        needs_convention = self.experiment in ("table1", "table2", "flow", "sweep", "er")
        if needs_convention and self.convention not in CONVENTIONS:
            raise ConfigError(
                f"convention must be given explicitly as one of {CONVENTIONS} "
                f"for experiment {self.experiment!r}"
            )
        if self.sides not in SIDES:
            raise ConfigError(f"sides must be one of {SIDES}")
        if not (0 <= self.p <= 0.75):
            raise ConfigError(f"p = {self.p} outside [0, 3/4]")
        if not (0 <= self.gamma <= 1):
            raise ConfigError(f"gamma = {self.gamma} outside [0, 1]")
        if self.p_prime is not None and not (0 <= self.p_prime <= 0.75):
            raise ConfigError(f"p_prime = {self.p_prime} outside [0, 3/4]")
        if self.n_pairs < 1 or (self.n_pairs & (self.n_pairs - 1)) != 0:
            raise ConfigError(f"n_pairs = {self.n_pairs} is not a power of two")
        if self.rounds < 0 or 2**self.rounds > self.n_pairs:
            raise ConfigError(f"rounds = {self.rounds} too large for {self.n_pairs} pairs")
        if self.run_count < 1:
            raise ConfigError("run_count must be at least 1")
        if self.batch_count < 1:
            raise ConfigError("batch_count must be at least 1")
        if not (0 <= self.master_seed < 2**64):
            raise ConfigError("master_seed must fit in 64 bits")
        if self.dd_pulse_count < 1:
            raise ConfigError("dd_pulse_count must be at least 1")
        if self.dd_pulse_frequency <= 0:
            raise ConfigError("dd_pulse_frequency must be positive")
        if self.dd_noise_density < 0:
            raise ConfigError("dd_noise_density must be non-negative")
        if self.er_state not in ER_STATES:
            raise ConfigError(f"er_state must be one of {ER_STATES}")
        lo, hi = ER_PARAM_DOMAINS.get(self.er_state, (-math.inf, math.inf))
        if not (lo <= self.er_param <= hi):
            raise ConfigError(
                f"er_param = {self.er_param} outside [{lo:.6g}, {hi:.6g}] for {self.er_state}"
            )
        if self.sweep_count < 2 or not (0 <= self.sweep_start < self.sweep_stop <= 0.75):
            raise ConfigError("sweep grid must satisfy 0 <= start < stop <= 3/4 with count >= 2")
        if self.t_total <= 0 or self.t_step <= 0 or self.t_step > self.t_total:
            raise ConfigError("time grid must satisfy 0 < t_step <= t_total")

    def echo(self) -> dict:
        """Serializable snapshot of every parameter, in declaration order."""
        out = {}
        for f in fields(self):
            out[f.name] = getattr(self, f.name)
        return out


_BOOL_KEYS = {"quiet"}
_INT_KEYS = {
    "n_pairs", "rounds", "run_count", "batch_count", "master_seed",
    "dd_pulse_count", "sweep_count",
}
_FLOAT_KEYS = {
    "p", "gamma", "p_prime", "dd_pulse_frequency", "dd_noise_density",
    "er_param", "sweep_start", "sweep_stop", "t_total", "t_step",
}
_STR_KEYS = {"experiment", "convention", "sides", "er_state", "out_dir"}


def parse_value(key: str, raw: str):
    raw = raw.strip()
    if key in _BOOL_KEYS:
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"{key} = {raw!r} is not a boolean")
    try:
        if key in _INT_KEYS:
            return int(raw)
        if key in _FLOAT_KEYS:
            return float(raw)
    except ValueError as exc:
        raise ConfigError(f"{key} = {raw!r} is not numeric") from exc
    if key in _STR_KEYS:
        return raw
    raise ConfigError(f"unknown configuration key {key!r}")


def load_config_file(path: str | Path) -> dict:
    """Parse a key = value file into typed overrides."""
    overrides: dict = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        overrides[key] = parse_value(key, raw)
    return overrides


def build_config(experiment: str, overrides: dict) -> ExperimentConfig:
    cfg = ExperimentConfig(experiment=experiment)
    for key, value in overrides.items():
        if not hasattr(cfg, key):
            raise ConfigError(f"unknown configuration key {key!r}")
        setattr(cfg, key, value)
    cfg.validate()
    return cfg
