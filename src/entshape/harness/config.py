"""Experiment configuration: plain key = value files plus CLI overrides.

Every parameter is scalar, so the config format is one ``key = value`` per
line with ``#`` comments. The schema is documented in the README; unknown
keys are rejected so typos fail loudly before any computation starts.
"""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass
from pathlib import Path

from ..channels import amplitude_damping, depolarizing, transmit_bell_pair
from ..qstate import bell_pair, werner

EXPERIMENTS = ("table1", "table2", "flow", "sweep", "er", "selfcheck")
CONVENTIONS = ("paper", "oracle", "both")
SIDES = ("one", "two", "both")
# The experiments that read a convention; the others accept one and ignore it.
READS_CONVENTION = ("table1", "flow", "sweep")
# er_state family -> (closed domain of er_param, the state it names); bell takes no parameter.
ER_FAMILIES = {
    "werner": ((-1 / 3, 1.0), lambda x: werner(x).to_density_matrix()),
    "depolarizing": ((0.0, 0.75), lambda x: transmit_bell_pair(depolarizing(x))),
    "amplitude_damping": ((0.0, 1.0), lambda x: transmit_bell_pair(amplitude_damping(x))),
    "bell": ((-math.inf, math.inf), lambda _: bell_pair()),
}
ER_STATES = tuple(ER_FAMILIES)

# Upper bounds that stop a huge count in validation instead of at allocation.
MAX_SWEEP_COUNT = 10**4
MAX_TRAJECTORY_SAMPLES = 10**5
# Past 2**1023 the per-round node count no longer converts to a float.
MAX_N_PAIRS = 2**64

# Effective noise parameter of the shaping rows when p_prime is not set.
DEFAULT_P_PRIME = 0.17


class ConfigError(ValueError):
    """Invalid configuration; the CLI maps this to exit code 2."""


def readings(value: str, choices: tuple[str, ...]) -> tuple[str, ...]:
    """The readings a convention or sides value names: "both" names every other choice."""
    return tuple(c for c in choices if c != "both") if value == "both" else (value,)


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
    master_seed: int = 20260808
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
        for key, kind in _KEY_TYPES.items():
            value = getattr(self, key)
            if kind is float and value is not None and not math.isfinite(value):
                raise ConfigError(f"{key} = {value} is not finite")
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}; pick from {EXPERIMENTS}")
        # A convention given to an experiment that reads none must still be valid.
        needs_convention = self.experiment in READS_CONVENTION
        if (needs_convention or self.convention) and self.convention not in CONVENTIONS:
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
        if self.n_pairs > MAX_N_PAIRS:
            raise ConfigError(f"n_pairs = 2**{self.n_pairs.bit_length() - 1} exceeds {MAX_N_PAIRS}")
        # n_pairs is a power of two, so 2**rounds <= n_pairs reads off its bit length.
        if self.rounds < 0 or self.rounds >= self.n_pairs.bit_length():
            raise ConfigError(f"rounds = {self.rounds} too large for {self.n_pairs} pairs")
        if not (0 <= self.master_seed < 2**64):
            raise ConfigError("master_seed must fit in 64 bits")
        if self.er_state not in ER_STATES:
            raise ConfigError(f"er_state must be one of {ER_STATES}")
        (lo, hi), _ = ER_FAMILIES[self.er_state]
        if not (lo <= self.er_param <= hi):
            raise ConfigError(
                f"er_param = {self.er_param} outside [{lo:.6g}, {hi:.6g}] for {self.er_state}"
            )
        grid_ok = 0 <= self.sweep_start < self.sweep_stop <= 0.75
        if not (grid_ok and 2 <= self.sweep_count <= MAX_SWEEP_COUNT):
            raise ConfigError(
                f"sweep grid must satisfy 0 <= start < stop <= 3/4 with 2 <= count <= {MAX_SWEEP_COUNT}"
            )
        if self.t_total <= 0 or self.t_step <= 0 or self.t_step > self.t_total:
            raise ConfigError("time grid must satisfy 0 < t_step <= t_total")
        if self.t_total / self.t_step + 1 > MAX_TRAJECTORY_SAMPLES:
            raise ConfigError(
                f"time grid t_total / t_step + 1 exceeds {MAX_TRAJECTORY_SAMPLES} trajectory samples"
            )
        # The flow trajectories compare a compressed parameter against the raw one.
        p_prime = self.p_prime if self.p_prime is not None else DEFAULT_P_PRIME
        if self.experiment == "flow" and p_prime > self.p:
            raise ConfigError(f"flow needs p_prime = {p_prime} <= p = {self.p}")


# Scalar type of every key, read off the annotations ("float | None" is float).
_KEY_TYPES = {
    key: (typing.get_args(hint) or (hint,))[0]
    for key, hint in typing.get_type_hints(ExperimentConfig).items()
}


def parse_value(key: str, raw: str):
    kind = _KEY_TYPES.get(key)
    if kind is None:
        raise ConfigError(f"unknown configuration key {key!r}")
    raw = raw.strip()
    if kind is bool:
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"{key} = {raw!r} is not a boolean")
    try:
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"{key} = {raw!r} is not numeric") from exc


def load_config_file(path: str | Path) -> dict:
    """Parse a key = value file into typed overrides."""
    overrides: dict = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
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
        if key == "experiment":
            raise ConfigError("experiment is set by the subcommand, not by configuration")
        if key not in _KEY_TYPES:
            raise ConfigError(f"unknown configuration key {key!r}")
        setattr(cfg, key, value)
    cfg.validate()
    return cfg
