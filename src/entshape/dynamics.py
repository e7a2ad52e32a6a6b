"""Continuous-time fidelity decay and entanglement-rate suppression.

The depolarizing generator drives the target-state fidelity as
F(t) = F0 exp(-p t). Along that decay the fidelity-bridge closed form gives

    dE/dt = -(p F / 2) log2((1+F)/(1-F)),

negative whenever p > 0 and F in (0, 1): entanglement is lost, faster for
larger noise. A compressed noise parameter p' < p therefore loses less, and
the integrated gap

    delta = E(F0 e^(-p' T)) - E(F0 e^(-p T))

is strictly positive while the slower trajectory stays entangled. E(F) is
clamped to 0 once F falls to 1/2 (the separable regime), keeping
trajectories defined for all horizons.

For amplitude damping no closed form is available; the analogue is the gap
between numeric entanglement bounds at the two damping endpoints. Equal-damping
slices compose exactly, AD(a) o AD(b) = AD(1 - (1-a)(1-b)), so a time-sliced
path ends at one-shot damping and the endpoints are evaluated directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .channels import amplitude_damping, apply
from .entanglement import SolverConfig, er_bell_fidelity, er_numeric
from .qstate import bell_pair


@dataclass(frozen=True)
class TrajectoryParams:
    p: float
    p_prime: float
    f0: float
    horizon: float
    step: float


@dataclass(frozen=True, eq=False)
class EntropyTrajectory:
    """Time series of (t, fidelity, entanglement bits, mixedness) samples.

    Mixedness is the normalized linear entropy of the Werner-mixture carrier
    at the sample's fidelity parameter, which reduces to 1 - F^2.
    """

    samples: tuple[tuple[float, float, float, float], ...]
    params: TrajectoryParams

    def __post_init__(self):
        times = [s[0] for s in self.samples]
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise ValueError("sample times must be strictly increasing")


def fidelity_decay(f0: float, p: float, t: float) -> float:
    """Closed-form decay F0 exp(-p t)."""
    if not (0 < f0 <= 1):
        raise ValueError(f"initial fidelity {f0} outside (0, 1]")
    if p < 0 or t < 0:
        raise ValueError("noise parameter and time must be non-negative")
    return f0 * math.exp(-p * t)


def er_production_rate(fidelity: float, p: float) -> float:
    """Instantaneous entanglement change rate -(pF/2) log2((1+F)/(1-F))."""
    if not (0 < fidelity < 1):
        raise ValueError(f"rate is defined for fidelity in (0, 1), got {fidelity}")
    if p < 0:
        raise ValueError("noise parameter must be non-negative")
    return -(p * fidelity / 2) * math.log2((1 + fidelity) / (1 - fidelity))


def delta_er(p: float, p_prime: float, f0: float, horizon: float) -> float:
    """Integrated suppression E(F0 e^(-p' T)) - E(F0 e^(-p T)); 0 when p' = p."""
    if p_prime > p:
        raise ValueError(f"compressed parameter {p_prime} exceeds raw parameter {p}")
    if p_prime < 0:
        raise ValueError("parameters must be non-negative")
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    f_slow = fidelity_decay(f0, p_prime, horizon)
    f_fast = fidelity_decay(f0, p, horizon)
    return er_bell_fidelity(f_slow) - er_bell_fidelity(f_fast)


def _trajectory_samples(p: float, params: TrajectoryParams) -> tuple[tuple[float, float, float, float], ...]:
    count = int(math.floor(params.horizon / params.step + 1e-9)) + 1
    rows = []
    for i in range(count):
        t = i * params.step
        f = fidelity_decay(params.f0, p, t)
        rows.append((t, f, er_bell_fidelity(f), 1 - f * f))
    return tuple(rows)


def trajectory(
    p: float, p_prime: float, f0: float, horizon: float, step: float
) -> tuple[EntropyTrajectory, EntropyTrajectory]:
    """(unshaped, shaped) trajectories on a shared uniform time grid."""
    if step <= 0:
        raise ValueError("step must be positive")
    if p_prime > p:
        raise ValueError(f"compressed parameter {p_prime} exceeds raw parameter {p}")
    params = TrajectoryParams(p, p_prime, f0, horizon, step)
    return (
        EntropyTrajectory(_trajectory_samples(p, params), params),
        EntropyTrajectory(_trajectory_samples(p_prime, params), params),
    )


@dataclass(frozen=True)
class DampingSuppression:
    """Numeric suppression analogue for amplitude damping.

    ``value`` is the endpoint entanglement gap between the compressed and raw
    damping paths.
    """

    value: float
    er_raw_endpoint: float
    er_compressed_endpoint: float


def damping_suppression(
    gamma: float, compression: float, solver_cfg: SolverConfig | None = None
) -> DampingSuppression:
    """er(AD(compression * gamma)) - er(AD(gamma)) on the damped Bell pair.

    ``compression`` scales the damping parameter the way the parametric
    decoupling transform would (gamma' = compression * gamma).
    """
    if not (0 <= gamma <= 1):
        raise ValueError(f"damping parameter {gamma} outside [0, 1]")
    if not (0 < compression <= 1):
        raise ValueError("compression must be in (0, 1]")
    cfg = solver_cfg or SolverConfig(max_iterations=400, patience=15)

    def endpoint(g: float) -> float:
        return er_numeric(apply(amplitude_damping(g), bell_pair(), target=1), cfg).value

    raw = endpoint(gamma)
    compressed = endpoint(compression * gamma)
    return DampingSuppression(compressed - raw, raw, compressed)
