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
"""

from __future__ import annotations

import math

from .entanglement import er_bell_fidelity

TrajectoryRow = tuple[float, float, float, float]


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


def trajectory(
    p: float, p_prime: float, f0: float, horizon: float, step: float
) -> tuple[tuple[TrajectoryRow, ...], tuple[TrajectoryRow, ...]]:
    """(unshaped, shaped) trajectories on a shared uniform time grid.

    Each trajectory is a tuple of (t, fidelity, entanglement bits, mixedness)
    rows at t = i * step. Mixedness is the normalized linear entropy of the
    Werner-mixture carrier at the row's fidelity parameter, which reduces to
    1 - F^2.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    if p_prime > p:
        raise ValueError(f"compressed parameter {p_prime} exceeds raw parameter {p}")
    count = int(math.floor(horizon / step + 1e-9)) + 1

    def curve(rate: float) -> tuple[TrajectoryRow, ...]:
        rows = []
        for i in range(count):
            t = i * step
            f = fidelity_decay(f0, rate, t)
            rows.append((t, f, er_bell_fidelity(f), 1 - f * f))
        return tuple(rows)

    return curve(p), curve(p_prime)
