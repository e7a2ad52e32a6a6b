"""Quantum channels as Kraus-operator lists, plus decoupling transforms.

A channel is a finite list of Kraus operators satisfying the completeness
relation sum K_i^dag K_i = I.

Two decoupling models are exposed:

* :func:`dd_compression` is the parametric rule's factor exp(-gamma_sd / f_dd);
  a shaped channel is the same constructor at p' = p * dd_compression(...).
* :func:`dd_effective_pulse_average` builds the channel
  rho -> (1/4) sum_k N(P_k rho P_k^dag) over the four Paulis, exactly the
  displayed pulse-average form, with Kraus set {K_i P_k / 2}. Note that
  this form does NOT undo the pulse after the channel; :func:`pauli_twirl`
  is the conjugate version P_k^dag N(P_k rho P_k^dag) P_k, which is the one
  whose Choi state is Bell-diagonal for every qubit channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .qstate import (
    DensityMatrix,
    I2,
    PAULIS,
    X,
    Y,
    Z,
    _frozen_copy,
    as_operator,
    bell_pair,
)

COMPLETENESS_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class QuantumChannel:
    """CPTP map given by Kraus operators."""

    kraus_ops: tuple[np.ndarray, ...]

    def __init__(self, kraus_ops: Sequence[np.ndarray]):
        ops = tuple(as_operator(k) for k in kraus_ops)
        if not ops:
            raise ValueError("a channel needs at least one Kraus operator")
        d = ops[0].shape[0]
        if any(k.shape != (d, d) for k in ops):
            raise ValueError("Kraus operators must share one square dimension")
        total = sum(k.conj().T @ k for k in ops)
        if np.abs(total - np.eye(d)).max() > COMPLETENESS_TOL:
            raise ValueError("Kraus completeness sum differs from identity")
        object.__setattr__(self, "kraus_ops", tuple(_frozen_copy(k) for k in ops))

    @property
    def dim(self) -> int:
        return self.kraus_ops[0].shape[0]


def depolarizing(p: float) -> QuantumChannel:
    """Kraus set {sqrt(1-p) I, sqrt(p/3) X, sqrt(p/3) Y, sqrt(p/3) Z}, p in [0, 3/4]."""
    p = float(p)
    if p < 0 or p > 0.75:
        raise ValueError(f"depolarizing parameter {p} outside [0, 3/4]")
    k = math.sqrt(p / 3)
    ops = [math.sqrt(1 - p) * I2, k * X, k * Y, k * Z]
    return QuantumChannel(ops)


def amplitude_damping(gamma: float) -> QuantumChannel:
    """Kraus set K0 = |0><0| + sqrt(1-gamma)|1><1|, K1 = sqrt(gamma)|0><1|."""
    gamma = float(gamma)
    if gamma < 0 or gamma > 1:
        raise ValueError(f"damping parameter {gamma} outside [0, 1]")
    k0 = np.array([[1, 0], [0, math.sqrt(1 - gamma)]], dtype=complex)
    k1 = np.array([[0, math.sqrt(gamma)], [0, 0]], dtype=complex)
    return QuantumChannel([k0, k1])


def apply(channel: QuantumChannel, rho: DensityMatrix, target: int = 0) -> DensityMatrix:
    """Apply the channel to one subsystem: sum_i (I (x) K_i) rho (I (x) K_i)^dag.

    The stacked Kraus operators are contracted on the target axis alone.
    """
    if target < 0 or target >= len(rho.dims):
        raise ValueError(f"target {target} invalid for dims {rho.dims}")
    if rho.dims[target] != channel.dim:
        raise ValueError(
            f"channel dimension {channel.dim} does not match subsystem {target} of dims {rho.dims}"
        )
    ks, d = np.stack(channel.kraus_ops), channel.dim
    left, right = math.prod(rho.dims[:target]), math.prod(rho.dims[target + 1 :])
    block = rho.matrix.reshape(left, d, right, left, d, right)
    out = np.einsum("kij,ajbcle,kml->aibcme", ks, block, ks.conj()).reshape(rho.matrix.shape)
    return DensityMatrix(out, rho.dims)


def transmit_bell_pair(channel: QuantumChannel, sides: str = "one") -> DensityMatrix:
    """Phi+ after the channel acts on qubit B, and then on qubit A when ``sides`` is "two".

    The one-sided output (I (x) N)(|Phi+><Phi+|) is the channel's Choi state.
    """
    if sides not in ("one", "two"):
        raise ValueError(f"sides must be 'one' or 'two', got {sides!r}")
    pair = apply(channel, bell_pair(), target=1)
    return apply(channel, pair, target=0) if sides == "two" else pair


def dd_compression(noise_spectral_density: float, pulse_frequency: float) -> float:
    """exp(-gamma_sd / f_dd), the parametric decoupling factor: p' = p * factor.

    The two arguments share inverse-time units; only their ratio enters.
    This spectral density is a different quantity from the damping
    parameter of :func:`amplitude_damping`, despite the conventional shared
    symbol. Note the formula's own limit: as f_dd -> infinity the factor
    tends to 1, i.e. p' -> p, not p' -> 0.
    """
    if pulse_frequency <= 0:
        raise ValueError("pulse_frequency must be positive")
    if noise_spectral_density < 0:
        raise ValueError("noise_spectral_density must be non-negative")
    return math.exp(-noise_spectral_density / pulse_frequency)


def dd_effective_pulse_average(channel: QuantumChannel) -> QuantumChannel:
    """Uniform average of a qubit channel over Pauli-conjugated inputs.

    Kraus set {K_i P_k / 2} over the four Paulis, acting as
    rho -> (1/4) sum_k N(P_k rho P_k^dag), the same pulse set as
    :func:`pauli_twirl`. No un-rotation is applied after the channel, so the
    Pauli average fully depolarizes the input first: a transmitted half of
    rho_AB leaves as rho_A (x) N(I/2), a product state.
    """
    if channel.dim != 2:
        raise ValueError("pulse averaging is implemented for qubit channels")
    ops = [0.5 * (k @ p) for p in PAULIS for k in channel.kraus_ops]
    return QuantumChannel(ops)


def pauli_twirl(channel: QuantumChannel) -> QuantumChannel:
    """Pauli-conjugated average rho -> (1/4) sum_k P_k^dag N(P_k rho P_k^dag) P_k.

    The result has a Bell-diagonal Choi state for every qubit channel; on a
    Pauli-covariant channel (e.g. depolarizing) it leaves the action unchanged.
    """
    if channel.dim != 2:
        raise ValueError("Pauli twirl is implemented for qubit channels")
    ops = [0.5 * (p.conj().T @ k @ p) for p in PAULIS for k in channel.kraus_ops]
    return QuantumChannel(ops)


def eb_threshold_depolarizing() -> float:
    """Depolarizing strength where the channel turns entanglement-breaking: exactly 1/2.

    The Choi state has Bell weights (1 - p, p/3, p/3, p/3), and a Bell-diagonal
    state's partial transpose has eigenvalues 1/2 - c_k. On [0, 3/4] the Phi+
    weight 1 - p is the largest, so the Choi state is PPT (separable, for two
    qubits) iff 1 - p <= 1/2, i.e. p >= 1/2.
    """
    return 0.5
