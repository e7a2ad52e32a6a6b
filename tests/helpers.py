"""State, channel and entropy helpers that only the tests use.

The package keeps what its experiments run; these build test inputs and
independent references on top of its public pieces.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from entshape.channels import QuantumChannel, transmit_bell_pair
from entshape.dynamics import fidelity_decay
from entshape.entanglement import ERResult, er_bell_fidelity
from entshape.qstate import BELL_VECTORS, DensityMatrix, _clamped_spectrum, partial_transpose

PRUNE_TOL = 1e-12


def maximally_mixed(dims: Sequence[int] = (2,)) -> DensityMatrix:
    d = int(np.prod(tuple(dims)))
    return DensityMatrix(np.eye(d, dtype=complex) / d, dims)


def bell_state(index: int = 0) -> np.ndarray:
    """State vector of the Bell state at the fixed basis position."""
    return BELL_VECTORS[index].copy()


def tensor(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    """Kronecker product of two states; subsystem dims are concatenated."""
    return DensityMatrix(np.kron(a.matrix, b.matrix), a.dims + b.dims)


def partial_trace(rho: DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Reduce to the listed subsystems (order preserved, trace preserved)."""
    keep = sorted(set(int(k) for k in keep))
    n = len(rho.dims)
    if not keep or any(k < 0 or k >= n for k in keep):
        raise ValueError(f"invalid subsystem selection {keep} for dims {rho.dims}")
    dims = list(rho.dims)
    reshaped = rho.matrix.reshape(dims + dims)
    traced = [i for i in range(n) if i not in keep]
    for idx in sorted(traced, reverse=True):
        reshaped = np.trace(reshaped, axis1=idx, axis2=idx + len(dims))
        dims.pop(idx)
    d = int(np.prod(dims))
    return DensityMatrix(reshaped.reshape(d, d), tuple(dims))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-sum lambda log2 lambda over the spectrum, with 0 log 0 := 0."""
    vals = _clamped_spectrum(rho.matrix)
    return float(-np.sum(vals * np.log2(vals)))


def random_pure_state(rng: np.random.Generator, dim: int = 4) -> np.ndarray:
    """Haar-distributed state vector."""
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_density_matrix(rng: np.random.Generator, dims: Sequence[int] = (2, 2), rank: int | None = None) -> DensityMatrix:
    """Random mixed state from a Ginibre factor G G^dag / Tr."""
    d = int(np.prod(tuple(dims)))
    r = rank or d
    g = rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real, dims)


def er_pure(psi, dims: tuple[int, int] = (2, 2)) -> ERResult:
    """Entanglement entropy of a normalized bipartite pure state."""
    reduced = partial_trace(DensityMatrix.from_state_vector(psi, dims), keep=[0])
    return ERResult(max(von_neumann_entropy(reduced), 0.0))


def identity_channel(dim: int = 2) -> QuantumChannel:
    return QuantumChannel([np.eye(dim, dtype=complex)])


def compose(outer: QuantumChannel, inner: QuantumChannel) -> QuantumChannel:
    """Channel doing ``inner`` first, then ``outer``; small Kraus terms pruned."""
    if outer.dim != inner.dim:
        raise ValueError("cannot compose channels of different dimensions")
    ops = []
    for a in outer.kraus_ops:
        for b in inner.kraus_ops:
            k = a @ b
            if np.linalg.norm(k) > PRUNE_TOL:
                ops.append(k)
    return QuantumChannel(ops)


def is_entanglement_breaking(channel: QuantumChannel) -> bool:
    """PPT test on the Choi state (minimum PT eigenvalue >= -1e-10); exact for qubit channels."""
    c = transmit_bell_pair(channel)
    return float(np.linalg.eigvalsh(partial_transpose(c.matrix)).min()) >= -1e-10


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
