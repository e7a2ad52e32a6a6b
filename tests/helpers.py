"""State, channel and entropy helpers that only the tests use.

The package keeps what its experiments run; these build test inputs and
independent references on top of its public pieces.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from entshape import ree
from entshape.channels import QuantumChannel, transmit_bell_pair
from entshape.dynamics import fidelity_decay
from entshape.entanglement import ERResult, SeparableAnsatz, _ket, er_bell_fidelity
from entshape.qstate import BELL_VECTORS, SUPPORT_TOL, DensityMatrix, partial_transpose

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
    """-sum lambda log2 lambda over the kept spectrum, with 0 log 0 := 0."""
    vals = rho.spectrum[rho.spectrum > SUPPORT_TOL]
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


def relative_entropy_by_fresh_eigvalsh(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """qstate.relative_entropy with rho's spectrum recomputed by eigvalsh instead of read from rho.spectrum."""
    svals, svecs = np.linalg.eigh(sigma.matrix)
    diag = np.einsum("ij,jk,ki->i", svecs.conj().T, rho.matrix, svecs).real
    null = svals <= SUPPORT_TOL
    if np.any(diag[null] > SUPPORT_TOL):
        return math.inf
    cross = float(np.sum(diag[~null] * np.log2(svals[~null])))
    rvals = np.linalg.eigvalsh(rho.matrix)
    rvals = rvals[rvals > SUPPORT_TOL]
    return float(np.sum(rvals * np.log2(rvals))) - cross


def x_objective_array_form(v, pops, r: float) -> tuple:
    """ree._x_objective built from arrays, whose bits the plain-float form must keep.

    Each derivative is the array sum base + h_x x_vv + h_xx outer(x_v, x_v).
    An infinite h_x times a zero entry of x_vv gives NaN with a warning,
    which is silenced: the NaN fails the finiteness test as it should.
    """
    l1, l2, t = v
    if max(l1, l2) > 50:
        return math.inf, None, None
    e1, e2 = math.exp(l1), math.exp(l2)
    sin2, cos2 = math.sin(2 * t), math.cos(2 * t)
    x = (e1 - e2) * sin2 / 2
    b, c = ree._flanks(x, pops[1], pops[2])
    if not (x > 0 and b > 0 and c > 0):
        return math.inf, None, None
    r1, r2, r12 = ree._block_in_eigenbasis(pops, r, math.cos(t), math.sin(t), sin2, cos2)
    r1_t = 2 * r12
    r1_tt = 2 * (pops[3] - pops[0]) * cos2 - 4 * r * sin2
    h = b + c - pops[1] * math.log(b) - pops[2] * math.log(c)
    h_x = 2 * (b - pops[1]) / x
    h_xx = 4 / (b + c) - h_x / x
    x_v = np.array([e1 * sin2 / 2, -e2 * sin2 / 2, (e1 - e2) * cos2])
    x_vv = np.array(
        [
            [e1 * sin2 / 2, 0, e1 * cos2],
            [0, -e2 * sin2 / 2, -e2 * cos2],
            [e1 * cos2, -e2 * cos2, -2 * (e1 - e2) * sin2],
        ]
    )
    value = e1 + e2 - l1 * r1 - l2 * r2 + h
    with np.errstate(all="ignore"):
        grad = np.array([e1 - r1, e2 - r2, -(l1 - l2) * r1_t]) + h_x * x_v
        hess = np.array([[e1, 0, -r1_t], [0, e2, r1_t], [-r1_t, r1_t, -(l1 - l2) * r1_tt]])
        hess = hess + h_x * x_vv + h_xx * np.outer(x_v, x_v)
    if not (math.isfinite(value) and np.isfinite(hess).all()):
        return math.inf, None, None
    return value, grad, hess


def assemble_by_kron(ansatz: SeparableAnsatz) -> np.ndarray:
    """SeparableAnsatz.assemble's matrix with each product ket built by np.kron."""
    m = np.zeros((4, 4), dtype=complex)
    for w, ((ta, pa), (tb, pb)) in zip(ansatz.weights, ansatz.product_states):
        v = np.kron(_ket(ta, pa), _ket(tb, pb))
        m += w * np.outer(v, v.conj())
    m = 0.5 * (m + m.conj().T)
    return m / np.trace(m).real
