"""Dense complex linear algebra for small multi-qubit density matrices.

Conventions used throughout the package:

* Operators and states are numpy ``complex128`` arrays in row-major order;
  a plain 2-D ndarray is the carrier for every gate and Kraus operator.
* All entropies are in bits (base-2 logarithms), so a maximally entangled
  qubit pair carries exactly 1 bit of entanglement.
* The Bell basis is fixed once, in this order:

      0: |Phi+> = (|00> + |11>)/sqrt(2)
      1: |Psi+> = (|01> + |10>)/sqrt(2)
      2: |Psi-> = (|01> - |10>)/sqrt(2)
      3: |Phi-> = (|00> - |11>)/sqrt(2)

  Index 0 is the distillation target; "fidelity" always means overlap with
  it unless stated otherwise.

``werner(F)`` is the one Werner-family constructor: the direct mixture
F|Phi+><Phi+| + (1-F)I/4. Depolarized pairs are built by Kraus application
(``channels.transmit_bell_pair``), not here. One transit of
``depolarizing(p)`` gives Bell weights (1-p, p/3, p/3, p/3), which is
``werner(1 - 4p/3)``; identifying it with ``werner(1 - p)`` is wrong except
at p = 0. The map rho -> (1-p) rho + p I/2 is ``depolarizing(3p/4)`` and
does give ``werner(1 - p)``; the harness calls that reading ``paper``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
SUPPORT_TOL = 1e-12

# Single-qubit operators.
I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (I2, X, Y, Z)

_SQRT2 = math.sqrt(2)
BELL_VECTORS = (
    np.array([1, 0, 0, 1], dtype=complex) / _SQRT2,
    np.array([0, 1, 1, 0], dtype=complex) / _SQRT2,
    np.array([0, 1, -1, 0], dtype=complex) / _SQRT2,
    np.array([1, 0, 0, -1], dtype=complex) / _SQRT2,
)


def as_operator(entries) -> np.ndarray:
    """Coerce to a finite 2-D complex matrix, rejecting NaN/Inf entries."""
    a = np.asarray(entries, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"operator must be 2-D, got shape {a.shape}")
    if not np.all(np.isfinite(a)):  # checks real and imaginary parts
        raise ValueError("operator contains non-finite entries")
    return a


def _frozen_copy(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, PSD matrix tagged with subsystem dimensions.

    Construction validates Hermiticity (1e-10 entrywise), trace (1e-10) and
    positivity (minimum eigenvalue >= -1e-10); instances are immutable.
    ``spectrum`` keeps the ascending ``eigvalsh`` of ``matrix`` that the
    positivity test computed, read-only.
    """

    matrix: np.ndarray
    dims: tuple[int, ...]
    spectrum: np.ndarray = field(repr=False)

    def __init__(self, matrix, dims: Sequence[int] = (2, 2)):
        m = _frozen_copy(as_operator(matrix))
        dims = tuple(int(d) for d in dims)
        d = math.prod(dims)
        if m.shape != (d, d):
            raise ValueError(f"matrix shape {m.shape} does not match dims {dims}")
        if np.abs(m - m.conj().T).max() > HERMITICITY_TOL:
            raise ValueError("matrix is not Hermitian within tolerance")
        trace = np.trace(m)
        if abs(trace.real - 1.0) > TRACE_TOL or abs(trace.imag) > TRACE_TOL:
            raise ValueError("matrix trace differs from 1")
        spectrum = np.linalg.eigvalsh(m)
        if spectrum[0] < -PSD_TOL:
            raise ValueError("matrix has a negative eigenvalue beyond tolerance")
        spectrum.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "spectrum", spectrum)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_state_vector(cls, psi, dims: Sequence[int] = (2, 2)) -> "DensityMatrix":
        v = np.asarray(psi, dtype=complex).reshape(-1)
        norm = np.linalg.norm(v)
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"state vector norm {norm} differs from 1")
        return cls(np.outer(v, v.conj()), dims)


def bell_pair(index: int = 0) -> DensityMatrix:
    return DensityMatrix.from_state_vector(BELL_VECTORS[index], (2, 2))


def _bell_weights(m: np.ndarray) -> list[float]:
    """<B_k|m|B_k> over the fixed Bell basis."""
    return [float((v.conj() @ m @ v).real) for v in BELL_VECTORS]


def _bell_mixture(weights: Iterable[float]) -> np.ndarray:
    """sum_k c_k |B_k><B_k| over the fixed Bell basis, summed in basis order."""
    m = np.zeros((4, 4), dtype=complex)
    for c, v in zip(weights, BELL_VECTORS):
        m += c * np.outer(v, v.conj())
    return m


@dataclass(frozen=True)
class BellDiagonalState:
    """Four probabilities over the fixed Bell basis.

    ``coefficients[0]`` is the weight on |Phi+>, i.e. the Bell fidelity.
    """

    coefficients: tuple[float, float, float, float]

    def __init__(self, coefficients: Iterable[float]):
        c = tuple(float(x) for x in coefficients)
        if len(c) != 4:
            raise ValueError("exactly four Bell coefficients required")
        if not all(math.isfinite(x) for x in c):
            raise ValueError(f"coefficients must be finite: {c}")
        if any(x < -1e-12 or x > 1 + 1e-12 for x in c):
            raise ValueError(f"coefficients outside [0, 1]: {c}")
        if abs(sum(c) - 1.0) > 1e-12:
            raise ValueError(f"coefficients sum to {sum(c)}, expected 1")
        c = tuple(min(max(x, 0.0), 1.0) for x in c)
        object.__setattr__(self, "coefficients", c)

    @property
    def fidelity(self) -> float:
        return self.coefficients[0]

    @property
    def max_coefficient(self) -> float:
        return max(self.coefficients)

    def to_density_matrix(self) -> DensityMatrix:
        return DensityMatrix(_bell_mixture(self.coefficients), (2, 2))

    @classmethod
    def from_density_matrix(cls, rho: DensityMatrix, tol: float = 1e-10) -> "BellDiagonalState":
        """Read off Bell-basis weights; rejects states with off-diagonal parts.

        Use :func:`bell_projection` to deliberately discard coherences.
        """
        weights = _bell_weights(rho.matrix)
        if np.abs(_bell_mixture(weights) - rho.matrix).max() > tol:
            raise ValueError("state is not Bell-diagonal within tolerance")
        total = sum(weights)
        return cls(tuple(w / total for w in weights))


def bell_projection(rho: DensityMatrix) -> BellDiagonalState:
    """Bell-diagonal part of a two-qubit state (Bell-basis dephasing/twirl)."""
    weights = [max(0.0, w) for w in _bell_weights(rho.matrix)]  # 0.0 first: a -0.0 weight reads +0.0
    total = sum(weights)
    return BellDiagonalState(w / total for w in weights)


def werner(fidelity_param: float) -> BellDiagonalState:
    """Direct mixture F|Phi+><Phi+| + (1-F)I/4 with Bell weights ((1+3F)/4, (1-F)/4 x3)."""
    F = float(fidelity_param)
    if F < -1 / 3 - 1e-12 or F > 1 + 1e-12:
        raise ValueError(f"Werner mixing parameter {F} outside [-1/3, 1]")
    rest = (1 - F) / 4
    return BellDiagonalState(((1 + 3 * F) / 4, rest, rest, rest))


def partial_transpose(m: np.ndarray) -> np.ndarray:
    """Transpose qubit B of a 4x4 two-qubit matrix; Hermitian, possibly non-PSD.

    Transposing qubit A instead gives the full transpose of this result,
    which has the same spectrum, so one side serves every PPT test.
    """
    m = as_operator(m)
    if m.shape != (4, 4):
        raise ValueError(f"partial transpose requires a 4x4 matrix, got {m.shape}")
    return m.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Tr[rho (log2 rho - log2 sigma)]; +inf when rho leaves sigma's support."""
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    svals, svecs = np.linalg.eigh(sigma.matrix)
    diag = np.einsum("ij,jk,ki->i", svecs.conj().T, rho.matrix, svecs).real
    null = svals <= SUPPORT_TOL
    if np.any(diag[null] > SUPPORT_TOL):
        return math.inf
    cross = float(np.sum(diag[~null] * np.log2(svals[~null])))
    rvals = rho.spectrum[rho.spectrum > SUPPORT_TOL]
    return float(np.sum(rvals * np.log2(rvals))) - cross


def purity_and_mixedness(rho: DensityMatrix) -> tuple[float, float]:
    """(Tr rho^2, linear entropy normalized to [0, 1])."""
    purity = float(np.trace(rho.matrix @ rho.matrix).real)
    d = rho.dim
    linear_entropy = (d / (d - 1)) * (1.0 - purity)
    return purity, linear_entropy


def binary_entropy(x: float) -> float:
    """H2(x) = -x log2 x - (1-x) log2(1-x) on [0, 1], endpoints 0."""
    x = float(x)
    if x < 0.0 or x > 1.0:
        raise ValueError(f"binary entropy argument {x} outside [0, 1]")
    if x == 0.0 or x == 1.0:
        return 0.0
    return float(-x * math.log2(x) - (1 - x) * math.log2(1 - x))
