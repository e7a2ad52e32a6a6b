"""Entanglement quantifiers for two-qubit states.

Closed forms:

* Bell-diagonal states with largest weight lam: 0 for lam <= 1/2, else
  1 - H2(lam), with the minimizing separable state known explicitly.
* lam |Psi-><Psi-| + (1 - lam)|00><00| (Vedral & Plenio 1998), the state
  two-sided amplitude damping at 1 - lam makes of Psi-.

For everything else, :func:`er_numeric` returns a certified interval
[``lower``, ``value``]: ``value`` is the relative entropy to an explicit
separable certificate, ``lower`` the Frank-Wolfe bound (Jaggi 2013) at that
certificate with an exact product-state maximum, and ``converged`` means
value - lower <= CERTIFIED_GAP (1e-9 bits). Its X-state reduction is
:mod:`entshape.ree`, which it imports on its first call. Its local-unitary
front end and PPT barrier are :mod:`entshape.ree_general`, which it imports
only for an input with an entry outside the X pattern or an X state whose
reduced interval stays open.

Two scalar "bridge" helpers exist because the reproduction targets use an
inconsistent Werner parameterization: :func:`er_bell_fidelity` evaluates
1 - H2((1+F)/2) treating F as a Bell fidelity (the claim-side reading),
while the Bell-diagonal closed form above is the first-principles one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qstate import BellDiagonalState, DensityMatrix, binary_entropy, partial_transpose

CERTIFIED_GAP = 1e-9  # value - lower, in bits, below which a numeric result reports converged


def _ket(theta: float, phi: float) -> np.ndarray:
    return np.array([math.cos(theta / 2), math.sin(theta / 2) * np.exp(1j * phi)], dtype=complex)


@dataclass(frozen=True, eq=False)
class SeparableAnsatz:
    """Mixture of product states sum_k w_k |a_k><a_k| (x) |b_k><b_k|.

    Product states are stored as (theta, phi) Bloch angles per qubit.
    """

    weights: tuple[float, ...]
    product_states: tuple[tuple[tuple[float, float], tuple[float, float]], ...]

    def __post_init__(self):
        if len(self.weights) != len(self.product_states):
            raise ValueError("one weight per product state required")
        if any(w < -1e-12 for w in self.weights):
            raise ValueError("weights must be non-negative")
        if abs(sum(self.weights) - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1")

    def assemble(self) -> DensityMatrix:
        m = np.zeros((4, 4), dtype=complex)
        for w, ((ta, pa), (tb, pb)) in zip(self.weights, self.product_states):
            v = np.multiply.outer(_ket(ta, pa), _ket(tb, pb)).ravel()  # np.kron's products, in its order
            m += w * np.multiply.outer(v, v.conj())
        m = 0.5 * (m + m.conj().T)
        return DensityMatrix(m / np.trace(m).real, (2, 2))


@dataclass(frozen=True, eq=False)
class ERResult:
    """Relative entropy of entanglement value, in bits.

    ``lower`` is a certified lower bound on every numeric result and
    ``None`` on closed forms, which are exact. ``iterations`` counts Newton
    steps: on the PPT barrier path, accepted Newton steps plus each stage's
    predictor step; 0 on closed forms.
    """

    value: float
    certificate: SeparableAnsatz | None = None
    iterations: int = 0
    converged: bool = True
    lower: float | None = None


def _bell_diagonal_minimizer(state: BellDiagonalState) -> SeparableAnsatz:
    """Known optimal separable state for a Bell-diagonal input with lam > 1/2.

    The minimizer has Bell weights (1/2, q_j / (2(1-lam))); it decomposes
    exactly into the three product-pair mixtures that average to
    (|B_max> + |B_j>)/2 for j over the non-maximal Bell states.
    """
    q = state.coefficients
    top = q.index(max(q))
    rest = [i for i in range(4) if i != top]
    lam = q[top]
    mus = [q[i] / (2 * (1 - lam)) for i in rest] if 1 - lam > 1e-15 else [1 / 6] * 3

    # Product pairs averaging to (|B_i> + |B_j>)/2, keyed on {i, j}:
    # z pair for {Phi+, Phi-} and {Psi+, Psi-}; x pair for {Phi+, Psi+} and
    # {Phi-, Psi-}; y pair for {Phi+, Psi-} and {Psi+, Phi-}.
    z0, z1 = (0.0, 0.0), (math.pi, 0.0)
    xp, xm = (math.pi / 2, 0.0), (math.pi / 2, math.pi)
    yp, ym = (math.pi / 2, math.pi / 2), (math.pi / 2, -math.pi / 2)
    pair_atoms = {
        frozenset({0, 3}): ((z0, z0), (z1, z1)),
        frozenset({1, 2}): ((z0, z1), (z1, z0)),
        frozenset({0, 1}): ((xp, xp), (xm, xm)),
        frozenset({2, 3}): ((xp, xm), (xm, xp)),
        frozenset({0, 2}): ((yp, ym), (ym, yp)),
        frozenset({1, 3}): ((yp, yp), (ym, ym)),
    }
    weights: list[float] = []
    atoms: list[tuple[tuple[float, float], tuple[float, float]]] = []
    for mu, j in zip(mus, rest):
        first, second = pair_atoms[frozenset({top, j})]
        weights.extend([mu, mu])
        atoms.extend([first, second])
    total = sum(weights)  # cancellation near lam ~ 1 drifts the sum slightly
    return SeparableAnsatz(tuple(w / total for w in weights), tuple(atoms))


def er_bell_diagonal(state: BellDiagonalState) -> ERResult:
    """Closed-form value 1 - H2(lam) for lam > 1/2, else 0."""
    lam = state.max_coefficient
    if lam <= 0.5:
        return ERResult(0.0)
    value = 1.0 - binary_entropy(lam)
    return ERResult(value, certificate=_bell_diagonal_minimizer(state))


def er_vedral_plenio(lam: float) -> float:
    """Closed-form REE of lam |Psi-><Psi-| + (1 - lam) |00><00| (Vedral & Plenio 1998), in bits.

    Two-sided amplitude damping at gamma sends |Psi-> to this state at
    lam = 1 - gamma.
    """
    if lam == 1:
        return 1.0
    return (lam - 2) * math.log2(1 - lam / 2) + (1 - lam) * math.log2(1 - lam)


def er_bell_fidelity(fidelity: float) -> float:
    """Scalar bridge 1 - H2((1+F)/2) used by the claim-side convention.

    The value is 0 for F <= 1/2, so that decay trajectories stay well
    defined after crossing the separable regime.
    """
    F = float(fidelity)
    if F < -1e-12 or F > 1 + 1e-12:
        raise ValueError(f"fidelity {F} outside [0, 1]")
    if F <= 0.5:
        return 0.0
    return 1.0 - binary_entropy((1 + F) / 2)


def negativity(rho: DensityMatrix) -> float:
    """Sum of |negative eigenvalues| of the partial transpose."""
    if rho.dims != (2, 2):
        raise ValueError(f"negativity expects a qubit pair, got dims {rho.dims}")
    vals = np.linalg.eigvalsh(partial_transpose(rho.matrix))
    return float(max(0.0, -vals[vals < 0].sum()))


def er_numeric(rho: DensityMatrix) -> ERResult:
    """Certified interval [lower, value] for the relative entropy of entanglement of a qubit pair.

    An exact X state (every entry outside the diagonal and the |00><11|
    coherence is 0) takes the reduced solver in :mod:`entshape.ree`
    directly. Any other input goes to the front end (see its notes in
    :mod:`entshape.ree_general`), which twirls a near-X input in its own
    frame, or one a local unitary takes near X shape in that frame, and
    solves the twirled state on the reduced path. Every other input, and
    one whose interval the reduced solver cannot close, takes the PPT
    barrier solver. ``converged`` means value - lower <= CERTIFIED_GAP bits;
    a wider interval is reported, never hidden.
    """
    if rho.dims != (2, 2):
        raise ValueError(f"numeric minimization expects a qubit pair, got dims {rho.dims}")
    from . import ree  # the X reduction compiles on the first numeric call, never for closed forms alone

    if rho.matrix[ree._OFF_X].any():
        from . import ree_general  # the general solver compiles only for inputs that reach it

        result = ree_general._er_x_frame(rho)
    else:
        result = ree._er_x_state(rho)
    if result is not None and result.converged:
        return result
    from . import ree_general

    return ree_general._er_ppt_barrier(rho)
