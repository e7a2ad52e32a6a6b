"""Entanglement quantifiers for two-qubit states.

Closed forms:

* pure states: entanglement entropy of the reduced state;
* Bell-diagonal states with largest weight lam: 0 for lam <= 1/2, else
  1 - H2(lam), with the minimizing separable state known explicitly.

For everything else, :func:`er_numeric` runs an alternating minimization of
the relative entropy over mixtures of product states. Any feasible mixture
is separable, so the result is always an upper bound on the true value; the
final mixture is returned as an explicit certificate.

Two scalar "bridge" helpers exist because the reproduction targets use an
inconsistent Werner parameterization: :func:`er_bell_fidelity` evaluates
1 - H2((1+F)/2) treating F as a Bell fidelity (the claim-side reading),
while the Bell-diagonal closed form above is the first-principles one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qstate import (
    BellDiagonalState,
    DensityMatrix,
    binary_entropy,
    partial_trace,
    partial_transpose,
    relative_entropy,
)

CLOSED_FORM = "closed_form"
NUMERIC_UPPER_BOUND = "numeric_upper_bound"

_FLOOR = 1e-9  # mixing weight of I/4 folded into every numeric certificate


def _ket(theta: float, phi: float) -> np.ndarray:
    return np.array([math.cos(theta / 2), math.sin(theta / 2) * np.exp(1j * phi)], dtype=complex)


def _angles(ket: np.ndarray) -> tuple[float, float]:
    a, b = ket
    # strip global phase so the first amplitude is real and non-negative
    if abs(a) > 1e-12:
        b = b * (a.conjugate() / abs(a))
        a = abs(a)
    else:
        a = 0.0
        b = abs(b)
    theta = 2 * math.atan2(abs(b), float(np.real(a)))
    phi = float(np.angle(b)) if abs(b) > 1e-12 else 0.0
    return theta, phi


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
            v = np.kron(_ket(ta, pa), _ket(tb, pb))
            m += w * np.outer(v, v.conj())
        m = 0.5 * (m + m.conj().T)
        return DensityMatrix(m / np.trace(m).real, (2, 2))


@dataclass(frozen=True, eq=False)
class ERResult:
    """Relative entropy of entanglement value, in bits."""

    value: float
    kind: str
    certificate: SeparableAnsatz | None = None
    iterations: int = 0
    converged: bool = True


def er_pure(psi, dims: tuple[int, int] = (2, 2)) -> ERResult:
    """Entanglement entropy of a normalized bipartite pure state."""
    rho = DensityMatrix.from_state_vector(psi, dims)
    reduced = partial_trace(rho, keep=[0])
    vals = np.linalg.eigvalsh(reduced.matrix)
    vals = vals[vals > 1e-12]
    value = float(-np.sum(vals * np.log2(vals)))
    return ERResult(max(value, 0.0), CLOSED_FORM)


def _bell_diagonal_minimizer(state: BellDiagonalState) -> SeparableAnsatz:
    """Known optimal separable state for a Bell-diagonal input with lam > 1/2.

    The minimizer has Bell weights (1/2, q_j / (2(1-lam))); it decomposes
    exactly into the three product-pair mixtures that average to
    (|B_max> + |B_j>)/2 for j over the non-maximal Bell states.
    """
    q = np.array(state.coefficients)
    top = int(np.argmax(q))
    rest = [i for i in range(4) if i != top]
    lam = q[top]
    if 1 - lam > 1e-15:
        mus = q[rest] / (2 * (1 - lam))
    else:
        mus = np.full(3, 1 / 6)

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
        weights.extend([float(mu), float(mu)])
        atoms.extend([first, second])
    total = sum(weights)  # cancellation near lam ~ 1 drifts the sum slightly
    return SeparableAnsatz(tuple(w / total for w in weights), tuple(atoms))


def er_bell_diagonal(state: BellDiagonalState) -> ERResult:
    """Closed-form value 1 - H2(lam) for lam > 1/2, else 0."""
    lam = state.max_coefficient
    if lam <= 0.5:
        return ERResult(0.0, CLOSED_FORM)
    value = 1.0 - binary_entropy(lam)
    return ERResult(value, CLOSED_FORM, certificate=_bell_diagonal_minimizer(state))


def er_bell_fidelity(fidelity: float, clamp: bool = True) -> float:
    """Scalar bridge 1 - H2((1+F)/2) used by the claim-side convention.

    With ``clamp`` the value is forced to 0 for F <= 1/2 so that decay
    trajectories stay well defined after crossing the separable regime.
    """
    F = float(fidelity)
    if F < -1e-12 or F > 1 + 1e-12:
        raise ValueError(f"fidelity {F} outside [0, 1]")
    if clamp and F <= 0.5:
        return 0.0
    return 1.0 - binary_entropy((1 + F) / 2)


def negativity(rho: DensityMatrix) -> float:
    """Sum of |negative eigenvalues| of the partial transpose."""
    vals = np.linalg.eigvalsh(partial_transpose(rho))
    return float(max(0.0, -vals[vals < 0].sum()))


@dataclass(frozen=True)
class SolverConfig:
    """Settings for the numeric upper-bound minimization."""

    ansatz_size: int = 16
    max_iterations: int = 5000
    improvement_tol: float = 1e-7
    patience: int = 25
    weight_steps: int = 20
    seed: int = 0


def _log_gradient(rho: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Frechet derivative of Tr[rho ln sigma]: G with d/dt Tr[rho ln(sigma+tD)] = Tr[D G]."""
    svals, svecs = np.linalg.eigh(sigma)
    svals = np.clip(svals, 1e-300, None)
    r = svecs.conj().T @ rho @ svecs
    logs = np.log(svals)
    denom = svals[:, None] - svals[None, :]
    num = logs[:, None] - logs[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        f = np.where(np.abs(denom) > 1e-14, num / denom, 1.0 / svals[:, None])
    g = svecs @ (f * r) @ svecs.conj().T
    return 0.5 * (g + g.conj().T)


def _best_product_state(g: np.ndarray, starts: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray, float]:
    """Maximize <a,b|G|a,b> by alternating local eigensolves from several starts."""
    g4 = g.reshape(2, 2, 2, 2)
    best = None
    for a, b in starts:
        for _ in range(12):
            ma = np.einsum("j,ijkl,l->ik", b.conj(), g4, b)
            vals, vecs = np.linalg.eigh(ma)
            a_new = vecs[:, -1]
            mb = np.einsum("i,ijkl,k->jl", a_new.conj(), g4, a_new)
            vals, vecs = np.linalg.eigh(mb)
            b_new = vecs[:, -1]
            if abs(abs(np.vdot(a_new, a)) - 1) < 1e-12 and abs(abs(np.vdot(b_new, b)) - 1) < 1e-12:
                a, b = a_new, b_new
                break
            a, b = a_new, b_new
        val = float(np.real(np.einsum("i,j,ijkl,k,l->", a.conj(), b.conj(), g4, a, b)))
        if best is None or val > best[2]:
            best = (a, b, val)
    return best


_AXIS_KETS = [
    np.array([1, 0], dtype=complex),
    np.array([0, 1], dtype=complex),
    np.array([1, 1], dtype=complex) / math.sqrt(2),
    np.array([1, -1], dtype=complex) / math.sqrt(2),
    np.array([1, 1j], dtype=complex) / math.sqrt(2),
    np.array([1, -1j], dtype=complex) / math.sqrt(2),
]


def _initial_atoms(rng: np.random.Generator, size: int) -> list[tuple[np.ndarray, np.ndarray]]:
    # 12 axis products span all separable Bell-diagonal states; extras are random.
    atoms = [
        (_AXIS_KETS[0], _AXIS_KETS[0]),
        (_AXIS_KETS[0], _AXIS_KETS[1]),
        (_AXIS_KETS[1], _AXIS_KETS[0]),
        (_AXIS_KETS[1], _AXIS_KETS[1]),
        (_AXIS_KETS[2], _AXIS_KETS[2]),
        (_AXIS_KETS[2], _AXIS_KETS[3]),
        (_AXIS_KETS[3], _AXIS_KETS[2]),
        (_AXIS_KETS[3], _AXIS_KETS[3]),
        (_AXIS_KETS[4], _AXIS_KETS[4]),
        (_AXIS_KETS[4], _AXIS_KETS[5]),
        (_AXIS_KETS[5], _AXIS_KETS[4]),
        (_AXIS_KETS[5], _AXIS_KETS[5]),
    ]
    while len(atoms) < size:
        a = rng.normal(size=2) + 1j * rng.normal(size=2)
        b = rng.normal(size=2) + 1j * rng.normal(size=2)
        atoms.append((a / np.linalg.norm(a), b / np.linalg.norm(b)))
    return atoms[:size]


def _projectors(atoms: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    mats = []
    for a, b in atoms:
        v = np.kron(a, b)
        mats.append(np.outer(v, v.conj()))
    return np.array(mats)


def _entropy_term_bits(rho_mat: np.ndarray) -> float:
    vals = np.linalg.eigvalsh(rho_mat)
    vals = vals[vals > 1e-15]
    return float(np.sum(vals * np.log2(vals)))


def _cross_term_bits(rho_mat: np.ndarray, sigma_mat: np.ndarray) -> float:
    svals, svecs = np.linalg.eigh(sigma_mat)
    svals = np.clip(svals, 1e-300, None)
    diag = np.einsum("ji,jk,ki->i", svecs.conj(), rho_mat, svecs).real
    return float(np.sum(diag * np.log2(svals)))


def er_numeric(rho: DensityMatrix, cfg: SolverConfig | None = None) -> ERResult:
    """Upper bound on the relative entropy of entanglement of a two-qubit state.

    Alternates an exact-direction convex weight update (multiplicative, with
    a damping safeguard that keeps the objective monotone) with product-state
    refinement and atom replacement driven by the gradient of the relative
    entropy. Deterministic for a fixed config seed. Non-convergence is
    reported through ``converged``, never silently.
    """
    if rho.dims != (2, 2):
        raise ValueError(f"numeric minimization expects a qubit pair, got dims {rho.dims}")
    cfg = cfg or SolverConfig()
    rng = np.random.default_rng(cfg.seed)
    eye4 = np.eye(4, dtype=complex) / 4
    rho_entropy = _entropy_term_bits(rho.matrix)

    atoms = _initial_atoms(rng, cfg.ansatz_size)
    projs = _projectors(atoms)
    weights = np.full(len(atoms), 1.0 / len(atoms))

    def sigma_of(w: np.ndarray) -> np.ndarray:
        raw = np.tensordot(w, projs, axes=1)
        return (1 - _FLOOR) * raw + _FLOOR * eye4

    def value_of(sigma_mat: np.ndarray) -> float:
        return rho_entropy - _cross_term_bits(rho.matrix, sigma_mat)

    value = value_of(sigma_of(weights))
    best_value, best_weights, best_atoms = value, weights.copy(), list(atoms)
    stale = 0
    iterations = 0
    converged = False

    for outer in range(cfg.max_iterations):
        iterations = outer + 1
        round_start = best_value

        # Convex weight update: multiplicative ascent on Tr[rho log sigma(w)].
        # The bare update is monotone in practice; a safety re-check reverts
        # the whole block and falls back to damped steps if it ever is not.
        saved_weights, saved_value = weights.copy(), value
        for _ in range(cfg.weight_steps):
            g = _log_gradient(rho.matrix, sigma_of(weights))
            scores = np.clip(np.einsum("kij,ji->k", projs, g).real, 0.0, None)
            if scores.sum() <= 0:
                break
            weights = weights * scores
            weights /= weights.sum()
        value = value_of(sigma_of(weights))
        if value > saved_value + 1e-15:
            weights, value = saved_weights, saved_value
            for _ in range(cfg.weight_steps):
                g = _log_gradient(rho.matrix, sigma_of(weights))
                scores = np.clip(np.einsum("kij,ji->k", projs, g).real, 0.0, None)
                if scores.sum() <= 0:
                    break
                candidate = weights * scores
                candidate /= candidate.sum()
                step = 1.0
                while step > 1e-4:
                    trial = (1 - step) * weights + step * candidate
                    trial_value = value_of(sigma_of(trial))
                    if trial_value <= value + 1e-15:
                        weights, value = trial, trial_value
                        break
                    step *= 0.5
                else:
                    break

        # Atom step: bring in the product state the gradient likes most,
        # replacing the lowest-weight atom when that lowers the objective.
        # The gradient is recomputed at the current iterate so the gap test
        # below certifies this sigma, not a stale one.
        g = _log_gradient(rho.matrix, sigma_of(weights))
        order = np.argsort(weights)[::-1]
        starts = [(atoms[i][0].copy(), atoms[i][1].copy()) for i in order[:4]]
        ra = rng.normal(size=2) + 1j * rng.normal(size=2)
        rb = rng.normal(size=2) + 1j * rng.normal(size=2)
        starts.append((ra / np.linalg.norm(ra), rb / np.linalg.norm(rb)))
        a_new, b_new, score = _best_product_state(g, starts)
        # At the optimum over all separable states, max <ab|G|ab> = Tr[sigma G] = 1.
        gap = score - 1.0
        if gap > 1e-10:
            v = np.kron(a_new, b_new)
            p_new = np.outer(v, v.conj())
            min_slot = int(np.argmin(weights))
            # Replace a near-dead atom when one exists; otherwise grow the
            # set transiently (pruned below) so loaded atoms are not evicted.
            replace_slot = min_slot if weights[min_slot] < 1e-6 else None
            for t in (0.5, 0.25, 0.1, 0.02, 5e-3, 1e-3, 2e-4):
                if replace_slot is not None:
                    trial_projs = projs.copy()
                    trial_projs[replace_slot] = p_new
                    trial_w = weights.copy()
                    trial_w *= 1 - t
                    trial_w[replace_slot] += t
                else:
                    trial_projs = np.concatenate([projs, p_new[None]], axis=0)
                    trial_w = np.concatenate([weights * (1 - t), [t]])
                trial_w /= trial_w.sum()
                raw = np.tensordot(trial_w, trial_projs, axes=1)
                trial_value = value_of((1 - _FLOOR) * raw + _FLOOR * eye4)
                if trial_value < value:
                    if replace_slot is not None:
                        atoms[replace_slot] = (a_new, b_new)
                    else:
                        atoms.append((a_new, b_new))
                    projs, weights, value = trial_projs, trial_w, trial_value
                    break

        # Prune dead weight back toward the configured ansatz size.
        if len(atoms) > cfg.ansatz_size:
            keep = weights > 1e-9
            keep[np.argsort(weights)[::-1][: cfg.ansatz_size]] = True
            if keep.sum() < len(atoms):
                atoms = [a for a, k in zip(atoms, keep) if k]
                projs = projs[keep]
                weights = weights[keep] / weights[keep].sum()
                value = value_of(sigma_of(weights))

        if value < best_value:
            best_value, best_weights, best_atoms = value, weights.copy(), list(atoms)

        if gap <= 1e-10:
            converged = True
            break
        stale = stale + 1 if round_start - best_value < cfg.improvement_tol else 0
        if stale >= cfg.patience:
            converged = True
            break

    # Fold the I/4 floor into the certificate so its assembled state is the
    # exact sigma whose relative entropy we report.
    cert_weights = [float(w * (1 - _FLOOR)) for w in best_weights]
    cert_atoms = [( _angles(a), _angles(b)) for a, b in best_atoms]
    z0, z1 = (0.0, 0.0), (math.pi, 0.0)
    for pair in ((z0, z0), (z0, z1), (z1, z0), (z1, z1)):
        cert_weights.append(_FLOOR / 4)
        cert_atoms.append(pair)
    total = sum(cert_weights)
    certificate = SeparableAnsatz(tuple(w / total for w in cert_weights), tuple(cert_atoms))
    final_value = relative_entropy(rho, certificate.assemble())
    return ERResult(max(final_value, 0.0), NUMERIC_UPPER_BOUND, certificate, iterations, converged)


def er_auto(rho: DensityMatrix, cfg: SolverConfig | None = None) -> ERResult:
    """Closed form when the state is Bell-diagonal, numeric bound otherwise."""
    try:
        bd = BellDiagonalState.from_density_matrix(rho, tol=1e-9)
    except ValueError:
        return er_numeric(rho, cfg)
    return er_bell_diagonal(bd)

