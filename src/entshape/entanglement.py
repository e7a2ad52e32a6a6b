"""Entanglement quantifiers for two-qubit states.

Closed forms:

* pure states: entanglement entropy of the reduced state;
* Bell-diagonal states with largest weight lam: 0 for lam <= 1/2, else
  1 - H2(lam), with the minimizing separable state known explicitly.

For everything else, :func:`er_numeric` returns an upper bound together with
an explicit separable certificate whose relative entropy is the reported
value. It has two paths:

* X-state reduction, for inputs whose only coherence is between |00> and
  |11> (every damped, dephased or depolarized Bell pair the harness builds).
  The optimum is itself an X state, so the search shrinks to four numbers
  and is solved by Newton steps. The result carries a certified Frank-Wolfe
  lower bound ``lower`` (Jaggi 2013), and ``converged`` means
  value - lower <= 1e-9 bits.
* General fallback, for every other input: Frank-Wolfe-style alternating
  minimization over mixtures of product states. It gives no lower bound,
  and ``converged`` there means a patience counter and a local product-state
  search ran out of progress, not a proven gap.

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
    """Relative entropy of entanglement value, in bits.

    ``lower`` is a certified lower bound where the solver path proves one
    (the X-state path); ``None`` elsewhere.
    """

    value: float
    kind: str
    certificate: SeparableAnsatz | None = None
    iterations: int = 0
    converged: bool = True
    lower: float | None = None


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
    """Settings for the general numeric solver; the X-state path takes none."""

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

    X-shaped inputs (no entry above 1e-12 outside the diagonal and the
    |00><11| coherence) take the reduced solver, which returns a certified
    interval and ignores ``cfg``; every other input takes the general
    Frank-Wolfe solver. Non-convergence is reported through ``converged``,
    never silently.
    """
    if rho.dims != (2, 2):
        raise ValueError(f"numeric minimization expects a qubit pair, got dims {rho.dims}")
    if np.abs(rho.matrix[~_X_PATTERN]).max() <= X_STATE_TOL:
        return _er_x_state(rho)
    return _er_frank_wolfe(rho, cfg or SolverConfig())


def _er_frank_wolfe(rho: DensityMatrix, cfg: SolverConfig) -> ERResult:
    """General solver over mixtures of product states.

    Alternates an exact-direction convex weight update (multiplicative, with
    a damping safeguard that keeps the objective monotone) with product-state
    refinement and atom replacement driven by the gradient of the relative
    entropy. Deterministic for a fixed config seed. ``converged`` comes from
    a local product-state search and a patience counter, not from a proof.
    """
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


# X-state reduction. rho commutes with U = diag(1, e^{it}) (x) diag(1, e^{-it});
# averaging over t maps separable states to separable X states and never raises
# D(rho||.), so the optimum is sigma = diag(a, b, c, d) plus the coherence
# x e^{i arg rho_03}, separable iff x^2 <= bc (and PSD iff x^2 <= ad). For an
# entangled rho the optimum has x^2 = bc, and then
#   -Tr[rho ln sigma] + Tr sigma = -Tr[R ln S] + a + d + h(x),
#   h(x) = min over bc = x^2 of (b + c - p01 ln b - p10 ln c)   (closed form),
# with R and S the {|00>, |11>} blocks of rho and sigma. Its minimum over the
# cone is reached at Tr sigma = 1, so no normalization constraint is needed.

X_STATE_TOL = 1e-12  # largest entry outside the X pattern that takes the reduced path
X_CERTIFIED_GAP = 1e-9  # value - lower, in bits, below which the X path reports converged
_X_PATTERN = np.eye(4, dtype=bool)
_X_PATTERN[0, 3] = _X_PATTERN[3, 0] = True
_X_MAX_STEPS = 100
_TWIRL_ANGLES = (0.0, 2 * math.pi / 3, 4 * math.pi / 3)
_BASIS_ATOMS = tuple(
    (za, zb) for za in ((0.0, 0.0), (math.pi, 0.0)) for zb in ((0.0, 0.0), (math.pi, 0.0))
)


def _coherence_gradient(l1: float, l2: float, t: float, block: np.ndarray) -> np.ndarray:
    """D ln(S)[R] for S with eigenvalue e^l1 on (cos t, sin t) and e^l2 on (-sin t, cos t)."""
    cos, sin = math.cos(t), math.sin(t)
    vecs = np.array([[cos, -sin], [sin, cos]])
    with np.errstate(all="ignore"):  # subnormal eigenvalues give inf or NaN; the caller checks
        e1, e2 = np.exp(l1), np.exp(l2)
        divided = (l1 - l2) / (e2 * np.expm1(l1 - l2)) if l1 != l2 else 1 / e2  # (l1 - l2)/(e1 - e2)
        f = np.array([[1 / e1, divided], [divided, 1 / e2]])
        return vecs @ (f * (vecs.T @ block @ vecs)) @ vecs.T


def _flanks(x: float, p01: float, p10: float) -> tuple[float, float]:
    """The minimizers (b, c) of h(x): b - c = p01 - p10 and bc = x^2, without cancellation."""
    delta = p01 - p10
    root = math.sqrt(delta * delta + 4 * x * x)
    if delta >= 0:
        c = 2 * x * x / (delta + root) if x else 0.0
        return c + delta, c
    b = 2 * x * x / (root - delta)
    return b, b - delta


def _x_objective(v: np.ndarray, pops: np.ndarray, r: float) -> tuple[float, np.ndarray | None, np.ndarray | None]:
    """Reduced objective (nats), gradient and Hessian in v = (l1, l2, t).

    S has eigenvalue e^l1 on u1 = (cos t, sin t) and e^l2 on u2 = (-sin t, cos t),
    so Tr[R ln S] = l1 <u1|R|u1> + l2 <u2|R|u2>, a + d = e^l1 + e^l2 and
    x = (e^l1 - e^l2) sin(2t) / 2 are explicit, and the log-eigenvalues keep
    a nearly singular S well scaled. Infinite outside the domain x > 0.
    """
    l1, l2, t = v
    if max(l1, l2) > 50:
        return math.inf, None, None
    e1, e2 = math.exp(l1), math.exp(l2)
    sin2, cos2 = math.sin(2 * t), math.cos(2 * t)
    x = (e1 - e2) * sin2 / 2
    b, c = _flanks(x, pops[1], pops[2])
    if not (x > 0 and b > 0 and c > 0):
        return math.inf, None, None
    cos, sin = math.cos(t), math.sin(t)
    # <u|R|u> on each eigenvector as a square plus a non-negative defect, so a
    # tiny r2 (S nearly orthogonal to a nearly pure R) keeps its digits.
    root0, root3 = math.sqrt(pops[0]), math.sqrt(pops[3])
    defect = (root0 * root3 - r) * sin2
    r1 = (root0 * cos + root3 * sin) ** 2 - defect
    r2 = (root0 * sin - root3 * cos) ** 2 + defect
    r1_t = (pops[3] - pops[0]) * sin2 + 2 * r * cos2
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
    grad = np.array([e1 - r1, e2 - r2, -(l1 - l2) * r1_t]) + h_x * x_v
    hess = np.array([[e1, 0, -r1_t], [0, e2, r1_t], [-r1_t, r1_t, -(l1 - l2) * r1_tt]])
    hess = hess + h_x * x_vv + h_xx * np.outer(x_v, x_v)
    if not (math.isfinite(value) and np.isfinite(hess).all()):  # subnormal populations
        return math.inf, None, None
    return value, grad, hess


def _x_newton(pops: np.ndarray, r: float) -> tuple[tuple[float, float, float], int]:
    """Minimize the reduced objective by damped Newton steps; returns ((l1, l2, t), steps).

    The objective is convex in (a, d, x) but not in the log-eigenvalue
    coordinates, so the Hessian's eigenvalues are taken in absolute value.
    Stops when the Newton decrement falls below 1e-24, stops shrinking, or no
    step lowers the objective any more.
    """
    a, d, x = pops[0], pops[3], r / 2
    half_gap = (a - d) / 2
    hi = (a + d) / 2 + math.hypot(half_gap, x)
    lo = (a * d - x * x) / hi
    # Start with |t| <= pi/4: near t = pi/2 a small coherence would be resolved
    # only to the absolute spacing of floats around pi/2.
    t = 0.5 * math.atan(x / half_gap) if half_gap else math.pi / 4
    v = np.array([math.log(hi), math.log(lo), t] if half_gap >= 0 else [math.log(lo), math.log(hi), t])
    value, grad, hess = _x_objective(v, pops, r)
    steps, last_decrement = 0, math.inf
    while steps < _X_MAX_STEPS and grad is not None:
        steps += 1
        # Diagonal scaling first: near a tiny flank population the curvature
        # in t exceeds the others by up to 1e12.
        scale = 1 / np.sqrt(np.maximum(np.abs(np.diag(hess)), np.finfo(float).tiny))
        evals, evecs = np.linalg.eigh(hess * np.outer(scale, scale))
        evals = np.maximum(np.abs(evals), 1e-12 * np.abs(evals).max())
        step = -scale * (evecs @ ((evecs.T @ (scale * grad)) / evals))
        decrement = -grad @ step
        # Quadratic convergence shrinks the decrement every step; once it
        # stops shrinking below 1e-12 it is rounding noise.
        if not decrement > 1e-24 or (decrement < 1e-12 and decrement >= last_decrement):
            break
        last_decrement = decrement
        length = 1.0
        while length > 1e-12:
            trial = v + length * step
            trial_value, trial_grad, trial_hess = _x_objective(trial, pops, r)
            # Below 1e-12 the decrease is lost in rounding; accept any feasible step.
            if trial_value <= value - 0.25 * length * decrement or (decrement < 1e-12 and trial_grad is not None):
                break
            length /= 2
        else:
            break
        v, value, grad, hess = trial, trial_value, trial_grad, trial_hess
    return (float(v[0]), float(v[1]), float(v[2])), steps


def _x_product_max(g00: float, g01: float, g10: float, g11: float, w: float) -> float:
    """Certified max of <ab|G|ab> over product states for X-shaped G.

    With t = |<0|b>|^2 the best a gives the top eigenvalue of
    M(t) = [[g01 + t(g00 - g01), w sqrt(t(1-t))], [w sqrt(t(1-t)), g11 + t(g10 - g11)]],
    where w = |G_03|. A number mu bounds it on all of [0, 1] iff mu - M(t) is
    PSD for every t: its diagonal is linear in t and its determinant a
    quadratic, so the test is exact. Bisection on mu returns the smallest
    mu that passes, to the last bit.
    """
    a1, b1, ww = g00 - g01, g10 - g11, w * w

    def bounds(mu: float) -> bool:
        u, v = mu - g01, mu - g11
        if min(u, u - a1, v, v - b1) < 0:
            return False
        c2, c1, c0 = a1 * b1 + ww, -(u * b1 + v * a1 + ww), u * v
        if min(c0, c0 + c1 + c2) < 0:
            return False
        return not (c2 > 0 and 0 < -c1 < 2 * c2 and c0 - c1 * c1 / (4 * c2) < 0)

    lo = max(g00, g01, g10, g11)  # attained at b = |0> or |1>
    hi = lo + w / 2
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        if bounds(mid):
            hi = mid
        else:
            lo = mid


def _x_certificate(a: float, b: float, c: float, d: float, x: float, phase: float) -> SeparableAnsatz:
    """Product decomposition of sigma = diag(a, b, c, d) + x e^{i phase}|00><11| + h.c.

    One product state with populations (a, b, x^2/b, x^2/a), whose |00><11|
    and |01><10| coherences both have modulus x, is twirled over
    diag(1, e^{it}) (x) diag(1, e^{-it}) at t = 0, 2pi/3, 4pi/3: the average
    keeps the |00><11| coherence x e^{i phase} and cancels every other one.
    What is left of c and d goes on |10> and |11>: at most 5 atoms.
    """
    weights: list[float] = []
    atoms: list[tuple[tuple[float, float], tuple[float, float]]] = []
    rest = [a, b, c, d]
    x = min(x, math.sqrt(a * d), math.sqrt(b * c))
    if x > 0:
        piece = [a, b, x * x / b, x * x / a]
        total = sum(piece)
        theta_a = 2 * math.acos(min(1.0, math.sqrt((piece[0] + piece[1]) / total)))
        theta_b = 2 * math.acos(min(1.0, math.sqrt((piece[0] + piece[2]) / total)))
        for t in _TWIRL_ANGLES:
            weights.append(total / 3)
            atoms.append(((theta_a, t - phase), (theta_b, -t)))
        rest = [p - q for p, q in zip(rest, piece)]
    for w, atom in zip(rest, _BASIS_ATOMS):
        if w > 0:
            weights.append(w)
            atoms.append(atom)
    total = sum(weights)
    return SeparableAnsatz(tuple(w / total for w in weights), tuple(atoms))


def _er_x_state(rho: DensityMatrix) -> ERResult:
    """Certified interval for an X-shaped state; see the reduction notes above."""
    m = rho.matrix
    pops = np.clip(np.diag(m).real, 0.0, None)
    # The clamp only matters within the PSD tolerance of DensityMatrix.
    r, phase = min(float(abs(m[0, 3])), math.sqrt(pops[0] * pops[3])), float(np.angle(m[0, 3]))
    if r * r <= pops[1] * pops[2]:
        # PPT, so separable: sigma = rho, and E_R >= 0 closes the interval.
        certificate = _x_certificate(*pops, r, phase)
        value = max(relative_entropy(rho, certificate.assemble()), 0.0)
        return ERResult(value, NUMERIC_UPPER_BOUND, certificate, 0, value <= X_CERTIFIED_GAP, 0.0)

    steps = 0
    if pops[1] == pops[2] == 0:
        # Support on span{|00>, |11>}: the optimum has x = 0, the dephased state.
        (l1, l2, t), b, c = (math.log(pops[0]), math.log(pops[3]), 0.0), 0.0, 0.0
    else:
        (l1, l2, t), steps = _x_newton(pops, r)
        b, c = _flanks((math.exp(l1) - math.exp(l2)) * math.sin(2 * t) / 2, pops[1], pops[2])
    total = math.exp(l1) + math.exp(l2) + b + c  # 1 up to rounding at the optimum
    l1, l2, b, c = l1 - math.log(total), l2 - math.log(total), b / total, c / total
    e1, e2, cos, sin = math.exp(l1), math.exp(l2), math.cos(t), math.sin(t)
    a, d, x = e1 * cos * cos + e2 * sin * sin, e1 * sin * sin + e2 * cos * cos, (e1 - e2) * sin * cos
    certificate = _x_certificate(a, b, c, d, x, phase)
    value = max(relative_entropy(rho, certificate.assemble()), 0.0)

    # Frank-Wolfe lower bound (Jaggi 2013) at sigma, with G = D ln(sigma)[rho]:
    # E_R >= D(rho||sigma) - (max_ab <ab|G|ab> - 1) / ln 2. G is taken at the
    # X state the certificate assembles to within rounding.
    g = _coherence_gradient(l1, l2, t, np.array([[pops[0], r], [r, pops[3]]]))
    top = _x_product_max(
        g[0, 0], pops[1] / b if pops[1] else 0.0, pops[2] / c if pops[2] else 0.0, g[1, 1], abs(g[0, 1])
    )
    # Entries of rho outside the X pattern (each at most X_STATE_TOL) move G
    # by at most their Frobenius norm over the smallest eigenvalue of sigma.
    residue = float(np.linalg.norm(m[~_X_PATTERN]))
    if residue:
        smallest = min(b, c, e1, e2)
        top += residue / smallest if smallest > 0 else math.inf
    if not top < math.inf:  # also NaN, from subnormal populations: keep only E_R >= 0
        top = math.inf
    lower = max(value - max(top - 1.0, 0.0) / math.log(2), 0.0)
    return ERResult(value, NUMERIC_UPPER_BOUND, certificate, steps, value - lower <= X_CERTIFIED_GAP, lower)


def er_auto(rho: DensityMatrix, cfg: SolverConfig | None = None) -> ERResult:
    """Closed form when the state is Bell-diagonal, numeric bound otherwise."""
    try:
        bd = BellDiagonalState.from_density_matrix(rho, tol=1e-9)
    except ValueError:
        return er_numeric(rho, cfg)
    return er_bell_diagonal(bd)

