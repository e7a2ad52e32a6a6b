"""The two compared pipelines: recurrence distillation vs pre-channel shaping.

The distillation branch map is computed by full 16x16 density-matrix
simulation of one recurrence step on a two-pair register (A1, B1, A2, B2):
rotate X by +pi/2 on Alice's qubits and -pi/2 on Bob's, apply the bilateral
CNOT (pair 1 controls pair 2), measure pair 2 in Z on both sides, and keep
pair 1 when the outcomes agree. Equal-outcome post-measurement states
coincide, so success collapses to a single branch; the failure branch keeps
its exact post-measurement state rather than a maximally mixed placeholder,
so the convexity bookkeeping downstream is checked against truth.

The recursive pipeline consumes n = 2^rounds identical pairs. Every parallel
node at a given round sees the same input state, so the full branch tree
collapses to one success state and one failure state per round; the global
output is the mixture over the first failing round (traversal order: rounds
ascending) plus the all-success branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .channels import (
    PARAMETRIC,
    QuantumChannel,
    apply,
    dd_effective_parametric,
    dd_effective_pulse_average,
)
from .entanglement import ERResult, SolverConfig, er_auto, er_bell_diagonal
from .qstate import (
    BellDiagonalState,
    DensityMatrix,
    H,
    I2,
    X,
    bell_pair,
    bell_projection,
    binary_entropy,
    partial_trace,
    tensor,
)

_SQRT2 = math.sqrt(2)


def u_pre() -> np.ndarray:
    """The 4x4 shaping unitary (I (x) X) . CNOT . (H (x) I)."""
    cnot = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )
    return np.kron(I2, X) @ cnot @ np.kron(H, I2)


def _kron_all(ops) -> np.ndarray:
    return reduce(np.kron, ops)


def _cnot(control: int, target: int, n: int) -> np.ndarray:
    p0 = np.array([[1, 0], [0, 0]], dtype=complex)
    p1 = np.array([[0, 0], [0, 1]], dtype=complex)
    lo = _kron_all([p0 if i == control else I2 for i in range(n)])
    hi = _kron_all(
        [p1 if i == control else (X if i == target else I2) for i in range(n)]
    )
    return lo + hi


@lru_cache(maxsize=1)
def _recurrence_operators() -> tuple[np.ndarray, list[np.ndarray]]:
    """(pre-measurement unitary, projectors for Z outcomes 00/01/10/11 on pair 2)."""
    rx_plus = (I2 - 1j * X) / _SQRT2
    rx_minus = (I2 + 1j * X) / _SQRT2
    rot = _kron_all([rx_plus, rx_minus, rx_plus, rx_minus])
    u = _cnot(1, 3, 4) @ _cnot(0, 2, 4) @ rot
    kets = (np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex))
    projectors = []
    for a in (0, 1):
        for b in (0, 1):
            pa = np.outer(kets[a], kets[a].conj())
            pb = np.outer(kets[b], kets[b].conj())
            projectors.append(_kron_all([I2, I2, pa, pb]))
    return u, projectors


@dataclass(frozen=True, eq=False)
class Branch:
    probability: float
    success: bool
    state: BellDiagonalState


@dataclass(frozen=True, eq=False)
class DistillationOutcome:
    """Branch-resolved result of a distillation pipeline.

    ``global_state`` is the probability mixture over every branch's kept-pair
    state; ``selected_state`` is the all-success output.
    """

    branches: tuple[Branch, ...]
    success_probability: float
    global_state: DensityMatrix
    selected_state: BellDiagonalState

    def __post_init__(self):
        total = sum(b.probability for b in self.branches)
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"branch probabilities sum to {total}")
        if any(b.probability < -1e-12 for b in self.branches):
            raise ValueError("negative branch probability")
        p_s = sum(b.probability for b in self.branches if b.success)
        if abs(p_s - self.success_probability) > 1e-10:
            raise ValueError("success_probability does not match success branches")
        mix = sum(
            b.probability * b.state.to_density_matrix().matrix for b in self.branches
        )
        if np.abs(mix - self.global_state.matrix).max() > 1e-10:
            raise ValueError("global state is not the branch mixture")

    def global_with_placeholder_trash(self) -> DensityMatrix:
        """Global mixture with every failure branch replaced by I/4."""
        mix = np.zeros((4, 4), dtype=complex)
        for b in self.branches:
            part = b.state.to_density_matrix().matrix if b.success else np.eye(4) / 4
            mix = mix + b.probability * part
        return DensityMatrix(mix, (2, 2))


def _assemble(branches: list[Branch]) -> DistillationOutcome:
    p_s = sum(b.probability for b in branches if b.success)
    mix = sum(b.probability * b.state.to_density_matrix().matrix for b in branches)
    selected = next(b.state for b in branches if b.success)
    return DistillationOutcome(
        tuple(branches), p_s, DensityMatrix(mix, (2, 2)), selected
    )


def _coerce_bell_diagonal(state) -> BellDiagonalState:
    if isinstance(state, BellDiagonalState):
        return state
    if isinstance(state, DensityMatrix):
        return bell_projection(state)
    raise TypeError(f"expected a pair state, got {type(state).__name__}")


def dejmps_branch_map(pair1, pair2) -> DistillationOutcome:
    """One recurrence step on two Bell-diagonal pairs, simulated exactly.

    Inputs that are not Bell-diagonal are dephased in the Bell basis first
    (the outcome record carries Bell-diagonal states by contract).
    """
    q1 = _coerce_bell_diagonal(pair1)
    q2 = _coerce_bell_diagonal(pair2)
    rho = np.kron(q1.to_density_matrix().matrix, q2.to_density_matrix().matrix)
    u, projectors = _recurrence_operators()
    rho = u @ rho @ u.conj().T

    kept: dict[tuple[int, int], tuple[float, np.ndarray]] = {}
    for idx, proj in enumerate(projectors):
        outcome = (idx // 2, idx % 2)
        sub = proj @ rho @ proj
        p = float(np.trace(sub).real)
        reduced = sub.reshape(2, 2, 2, 2, 2, 2, 2, 2)
        reduced = np.einsum("abcdefcd->abef", reduced).reshape(4, 4)
        kept[outcome] = (p, reduced)

    p_succ = kept[(0, 0)][0] + kept[(1, 1)][0]
    p_fail = kept[(0, 1)][0] + kept[(1, 0)][0]
    succ_mat = (kept[(0, 0)][1] + kept[(1, 1)][1]) / p_succ
    succ = BellDiagonalState.from_density_matrix(DensityMatrix(succ_mat, (2, 2)))
    branches = [Branch(p_succ, True, succ)]
    if p_fail > 1e-15:
        fail_mat = (kept[(0, 1)][1] + kept[(1, 0)][1]) / p_fail
        fail = BellDiagonalState.from_density_matrix(DensityMatrix(fail_mat, (2, 2)))
        branches.append(Branch(p_fail, False, fail))
    return _assemble(branches)


@dataclass(frozen=True)
class RoundSummary:
    """Per-round exact quantities for identical-input recursion."""

    success_probability: float
    success_state: BellDiagonalState
    failure_state: BellDiagonalState | None
    parallel_nodes: int


def _round_summaries(input_state: BellDiagonalState, rounds: int, n_pairs: int) -> list[RoundSummary]:
    summaries = []
    current = input_state
    for r in range(rounds):
        step = dejmps_branch_map(current, current)
        fail = next((b.state for b in step.branches if not b.success), None)
        summaries.append(
            RoundSummary(
                step.success_probability,
                step.selected_state,
                fail,
                n_pairs // (2 ** (r + 1)),
            )
        )
        current = step.selected_state
    return summaries


def dejmps_recursive(n_pairs: int, input_state, rounds: int) -> DistillationOutcome:
    """Pairwise recursive distillation over n identical pairs.

    The branch record groups outcomes by the first failing round; the failed
    node's exact kept-pair state is the branch state.
    """
    if n_pairs < 1 or (n_pairs & (n_pairs - 1)) != 0:
        raise ValueError(f"n_pairs must be a power of two, got {n_pairs}")
    if rounds < 0 or 2**rounds > n_pairs:
        raise ValueError(f"rounds {rounds} exceeds log2 of {n_pairs} pairs")
    state = _coerce_bell_diagonal(input_state)
    if rounds == 0:
        return _assemble([Branch(1.0, True, state)])

    summaries = _round_summaries(state, rounds, n_pairs)
    branches: list[Branch] = []
    survive = 1.0
    for s in summaries:
        all_nodes = s.success_probability**s.parallel_nodes
        if s.failure_state is not None and survive * (1 - all_nodes) > 0:
            branches.append(Branch(survive * (1 - all_nodes), False, s.failure_state))
        survive *= all_nodes
    branches.insert(0, Branch(survive, True, summaries[-1].success_state))
    return _assemble(branches)


@dataclass(frozen=True, eq=False)
class MonteCarloStats:
    """Sampled statistics for the recursive pipeline.

    Standard errors accompany the run-level means; entanglement of the
    sampled global mixture is estimated per batch and summarized as
    mean +/- standard deviation over batches.
    """

    run_count: int
    batch_count: int
    success_mean: float
    success_se: float
    fidelity_mean: float
    fidelity_se: float
    er_global_mean: float
    er_global_std: float
    er_selected_mean: float
    er_selected_std: float
    exact: DistillationOutcome


def sample_branch_indices(
    round_probs: tuple[tuple[float, int], ...], master_seed: int, count: int
) -> np.ndarray:
    """Branch index per run: 0..rounds-1 = first failing round, rounds = success.

    ``round_probs`` lists (success probability, parallel node count) per
    round. Round r is the first failure with probability
    survive_r * (1 - p_r^n_r), where survive_r is the product of the earlier
    rounds' p^n; the all-success branch takes the remaining product. Each run
    is one categorical draw: ``count`` uniforms from
    ``default_rng(master_seed)`` located in the cumulative branch
    probabilities, so the indices depend only on (round_probs, seed, count).
    """
    branch_probs = []
    survive = 1.0
    for prob, nodes in round_probs:
        all_nodes = prob**nodes
        branch_probs.append(survive * (1 - all_nodes))
        survive *= all_nodes
    branch_probs.append(survive)
    uniforms = np.random.default_rng(master_seed).random(count)
    indices = np.searchsorted(np.cumsum(branch_probs), uniforms, side="right")
    # Rounding can leave the cumulative total a hair below 1.
    return np.minimum(indices, len(round_probs)).astype(np.int64)


def round_probabilities(summaries: list[RoundSummary]) -> tuple[tuple[float, int], ...]:
    return tuple((s.success_probability, s.parallel_nodes) for s in summaries)


def dejmps_monte_carlo(
    n_pairs: int,
    input_state,
    rounds: int,
    run_count: int,
    master_seed: int,
    batch_count: int = 10,
    outcome_indices: np.ndarray | None = None,
) -> MonteCarloStats:
    """Monte Carlo sampling of the recursive pipeline from one master seed.

    Each run is one categorical draw over the exact first-failure branches
    (:func:`sample_branch_indices`). ``outcome_indices`` lets a caller supply
    branch indices it already drew with that function and the same seed.
    """
    if run_count < 1:
        raise ValueError("run_count must be at least 1")
    state = _coerce_bell_diagonal(input_state)
    exact = dejmps_recursive(n_pairs, state, rounds)
    summaries = _round_summaries(state, rounds, n_pairs) if rounds else []

    if outcome_indices is None:
        outcome_indices = sample_branch_indices(
            round_probabilities(summaries), master_seed, run_count
        )
    if len(outcome_indices) != run_count:
        raise ValueError("outcome indices do not match run_count")

    branch_states = [
        (s.failure_state if s.failure_state is not None else s.success_state)
        for s in summaries
    ]
    branch_states.append(summaries[-1].success_state if summaries else state)
    branch_mats = np.array([s.to_density_matrix().matrix for s in branch_states])
    fidelities = np.array([s.fidelity for s in branch_states])

    success_flags = (outcome_indices == len(summaries)).astype(float)
    run_fidelities = fidelities[outcome_indices]

    n = float(run_count)
    success_mean = float(success_flags.mean())
    success_se = float(success_flags.std(ddof=1) / math.sqrt(n)) if run_count > 1 else 0.0
    fidelity_mean = float(run_fidelities.mean())
    fidelity_se = float(run_fidelities.std(ddof=1) / math.sqrt(n)) if run_count > 1 else 0.0

    batch_count = max(1, min(batch_count, run_count))
    er_global, er_selected = [], []
    bounds = [run_count * b // batch_count for b in range(batch_count + 1)]
    for b in range(batch_count):
        chunk = outcome_indices[bounds[b] : bounds[b + 1]]
        counts = np.bincount(chunk, minlength=len(branch_states)).astype(float)
        counts /= counts.sum()
        mix = np.tensordot(counts, branch_mats, axes=1)
        bd = bell_projection(DensityMatrix(mix, (2, 2)))
        er_global.append(er_bell_diagonal(bd).value)
        succ_share = counts[-1]
        er_selected.append(
            er_bell_diagonal(branch_states[-1]).value if succ_share > 0 else 0.0
        )
    er_global = np.array(er_global)
    er_selected = np.array(er_selected)

    return MonteCarloStats(
        run_count=run_count,
        batch_count=batch_count,
        success_mean=success_mean,
        success_se=success_se,
        fidelity_mean=fidelity_mean,
        fidelity_se=fidelity_se,
        er_global_mean=float(er_global.mean()),
        er_global_std=float(er_global.std(ddof=1)) if batch_count > 1 else 0.0,
        er_selected_mean=float(er_selected.mean()),
        er_selected_std=float(er_selected.std(ddof=1)) if batch_count > 1 else 0.0,
        exact=exact,
    )


@dataclass(frozen=True, eq=False)
class PESOutcome:
    """Deterministic shaping-pipeline output (no branch structure).

    ``block_state`` is the per-block output: one pair without the shaping
    unitary, a two-pair register with it. ``n_pairs`` records how many pairs
    the full run covers.
    """

    block_state: DensityMatrix
    effective_channel: QuantumChannel
    per_pair_er: ERResult
    n_pairs: int
    pair_er_values: tuple[float, ...]


def pes_pipeline(
    n_pairs: int,
    channel: QuantumChannel,
    dd_cfg,
    use_u_pre: bool = False,
    sides: str = "one",
    solver_cfg: SolverConfig | None = None,
) -> PESOutcome:
    """Shape, transmit, and report per-pair entanglement; fully deterministic.

    ``sides`` selects the transmission geometry: ``"one"`` sends only the B
    qubit of each pair through the channel, ``"two"`` sends both qubits.
    """
    if sides not in ("one", "two"):
        raise ValueError(f"sides must be 'one' or 'two', got {sides!r}")
    if dd_cfg.mode == PARAMETRIC:
        eff = dd_effective_parametric(channel, dd_cfg)
    else:
        eff = dd_effective_pulse_average(channel, dd_cfg)

    if not use_u_pre:
        pair = bell_pair()
        pair = apply(eff, pair, target=1)
        if sides == "two":
            pair = apply(eff, pair, target=0)
        er = er_auto(pair, solver_cfg)
        return PESOutcome(pair, eff, er, n_pairs, (er.value,))

    # Two-pair block (A1, B1, A2, B2); the shaping unitary acts on the two
    # transmitted B qubits before the channel.
    block = tensor(bell_pair(), bell_pair())
    big = _two_qubit_embed(u_pre(), 1, 3, 4)
    block = DensityMatrix(big @ block.matrix @ big.conj().T, block.dims)
    for target in (1, 3):
        block = apply(eff, block, target=target)
    if sides == "two":
        for target in (0, 2):
            block = apply(eff, block, target=target)
    pair_values = []
    first_er: ERResult | None = None
    for pair_idx in (0, 1):
        keep = [0, 1] if pair_idx == 0 else [2, 3]
        reduced = partial_trace(block, keep=keep)
        res = er_auto(reduced, solver_cfg)
        pair_values.append(res.value)
        if first_er is None:
            first_er = res
    return PESOutcome(block, eff, first_er, n_pairs, tuple(pair_values))


def _two_qubit_embed(u: np.ndarray, q1: int, q2: int, n: int) -> np.ndarray:
    """Embed a 4x4 operator acting on qubits (q1, q2) of an n-qubit register."""
    d = 2**n
    out = np.zeros((d, d), dtype=complex)
    u4 = u.reshape(2, 2, 2, 2)
    for row in range(d):
        bits_r = [(row >> (n - 1 - k)) & 1 for k in range(n)]
        for a in (0, 1):
            for b in (0, 1):
                amp_col = u4[bits_r[q1], bits_r[q2], a, b]
                if amp_col == 0:
                    continue
                bits_c = list(bits_r)
                bits_c[q1], bits_c[q2] = a, b
                col = sum(bit << (n - 1 - k) for k, bit in enumerate(bits_c))
                out[row, col] += amp_col
    return out


@dataclass(frozen=True)
class HashingRate:
    """Raw yield 1 - H2(p) - p log2(3); negative values are flagged, not clamped."""

    value: float
    is_negative: bool


def hashing_rate(p: float) -> HashingRate:
    if p < 0 or p > 0.75:
        raise ValueError(f"noise parameter {p} outside [0, 3/4]")
    value = 1.0 - binary_entropy(p) - p * math.log2(3)
    return HashingRate(value, value < 0)
