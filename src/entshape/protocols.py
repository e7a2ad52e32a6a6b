"""The two compared pipelines: recurrence distillation vs pre-channel shaping.

One recurrence step acts on two pairs (A1, B1) and (A2, B2): rotate X by
+pi/2 on Alice's qubits and -pi/2 on Bob's, apply the bilateral CNOT (pair 1
controls pair 2), measure pair 2 in Z on both sides, and keep pair 1 when the
outcomes agree. On Bell-diagonal inputs with weights (Phi+, Psi+, Psi-, Phi-)
this maps Bell weights to Bell weights by a closed-form bilinear update
(Deutsch et al. 1996): the rotation swaps the two odd-phase Bell states, the
bilateral CNOT adds the pair-1 bit-flip label onto pair 2 and the pair-2
phase label onto pair 1, and the measurement reads pair 2's bit-flip label.
Equal outcomes keep one success state; the failure branch keeps its exact
post-measurement state rather than a maximally mixed placeholder, so the
convexity bookkeeping downstream is checked against truth. The tests keep a
16x16 density-matrix simulation of the step as the reference.

The recursive pipeline consumes n = 2^rounds identical pairs. Every parallel
node at a given round sees the same input state, so the full branch tree
collapses to one success state and one failure state per round; the global
output is the mixture over the first failing round (traversal order: rounds
ascending) plus the all-success branch. Every state in the distillation
layer is Bell-diagonal, so outcomes carry and mix Bell weights only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import QuantumChannel, apply, dd_effective_parametric
from .entanglement import er_bell_diagonal
from .qstate import (
    BellDiagonalState,
    DensityMatrix,
    bell_pair,
    bell_projection,
    binary_entropy,
)


@dataclass(frozen=True, eq=False)
class Branch:
    probability: float
    success: bool
    state: BellDiagonalState


def _mixture(branches) -> np.ndarray:
    """Bell weights of the probability mixture of the branch states."""
    return sum(b.probability * np.asarray(b.state.coefficients) for b in branches)


@dataclass(frozen=True, eq=False)
class DistillationOutcome:
    """Branch-resolved result of a distillation pipeline.

    ``global_state`` is the probability mixture over every branch's kept-pair
    state; ``selected_state`` is the all-success output.
    """

    branches: tuple[Branch, ...]
    success_probability: float
    global_state: BellDiagonalState
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
        mix = _mixture(self.branches)
        if np.abs(mix - np.asarray(self.global_state.coefficients)).max() > 1e-10:
            raise ValueError("global state is not the branch mixture")

    def global_with_placeholder_trash(self) -> BellDiagonalState:
        """Global mixture with every failure branch replaced by I/4."""
        # I/4 puts weight 1/4 on every Bell state.
        mix = sum(
            b.probability * (np.asarray(b.state.coefficients) if b.success else 0.25)
            for b in self.branches
        )
        return BellDiagonalState(mix / mix.sum())


def _assemble(branches: list[Branch]) -> DistillationOutcome:
    p_s = sum(b.probability for b in branches if b.success)
    mix = _mixture(branches)
    selected = next(b.state for b in branches if b.success)
    return DistillationOutcome(
        tuple(branches), p_s, BellDiagonalState(mix / mix.sum()), selected
    )


def _coerce_bell_diagonal(state) -> BellDiagonalState:
    if isinstance(state, BellDiagonalState):
        return state
    if isinstance(state, DensityMatrix):
        return bell_projection(state)
    raise TypeError(f"expected a pair state, got {type(state).__name__}")


def dejmps_branch_map(pair1, pair2) -> DistillationOutcome:
    """One recurrence step on two Bell-diagonal pairs, in closed form.

    ``pair1`` is the control (kept) pair. Inputs that are not Bell-diagonal
    are dephased in the Bell basis first (the outcome record carries
    Bell-diagonal states by contract). The failure branch is omitted when
    its probability is at most 1e-15.
    """
    a, b, c, d = _coerce_bell_diagonal(pair1).coefficients
    e, f, g, h = _coerce_bell_diagonal(pair2).coefficients
    # Unnormalized kept-pair Bell weights; each sums to its branch probability.
    succ = np.array([a * e + c * g, b * f + d * h, b * h + d * f, a * g + c * e])
    fail = np.array([a * f + c * h, b * e + d * g, b * g + d * e, a * h + c * f])
    p_succ, p_fail = float(succ.sum()), float(fail.sum())
    if p_succ <= 0:
        raise ValueError("the pairs never pass the parity check")
    branches = [Branch(p_succ, True, BellDiagonalState(succ / p_succ))]
    if p_fail > 1e-15:
        branches.append(Branch(p_fail, False, BellDiagonalState(fail / p_fail)))
    return _assemble(branches)


@dataclass(frozen=True)
class RoundSummary:
    """Per-round exact quantities for identical-input recursion."""

    success_probability: float
    success_state: BellDiagonalState
    failure_state: BellDiagonalState | None
    parallel_nodes: int


def _round_summaries(input_state: BellDiagonalState, rounds: int, n_pairs: int) -> list[RoundSummary]:
    if n_pairs < 1 or (n_pairs & (n_pairs - 1)) != 0:
        raise ValueError(f"n_pairs must be a power of two, got {n_pairs}")
    if rounds < 0 or 2**rounds > n_pairs:
        raise ValueError(f"rounds {rounds} exceeds log2 of {n_pairs} pairs")
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


def _first_failure_outcome(
    state: BellDiagonalState, summaries: list[RoundSummary]
) -> DistillationOutcome:
    branches: list[Branch] = []
    survive = 1.0
    for s in summaries:
        all_nodes = s.success_probability**s.parallel_nodes
        if s.failure_state is not None and survive * (1 - all_nodes) > 0:
            branches.append(Branch(survive * (1 - all_nodes), False, s.failure_state))
        survive *= all_nodes
    final = summaries[-1].success_state if summaries else state
    branches.insert(0, Branch(survive, True, final))
    return _assemble(branches)


def dejmps_recursive(n_pairs: int, input_state, rounds: int) -> DistillationOutcome:
    """Pairwise recursive distillation over n identical pairs.

    The branch record groups outcomes by the first failing round; the failed
    node's exact kept-pair state is the branch state.
    """
    state = _coerce_bell_diagonal(input_state)
    return _first_failure_outcome(state, _round_summaries(state, rounds, n_pairs))


@dataclass(frozen=True, eq=False)
class MonteCarloStats:
    """Sampled statistics for the recursive pipeline.

    Standard errors accompany the run-level means; entanglement of the
    sampled global mixture is estimated per batch and summarized as
    mean +/- standard deviation over batches.
    """

    success_mean: float
    success_se: float
    fidelity_mean: float
    fidelity_se: float
    er_global_mean: float
    er_global_std: float
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
    summaries = _round_summaries(state, rounds, n_pairs)
    exact = _first_failure_outcome(state, summaries)

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
    branch_states.append(exact.selected_state)
    branch_weights = np.array([s.coefficients for s in branch_states])
    fidelities = branch_weights[:, 0]

    success_flags = (outcome_indices == len(summaries)).astype(float)
    run_fidelities = fidelities[outcome_indices]

    n = float(run_count)
    success_mean = float(success_flags.mean())
    success_se = float(success_flags.std(ddof=1) / math.sqrt(n)) if run_count > 1 else 0.0
    fidelity_mean = float(run_fidelities.mean())
    fidelity_se = float(run_fidelities.std(ddof=1) / math.sqrt(n)) if run_count > 1 else 0.0

    batch_count = max(1, min(batch_count, run_count))
    er_global = []
    bounds = [run_count * b // batch_count for b in range(batch_count + 1)]
    for b in range(batch_count):
        chunk = outcome_indices[bounds[b] : bounds[b + 1]]
        counts = np.bincount(chunk, minlength=len(branch_states)).astype(float)
        counts /= counts.sum()
        er_global.append(er_bell_diagonal(BellDiagonalState(counts @ branch_weights)).value)
    er_global = np.array(er_global)

    return MonteCarloStats(
        success_mean=success_mean,
        success_se=success_se,
        fidelity_mean=fidelity_mean,
        fidelity_se=fidelity_se,
        er_global_mean=float(er_global.mean()),
        er_global_std=float(er_global.std(ddof=1)) if batch_count > 1 else 0.0,
        exact=exact,
    )


@dataclass(frozen=True, eq=False)
class PESOutcome:
    """Deterministic shaping-pipeline output (no branch structure).

    ``pair`` is the transmitted Bell pair and ``effective_channel`` the
    compressed channel it went through.
    """

    pair: DensityMatrix
    effective_channel: QuantumChannel


def pes_pipeline(channel: QuantumChannel, dd_cfg, sides: str = "one") -> PESOutcome:
    """Compress the channel's noise parameter, then transmit Phi+ through it.

    ``sides`` selects the transmission geometry: ``"one"`` sends only the B
    qubit of the pair through the channel, ``"two"`` sends both qubits.
    Every pair of a run is shaped alike, so one pair stands for all of them.
    """
    if sides not in ("one", "two"):
        raise ValueError(f"sides must be 'one' or 'two', got {sides!r}")
    eff = dd_effective_parametric(channel, dd_cfg)
    pair = apply(eff, bell_pair(), target=1)
    if sides == "two":
        pair = apply(eff, pair, target=0)
    return PESOutcome(pair, eff)


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
