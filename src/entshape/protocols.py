"""Recurrence distillation, the post-channel side of the comparison.

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
collapses to one success state and one failure state per round. The one
outcome record, :class:`DistillationOutcome`, is the first-failure branch
table: one entry per first failing round (rounds ascending) plus the
all-success entry. The exact global mixture and the selected state are
read off that table, and so are the sampled runs that ``check`` compares
against it. Every state in the distillation layer is Bell-diagonal, so the
table carries and mixes Bell weights only; callers project other states
with ``qstate.bell_projection``.

Pre-channel shaping needs no pipeline of its own: the shaped pair is the
transmitted pair at the compressed parameter p' = p * ``dd_compression``,
which the harness builds with its input-pair constructor. The module also
holds the hashing-rate formula the claims are checked against.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .qstate import BellDiagonalState, binary_entropy


@dataclass(frozen=True, eq=False)
class DistillationOutcome:
    """First-failure branch table of a distillation pipeline.

    Entry r < rounds is "round r is the first to fail" and holds the failed
    node's kept-pair state; the last entry is "every round succeeds".
    ``global_state`` is the probability mixture over every entry;
    ``selected_state`` is the all-success output.
    """

    probabilities: tuple[float, ...]
    states: tuple[BellDiagonalState, ...]

    def __post_init__(self):
        if len(self.probabilities) != len(self.states):
            raise ValueError("one state per branch probability is required")
        if any(p < -1e-12 for p in self.probabilities):
            raise ValueError("negative branch probability")
        total = sum(self.probabilities)
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"branch probabilities sum to {total}")

    @property
    def success_probability(self) -> float:
        return self.probabilities[-1]

    @property
    def selected_state(self) -> BellDiagonalState:
        return self.states[-1]

    def _mix(self, failure_weights) -> BellDiagonalState:
        # Success first, then the failures in round order: this summation
        # order fixes the last bits of every reported mixture.
        *fail_probs, p_s = self.probabilities
        terms = [p_s * np.asarray(self.selected_state.coefficients)]
        terms += [p * failure_weights(s) for p, s in zip(fail_probs, self.states) if p > 0]
        mix = sum(terms)
        return BellDiagonalState(mix / mix.sum())

    @property
    def global_state(self) -> BellDiagonalState:
        return self._mix(lambda s: np.asarray(s.coefficients))

    def global_with_placeholder_trash(self) -> BellDiagonalState:
        """Global mixture with every failure branch replaced by I/4."""
        # I/4 puts weight 1/4 on every Bell state.
        return self._mix(lambda s: 0.25)


def dejmps_branch_map(pair1: BellDiagonalState, pair2: BellDiagonalState) -> DistillationOutcome:
    """One recurrence step on two Bell-diagonal pairs, in closed form.

    ``pair1`` is the control (kept) pair. The result is the one-round table
    (failure, success). A failure of probability at most 1e-15 keeps the
    success state in its slot.
    """
    a, b, c, d = pair1.coefficients
    e, f, g, h = pair2.coefficients
    # Unnormalized kept-pair Bell weights; each sums to its branch probability.
    succ = np.array([a * e + c * g, b * f + d * h, b * h + d * f, a * g + c * e])
    fail = np.array([a * f + c * h, b * e + d * g, b * g + d * e, a * h + c * f])
    p_succ, p_fail = float(succ.sum()), float(fail.sum())
    if p_succ <= 0:
        raise ValueError("the pairs never pass the parity check")
    success = BellDiagonalState(succ / p_succ)
    failure = BellDiagonalState(fail / p_fail) if p_fail > 1e-15 else success
    return DistillationOutcome((p_fail, p_succ), (failure, success))


def first_failure_branches(
    state: BellDiagonalState, rounds: int, n_pairs: int
) -> DistillationOutcome:
    """The first-failure branch table of ``rounds`` rounds over ``n_pairs`` pairs.

    Round r fails first with probability survive_r * (1 - p_r^n_r): p_r is
    the round's step success probability, n_r its number of parallel nodes
    and survive_r the product of the earlier rounds' p^n. The all-success
    entry takes the remaining product.
    """
    if n_pairs < 1 or (n_pairs & (n_pairs - 1)) != 0:
        raise ValueError(f"n_pairs must be a power of two, got {n_pairs}")
    if rounds < 0 or 2**rounds > n_pairs:
        raise ValueError(f"rounds {rounds} exceeds log2 of {n_pairs} pairs")
    probs: list[float] = []
    states: list[BellDiagonalState] = []
    survive, current = 1.0, state
    for r in range(rounds):
        step = dejmps_branch_map(current, current)
        all_nodes = step.success_probability ** (n_pairs // 2 ** (r + 1))
        probs.append(survive * (1 - all_nodes))
        states.append(step.states[0])
        survive *= all_nodes
        current = step.selected_state
    probs.append(survive)
    states.append(current)
    return DistillationOutcome(tuple(probs), tuple(states))


def dejmps_recursive(n_pairs: int, state: BellDiagonalState, rounds: int) -> DistillationOutcome:
    """Pairwise recursive distillation over n identical pairs.

    Returns the first-failure branch table: outcomes are grouped by the first
    failing round, and the failed node's exact kept-pair state is the
    branch state.
    """
    return first_failure_branches(state, rounds, n_pairs)


@dataclass(frozen=True, eq=False)
class MonteCarloStats:
    """Sampled success and fidelity means of the recursive pipeline, with standard errors."""

    success_mean: float
    success_se: float
    fidelity_mean: float
    fidelity_se: float


def sample_branch_indices(branch_probs: Sequence[float], master_seed: int, count: int) -> np.ndarray:
    """One branch index per run, into :class:`DistillationOutcome`'s entries.

    Each run is one categorical draw: ``count`` uniforms from
    ``default_rng(master_seed)`` located in the cumulative branch
    probabilities, so the indices depend only on (branch_probs, seed, count).
    """
    uniforms = np.random.default_rng(master_seed).random(count)
    indices = np.searchsorted(np.cumsum(branch_probs), uniforms, side="right")
    # Rounding can leave the cumulative total a hair below 1.
    return np.minimum(indices, len(branch_probs) - 1).astype(np.int64)


def dejmps_monte_carlo(exact: DistillationOutcome, indices: np.ndarray) -> MonteCarloStats:
    """Monte Carlo statistics of the branch table over one run per index.

    ``indices`` are branch indices into ``exact``, one per run, as drawn by
    :func:`sample_branch_indices`.
    """
    runs = len(indices)
    if runs < 1:
        raise ValueError("at least one run is required")
    branch_weights = np.array([s.coefficients for s in exact.states])
    success_flags = (indices == len(exact.states) - 1).astype(float)
    run_fidelities = branch_weights[indices, 0]

    n = float(runs)
    success_mean = float(success_flags.mean())
    success_se = float(success_flags.std(ddof=1) / math.sqrt(n)) if runs > 1 else 0.0
    fidelity_mean = float(run_fidelities.mean())
    fidelity_se = float(run_fidelities.std(ddof=1) / math.sqrt(n)) if runs > 1 else 0.0

    return MonteCarloStats(
        success_mean=success_mean,
        success_se=success_se,
        fidelity_mean=fidelity_mean,
        fidelity_se=fidelity_se,
    )


def hashing_rate(p: float) -> float:
    """Raw yield 1 - H2(p) - p log2(3), returned unclamped: it is negative past p ~ 0.19."""
    if p < 0 or p > 0.75:
        raise ValueError(f"noise parameter {p} outside [0, 3/4]")
    return 1.0 - binary_entropy(p) - p * math.log2(3)
