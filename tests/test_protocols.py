import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entshape.channels import amplitude_damping, apply, transmit_bell_pair
from entshape.entanglement import er_bell_diagonal, er_numeric
from entshape.protocols import (
    DistillationOutcome,
    dejmps_branch_map,
    dejmps_monte_carlo,
    dejmps_recursive,
    hashing_rate,
    sample_branch_indices,
)
from entshape.qstate import (
    I2,
    BellDiagonalState,
    DensityMatrix,
    X,
    bell_pair,
    bell_projection,
    werner,
    werner_from_channel,
)


def _cnot(control, target, n):
    p0 = np.array([[1, 0], [0, 0]], dtype=complex)
    p1 = np.array([[0, 0], [0, 1]], dtype=complex)
    lo = reduce(np.kron, [p0 if i == control else I2 for i in range(n)])
    hi = reduce(
        np.kron, [p1 if i == control else (X if i == target else I2) for i in range(n)]
    )
    return lo + hi


def recurrence_operators():
    """(pre-measurement unitary, projectors for Z outcomes 00/01/10/11 on pair 2)
    on the register (A1, B1, A2, B2)."""
    rx_plus = (I2 - 1j * X) / math.sqrt(2)
    rx_minus = (I2 + 1j * X) / math.sqrt(2)
    rot = reduce(np.kron, [rx_plus, rx_minus, rx_plus, rx_minus])
    u = _cnot(1, 3, 4) @ _cnot(0, 2, 4) @ rot
    kets = (np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex))
    projectors = []
    for a in (0, 1):
        for b in (0, 1):
            pa = np.outer(kets[a], kets[a].conj())
            pb = np.outer(kets[b], kets[b].conj())
            projectors.append(reduce(np.kron, [I2, I2, pa, pb]))
    return u, projectors


def simulate_recurrence(q, r):
    """Reference for one recurrence step: 16x16 density-matrix simulation.

    Each pair is given by its Bell weights or as a 4x4 density matrix.
    Rotates, applies the bilateral CNOT, projects pair 2 on each Z outcome
    and traces it out. Returns (p_success, success weights, p_failure,
    failure weights or None when p_failure <= 1e-15); the kept-pair states
    must be Bell-diagonal to 1e-10.
    """

    def matrix(pair):
        pair = np.asarray(pair)
        return pair if pair.ndim == 2 else BellDiagonalState(pair).to_density_matrix().matrix

    rho = np.kron(matrix(q), matrix(r))
    u, projectors = recurrence_operators()
    rho = u @ rho @ u.conj().T
    kept = []
    for proj in projectors:
        sub = (proj @ rho @ proj).reshape(2, 2, 2, 2, 2, 2, 2, 2)
        kept.append(np.einsum("abcdefcd->abef", sub).reshape(4, 4))

    def branch(mats):
        mat = mats[0] + mats[1]
        p = float(np.trace(mat).real)
        if p <= 1e-15:
            return p, None
        state = BellDiagonalState.from_density_matrix(DensityMatrix(mat / p, (2, 2)))
        return p, np.array(state.coefficients)

    p_succ, success = branch((kept[0], kept[3]))
    p_fail, failure = branch((kept[1], kept[2]))
    return p_succ, success, p_fail, failure


def check_against_simulation(out, q, r):
    p_succ, success, p_fail, failure = simulate_recurrence(q, r)
    assert out.success_probability == pytest.approx(p_succ, abs=1e-12)
    assert np.abs(np.array(out.selected_state.coefficients) - success).max() < 1e-10
    assert out.probabilities[0] == pytest.approx(p_fail, abs=1e-12)
    if failure is None:
        assert out.states[0] is out.selected_state
    else:
        assert np.abs(np.array(out.states[0].coefficients) - failure).max() < 1e-10


# Bell weights with exact zeros; nonzero weights are at least 1/400 after
# normalization, so the reference's rounding stays far below 1e-10 even after
# conditioning on the least likely branch.
bell_weights = (
    st.lists(st.one_of(st.just(0.0), st.floats(1e-2, 1.0)), min_size=4, max_size=4)
    .filter(lambda w: sum(w) > 0)
    .map(lambda w: tuple(np.array(w) / sum(w)))
)


class TestBranchMap:
    def test_perfect_pairs(self):
        perfect = BellDiagonalState((1, 0, 0, 0))
        out = dejmps_branch_map(perfect, perfect)
        assert out.success_probability == pytest.approx(1.0, abs=1e-12)
        assert out.selected_state.fidelity == pytest.approx(1.0, abs=1e-12)

    def test_improves_fidelity_above_threshold(self):
        state = werner_from_channel(0.2)  # fidelity 0.8
        out = dejmps_branch_map(state, state)
        assert out.selected_state.fidelity > state.fidelity
        assert 0 < out.success_probability < 1

    def test_no_improvement_at_half(self):
        state = BellDiagonalState((0.5, 1 / 6, 1 / 6, 1 / 6))
        out = dejmps_branch_map(state, state)
        assert out.selected_state.fidelity == pytest.approx(0.5, abs=1e-9)

    def test_matches_independent_recurrence(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            q = rng.dirichlet(np.ones(4))
            state = BellDiagonalState(tuple(q))
            check_against_simulation(dejmps_branch_map(state, state), q, q)

    def test_matches_independent_recurrence_distinct_pairs(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            q = rng.dirichlet(np.ones(4))
            r = rng.dirichlet(np.ones(4))
            out = dejmps_branch_map(BellDiagonalState(tuple(q)), BellDiagonalState(tuple(r)))
            check_against_simulation(out, q, r)

    def test_equal_outcome_states_coincide(self):
        # The 00 and 11 projections give the same kept-pair state, which is
        # why success is a single branch.
        state = werner_from_channel(0.3).to_density_matrix().matrix
        rho = np.kron(state, state)
        u, projectors = recurrence_operators()
        rho = u @ rho @ u.conj().T
        kept = []
        for proj in (projectors[0], projectors[3]):
            sub = proj @ rho @ proj
            p = np.trace(sub).real
            reduced = sub.reshape(2, 2, 2, 2, 2, 2, 2, 2)
            kept.append(np.einsum("abcdefcd->abef", reduced).reshape(4, 4) / p)
        assert np.abs(kept[0] - kept[1]).max() < 1e-12

    def test_werner_failure_branch_is_flat(self):
        state = werner_from_channel(0.2)
        out = dejmps_branch_map(state, state)
        assert np.abs(np.array(out.states[0].coefficients) - 0.25).max() < 1e-10

    def test_branch_probabilities_sum(self):
        state = werner(0.7)
        out = dejmps_branch_map(state, state)
        assert sum(out.probabilities) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(q=bell_weights, r=bell_weights)
@example(q=(1.0, 0.0, 0.0, 0.0), r=(0.0, 0.0, 1.0, 0.0))  # pure Bell inputs, one branch
@example(q=(0.7, 0.0, 0.3, 0.0), r=(0.4, 0.0, 0.6, 0.0))  # p_fail = 0 on mixed inputs
@example(q=(1.0, 0.0, 0.0, 0.0), r=(0.0, 1.0, 0.0, 0.0))  # never passes the parity check
def test_branch_map_matches_simulation(q, r):
    pair1, pair2 = BellDiagonalState(q), BellDiagonalState(r)
    if simulate_recurrence(q, r)[0] <= 1e-15:
        with pytest.raises(ValueError, match="parity"):
            dejmps_branch_map(pair1, pair2)
        return
    out = dejmps_branch_map(pair1, pair2)
    assert sum(out.probabilities) == pytest.approx(1.0, abs=1e-12)
    check_against_simulation(out, q, r)


class TestRecursive:
    def test_zero_rounds(self):
        state = werner_from_channel(0.2)
        out = dejmps_recursive(4, state, 0)
        assert out.success_probability == 1.0
        assert out.selected_state.coefficients == pytest.approx(state.coefficients)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            dejmps_recursive(3, werner(0.8), 1)
        with pytest.raises(ValueError):
            dejmps_recursive(4, werner(0.8), 3)

    def test_two_round_success_probability(self):
        # n1^2 * n2 with the per-round step from the reference simulation.
        state = werner_from_channel(0.2)
        n1, s1, _, _ = simulate_recurrence(state.coefficients, state.coefficients)
        n2, s2, _, _ = simulate_recurrence(s1, s1)
        out = dejmps_recursive(4, state, 2)
        assert out.success_probability == pytest.approx(n1 * n1 * n2, abs=1e-12)
        assert out.selected_state.fidelity == pytest.approx(s2[0], abs=1e-12)

    def test_two_round_exact_rationals(self):
        # Frozen from exact Fraction arithmetic through the recurrence map at
        # p = 1/5: per-round success 173/225 and 22285/29929, so the
        # two-round pipeline succeeds with probability 4457/10125 and ends at
        # fidelity 21029/22285.
        out = dejmps_recursive(4, werner_from_channel(0.2), 2)
        assert out.success_probability == pytest.approx(4457 / 10125, abs=1e-12)
        assert out.selected_state.fidelity == pytest.approx(21029 / 22285, abs=1e-12)
        # Claim-side bridge, both qubits transiting: 207661/625000.
        out2 = dejmps_recursive(4, werner((1 - 0.2) ** 2), 2)
        assert out2.success_probability == pytest.approx(207661 / 625000, abs=1e-12)

    @pytest.mark.parametrize("sides", ["one", "two"])
    def test_twirl_of_damped_input_is_exact(self, sides):
        # table2 projects the damped pair onto its Bell diagonal before
        # distilling. Run on the untwirled pair, the reference keeps a
        # Bell-diagonal pair after one step (it raises otherwise), and the
        # two-round tree over four pairs matches the twirled record.
        rho = transmit_bell_pair(amplitude_damping(0.3), sides)
        with pytest.raises(ValueError):
            BellDiagonalState.from_density_matrix(rho)
        record = dejmps_recursive(4, bell_projection(rho), 2)
        n1, s1, _, f1 = simulate_recurrence(rho.matrix, rho.matrix)
        n2, s2, _, f2 = simulate_recurrence(s1, s1)
        assert n1 * n1 * n2 == pytest.approx(record.success_probability, abs=1e-10)
        mixture = (1 - n1 * n1) * f1 + n1 * n1 * (1 - n2) * f2 + n1 * n1 * n2 * s2
        for weights, state in ((s2, record.selected_state), (mixture, record.global_state)):
            assert np.abs(weights - np.array(state.coefficients)).max() < 1e-10
            er = er_bell_diagonal(BellDiagonalState(weights)).value
            assert er == pytest.approx(er_bell_diagonal(state).value, abs=1e-10)

    def test_global_state_is_branch_mixture(self):
        out = dejmps_recursive(4, werner_from_channel(0.2), 2)
        mix = sum(p * s.to_density_matrix().matrix for p, s in zip(out.probabilities, out.states))
        assert np.abs(mix - out.global_state.to_density_matrix().matrix).max() < 1e-10

    def test_convexity_bound_on_global(self):
        # Global entanglement cannot exceed the branch average, hence also
        # p_s alone when every branch value is at most one bit.
        out = dejmps_recursive(4, werner_from_channel(0.2), 2)
        global_er = er_bell_diagonal(out.global_state).value
        branch_avg = sum(
            p * er_bell_diagonal(s).value for p, s in zip(out.probabilities, out.states)
        )
        assert global_er <= branch_avg + 1e-9
        assert global_er <= out.success_probability + 1e-9

    def test_placeholder_trash_variant(self):
        out = dejmps_recursive(4, werner_from_channel(0.2), 2)
        flat = out.global_with_placeholder_trash()
        p_fail = 1 - out.success_probability
        expected = out.success_probability * np.array(out.selected_state.coefficients) + p_fail / 4
        assert np.abs(np.array(flat.coefficients) - expected).max() < 1e-12

    def test_fidelity_strictly_improves_along_werner_grid(self):
        for f in np.linspace(0.55, 0.95, 9):
            state = werner(f)
            out = dejmps_branch_map(state, state)
            assert out.selected_state.fidelity > state.fidelity


class TestOutcomeInvariants:
    GOOD = BellDiagonalState((1, 0, 0, 0))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="one state per"):
            DistillationOutcome((0.5, 0.5), (self.GOOD,))

    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            DistillationOutcome((-0.5, 1.5), (self.GOOD, self.GOOD))

    def test_probabilities_not_summing_to_one_rejected(self):
        with pytest.raises(ValueError, match="sum to"):
            DistillationOutcome((0.25, 0.5), (self.GOOD, self.GOOD))


def _monte_carlo(state, run_count, seed):
    """(exact two-round table over four pairs, its Monte Carlo statistics)."""
    exact = dejmps_recursive(4, state, 2)
    indices = sample_branch_indices(exact.probabilities, seed, run_count)
    return exact, dejmps_monte_carlo(exact, indices)


class TestMonteCarlo:
    def test_deterministic_for_fixed_seed(self):
        state = werner_from_channel(0.2)
        _, a = _monte_carlo(state, 5000, 99)
        _, b = _monte_carlo(state, 5000, 99)
        assert a.success_mean == b.success_mean
        assert a.fidelity_mean == b.fidelity_mean

    @pytest.mark.parametrize("fidelity", [0.7, 0.8, 0.9])
    def test_branch_frequencies_match_exact_tree(self, fidelity):
        # Indices 0..rounds-1 are first-failure rounds, index rounds is success.
        state = werner_from_channel(1 - fidelity)
        exact = dejmps_recursive(4, state, 2)
        expected = np.array(exact.probabilities)
        assert len(expected) == 3
        count = 200_000
        freq = np.bincount(sample_branch_indices(exact.probabilities, 4321, count), minlength=3) / count
        sigma = np.sqrt(expected * (1 - expected) / count)
        assert np.all(np.abs(freq - expected) <= 5 * sigma)

    @pytest.mark.parametrize("fidelity", [0.7, 0.8, 0.9])
    def test_agrees_with_exact_tree(self, fidelity):
        state = werner_from_channel(1 - fidelity)
        assert state.fidelity == pytest.approx(fidelity, abs=1e-12)
        exact, mc = _monte_carlo(state, 10_000, 2024)
        assert abs(mc.success_mean - exact.success_probability) <= 3 * mc.success_se
        exact_fid = exact.global_state.fidelity
        assert abs(mc.fidelity_mean - exact_fid) <= 3 * mc.fidelity_se

    def test_rejects_zero_runs(self):
        with pytest.raises(ValueError):
            _monte_carlo(werner(0.8), 0, 1)


class TestRotationSearch:
    """A pre-rotation of the transmitted qubit is a local unitary on the kept
    qubit after the channel, so the unrotated damped pair that table2_pes
    reports is already the best any rotation can do."""

    @staticmethod
    def _damped(gamma, theta=0.0, phi=0.0):
        u = np.array(
            [
                [math.cos(theta / 2), -math.sin(theta / 2) * np.exp(-1j * phi)],
                [math.sin(theta / 2) * np.exp(1j * phi), math.cos(theta / 2)],
            ]
        )
        rotate_b = np.kron(np.eye(2), u)
        rotated = DensityMatrix(rotate_b @ bell_pair().matrix @ rotate_b.conj().T, (2, 2))
        return apply(amplitude_damping(gamma), rotated, target=1)

    ROTATIONS = [(math.pi / 2, 0.0), (math.pi, 2 * math.pi / 3)]

    def test_zero_damping_ties_at_first_point(self):
        plain = er_numeric(self._damped(0.0)).value
        assert plain == pytest.approx(1.0, abs=5e-3)
        for theta, phi in self.ROTATIONS:
            assert er_numeric(self._damped(0.0, theta, phi)).value == pytest.approx(plain, abs=5e-3)

    def test_full_damping_gives_zero(self):
        assert er_numeric(self._damped(1.0)).value < 1e-4
        for theta, phi in self.ROTATIONS:
            assert er_numeric(self._damped(1.0, theta, phi)).value < 1e-4

    def test_moderate_damping(self):
        plain = er_numeric(self._damped(0.3)).value
        assert 0.3 < plain < 0.7
        for theta, phi in self.ROTATIONS:
            assert er_numeric(self._damped(0.3, theta, phi)).value == pytest.approx(plain, abs=5e-3)


class TestHashingRate:
    def test_zero_noise(self):
        assert hashing_rate(0.0) == pytest.approx(1.0, abs=1e-12)

    def test_low_noise(self):
        assert hashing_rate(0.1) == pytest.approx(0.373, abs=1e-3)

    def test_claimed_operating_point_is_negative(self):
        rate = hashing_rate(0.2)
        assert rate == pytest.approx(-0.039, abs=1e-3)
        assert rate < 0

    def test_range(self):
        with pytest.raises(ValueError):
            hashing_rate(0.8)
