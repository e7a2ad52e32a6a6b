import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entshape.channels import (
    QuantumChannel,
    amplitude_damping,
    apply,
    dd_compression,
    dd_effective_pulse_average,
    depolarizing,
    eb_threshold_depolarizing,
    pauli_twirl,
    transmit_bell_pair,
)
from entshape.qstate import (
    BellDiagonalState,
    DensityMatrix,
    bell_pair,
    bell_projection,
    werner,
)
from helpers import compose, identity_channel, is_entanglement_breaking, partial_trace, random_density_matrix


def completeness_defect(channel):
    d = channel.dim
    total = sum(k.conj().T @ k for k in channel.kraus_ops)
    return np.abs(total - np.eye(d)).max()


class TestConstructors:
    def test_depolarizing_completeness(self):
        for p in np.linspace(0, 0.75, 7):
            assert completeness_defect(depolarizing(p)) < 1e-10

    def test_depolarizing_range(self):
        with pytest.raises(ValueError):
            depolarizing(-0.01)
        with pytest.raises(ValueError):
            depolarizing(0.76)

    def test_amplitude_damping_completeness(self):
        for g in np.linspace(0, 1, 6):
            assert completeness_defect(amplitude_damping(g)) < 1e-10

    def test_amplitude_damping_range(self):
        with pytest.raises(ValueError):
            amplitude_damping(1.5)

    def test_rejects_incomplete_kraus(self):
        with pytest.raises(ValueError, match="completeness"):
            QuantumChannel([np.eye(2) * 0.5])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            QuantumChannel([])


class TestApply:
    def test_identity_preserves(self):
        rng = np.random.default_rng(4)
        rho = random_density_matrix(rng, (2,))
        out = apply(identity_channel(), rho)
        assert np.abs(out.matrix - rho.matrix).max() < 1e-12

    def test_zero_noise_preserves(self):
        rho = bell_pair()
        out = apply(depolarizing(0.0), rho, target=1)
        assert np.abs(out.matrix - rho.matrix).max() < 1e-12

    def test_full_depolarizing_flattens(self):
        rng = np.random.default_rng(8)
        rho = random_density_matrix(rng, (2,))
        out = apply(depolarizing(0.75), rho)
        assert np.abs(out.matrix - np.eye(2) / 2).max() < 1e-10

    def test_bell_weights_after_depolarizing(self):
        out = apply(depolarizing(0.2), bell_pair(), target=1)
        bd = BellDiagonalState.from_density_matrix(out)
        assert bd.coefficients == pytest.approx((0.8, 0.2 / 3, 0.2 / 3, 0.2 / 3), abs=1e-12)

    def test_full_damping_decays(self):
        rng = np.random.default_rng(6)
        rho = random_density_matrix(rng, (2,))
        out = apply(amplitude_damping(1.0), rho)
        assert np.abs(out.matrix - np.diag([1, 0])).max() < 1e-12

    def test_damped_bell_fidelity(self):
        # Overlap with the target after damping one side: (1 + sqrt(1-g))^2 / 4.
        g = 0.3
        out = apply(amplitude_damping(g), bell_pair(), target=1)
        expected = (1 + math.sqrt(1 - g)) ** 2 / 4
        assert bell_projection(out).fidelity == pytest.approx(expected, abs=1e-12)

    def test_trace_and_psd_preserved(self):
        rng = np.random.default_rng(14)
        channels = [depolarizing(0.3), amplitude_damping(0.4), pauli_twirl(amplitude_damping(0.2))]
        for _ in range(34):
            rho = random_density_matrix(rng, (2, 2))
            for ch in channels:
                out = apply(ch, rho, target=rng.integers(0, 2))
                assert abs(np.trace(out.matrix).real - 1) < 1e-10
                assert np.linalg.eigvalsh(out.matrix).min() > -1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply(depolarizing(0.1), bell_pair(), target=2)

    def test_matches_kron_embedding(self):
        # Reference definition: sum_i E(K_i) rho E(K_i)^dag, where E(K) puts K
        # on the target in a Kronecker product with identities elsewhere.
        def embedded(channel, rho, target):
            out = np.zeros_like(rho.matrix)
            for k in channel.kraus_ops:
                big = reduce(np.kron, [k if i == target else np.eye(d) for i, d in enumerate(rho.dims)])
                out += big @ rho.matrix @ big.conj().T
            return out

        rng = np.random.default_rng(96)
        for dims in [(2, 2), (2, 2, 2), (2, 3)]:
            for _ in range(8):
                rho = random_density_matrix(rng, dims)
                strength = float(rng.uniform(0, 1))
                channels = [
                    depolarizing(0.75 * strength),
                    amplitude_damping(strength),
                    pauli_twirl(amplitude_damping(strength)),
                    dd_effective_pulse_average(amplitude_damping(strength)),
                ]
                for target in (i for i, d in enumerate(dims) if d == 2):
                    for channel in channels:
                        out = apply(channel, rho, target=target)
                        assert out.dims == rho.dims
                        assert np.abs(out.matrix - embedded(channel, rho, target)).max() <= 1e-15

    def test_pre_rotation_is_local_unitary_on_kept_qubit(self):
        # (I x U)|Phi+> = (U^T x I)|Phi+>, and the channel acts only on B, so
        # rotating the transmitted qubit first equals a unitary on A after
        # the channel: a pre-rotation cannot change the output entanglement.
        for theta, phi, gamma in [(0.0, 0.0, 0.3), (0.7, 1.9, 0.3), (2.1, 4.4, 0.5), (math.pi, 0.3, 0.9)]:
            u = np.array(
                [
                    [math.cos(theta / 2), -math.sin(theta / 2) * np.exp(-1j * phi)],
                    [math.sin(theta / 2) * np.exp(1j * phi), math.cos(theta / 2)],
                ]
            )
            rotate_b = np.kron(np.eye(2), u)
            rotated = DensityMatrix(rotate_b @ bell_pair().matrix @ rotate_b.conj().T, (2, 2))
            out = apply(amplitude_damping(gamma), rotated, target=1)
            unrotated = apply(amplitude_damping(gamma), bell_pair(), target=1)
            rotate_a = np.kron(u.T, np.eye(2))
            expected = rotate_a @ unrotated.matrix @ rotate_a.conj().T
            assert np.abs(out.matrix - expected).max() < 1e-12


class TestChoiAndEB:
    def test_choi_identity_is_bell(self):
        c = transmit_bell_pair(identity_channel())
        assert np.abs(c.matrix - bell_pair().matrix).max() < 1e-12

    def test_choi_full_depolarizing_flat_spectrum(self):
        vals = np.linalg.eigvalsh(transmit_bell_pair(depolarizing(0.75)).matrix)
        assert np.abs(vals - 0.25).max() < 1e-10

    def test_choi_damping_valid_state(self):
        c = transmit_bell_pair(amplitude_damping(0.3))
        assert abs(np.trace(c.matrix).real - 1) < 1e-10
        assert np.linalg.eigvalsh(c.matrix).min() > -1e-10

    def test_choi_depolarizing_bell_diagonal(self):
        for p in np.linspace(0, 0.75, 7):
            c = transmit_bell_pair(depolarizing(p))
            rebuilt = bell_projection(c).to_density_matrix()
            assert np.abs(rebuilt.matrix - c.matrix).max() < 1e-10

    def test_identity_not_breaking(self):
        assert not is_entanglement_breaking(identity_channel())

    def test_weak_depolarizing_not_breaking(self):
        assert not is_entanglement_breaking(depolarizing(0.1))

    def test_non_qubit_channel_rejected(self):
        # apply rejects a channel whose dimension does not match qubit B.
        with pytest.raises(ValueError):
            transmit_bell_pair(identity_channel(3))
        with pytest.raises(ValueError):
            is_entanglement_breaking(identity_channel(3))

    def test_breaking_threshold_is_half(self):
        # The claimed non-breaking domain extends to 3/4; the PT criterion
        # on the Choi state puts the threshold at 1/2.
        assert eb_threshold_depolarizing() == 0.5
        assert is_entanglement_breaking(depolarizing(0.55))
        assert not is_entanglement_breaking(depolarizing(0.45))


class TestCompose:
    def test_two_depolarizing_uses(self):
        once = apply(depolarizing(0.2), bell_pair(), target=1)
        twice = apply(depolarizing(0.2), once, target=1)
        composed = apply(compose(depolarizing(0.2), depolarizing(0.2)), bell_pair(), target=1)
        assert np.abs(twice.matrix - composed.matrix).max() < 1e-12

    def test_damping_semigroup(self):
        g1, g2 = 0.3, 0.4
        combined = compose(amplitude_damping(g2), amplitude_damping(g1))
        direct = amplitude_damping(1 - (1 - g1) * (1 - g2))
        rng = np.random.default_rng(21)
        for _ in range(5):
            rho = random_density_matrix(rng, (2,))
            a = apply(combined, rho)
            b = apply(direct, rho)
            assert np.abs(a.matrix - b.matrix).max() < 1e-12

    def test_damping_composition_on_choi_states(self):
        # AD(a) o AD(b) = AD(1 - (1-a)(1-b)) on the damped Bell pair, so m
        # equal slices of a time-sliced path end at one-shot damping.
        for a, b in [(0.1, 0.2), (0.3, 0.4), (0.5, 0.5), (0.9, 0.05)]:
            composed = transmit_bell_pair(compose(amplitude_damping(a), amplitude_damping(b)))
            direct = transmit_bell_pair(amplitude_damping(1 - (1 - a) * (1 - b)))
            assert np.abs(composed.matrix - direct.matrix).max() < 1e-12
        gamma, slices = 0.5, 64
        step = amplitude_damping(1 - (1 - gamma) ** (1 / slices))
        sliced = bell_pair()
        for _ in range(slices):
            sliced = apply(step, sliced, target=1)
        assert np.abs(sliced.matrix - transmit_bell_pair(amplitude_damping(gamma)).matrix).max() < 1e-12


class TestDDConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            dd_compression(1.0, 0)
        with pytest.raises(ValueError):
            dd_compression(-1, 10.0)

    def test_compression_factor(self):
        assert dd_compression(math.log(0.2 / 0.17), 1.0) == pytest.approx(0.85, abs=1e-12)


class TestParametricCompression:
    def test_no_noise_keeps_parameter(self):
        assert 0.2 * dd_compression(0.0, 10.0) == pytest.approx(0.2, abs=1e-15)

    def test_reaches_claimed_effective_parameter(self):
        assert 0.2 * dd_compression(math.log(0.2 / 0.17), 1.0) == pytest.approx(0.17, abs=1e-12)

    def test_high_frequency_limit_is_raw_parameter(self):
        # The compression formula tends to 1 as the frequency grows, so the
        # effective parameter tends to p, not to 0.
        assert 0.2 * dd_compression(1.0, 1e12) == pytest.approx(0.2, rel=1e-9)

    def test_monotonicity(self):
        previous = 1.0
        for density in np.linspace(0, 3, 10):
            param = 0.3 * dd_compression(float(density), 5.0)
            assert param <= previous + 1e-15
            previous = param
        previous = 0.0
        for freq in np.linspace(0.5, 20, 10):
            param = 0.3 * dd_compression(1.0, float(freq))
            assert param >= previous - 1e-15
            previous = param


class TestTransmitBellPair:
    def test_two_sided_geometry(self):
        out = transmit_bell_pair(depolarizing(0.2), sides="two")
        w = (1 - 4 * 0.2 / 3) ** 2
        expected = werner((4 * ((1 + 3 * w) / 4) - 1) / 3)
        assert np.abs(out.matrix - expected.to_density_matrix().matrix).max() < 1e-10

    def test_invalid_sides(self):
        with pytest.raises(ValueError):
            transmit_bell_pair(depolarizing(0.2), sides="three")


channel_families = st.one_of(
    st.floats(0.0, 0.75).map(depolarizing),
    st.floats(0.0, 1.0).map(amplitude_damping),
)


@given(base=channel_families)
@settings(max_examples=60, deadline=None)
def test_every_constructor_is_cptp(base):
    # A valid Choi state is complete positivity; its input marginal I/2 is
    # trace preservation. Both transforms must keep both.
    for channel in (base, pauli_twirl(base), dd_effective_pulse_average(base)):
        c = DensityMatrix(transmit_bell_pair(channel).matrix, (2, 2))
        marginal = partial_trace(c, [0]).matrix
        assert np.abs(marginal - np.eye(2) / 2).max() < 1e-12


class TestPulseAverage:
    def test_matches_brute_force_average(self):
        from entshape.qstate import PAULIS

        averaged = dd_effective_pulse_average(amplitude_damping(0.3))
        rng = np.random.default_rng(32)
        for _ in range(5):
            rho = random_density_matrix(rng, (2,))
            out = apply(averaged, rho)
            acc = np.zeros((2, 2), dtype=complex)
            for pulse in PAULIS:
                conj = DensityMatrix(pulse @ rho.matrix @ pulse.conj().T, (2,))
                acc += apply(amplitude_damping(0.3), conj).matrix / 4
            assert np.abs(out.matrix - acc).max() < 1e-12

    def test_full_pulse_set_erases_rather_than_compresses(self):
        # The as-displayed average (no un-rotation) sends everything through
        # the fully Pauli-randomized input, so its output carries no
        # dependence on the input state: it cannot equal a compressed
        # depolarizing channel.
        averaged = dd_effective_pulse_average(depolarizing(0.2))
        rng = np.random.default_rng(33)
        outs = []
        for _ in range(3):
            rho = random_density_matrix(rng, (2,))
            outs.append(apply(averaged, rho).matrix)
        assert np.abs(outs[0] - np.eye(2) / 2).max() < 1e-12
        assert np.abs(outs[1] - outs[2]).max() < 1e-12

    def test_twirl_leaves_depolarizing_unchanged(self):
        twirled = pauli_twirl(depolarizing(0.3))
        rng = np.random.default_rng(34)
        for _ in range(5):
            rho = random_density_matrix(rng, (2,))
            a = apply(twirled, rho)
            b = apply(depolarizing(0.3), rho)
            assert np.abs(a.matrix - b.matrix).max() < 1e-11

    def test_twirled_choi_is_bell_diagonal(self):
        for channel in (amplitude_damping(0.3), depolarizing(0.2)):
            c = transmit_bell_pair(pauli_twirl(channel))
            rebuilt = bell_projection(c).to_density_matrix()
            assert np.abs(rebuilt.matrix - c.matrix).max() < 1e-10

    def test_displayed_average_choi_not_bell_diagonal_for_damping(self):
        c = transmit_bell_pair(dd_effective_pulse_average(amplitude_damping(0.3)))
        rebuilt = bell_projection(c).to_density_matrix()
        assert np.abs(rebuilt.matrix - c.matrix).max() > 1e-3

    def test_non_qubit_channel_rejected(self):
        with pytest.raises(ValueError):
            dd_effective_pulse_average(identity_channel(3))
