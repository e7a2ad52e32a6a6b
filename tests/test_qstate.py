import math

import numpy as np
import pytest

from entshape.channels import depolarizing, transmit_bell_pair
from entshape.qstate import (
    BellDiagonalState,
    DensityMatrix,
    bell_pair,
    bell_projection,
    bell_state,
    binary_entropy,
    partial_trace,
    partial_transpose,
    purity_and_mixedness,
    random_density_matrix,
    random_pure_state,
    relative_entropy,
    tensor,
    von_neumann_entropy,
    werner,
)
from ree_oracle import inverse_ree_pair


def ket_dm(vec, dims=(2,)):
    v = np.asarray(vec, dtype=complex)
    return DensityMatrix(np.outer(v, v.conj()), dims)


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.5j], [0.5j, 0.5]])
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(m, (2,))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2), (2,))

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityMatrix(m, (2,))

    def test_rejects_nan(self):
        m = np.diag([np.nan, 1.0]).astype(complex)
        with pytest.raises(ValueError, match="finite"):
            DensityMatrix(m, (2,))

    def test_dims_must_match_shape(self):
        with pytest.raises(ValueError, match="dims"):
            DensityMatrix(np.eye(4) / 4, (2,))

    def test_matrix_is_immutable(self):
        rho = DensityMatrix.maximally_mixed((2,))
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 2.0

    def test_random_states_pass_invariants(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            rho = random_density_matrix(rng, (2, 2))
            m = rho.matrix
            assert np.abs(m - m.conj().T).max() < 1e-10
            assert abs(np.trace(m).real - 1) < 1e-10
            assert np.linalg.eigvalsh(m).min() > -1e-10


class TestTensor:
    def test_pure_product(self):
        z0 = ket_dm([1, 0])
        out = tensor(z0, z0)
        expected = np.zeros((4, 4))
        expected[0, 0] = 1
        assert np.allclose(out.matrix, expected)
        assert out.dims == (2, 2)

    def test_maximally_mixed(self):
        half = DensityMatrix.maximally_mixed((2,))
        out = tensor(half, half)
        assert np.allclose(out.matrix, np.eye(4) / 4)

    def test_purity_multiplies(self):
        rho = werner(0.8).to_density_matrix()
        purity, _ = purity_and_mixedness(rho)
        joint, _ = purity_and_mixedness(tensor(rho, rho))
        assert abs(joint - purity**2) < 1e-12


class TestPartialTrace:
    def test_bell_reduction_is_mixed(self):
        reduced = partial_trace(bell_pair(), keep=[0])
        assert np.allclose(reduced.matrix, np.eye(2) / 2, atol=1e-12)

    def test_product_reduction(self):
        rho = ket_dm([1, 0, 0, 0], (2, 2))
        reduced = partial_trace(rho, keep=[0])
        assert np.allclose(reduced.matrix, np.diag([1, 0]), atol=1e-12)

    def test_werner_marginals_maximally_mixed(self):
        reduced = partial_trace(werner(0.8).to_density_matrix(), keep=[1])
        assert np.allclose(reduced.matrix, np.eye(2) / 2, atol=1e-12)

    def test_invalid_selection_rejected(self):
        with pytest.raises(ValueError):
            partial_trace(bell_pair(), keep=[2])
        with pytest.raises(ValueError):
            partial_trace(bell_pair(), keep=[])

    def test_trace_preserved(self):
        rng = np.random.default_rng(5)
        rho = random_density_matrix(rng, (2, 2, 2))
        reduced = partial_trace(rho, keep=[0, 2])
        assert abs(np.trace(reduced.matrix).real - 1) < 1e-12
        assert reduced.dims == (2, 2)


class TestPartialTranspose:
    def test_identity_fixed_point(self):
        rho = DensityMatrix.maximally_mixed((2, 2))
        assert np.allclose(partial_transpose(rho.matrix), rho.matrix)

    def test_bell_minimum_eigenvalue(self):
        vals = np.linalg.eigvalsh(partial_transpose(bell_pair().matrix))
        assert abs(vals.min() + 0.5) < 1e-12

    def test_involution(self):
        rng = np.random.default_rng(3)
        rho = random_density_matrix(rng, (2, 2))
        twice = partial_transpose(partial_transpose(rho.matrix))
        assert np.abs(twice - rho.matrix).max() < 1e-12

    def test_channel_werner_crossing_at_half(self):
        # Bisection on the minimal PT eigenvalue of the channel-output family:
        # the Bell weight (1 - p) crosses 1/2 at p = 1/2.
        def min_eig(p):
            rho = BellDiagonalState((1 - p, p / 3, p / 3, p / 3)).to_density_matrix()
            return np.linalg.eigvalsh(partial_transpose(rho.matrix)).min()

        lo, hi = 0.0, 0.75
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if min_eig(mid) < 0:
                lo = mid
            else:
                hi = mid
        assert abs(0.5 * (lo + hi) - 0.5) < 1e-9

    def test_mixture_werner_crossing_at_third(self):
        # The F-mixture family turns PPT at the classic F = 1/3 instead.
        def min_eig(f):
            rho = werner(f).to_density_matrix()
            return np.linalg.eigvalsh(partial_transpose(rho.matrix)).min()

        lo, hi = 1.0, 0.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if min_eig(mid) < 0:
                lo = mid
            else:
                hi = mid
        assert abs(0.5 * (lo + hi) - 1 / 3) < 1e-9

    def test_one_side_suffices(self):
        # Transposing qubit A gives the full transpose of the B-side result,
        # so the two spectra agree and the PPT test needs only one side.
        rng = np.random.default_rng(13)
        mats = [random_density_matrix(rng, (2, 2), rank=r).matrix for r in (1, 2, 4) for _ in range(8)]
        pairs = [inverse_ree_pair(np.random.default_rng(seed), 4, 0.5) for seed in range(12)]
        pairs = [pair for pair in pairs if pair is not None]
        assert len(pairs) >= 3
        mats += [state.matrix for pair in pairs for state in pair]
        for m in mats:
            a_side = m.reshape(2, 2, 2, 2).transpose(2, 1, 0, 3).reshape(4, 4)
            gap = np.linalg.eigvalsh(partial_transpose(m)) - np.linalg.eigvalsh(a_side)
            assert np.abs(gap).max() < 1e-12

    def test_rejects_larger_systems(self):
        rng = np.random.default_rng(1)
        rho = random_density_matrix(rng, (2, 2, 2))
        with pytest.raises(ValueError):
            partial_transpose(rho.matrix)


class TestEntropies:
    def test_pure_state_zero(self):
        assert von_neumann_entropy(ket_dm([1, 0])) == 0.0

    def test_maximally_mixed_one_bit(self):
        assert abs(von_neumann_entropy(DensityMatrix.maximally_mixed((2,))) - 1.0) < 1e-12

    def test_channel_werner_spectrum(self):
        # Spectrum (0.83, 0.17/3 x3); compare against a direct entropy sum.
        rho = BellDiagonalState((0.83, 0.17 / 3, 0.17 / 3, 0.17 / 3)).to_density_matrix()
        spectrum = [0.83] + [0.17 / 3] * 3
        expected = -sum(x * math.log2(x) for x in spectrum)
        assert abs(von_neumann_entropy(rho) - expected) < 1e-12

    def test_mixture_werner_spectrum(self):
        rho = werner(0.83).to_density_matrix()
        spectrum = [(1 + 3 * 0.83) / 4] + [(1 - 0.83) / 4] * 3
        expected = -sum(x * math.log2(x) for x in spectrum)
        assert abs(von_neumann_entropy(rho) - expected) < 1e-12

    def test_additive_under_tensor(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            a = random_density_matrix(rng, (2,))
            b = random_density_matrix(rng, (2, 2))
            total = von_neumann_entropy(tensor(a, b))
            assert abs(total - von_neumann_entropy(a) - von_neumann_entropy(b)) < 1e-9


class TestRelativeEntropy:
    def test_self_is_zero(self):
        rng = np.random.default_rng(2)
        rho = random_density_matrix(rng, (2, 2))
        assert abs(relative_entropy(rho, rho)) < 1e-10

    def test_bell_vs_maximally_mixed(self):
        value = relative_entropy(bell_pair(), DensityMatrix.maximally_mixed((2, 2)))
        assert abs(value - 2.0) < 1e-12

    def test_disjoint_support_is_infinite(self):
        assert relative_entropy(ket_dm([1, 0]), ket_dm([0, 1])) == math.inf

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            relative_entropy(ket_dm([1, 0]), bell_pair())

    def test_klein_inequality(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            rho = random_density_matrix(rng, (2, 2))
            sigma = random_density_matrix(rng, (2, 2))
            value = relative_entropy(rho, sigma)
            assert value >= -1e-10
            if np.abs(rho.matrix - sigma.matrix).max() < 1e-9:
                assert value < 1e-9

    def test_data_processing_under_depolarizing(self):
        from entshape.channels import apply, depolarizing

        rng = np.random.default_rng(23)
        for p in (0.1, 0.2, 0.3):
            channel = depolarizing(p)
            for _ in range(20):
                rho = random_density_matrix(rng, (2,))
                sigma = random_density_matrix(rng, (2,))
                before = relative_entropy(rho, sigma)
                after = relative_entropy(apply(channel, rho), apply(channel, sigma))
                assert after <= before + 1e-9


class TestPurityMixedness:
    def test_pure(self):
        assert purity_and_mixedness(bell_pair()) == pytest.approx((1.0, 0.0), abs=1e-12)

    def test_maximally_mixed(self):
        purity, mixed = purity_and_mixedness(DensityMatrix.maximally_mixed((2, 2)))
        assert purity == pytest.approx(0.25, abs=1e-12)
        assert mixed == pytest.approx(1.0, abs=1e-12)

    def test_mixture_werner_closed_form(self):
        purity, mixed = purity_and_mixedness(werner(0.8).to_density_matrix())
        assert purity == pytest.approx((1 + 3 * 0.8**2) / 4, abs=1e-12)
        assert mixed == pytest.approx(1 - 0.8**2, abs=1e-12)


class TestBinaryEntropy:
    def test_half_is_one(self):
        assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)

    def test_endpoints_are_zero(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_claimed_value_is_wrong(self):
        # Direct evaluation; the 0.456 figure circulating for this argument
        # is off by ~0.036.
        assert binary_entropy(0.915) == pytest.approx(0.4196, abs=1e-4)
        assert abs(binary_entropy(0.915) - 0.456) > 0.03

    def test_rejects_outside_unit_interval(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.01)
        with pytest.raises(ValueError):
            binary_entropy(1.01)


class TestBellDiagonal:
    def test_roundtrip(self):
        state = BellDiagonalState((0.6, 0.2, 0.15, 0.05))
        back = BellDiagonalState.from_density_matrix(state.to_density_matrix())
        assert np.abs(np.array(back.coefficients) - state.coefficients).max() < 1e-10

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum"):
            BellDiagonalState((0.5, 0.5, 0.5, 0.5))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_weights(self, bad):
        with pytest.raises(ValueError, match="finite"):
            BellDiagonalState((bad, 0.5, 0.25, 0.25))

    def test_rejects_non_diagonal_states(self):
        rho = ket_dm([1, 0, 0, 0], (2, 2))
        with pytest.raises(ValueError, match="Bell-diagonal"):
            BellDiagonalState.from_density_matrix(rho)

    def test_projection_keeps_weights(self):
        rho = ket_dm([1, 0, 0, 0], (2, 2))  # |00><00| has weight 1/2 on each phi state
        bd = bell_projection(rho)
        assert bd.coefficients[0] == pytest.approx(0.5, abs=1e-12)
        assert bd.coefficients[3] == pytest.approx(0.5, abs=1e-12)

    def test_werner_parameterizations_differ(self):
        # The two conventions agree only at p = 0: fidelity 1 - p from the
        # channel vs (1 + 3F)/4 from the mixture at F = 1 - p.
        p = 0.2
        channel = bell_projection(transmit_bell_pair(depolarizing(p)))
        assert channel.fidelity == pytest.approx(0.8, abs=1e-12)
        assert werner(1 - p).fidelity == pytest.approx(0.85, abs=1e-12)
        assert werner(1 - 4 * p / 3).coefficients == pytest.approx(channel.coefficients, abs=1e-12)

    def test_bell_fidelity_helper(self):
        assert bell_projection(bell_pair()).fidelity == pytest.approx(1.0, abs=1e-12)
        assert bell_projection(transmit_bell_pair(depolarizing(0.2))).fidelity == pytest.approx(0.8, abs=1e-12)


def test_bell_states_orthonormal():
    overlaps = np.array(
        [[np.vdot(bell_state(i), bell_state(j)) for j in range(4)] for i in range(4)]
    )
    assert np.abs(overlaps - np.eye(4)).max() < 1e-12


def test_random_pure_state_normalized():
    rng = np.random.default_rng(0)
    for _ in range(5):
        psi = random_pure_state(rng, 4)
        assert abs(np.linalg.norm(psi) - 1) < 1e-12
