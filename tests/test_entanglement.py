import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from entshape import entanglement, ree, ree_general
from entshape.channels import amplitude_damping, apply, depolarizing, transmit_bell_pair
from entshape.entanglement import (
    CERTIFIED_GAP,
    SeparableAnsatz,
    er_bell_diagonal,
    er_bell_fidelity,
    er_numeric,
    er_vedral_plenio,
    negativity,
)
from entshape.qstate import (
    BellDiagonalState,
    DensityMatrix,
    bell_pair,
    binary_entropy,
    partial_transpose,
    relative_entropy,
    werner,
)
from entshape.ree_general import _er_ppt_barrier
from helpers import (
    assemble_by_kron,
    bell_state,
    er_pure,
    maximally_mixed,
    random_density_matrix,
    random_pure_state,
    x_objective_array_form,
)
from ree_oracle import inverse_ree_pair


def random_product_unitary(rng):
    def haar2():
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, r = np.linalg.qr(z)
        return q * (np.diag(r) / np.abs(np.diag(r)))

    return np.kron(haar2(), haar2())


class TestPureStates:
    def test_bell_is_one(self):
        assert er_pure(bell_state()).value == pytest.approx(1.0, abs=1e-12)

    def test_product_is_zero(self):
        assert er_pure([1, 0, 0, 0]).value == pytest.approx(0.0, abs=1e-12)

    def test_partial_entanglement(self):
        psi = [math.sqrt(0.9), 0, 0, math.sqrt(0.1)]
        assert er_pure(psi).value == pytest.approx(binary_entropy(0.1), abs=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            er_pure([1, 1, 0, 0])


class TestBellDiagonalClosedForm:
    def test_bell_state(self):
        assert er_bell_diagonal(BellDiagonalState((1, 0, 0, 0))).value == pytest.approx(1.0)

    def test_separable_werner_regime(self):
        assert er_bell_diagonal(werner(1 / 3)).value == 0.0
        assert er_bell_diagonal(BellDiagonalState((0.5, 1 / 6, 1 / 6, 1 / 6))).value == 0.0

    def test_fidelity_convention_value(self):
        # Bell weight 0.83: 1 - H2(0.83); the 0.544 figure needs the
        # (1+F)/2 argument AND the wrong H2 arithmetic.
        state = BellDiagonalState((0.83, 0.17 / 3, 0.17 / 3, 0.17 / 3))
        assert er_bell_diagonal(state).value == pytest.approx(1 - binary_entropy(0.83), abs=1e-12)

    def test_fidelity_form_bridge(self):
        assert er_bell_fidelity(0.83) == pytest.approx(0.5804, abs=1e-4)
        assert er_bell_fidelity(1.0) == pytest.approx(1.0, abs=1e-12)
        assert er_bell_fidelity(0.4) == 0.0

    def test_certificate_reproduces_value(self):
        for coeffs in [(0.83, 0.1, 0.05, 0.02), (0.6, 0.4, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0)]:
            state = BellDiagonalState(coeffs)
            res = er_bell_diagonal(state)
            if res.certificate is None:
                continue
            sigma = res.certificate.assemble()
            assert relative_entropy(state.to_density_matrix(), sigma) == pytest.approx(
                res.value, abs=1e-9
            )

    def test_certificate_is_ppt(self):
        res = er_bell_diagonal(werner(0.9))
        sigma = res.certificate.assemble()
        assert np.linalg.eigvalsh(partial_transpose(sigma.matrix)).min() > -1e-10


class TestNegativity:
    def test_maximally_mixed_zero(self):
        assert negativity(maximally_mixed((2, 2))) == 0.0

    def test_bell_half(self):
        assert negativity(bell_pair()) == pytest.approx(0.5, abs=1e-12)

    def test_rejects_non_pair(self):
        # A 4x4 state that is not a qubit pair has no partial transpose.
        with pytest.raises(ValueError):
            negativity(maximally_mixed((4,)))

    def test_mixture_werner_sweep(self):
        # PT eigenvalue oracle: for the F-mixture family the negative part is
        # (3F - 1)/4 past the separability point.
        for f in np.linspace(0.0, 1.0, 11):
            value = negativity(werner(f).to_density_matrix())
            assert value == pytest.approx(max(0.0, (3 * f - 1) / 4), abs=1e-12)

    def test_channel_werner_sweep(self):
        for p in np.linspace(0.0, 0.75, 11):
            value = negativity(transmit_bell_pair(depolarizing(p)))
            assert value == pytest.approx(max(0.0, 0.5 - p), abs=1e-12)


class TestNumericSolver:
    def test_separable_product_reaches_zero(self):
        rho = DensityMatrix.from_state_vector(np.kron([1, 0], [0, 1]), (2, 2))
        res = er_numeric(rho)
        assert res.value < 1e-4

    def test_bell_pair(self):
        res = er_numeric(bell_pair())
        assert res.value == pytest.approx(1.0, abs=5e-3)

    def test_matches_closed_form_on_mixture_werner(self):
        res = er_numeric(werner(0.83).to_density_matrix())
        assert res.value == pytest.approx(er_bell_diagonal(werner(0.83)).value, abs=5e-3)

    def test_certificate_consistency(self):
        rho = random_density_matrix(np.random.default_rng(19), (2, 2))
        res = er_numeric(rho)
        sigma = res.certificate.assemble()
        assert relative_entropy(rho, sigma) == pytest.approx(res.value, abs=1e-9)

    def test_certificate_is_separable(self):
        rho = random_density_matrix(np.random.default_rng(20), (2, 2))
        res = er_numeric(rho)
        sigma = res.certificate.assemble()
        assert np.linalg.eigvalsh(partial_transpose(sigma.matrix)).min() > -1e-10

    def test_deterministic(self):
        rho = random_density_matrix(np.random.default_rng(29), (2, 2))
        a = er_numeric(rho)
        b = er_numeric(rho)
        assert a.value == b.value and a.iterations == b.iterations

    def test_non_convergence_is_flagged(self, monkeypatch):
        rho = random_density_matrix(np.random.default_rng(51), (2, 2))
        monkeypatch.setattr(ree_general, "_PPT_MAX_STEPS", 3)
        res = er_numeric(rho)
        assert not res.converged
        assert res.iterations == 3
        check_general_result(rho, res)

    def test_rejects_larger_systems(self):
        rho = random_density_matrix(np.random.default_rng(1), (2, 2, 2))
        with pytest.raises(ValueError):
            er_numeric(rho)

    def test_zero_iff_ppt(self):
        # Away from the separability boundary the numeric bound separates
        # cleanly: PPT states land at numerical zero, states with visible
        # negativity land well above it.
        rng = np.random.default_rng(37)
        checked_sep = checked_ent = 0
        for _ in range(50):
            rho = random_density_matrix(rng, (2, 2))
            neg = negativity(rho)
            if neg < 1e-12:
                checked_sep += 1
                assert er_numeric(rho).value < 2e-3
            elif neg > 0.02:
                checked_ent += 1
                assert er_numeric(rho).value > 1e-3
        assert checked_sep >= 10 and checked_ent >= 10


def damped_pair(gamma, gamma_a=0.0, bell=0):
    rho = apply(amplitude_damping(gamma), bell_pair(bell), target=1)
    return apply(amplitude_damping(gamma_a), rho, target=0) if gamma_a else rho


def x_state(pops, coherence):
    m = np.diag(np.asarray(pops, dtype=float)).astype(complex)
    m[0, 3], m[3, 0] = coherence, np.conj(coherence)
    return DensityMatrix(m, (2, 2))


def _x_cases():
    cases = {f"one_sided_{g}": damped_pair(g) for g in (0.1, 0.3, 0.6)}
    cases.update({f"two_sided_{g}": damped_pair(g, g) for g in (0.1, 0.3, 0.6)})
    cases["werner_0.83"] = werner(0.83).to_density_matrix()
    m = damped_pair(0.3).matrix
    cases["dephased_damped_0.3"] = x_state(np.diag(m).real, 0.6 * m[0, 3])
    cases["complex_phase_0.3"] = x_state(np.diag(m).real, m[0, 3] * np.exp(1.1j))
    return cases


X_CASES = _x_cases()


def check_x_result(rho, res):
    """The X-path interval is ordered and its certificate is separable and exact."""
    assert res.lower is not None and 0.0 <= res.lower <= res.value
    assert len(res.certificate.weights) <= 5
    sigma = res.certificate.assemble()
    assert np.linalg.eigvalsh(partial_transpose(sigma.matrix)).min() >= -1e-10
    assert relative_entropy(rho, sigma) == pytest.approx(res.value, abs=1e-9)


class TestXStatePath:
    @pytest.mark.parametrize("name", sorted(X_CASES))
    def test_not_above_general_solver(self, name):
        rho = X_CASES[name]
        x, general = er_numeric(rho), _er_ppt_barrier(rho)
        assert x.lower <= general.value + CERTIFIED_GAP
        assert general.lower <= x.value + CERTIFIED_GAP

    @pytest.mark.parametrize("name", sorted(X_CASES))
    def test_certified_interval(self, name):
        rho = X_CASES[name]
        res = er_numeric(rho)
        check_x_result(rho, res)
        assert res.converged and res.value - res.lower <= 1e-9

    def test_werner_interval_holds_closed_form(self):
        res = er_numeric(X_CASES["werner_0.83"])
        closed = er_bell_diagonal(werner(0.83)).value
        assert res.lower - 1e-9 <= closed <= res.value + 1e-9

    def test_phase_does_not_change_value(self):
        a = er_numeric(damped_pair(0.3)).value
        assert er_numeric(X_CASES["complex_phase_0.3"]).value == pytest.approx(a, abs=1e-12)

    def test_edge_cases_without_division_by_zero(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert er_numeric(damped_pair(0.0)).value == pytest.approx(1.0, abs=1e-12)
            # Subnormal flank populations: the certificate's flank rounds to 0.
            pops = np.array([1, 0.5, 5e-324, 5e-324]) / 1.5
            zero = [
                damped_pair(1.0),
                DensityMatrix.from_state_vector(np.kron([1, 0], [0, 1]), (2, 2)),
                werner(1 / 3).to_density_matrix(),
                x_state(pops, math.sqrt(pops[0] * pops[3])),
            ]
            for rho in zero:
                res = er_numeric(rho)
                assert res.value < 1e-12 and res.converged
                check_x_result(rho, res)

    def test_general_path_is_the_frank_wolfe_solver(self):
        rho = random_density_matrix(np.random.default_rng(19), (2, 2))
        a, b = er_numeric(rho), _er_ppt_barrier(rho)
        assert (a.value, a.iterations, a.converged, a.lower) == (b.value, b.iterations, b.converged, b.lower)
        assert a.certificate.weights == b.certificate.weights
        assert a.converged and len(a.certificate.weights) <= 4

    def test_uncertified_x_state_falls_back_to_general_path(self):
        # A flank population of 1e-13 stalls the reduced Newton steps short
        # of a certified interval; the REE is 1 - H2(0.65).
        rho = x_state([0.5, 1e-13, 0.0, 0.5], 0.15)
        res = er_numeric(rho)
        assert res.converged
        assert res.lower - CERTIFIED_GAP <= 1 - binary_entropy(0.65) <= res.value + CERTIFIED_GAP
        check_general_result(rho, res)

    def test_near_x_states_are_twirled_in_their_own_frame(self, monkeypatch):
        # Rounding-level entries outside the X pattern are twirled away on the
        # input matrix, so the interval stays as tight as on the exact X state.
        def plus(rho, i, j, eps):
            m = rho.matrix.copy()
            m[i, j] += eps
            m[j, i] += eps
            return DensityMatrix(m, (2, 2))

        ry = np.array([[math.cos(math.pi), -math.sin(math.pi)], [math.sin(math.pi), math.cos(math.pi)]])
        u = np.kron(ry, np.eye(2))  # R_y(2 pi) on A: -I up to 1.2e-16
        rotated = DensityMatrix(u @ bell_pair(0).matrix @ u.T, (2, 2))
        damped = apply(amplitude_damping(1e-3), apply(amplitude_damping(1e-3), rotated, target=1), target=0)
        monkeypatch.setattr(ree_general, "_er_ppt_barrier", no_general_path)
        cases = [
            (plus(damped_pair(1e-9), 1, 2, 1e-16), er_numeric(damped_pair(1e-9)).value),
            (plus(bell_pair(0), 0, 1, 1e-13), 1.0),
            (damped, er_numeric(damped_pair(1e-3, 1e-3)).value),
        ]
        for rho, exact in cases:
            assert 0 < np.abs(rho.matrix[~ree._X_PATTERN]).max() <= ree.X_STATE_TOL
            res = er_numeric(rho)
            check_x_result(rho, res)
            assert res.converged and res.value - res.lower <= 1e-12
            assert abs(res.value - exact) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(
    pops=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4).filter(lambda p: sum(p) > 1e-3),
    fraction=st.floats(0.0, 1.0),
    phase=st.floats(0.0, 2 * math.pi),
    residue=st.just(0.0) | st.floats(0.0, 1e-13),
    direction=st.lists(st.complex_numbers(max_magnitude=1.0), min_size=5, max_size=5),
)
def test_random_x_states_give_ordered_certified_intervals(pops, fraction, phase, residue, direction):
    p = np.array(pops) / sum(pops)
    rho = x_state(p, fraction * math.sqrt(p[0] * p[3]) * np.exp(1j * phase))
    # A Hermitian residue on the entries outside the X pattern, at most 1e-13 each.
    e = np.zeros((4, 4), dtype=complex)
    e[[0, 0, 1, 1, 2], [1, 2, 2, 3, 3]] = residue * np.array(direction)
    rho = DensityMatrix(rho.matrix + e + e.conj().T, (2, 2))
    res = er_numeric(rho)
    check_x_result(rho, res)
    assert res.converged


def float_bits(x):
    """float.hex of every entry of nested lists or tuples of Python floats; None for anything else."""
    if isinstance(x, (list, tuple)):
        return [float_bits(e) for e in x]
    return x.hex() if type(x) is float else None


def same_bits(got, want):
    """Plain floats equal to an array's tolist() to the last bit, signs of zero included; None only against None."""
    if got is None or want is None:
        return got is want
    return want.dtype == np.float64 and float_bits(got) == float_bits(want.tolist())


LOG_EIGENVALUE = st.floats(-40.0, 5.0) | st.floats(-800.0, 60.0)
POPULATION = st.floats(0.0, 1.0) | st.sampled_from([0.0, 5e-324, 1e-310, 1e-160, 1e-16])


@settings(max_examples=300, deadline=None)
@given(
    v=st.tuples(LOG_EIGENVALUE, LOG_EIGENVALUE, st.floats(-4.0, 4.0) | st.floats(-1e-300, 1e-300)),
    pops=st.lists(POPULATION, min_size=4, max_size=4).filter(lambda p: sum(p) > 0),
    fraction=st.floats(0.0, 1.0),
)
@example(v=(0.0, -1.0, 1e-320), pops=[0.4, 0.1, 0.1, 0.4], fraction=0.75)  # h_x = -inf: the array sum has a NaN
@example(v=(0.0, -1.0, 1e-160), pops=[0.4, 0.2, 0.1, 0.3], fraction=0.75)  # finite h_x, infinite h_xx
@example(v=(51.0, 0.0, 0.5), pops=[0.4, 0.2, 0.1, 0.3], fraction=0.75)  # outside l <= 50
@example(v=(-1.0, 0.0, 0.5), pops=[0.4, 0.2, 0.1, 0.3], fraction=0.75)  # x < 0
def test_x_objective_matches_array_form_bit_for_bit(v, pops, fraction):
    p = [q / sum(pops) for q in pops]
    r = fraction * math.sqrt(p[0] * p[3])
    got, want = ree._x_objective(v, p, r), x_objective_array_form(v, p, r)
    assert float(got[0]).hex() == float(want[0]).hex()
    assert same_bits(got[1], want[1]) and same_bits(got[2], want[2])


def test_x_objective_matches_array_form_along_newton_runs(monkeypatch):
    # Every point the Newton steps and line searches visit, on the X cases
    # and on a tiny flank that stalls them.
    solve, seen = ree._x_objective, []

    def checked(v, pops, r):
        got, want = solve(v, pops, r), x_objective_array_form(v, pops, r)
        assert float(got[0]).hex() == float(want[0]).hex()
        assert same_bits(got[1], want[1]) and same_bits(got[2], want[2])
        seen.append(got[1] is None)
        return got

    monkeypatch.setattr(ree, "_x_objective", checked)
    for rho in [*X_CASES.values(), x_state([0.5, 1e-13, 0.0, 0.5], 0.15)]:
        ree._er_x_state(rho)
    assert len(seen) > 50 and any(seen)


def circle_case(seed, c, size, coupling):
    """G = c + I (x) beta.sigma + coupling (a.sigma) (x) (v.sigma) under a random local unitary.

    alpha = 0 and T = coupling a v^T, so alpha + T n = 0 on the great circle
    v.n = 0, and on the whole sphere when coupling = 0.
    """
    rng = np.random.default_rng(seed)
    pauli = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1]))

    def bloch(vec):
        return sum(x * p for x, p in zip(vec, pauli))

    beta = rng.normal(size=3)
    g = c * np.eye(4) + np.kron(np.eye(2), bloch(size * beta / np.linalg.norm(beta)))
    g = g + coupling * np.kron(bloch(rng.normal(size=3)), bloch(rng.normal(size=3)))
    u = random_product_unitary(rng)
    return u @ g @ u.conj().T


# G = c + alpha.sigma (x) I + sum_i T_ii sigma_i (x) sigma_i with alpha_y = 0 and
# beta = 0: q's quadratic part -T^T T is diagonal, its frame exact, and bh_y =
# (T alpha)_y = 0, so _product_max's b2 skip runs at every w.
ZERO_BH_COORDS = st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6).map(
    lambda v: [dict(zip((0, 4, 12, 5, 10, 15), v)).get(k, 0.0) for k in range(16)]
)


def product_max_reference(g):
    """The generator form of ree_general._product_max, whose bits the plain-float loops must keep.

    A nonzero |bh| below an ulp of a_min leaves no float in the bracket for
    l, and psi is taken at the first float above -a_min, as in the module.
    A square that underflows to 0 gives an infinite float64 term with a
    warning, which is silenced.
    """
    coords = np.einsum("kab,ba->k", ree_general._BASIS, g).real.reshape(4, 4) / 4
    c, alpha, beta, tt = coords[0, 0], coords[1:, 0], coords[0, 1:], coords[1:, 1:]
    a, frame = np.linalg.eigh(np.outer(beta, beta) - tt.T @ tt)
    beta_f, alpha_f = frame.T @ beta, frame.T @ tt.T @ alpha

    def bounds(w):
        if w < math.hypot(*beta):
            return False
        bh2 = [float(e * e) for e in w * beta_f + alpha_f]
        q0 = w * w - alpha @ alpha

        def slope(l):
            return sum(b2 / (ai + l) ** 2 for b2, ai in zip(bh2, a) if b2) - 1

        lo, hi = -a[0], -a[0] + math.sqrt(sum(bh2))
        if any(bh2) and hi == lo:
            hi = math.nextafter(lo, math.inf)
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            lo, hi = (mid, hi) if slope(mid) > 0 else (lo, mid)
        return q0 - hi - sum(b2 / (ai + hi) for b2, ai in zip(bh2, a) if b2) >= 0

    lo, hi = 0.0, math.hypot(*alpha) + math.hypot(*beta) + float(np.linalg.norm(tt))
    with np.errstate(divide="ignore"):
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            lo, hi = (lo, mid) if bounds(mid) else (mid, hi)
    return c + hi


class TestGeneralPathParts:
    @pytest.mark.parametrize(
        "terms, expected",
        [
            ({"zi": 1.0}, 1.0),
            ({"ix": 1.0}, 1.0),
            ({"iz": -1.0}, 1.0),
            ({"zi": 1.0, "iz": 1.0}, 2.0),
            ({"xx": 1.0, "yy": 1.0, "zz": 1.0}, 1.0),
            ({"xx": -1.0, "yy": -1.0, "zz": -1.0}, 1.0),
            ({"zi": 0.3, "xx": 0.5}, math.hypot(0.3, 0.5)),
            ({"ii": 0.25, "xx": 0.25, "yy": -0.25, "zz": 0.25}, 0.5),  # |Phi+><Phi+|
            # The einsum coordinates leave 2.8e-17 in alpha and beta, so bh is
            # 5.6e-17, below half an ulp of a_min = -1: no float lies strictly
            # inside the bracket for l. The crude bound c + |alpha| + |beta| +
            # |T|_F (0.518 for the first) is not an answer.
            ({"ii": -0.6, "zz": 1.0, "xx": 0.5}, 0.4),
            ({"ii": -0.6016202164977241, "zz": 1.0}, 0.3983797835022759),
        ],
    )
    def test_product_max_is_exact(self, terms, expected):
        pauli = {"i": np.eye(2), "x": np.array([[0, 1], [1, 0]]), "y": np.array([[0, -1j], [1j, 0]]), "z": np.diag([1, -1])}
        g = sum(w * np.kron(pauli[k[0]], pauli[k[1]]) for k, w in terms.items()).astype(complex)
        assert ree_general._product_max(g) == pytest.approx(expected, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        c=st.floats(-1.0, 1.0),
        size=st.floats(0.1, 1.0),
        coupling=st.just(0.0) | st.floats(0.1, 1.0),
    )
    def test_product_max_where_alpha_plus_t_n_vanishes_on_a_circle(self, seed, c, size, coupling):
        # There q(n) >= 0 no longer implies w - beta.n >= 0, which only the
        # w >= |beta| test enforces. Reference: the top eigenvalue of
        # (I (x) <b|) G (I (x) |b>), maximized over a Fibonacci grid of 20000 b.
        g = circle_case(seed, c, size, coupling)
        k = np.arange(20000) + 0.5
        theta, phi = np.arccos(1 - k / 10000), math.pi * (1 + math.sqrt(5)) * k
        kets = np.stack([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)], axis=1)
        reduced = np.einsum("nb,abcd,nd->nac", kets.conj(), g.reshape(2, 2, 2, 2), kets)
        grid_max = np.linalg.eigvalsh(reduced)[:, -1].max()
        top = ree_general._product_max(g)
        # Certified: never below an attained value; the grid's spacing of about
        # 0.025 puts its smooth maximum within 5e-3 of the true one.
        assert grid_max - 1e-12 <= top <= grid_max + 5e-3
        assert top == product_max_reference(g)

    @settings(max_examples=90, deadline=None)
    @given(coords=st.lists(st.floats(-1.0, 1.0), min_size=16, max_size=16) | ZERO_BH_COORDS)
    def test_product_max_matches_generator_reference_bit_for_bit(self, coords):
        g = np.tensordot(np.array(coords), ree_general._BASIS, 1)
        assert ree_general._product_max(g) == product_max_reference(g)

    @pytest.mark.parametrize("a", [0.6, 0.9, 0.93])
    @pytest.mark.parametrize("b", [1e-9, 1e-10])
    def test_flat_triangle_decomposes_exactly(self, a, b):
        # On the PPT boundary of an X state (x^2 = bc) with tiny flanks the
        # Wootters phases close a triangle of width 2b against sides near 0.3.
        sigma = np.diag([a, b, b, 1 - a - 2 * b]).astype(complex)
        sigma[0, 3] = sigma[3, 0] = b
        ansatz = ree_general._product_decomposition(sigma)
        assert len(ansatz.weights) <= 4
        assert np.abs(ansatz.assemble().matrix - sigma).max() < 1e-15

    @pytest.mark.parametrize("seed", range(6))
    def test_log_gradient_is_finite_when_sigma_spans_24_decades(self, seed):
        # Only first divided differences enter G; the second ones overflow
        # on eigenvalues (1e-24, 1e-12, 0.3, ~0.7).
        rng = np.random.default_rng(seed)
        frame = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
        sigma = frame @ np.diag([1e-24, 1e-12, 0.3, 0.7 - 1e-12 - 1e-24]) @ frame.conj().T
        g = ree_general._log_gradient(random_density_matrix(rng, (2, 2)).matrix, sigma)
        assert np.isfinite(g).all()


def check_general_result(rho, res):
    """The interval is ordered and the certificate is a PPT mixture of at most 4 products that gives the value."""
    assert res.lower is not None and 0.0 <= res.lower <= res.value
    assert res.converged == (res.value - res.lower <= CERTIFIED_GAP)
    assert len(res.certificate.weights) <= 4
    sigma = res.certificate.assemble()
    assert np.linalg.eigvalsh(partial_transpose(sigma.matrix)).min() >= -1e-10
    assert relative_entropy(rho, sigma) == pytest.approx(res.value, abs=1e-9)


def is_x_shaped(rho):
    return np.abs(rho.matrix[~ree._X_PATTERN]).max() <= ree.X_STATE_TOL


def check_result(rho, res):
    """check_x_result when rho has an X frame whose interval closes (er_numeric returns that solve), else check_general_result."""
    frame = ree_general._er_x_frame(rho)
    if frame is not None and frame.converged:
        assert res.value == frame.value
        assert res.converged == (res.value - res.lower <= CERTIFIED_GAP)
        check_x_result(rho, res)
    else:
        check_general_result(rho, res)


def no_general_path(rho):
    raise AssertionError("er_numeric took the general path")


def rotated_damped_pairs():
    """(I (x) U)|Phi+> damped on B, for the three rotations U of perfbench's ree-general panel."""
    pairs = []
    for gamma, theta, phase in ((0.3, math.pi / 3, math.pi / 4), (0.15, math.pi / 2, 0.0), (0.45, 2 * math.pi / 3, 1.5 * math.pi)):
        u = np.array(
            [
                [math.cos(theta / 2), -math.sin(theta / 2) * np.exp(-1j * phase)],
                [math.sin(theta / 2) * np.exp(1j * phase), math.cos(theta / 2)],
            ]
        )
        rotated = DensityMatrix.from_state_vector(np.kron(np.eye(2), u) @ bell_state(), (2, 2))
        pairs.append(apply(amplitude_damping(gamma), rotated, target=1))
    return pairs


@settings(max_examples=30, deadline=None)
@given(
    weights=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4).filter(lambda w: sum(w) > 1e-3),
    seed=st.none() | st.integers(0, 2**32 - 1),
)
@example(weights=[0.0, 0.0, 1.0, 0.0], seed=None)  # the singlet; test_general_path_step_budget puts it on the barrier
def test_rotated_bell_diagonal_interval_holds_closed_form(weights, seed):
    w = np.array(weights) / sum(weights)
    u = np.eye(4) if seed is None else random_product_unitary(np.random.default_rng(seed))
    rho = DensityMatrix(u @ BellDiagonalState(w).to_density_matrix().matrix @ u.conj().T, (2, 2))
    assume(not is_x_shaped(rho))
    res = er_numeric(rho)
    check_result(rho, res)
    lam = w.max()
    closed = 1 - binary_entropy(lam) if lam > 0.5 else 0.0
    assert res.lower - CERTIFIED_GAP <= closed <= res.value + CERTIFIED_GAP


@settings(max_examples=30, deadline=None)
@given(amplitudes=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8))
def test_pure_state_interval_holds_entanglement_entropy(amplitudes):
    psi = np.array(amplitudes[:4]) + 1j * np.array(amplitudes[4:])
    assume(np.linalg.norm(psi) > 1e-3)
    psi /= np.linalg.norm(psi)
    rho = DensityMatrix.from_state_vector(psi, (2, 2))
    assume(not is_x_shaped(rho))
    exact = er_pure(psi).value
    res = er_numeric(rho)
    check_result(rho, res)
    assert res.lower - CERTIFIED_GAP <= exact <= res.value + CERTIFIED_GAP
    # er_numeric sends most pure states to the X path; the barrier keeps its
    # rank-one (singular) inputs, so it is checked on the same state directly.
    res = _er_ppt_barrier(rho)
    check_general_result(rho, res)
    assert res.lower - CERTIFIED_GAP <= exact <= res.value + CERTIFIED_GAP


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 4), fraction=st.floats(0.1, 0.95))
def test_inverse_ree_oracle_interval_holds_exact_value(seed, rank, fraction):
    pair = inverse_ree_pair(np.random.default_rng(seed), rank, fraction)
    assume(pair is not None)
    rho, sigma = pair
    assume(not is_x_shaped(rho))
    exact = relative_entropy(rho, sigma)
    res = er_numeric(rho)
    check_result(rho, res)
    assert res.lower - CERTIFIED_GAP <= exact <= res.value + CERTIFIED_GAP
    assert abs(res.value - exact) <= 1e-10
    # er_numeric sends many of these states to the X path; the barrier's
    # predictor steps face the exact value here.
    res = _er_ppt_barrier(rho)
    check_general_result(rho, res)
    assert res.converged
    assert abs(res.value - exact) <= 1e-10


def test_barrier_centers_its_final_iterate():
    # On a separable full-rank input the optimum is interior, value is 0 and
    # lower is clipped at 0, so a badly centered final iterate shows only in
    # the raw Frank-Wolfe gap (top - 1) / ln 2 at the certificate. It is at
    # most 1.5e-11 bits on these states, with or without the exact start and
    # the last stage's decrement threshold. Intermediate stages that end at
    # decrement 1.0 instead of 0.1 raise the PPT states' worst gap to
    # 2.8e-11; a last stage that ends at 0.1 raises the entangled ones' to
    # 2.6e-11.
    rng = np.random.default_rng(7)
    solved = {True: 0, False: 0}  # by PPT or not, 12 each
    while min(solved.values()) < 12:
        rho = random_density_matrix(rng, (2, 2))
        ppt = negativity(rho) == 0.0
        if solved[ppt] == 12:
            continue
        solved[ppt] += 1
        res = _er_ppt_barrier(rho)
        check_general_result(rho, res)
        top = ree_general._product_max(ree_general._log_gradient(rho.matrix, res.certificate.assemble().matrix))
        assert (top - 1) / math.log(2) <= 2e-11


def test_general_path_step_budget(monkeypatch):
    # Every center has Tr sigma = s_0 = 1 + 8/t, so the first stage starts
    # at s = 9 e_0, and the last stage ends at decrement 1.6e-5. With the
    # predictor step that opens each stage, these solves take 23-26 steps
    # (predictor steps included; 24 and 28 on the singlet and the pure
    # state) and 29-39 evaluations. The budgets fail a solver that starts at
    # s = e_0 and runs the last stage until the decrement stops shrinking:
    # 28-33 steps (30 and 35) and 34-46 evaluations. The barrier is called
    # directly: the singlet (a singular Newton system late on) and the
    # rotated pairs take the X path in er_numeric.
    # F_t is affine in t, so a stage start reuses the point where the last
    # stage ended: every evaluation is the first point or a new trial point,
    # and only the first point, accepted Newton steps and predictor steps
    # build derivatives, each counted once in iterations.
    points, builds = [], []
    point, derivatives = ree_general._barrier_point, ree_general._barrier_derivatives
    monkeypatch.setattr(ree_general, "_barrier_point", lambda s, rho: points.append(s.tobytes()) or point(s, rho))
    monkeypatch.setattr(ree_general, "_barrier_derivatives", lambda *p: builds.append(p) or derivatives(*p))

    def solve(rho):
        points.clear()
        builds.clear()
        res = _er_ppt_barrier(rho)
        assert points[0] == (9 * np.eye(1, 16)).tobytes() and len(set(points)) == len(points)
        assert len(builds) == 1 + res.iterations
        assert len(points) <= 42
        gap = 8 / 8.0**13  # 8/t at the last stage
        assert abs(np.frombuffer(points[-1])[0] - 1 - gap) <= 1e-3 * gap
        return res

    rotated = rotated_damped_pairs()
    inputs = list(rotated)
    rng = np.random.default_rng(53)
    for w in (0.6, 0.75, 0.9):
        psi = random_pure_state(rng)
        tau = random_density_matrix(rng, (2, 2)).matrix
        inputs.append(DensityMatrix(w * np.outer(psi, psi.conj()) + (1 - w) * tau, (2, 2)))
    for rho in inputs:
        assert not is_x_shaped(rho)
        res = solve(rho)
        check_general_result(rho, res)
        assert res.converged and res.iterations <= 28, res
    for psi in (bell_state(2), random_pure_state(rng)):
        rho = DensityMatrix.from_state_vector(psi, (2, 2))
        res = solve(rho)
        check_general_result(rho, res)
        assert res.converged
        assert res.lower - CERTIFIED_GAP <= er_pure(psi).value <= res.value + CERTIFIED_GAP
    # er_numeric sends the rotated pairs, a local unitary away from X states, to the X path.
    monkeypatch.setattr(ree_general, "_er_ppt_barrier", no_general_path)
    for rho in rotated:
        res = er_numeric(rho)
        check_x_result(rho, res)
        assert res.converged


class TestLocalUnitaryFrame:
    def test_certificate_closes_exact_frank_wolfe_bound_in_input_frame(self):
        # The certificate is rotated back into the input's frame, so the exact
        # product-state maximum of G = D ln(sigma)[rho] there must be 1 to
        # rounding. A tilt by 1e-6 or 1e-8 puts back-rotated atoms that close
        # to a pole, where acos(n_z) in place of atan2 loses up to 1e-8 in the
        # polar angle and opens the gap to 3e-12 - 2e-9 bits.
        tilted = []
        for delta in (1e-6, 1e-8):
            tilt = np.array([[math.cos(delta / 2), -math.sin(delta / 2)], [math.sin(delta / 2), math.cos(delta / 2)]])
            for u in (np.kron(tilt, np.eye(2)), np.kron(np.eye(2), tilt)):
                tilted.append(DensityMatrix(u @ damped_pair(0.3, 0.2).matrix @ u.T, (2, 2)))
        for rho in rotated_damped_pairs() + tilted:
            assert not is_x_shaped(rho)
            res = er_numeric(rho)
            sigma = res.certificate.assemble().matrix
            top = ree_general._product_max(ree_general._log_gradient(rho.matrix, sigma))
            assert res.converged and (top - 1) / math.log(2) <= 1e-12

    def test_rank_one_block_certifies_on_x_path(self, monkeypatch):
        # X states whose {|00>, |11>} block has rank one up to an ulp or so, as
        # the frame of a rotated Psi-type output or pure state leaves them. The
        # optimal sigma's small block eigenvalue falls below 1e-15, so G needs
        # <u2|R|u2> to its last digit. The last state, the frame of a rotated
        # Phi+, has |rho_03| = sqrt(p00 p11) one ulp above sqrt(p00) sqrt(p11),
        # which must not turn <u2|R|u2> negative and the objective unbounded.
        monkeypatch.setattr(ree_general, "_er_ppt_barrier", no_general_path)
        states = [x_state([0.35 + k * 2.0**-54, 0.0, 0.3, 0.35 - k * 2.0**-54], 0.35) for k in (0, 1, 2, -1, 16, 1000)]
        states.append(x_state([0.49999999999999967, 8.3266726846886741e-17, 8.3266726846886741e-17, 0.49999999999999978], 0.4999999999999997))
        for rho in states:
            res = er_numeric(rho)
            check_x_result(rho, res)
            assert res.converged

    def test_states_without_an_x_frame_keep_the_general_path(self):
        # A generic full-rank state has three distinct singular values in T.
        rho = random_density_matrix(np.random.default_rng(19), (2, 2))
        assert ree_general._er_x_frame(rho) is None


I_X = np.kron(np.eye(2), np.array([[0, 1], [1, 0]]))


@settings(max_examples=60, deadline=None)
@given(
    source=st.sampled_from(["one_sided", "two_sided", "psi_type", *sorted(X_CASES)]),
    gamma=st.floats(0.0, 0.999999),
    gamma_a=st.floats(0.0, 0.999999),
    seed=st.none() | st.integers(0, 2**32 - 1),
)
@example(source="two_sided", gamma=0.5, gamma_a=0.5, seed=0)  # T's singular values tie at 1/2
def test_local_unitary_away_from_x_state_takes_x_path(source, gamma, gamma_a, seed):
    # E_R is invariant under U (x) V, so er_numeric must solve U (x) V rho U^dag (x) V^dag
    # on the X path whenever rho is an X state the X path certifies. The psi_type
    # input, the singlet (a y-rotation by pi on A of Phi+) damped on both sides,
    # is I (x) X away from an X state. As gamma -> 1 the correlations T shrink to
    # 0 and the SVD frame loses the digits the X-pattern test needs (at 1 - 1e-9
    # some inputs keep the general path), so gamma stays at most 1 - 1e-6.
    if source == "psi_type":
        start = damped_pair(gamma, gamma_a, bell=2)
        x_form = DensityMatrix(I_X @ start.matrix @ I_X, (2, 2))
    else:
        if source == "one_sided":
            start = damped_pair(gamma)
        elif source == "two_sided":
            start = damped_pair(gamma, gamma_a)
        else:
            start = X_CASES[source]
        x_form = start
    assert is_x_shaped(x_form)
    reference = ree._er_x_state(x_form)
    assume(reference.converged)
    u = np.eye(4) if seed is None else random_product_unitary(np.random.default_rng(seed))
    rho = DensityMatrix(u @ start.matrix @ u.conj().T, (2, 2))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ree_general, "_er_ppt_barrier", no_general_path)
        res = er_numeric(rho)
    check_x_result(rho, res)
    assert res.converged
    assert abs(res.value - reference.value) <= CERTIFIED_GAP


class TestMonotonicityAndConvexity:
    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(41)
        for _ in range(6):
            rho = random_density_matrix(rng, (2, 2))
            u = random_product_unitary(rng)
            rotated = DensityMatrix(u @ rho.matrix @ u.conj().T, (2, 2))
            a = er_numeric(rho)
            b = er_numeric(rotated)
            assert a.lower <= b.value + CERTIFIED_GAP and b.lower <= a.value + CERTIFIED_GAP

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 4), fraction=st.floats(0.1, 0.95))
    def test_local_unitary_invariance_holds_exact_value(self, seed, rank, fraction):
        # E_R(rho) = D(rho || sigma) exactly on an oracle pair, and a product
        # unitary U (x) V leaves it unchanged.
        rng = np.random.default_rng(seed)
        pair = inverse_ree_pair(rng, rank, fraction)
        assume(pair is not None)
        rho, sigma = pair
        u = random_product_unitary(rng)
        res = er_numeric(DensityMatrix(u @ rho.matrix @ u.conj().T, (2, 2)))
        exact = relative_entropy(rho, sigma)
        assert res.lower - CERTIFIED_GAP <= exact <= res.value + CERTIFIED_GAP

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rank=st.integers(1, 4),
        fraction=st.floats(0.1, 0.95),
        channel=st.sampled_from([amplitude_damping, depolarizing]),
        strength=st.floats(0.0, 0.75),
        target=st.sampled_from([0, 1]),
    )
    def test_one_sided_channel_does_not_increase_exact_value(self, seed, rank, fraction, channel, strength, target):
        # A channel on one qubit is a local operation, so E_R cannot rise above
        # the oracle pair's exact D(rho || sigma).
        pair = inverse_ree_pair(np.random.default_rng(seed), rank, fraction)
        assume(pair is not None)
        rho, sigma = pair
        after = er_numeric(apply(channel(strength), rho, target=target))
        assert after.lower <= relative_entropy(rho, sigma) + CERTIFIED_GAP

    def test_local_dephasing_does_not_increase(self):
        rng = np.random.default_rng(43)
        p0 = np.diag([1, 0]).astype(complex)
        p1 = np.diag([0, 1]).astype(complex)
        for _ in range(6):
            rho = random_density_matrix(rng, (2, 2))
            dephased = sum(
                np.kron(proj, np.eye(2)) @ rho.matrix @ np.kron(proj, np.eye(2))
                for proj in (p0, p1)
            )
            before = er_numeric(rho)
            after = er_numeric(DensityMatrix(dephased, (2, 2)))
            assert after.lower <= before.value + CERTIFIED_GAP

    def test_convexity(self):
        rng = np.random.default_rng(47)
        for _ in range(4):
            rho1 = random_density_matrix(rng, (2, 2))
            rho2 = random_density_matrix(rng, (2, 2))
            e1 = er_numeric(rho1).value
            e2 = er_numeric(rho2).value
            for lam in (0.25, 0.5, 0.75):
                mix = DensityMatrix(lam * rho1.matrix + (1 - lam) * rho2.matrix, (2, 2))
                mixed = er_numeric(mix)
                assert mixed.lower <= lam * e1 + (1 - lam) * e2 + CERTIFIED_GAP


class TestSeparableAnsatz:
    def test_weight_validation(self):
        with pytest.raises(ValueError):
            SeparableAnsatz((0.5, 0.4), (((0, 0), (0, 0)), ((0, 0), (0, 0))))

    def test_assemble_is_valid_state(self):
        ansatz = SeparableAnsatz(
            (0.5, 0.5),
            (((0.0, 0.0), (0.0, 0.0)), ((math.pi, 0.0), (math.pi, 0.0))),
        )
        sigma = ansatz.assemble()
        assert abs(np.trace(sigma.matrix).real - 1) < 1e-12
        expected = np.diag([0.5, 0, 0, 0.5]).astype(complex)
        assert np.abs(sigma.matrix - expected).max() < 1e-12

    @settings(max_examples=100, deadline=None)
    @given(
        atoms=st.lists(
            st.tuples(
                st.floats(0.0, 1.0),
                st.tuples(st.floats(0.0, math.pi), st.floats(-math.pi, math.pi)),
                st.tuples(st.floats(0.0, math.pi), st.floats(-math.pi, math.pi)),
            ),
            min_size=1,
            max_size=6,
        ).filter(lambda atoms: sum(w for w, _, _ in atoms) > 0)
    )
    def test_assemble_matches_kron_build_bit_for_bit(self, atoms):
        total = sum(w for w, _, _ in atoms)
        ansatz = SeparableAnsatz(tuple(w / total for w, _, _ in atoms), tuple((a, b) for _, a, b in atoms))
        assert ansatz.assemble().matrix.tobytes() == assemble_by_kron(ansatz).tobytes()

    @pytest.mark.parametrize("modulus", [0.0, 1e-300, 1e-13, 1e-8, 0.5, 1.0])
    def test_bloch_angles_round_trip(self, modulus):
        # A global phase and a relative phase of 2.1 on every ket; no amplitude
        # is too small to keep.
        v = np.exp(0.7j) * np.array([modulus, math.sqrt(1 - modulus**2) * np.exp(2.1j)])
        ket = entanglement._ket(*ree_general._angles(v))
        overlap = np.vdot(ket, v)
        assert np.abs(ket * overlap / abs(overlap) - v).max() <= 1e-15


SEPARATION_GAMMAS = (0.001, 0.01, 0.1, 0.3, 0.5, 0.8, 0.9, 0.99)
# ROADMAP item 1's table: E_R (bits) of (R_y(beta) x I)|Phi+> under two-sided damping at gamma = 0.3.
BETA_ROWS = {math.pi / 4: 0.215540, math.pi / 2: 0.257002, 3 * math.pi / 4: 0.280157}


class TestSameChannelSeparation:
    """The shaping separation on one channel, for a fixed Phi+ source (ROADMAP item 17).

    A y-rotation by pi on qubit A turns Phi+ into Psi- up to a sign. Two-sided
    damping sends Psi- to a Vedral-Plenio state, whose REE is a closed form;
    it exceeds the REE of damped Phi+ itself, the ceiling on what any LOCC
    post-processing of the unshaped pairs keeps per pair.
    """

    @staticmethod
    def two_sided_damped(rotation, gamma):
        """(rotation x I)|Phi+> under amplitude damping at gamma on both qubits."""
        psi = np.kron(rotation, np.eye(2)) @ bell_state(0)
        rho = DensityMatrix.from_state_vector(psi)
        channel = amplitude_damping(gamma)
        return apply(channel, apply(channel, rho, target=1), target=0)

    def shaped_damped_pair(self, gamma):
        return self.two_sided_damped(np.array([[0.0, -1.0], [1.0, 0.0]]), gamma)

    def beta_damped_pair(self, beta):
        c, s = math.cos(beta / 2), math.sin(beta / 2)
        return self.two_sided_damped(np.array([[c, -s], [s, c]]), 0.3)

    @pytest.mark.parametrize("gamma", SEPARATION_GAMMAS)
    def test_closed_form_lies_in_certified_interval(self, gamma):
        res = er_numeric(self.shaped_damped_pair(gamma))
        assert res.converged
        assert res.lower - 1e-15 <= er_vedral_plenio(1 - gamma) <= res.value + 1e-15

    @pytest.mark.parametrize("gamma", SEPARATION_GAMMAS)
    def test_closed_form_exceeds_phi_plus_ceiling(self, gamma):
        ceiling = er_numeric(transmit_bell_pair(amplitude_damping(gamma), "two"))
        assert ceiling.converged
        assert er_vedral_plenio(1 - gamma) > ceiling.value

    @pytest.mark.parametrize("beta", sorted(BETA_ROWS))
    def test_beta_row_on_general_path(self, beta):
        res = er_numeric(self.beta_damped_pair(beta))
        assert res.converged
        assert abs(res.value - BETA_ROWS[beta]) <= 5e-7

    def test_beta_rows_rise_from_phi_plus_ceiling_to_closed_form(self):
        ceiling = er_numeric(transmit_bell_pair(amplitude_damping(0.3), "two")).value
        rows = [er_numeric(self.beta_damped_pair(beta)).value for beta in sorted(BETA_ROWS)]
        assert ceiling < rows[0] < rows[1] < rows[2] < er_vedral_plenio(0.7)

    def test_beta_and_two_pi_minus_beta_agree(self):
        a, b = (er_numeric(self.beta_damped_pair(beta)).value for beta in (math.pi / 2, 3 * math.pi / 2))
        assert abs(a - b) <= 1e-12

    @pytest.mark.parametrize("path", ["x_state", "front_end", "barrier"])
    def test_result_holds_builtin_types(self, path):
        # A damped pair is an exact X state; turning its qubit B by R_y(pi/3)
        # after the channel sends it through the front end, which rotates it back.
        pair = transmit_bell_pair(amplitude_damping(0.3))
        c, s = math.cos(math.pi / 6), math.sin(math.pi / 6)
        turn = np.kron(np.eye(2), [[c, -s], [s, c]])
        solve, rho = {
            "x_state": (ree._er_x_state, pair),
            "front_end": (ree_general._er_x_frame, DensityMatrix(turn @ pair.matrix @ turn.T, (2, 2))),
            "barrier": (_er_ppt_barrier, self.beta_damped_pair(math.pi / 2)),
        }[path]
        res = solve(rho)
        assert (type(res.value), type(res.lower), type(res.converged), type(res.iterations)) == (float, float, bool, int)
        assert {type(w) for w in res.certificate.weights} == {float}
        angles = [angle for atom in res.certificate.product_states for qubit in atom for angle in qubit]
        assert {type(angle) for angle in angles} == {float}


NULL_CHANNELS = {
    "depolarizing_one_side": (depolarizing(0.2), "one"),
    "depolarizing_both_sides": (depolarizing(0.2), "two"),
    "damping_one_side": (amplitude_damping(0.3), "one"),
}


@pytest.mark.parametrize("name", sorted(NULL_CHANNELS))
@pytest.mark.parametrize("seed", range(12))
def test_pre_channel_local_unitary_leaves_er_unchanged(name, seed):
    """No local unitary on Phi+ before these channels changes the output's REE.

    (U_A x U_B)|Phi+> = (U_A U_B^T x I)|Phi+>, so after a channel on qubit B
    alone the rotation is a local unitary on the output. The depolarizing
    channel commutes with every unitary, so on both sides the rotation passes
    through it. Two-sided damping is left out: it commutes only with
    z-rotations, the output's REE depends on the input, and that is where
    shaping gains (ROADMAP item 1).
    """
    channel, sides = NULL_CHANNELS[name]
    u = random_product_unitary(np.random.default_rng(seed))
    rho = DensityMatrix.from_state_vector(u @ bell_state(0))
    rho = apply(channel, rho, target=1)
    if sides == "two":
        rho = apply(channel, rho, target=0)
    res = er_numeric(rho)
    unrotated = er_numeric(transmit_bell_pair(channel, sides))
    assert res.converged and unrotated.converged
    assert abs(res.value - unrotated.value) <= 1e-12
