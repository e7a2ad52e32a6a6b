import math

import numpy as np
import pytest

from entshape.dynamics import (
    er_production_rate,
    fidelity_decay,
    trajectory,
)
from entshape.entanglement import CERTIFIED_GAP, er_bell_fidelity
from entshape.harness.config import build_config
from entshape.harness.experiments import run
from helpers import delta_er


def rk4_decay(f0, p, t_final, steps=4000):
    """Independent integration of dF/dt = -p F."""
    f, h = f0, t_final / steps
    for _ in range(steps):
        k1 = -p * f
        k2 = -p * (f + h * k1 / 2)
        k3 = -p * (f + h * k2 / 2)
        k4 = -p * (f + h * k3)
        f += h * (k1 + 2 * k2 + 2 * k3 + k4) / 6
    return f


class TestFidelityDecay:
    def test_no_noise(self):
        assert fidelity_decay(1.0, 0.0, 5.0) == 1.0

    def test_zero_time(self):
        assert fidelity_decay(1.0, 0.2, 0.0) == 1.0

    def test_exponential_value(self):
        assert fidelity_decay(1.0, 0.2, 1.0) == pytest.approx(math.exp(-0.2), abs=1e-15)

    def test_matches_ode_integration(self):
        for p in (0.1, 0.3, 0.5):
            closed = fidelity_decay(1.0, p, 2.0)
            numeric = rk4_decay(1.0, p, 2.0)
            assert abs(closed - numeric) < 1e-8

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            fidelity_decay(0.0, 0.2, 1.0)
        with pytest.raises(ValueError):
            fidelity_decay(1.0, -0.1, 1.0)


class TestProductionRate:
    def test_zero_noise_is_zero(self):
        assert er_production_rate(0.8, 0.0) == 0.0

    def test_reference_point(self):
        # -(0.2 * 0.8 / 2) log2(1.8 / 0.2) = -0.08 log2(9)
        assert er_production_rate(0.8, 0.2) == pytest.approx(-0.08 * math.log2(9), abs=1e-12)
        assert er_production_rate(0.8, 0.2) == pytest.approx(-0.2536, abs=1e-4)

    def test_rejects_boundary_fidelity(self):
        with pytest.raises(ValueError):
            er_production_rate(1.0, 0.2)
        with pytest.raises(ValueError):
            er_production_rate(0.0, 0.2)

    def test_matches_finite_differences(self):
        h = 1e-5
        worst = 0.0
        for f in np.linspace(0.55, 0.95, 10):
            for p in np.linspace(0.05, 0.5, 10):
                t0 = -math.log(f) / p
                fd = (
                    er_bell_fidelity(fidelity_decay(1.0, p, t0 + h))
                    - er_bell_fidelity(fidelity_decay(1.0, p, t0 - h))
                ) / (2 * h)
                closed = er_production_rate(fidelity_decay(1.0, p, t0), p)
                worst = max(worst, abs(fd / closed - 1))
        assert worst < 1e-6

    def test_smaller_noise_means_slower_loss(self):
        for f in np.linspace(0.55, 0.95, 9):
            for p in np.linspace(0.1, 0.5, 5):
                for p_prime in np.linspace(0.0, p - 0.05, 4):
                    assert abs(er_production_rate(f, p_prime)) < abs(er_production_rate(f, p))

    def test_coupled_trajectories_rate_ordering(self):
        # Along the actual decays the slower path is also at higher fidelity,
        # and both effects shrink the loss rate.
        p, p_prime = 0.3, 0.1
        for t in np.linspace(0.1, 1.5, 8):
            f_fast = fidelity_decay(1.0, p, t)
            f_slow = fidelity_decay(1.0, p_prime, t)
            assert abs(er_production_rate(f_slow, p_prime)) < abs(er_production_rate(f_fast, p))


class TestDeltaEr:
    def test_equal_parameters_give_exact_zero(self):
        assert delta_er(0.2, 0.2, 1.0, 1.0) == 0.0

    def test_positive_for_compressed_noise(self):
        value = delta_er(0.2, 0.17, 1.0, 1.0)
        assert value > 0

    def test_rejects_expansion(self):
        with pytest.raises(ValueError):
            delta_er(0.2, 0.25, 1.0, 1.0)

    def test_quadrature_cross_check(self):
        # Integrate the rate difference with Gauss-Legendre and compare.
        from numpy.polynomial.legendre import leggauss

        p, p_prime, f0, horizon = 0.2, 0.17, 0.98, 1.0
        x, w = leggauss(120)
        ts = 0.5 * horizon * (x + 1)
        ws = 0.5 * horizon * w
        total = 0.0
        for t, weight in zip(ts, ws):
            f_slow = fidelity_decay(f0, p_prime, t)
            f_fast = fidelity_decay(f0, p, t)
            total += weight * (
                er_production_rate(f_slow, p_prime) - er_production_rate(f_fast, p)
            )
        assert abs(delta_er(p, p_prime, f0, horizon) - total) < 1e-6

    def test_positive_over_grid(self):
        for p in np.linspace(0.05, 0.5, 6):
            for p_prime in np.linspace(0.0, p, 5)[:-1]:
                for horizon in (0.5, 1.0, 2.0):
                    if fidelity_decay(1.0, p, horizon) > 0.5:
                        assert delta_er(p, p_prime, 1.0, horizon) > 0

    def test_additivity_scaling(self):
        # Per-pair suppression accumulated over independent pairs equals the
        # n-scaled closed form exactly.
        value = delta_er(0.2, 0.1, 1.0, 1.0)
        for n in (2, 4, 8):
            accumulated = math.fsum(delta_er(0.2, 0.1, 1.0, 1.0) for _ in range(n))
            assert abs(accumulated - n * value) < 1e-12


class TestTrajectory:
    def test_common_start(self):
        post, pes = trajectory(0.2, 0.17, 1.0, 1.0, 0.05)
        assert post[0] == (0.0, 1.0, 1.0, 0.0)
        assert pes[0] == (0.0, 1.0, 1.0, 0.0)
        f0 = 0.9
        post, pes = trajectory(0.2, 0.17, f0, 1.0, 0.05)
        assert post[0] == pes[0] == (0.0, f0, er_bell_fidelity(f0), 1 - f0 * f0)

    @pytest.mark.parametrize("horizon, step", [(1.0, 0.02), (1.0, 0.3), (2.5, 0.5), (0.3, 0.1)])
    def test_shared_increasing_time_grid(self, horizon, step):
        post, pes = trajectory(0.2, 0.1, 1.0, horizon, step)
        count = math.floor(horizon / step + 1e-9) + 1
        times = [row[0] for row in post]
        assert times == [row[0] for row in pes] == [i * step for i in range(count)]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_pointwise_dominance(self):
        post, pes = trajectory(0.2, 0.17, 1.0, 2.0, 0.05)
        for a, b in zip(post, pes):
            assert b[1] >= a[1]  # fidelity
            assert b[2] >= a[2]  # entanglement

    def test_endpoint_geometry(self):
        post, pes = trajectory(0.3, 0.1, 1.0, 1.5, 0.05)
        assert pes[-1][2] > post[-1][2]
        assert pes[-1][3] < post[-1][3]

    def test_entanglement_matches_closed_form_samples(self):
        post, _ = trajectory(0.2, 0.1, 1.0, 1.0, 0.1)
        for t, f, er, mixed in post:
            assert er == pytest.approx(er_bell_fidelity(f), abs=1e-12)
            assert mixed == pytest.approx(1 - f * f, abs=1e-12)

    def test_monotone_fidelity(self):
        post, _ = trajectory(0.2, 0.1, 1.0, 1.0, 0.1)
        fids = [s[1] for s in post]
        assert all(b < a for a, b in zip(fids, fids[1:]))

    def test_clamped_beyond_separability(self):
        post, _ = trajectory(0.5, 0.0, 1.0, 4.0, 0.5)
        assert post[-1][1] < 0.5
        assert post[-1][2] == 0.0

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            trajectory(0.2, 0.1, 1.0, 1.0, 0.0)


def damping_suppression_row(out_dir):
    """`table2`'s row for the damping gap between one-shot damping 0.5 and 0.85 x 0.5."""
    options = {"convention": "oracle", "sides": "one", "out_dir": str(out_dir)}
    cfg = build_config("table2", options)
    return next(r for r in run(cfg).rows if r["protocol"] == "damping_suppression")


class TestDampingSuppression:
    def test_positive_gap_and_convergence(self, tmp_path):
        row = damping_suppression_row(tmp_path)
        assert row["delta_er"] > 0
        assert row["er_compressed_endpoint"] > row["er_raw_endpoint"]
        assert row["converged"]

    def test_interval_contains_gap(self, tmp_path):
        row = damping_suppression_row(tmp_path)
        lo, hi = row["delta_er_interval"]
        assert lo <= row["delta_er"] <= hi
        assert hi - lo <= 2 * CERTIFIED_GAP
