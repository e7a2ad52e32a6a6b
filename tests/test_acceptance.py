"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible under ``pytest -s``) and
asserts the criterion at its stated tolerance. Tolerances are pinned here,
not configurable.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from entshape.dynamics import delta_er, er_production_rate, fidelity_decay
from entshape.entanglement import (
    CERTIFIED_GAP,
    er_bell_diagonal,
    er_bell_fidelity,
    er_numeric,
    er_pure,
)
from entshape.harness.config import build_config
from entshape.harness.experiments import run
from entshape.protocols import dejmps_monte_carlo, dejmps_recursive, sample_branch_indices
from entshape.qstate import (
    BellDiagonalState,
    DensityMatrix,
    bell_pair,
    bell_state,
    partial_trace,
    random_density_matrix,
    relative_entropy,
    von_neumann_entropy,
    werner,
)
from ree_oracle import inverse_ree_pair


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, detail


def test_criterion_1_closed_form_numeric_agreement():
    start = time.monotonic()
    worst = 0.0
    for f in [0.55 + 0.04 * i for i in range(11)]:
        closed = er_bell_diagonal(werner(f)).value
        numeric = er_numeric(werner(f).to_density_matrix()).value
        worst = max(worst, abs(numeric - closed))
    elapsed = time.monotonic() - start
    report(
        1,
        worst <= 5e-3 and elapsed < 60,
        f"numeric vs closed form on 11-point Werner grid: worst gap {worst:.2e} "
        f"(tol 5e-3), runtime {elapsed:.1f}s (limit 60s)",
    )


def test_criterion_2_pure_state_oracle():
    numeric = er_numeric(bell_pair()).value
    exact_ok = True
    rng = np.random.default_rng(77)
    for _ in range(10):
        z = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi = z / np.linalg.norm(z)
        closed = er_pure(psi).value
        reduction = von_neumann_entropy(
            partial_trace(DensityMatrix.from_state_vector(psi, (2, 2)), keep=[0])
        )
        exact_ok = exact_ok and abs(closed - reduction) < 1e-12
    bell_closed = er_pure(bell_state()).value
    report(
        2,
        abs(numeric - 1.0) <= 5e-3 and exact_ok and abs(bell_closed - 1.0) < 1e-12,
        f"numeric bound on the maximally entangled pair {numeric:.6f} (1 +/- 5e-3); "
        "pure-state value equals the reduction entropy exactly on 10 random states",
    )


def test_criterion_3_rate_matches_finite_differences():
    start = time.monotonic()
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
    elapsed = time.monotonic() - start
    report(
        3,
        worst <= 1e-6 and elapsed < 5,
        f"closed-form rate vs central differences on 10x10 grid: worst relative "
        f"gap {worst:.2e} (tol 1e-6), runtime {elapsed:.2f}s (limit 5s)",
    )


def test_criterion_4_suppression_positive_on_grid():
    checked = 0
    ok = True
    for p in np.linspace(0.05, 0.5, 8):
        for p_prime in np.linspace(0.0, p, 6)[:-1]:
            for horizon in (0.5, 1.0, 2.0):
                if fidelity_decay(1.0, p, horizon) > 0.5:
                    checked += 1
                    ok = ok and delta_er(p, float(p_prime), 1.0, horizon) > 0
    zero_ok = all(delta_er(p, p, 1.0, 1.0) == 0.0 for p in (0.1, 0.2, 0.5))
    report(
        4,
        ok and zero_ok and checked > 50,
        f"suppression strictly positive at {checked} grid points with entangled "
        "endpoints, and exactly zero at p' = p",
    )


def test_criterion_5_separation_at_desk_scale():
    start = time.monotonic()
    factors = {}
    for bridge, geometry in [("oracle", "one"), ("oracle", "two"), ("paper", "one"), ("paper", "two")]:
        from entshape.harness.experiments import input_pair_state

        post_state = input_pair_state(bridge, geometry, 0.2)
        exact = dejmps_recursive(4, post_state, 2)
        mc = dejmps_monte_carlo(exact, sample_branch_indices(exact.probabilities, 515151, 10_000))
        post_er = er_bell_diagonal(exact.global_state).value
        pes_er = er_bell_diagonal(input_pair_state(bridge, geometry, 0.17)).value
        factors[f"{bridge}/{geometry}"] = pes_er / post_er if post_er > 0 else math.inf
        assert abs(mc.success_mean - exact.success_probability) <= 4 * max(mc.success_se, 1e-4)
    elapsed = time.monotonic() - start
    worst = min(factors.values())
    report(
        5,
        worst >= 5 and elapsed < 300,
        f"shaping-vs-distillation per-pair separation at p = 0.2, p' = 0.17: "
        f"factors {({k: (round(v, 1) if math.isfinite(v) else 'inf') for k, v in factors.items()})} "
        f"(claimed 14x is reported, not asserted); 1e4-run sampling in {elapsed:.1f}s "
        "(limit 300s)",
    )


def test_criterion_6_monte_carlo_matches_exact_tree():
    details = []
    ok = True
    for fidelity in (0.7, 0.8, 0.9):
        state = BellDiagonalState((fidelity, *3 * [(1 - fidelity) / 3]))
        exact = dejmps_recursive(4, state, 2)
        mc = dejmps_monte_carlo(exact, sample_branch_indices(exact.probabilities, 606060, 10_000))
        ps_gap = abs(mc.success_mean - exact.success_probability)
        ps_ok = ps_gap <= 3 * mc.success_se
        fid_gap = abs(mc.fidelity_mean - exact.global_state.fidelity)
        fid_ok = fid_gap <= 3 * mc.fidelity_se
        ok = ok and ps_ok and fid_ok
        details.append(f"F={fidelity}: ps gap {ps_gap:.4f}<=3se, fid gap {fid_gap:.4f}<=3se")
    report(6, ok, "; ".join(details))


def test_criterion_7_table1_reproduction(tmp_path):
    cfg = build_config(
        "table1",
        {"convention": "both", "sides": "both", "out_dir": str(tmp_path)},
    )
    result = run(cfg)
    post = [r for r in result.rows if r["protocol"] == "post_distillation"]
    in_window = [
        (r["convention"], r["sides"], r["success_probability_exact"])
        for r in post
        if abs(r["success_probability_exact"] - 0.31) <= 0.06
    ]
    calibrated = [
        r for r in result.rows
        if r["protocol"] == "pre_channel_shaping_calibrated"
        and r.get("calibration_feasible_from_p")
    ]
    calibration_exact = any(
        abs(r["er_per_pair_oracle"] - 0.187) < 1e-6 for r in calibrated
    )
    printed = [
        f"{r['convention']}/{r['sides']}: p'={r['p_prime']:.6f}" for r in calibrated
    ]
    report_text = (tmp_path / "table1_discrepancy_report.txt").read_text()
    mandatory = ("h2_0915", "hashing_rate_p02", "eb_threshold", "dd_limit")
    has_mandatory = all(key in report_text for key in mandatory)
    report(
        7,
        bool(in_window) and calibration_exact and has_mandatory,
        f"success probability within 0.31 +/- 0.06 under {in_window}; per-pair "
        f"entanglement 0.187 reproduced exactly by calibration ({printed}); report "
        f"carries the mandatory entries {mandatory}",
    )


def test_criterion_8_table2_reported(tmp_path):
    cfg = build_config(
        "table2",
        {
            "convention": "oracle",
            "sides": "both",
            "out_dir": str(tmp_path),
        },
    )
    result = run(cfg)
    by_claim = {d["claim"]: d for d in result.discrepancies}
    needed = ("table2_er_global", "table2_success", "table2_rate", "table2_pes", "ad_delta")
    ok = all(
        key in by_claim
        and by_claim[key]["computed_value"] is not None
        and by_claim[key]["status"] in ("reproduced", "discrepant")
        for key in needed
    )
    summary = {
        key: (round(by_claim[key]["computed_value"], 4), by_claim[key]["status"])
        for key in needed
        if key in by_claim
    }
    report(
        8,
        ok,
        f"damping-channel analogue computed and reported against claimed "
        f"(0.021, 0.28, 0.156): {summary}",
    )


def test_criterion_9_locc_and_convexity_suites():
    rng = np.random.default_rng(909)

    def haar2():
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, r = np.linalg.qr(z)
        return q * (np.diag(r) / np.abs(np.diag(r)))

    states = [random_density_matrix(rng, (2, 2)) for _ in range(20)]
    # Ten more from the inverse-REE construction, whose REE is known exactly.
    oracle_rng = np.random.default_rng(910)
    exact = {}
    while len(exact) < 10:
        pair = inverse_ree_pair(oracle_rng, int(oracle_rng.integers(1, 5)), oracle_rng.uniform(0.1, 0.95))
        if pair is not None:
            exact[len(states)] = relative_entropy(*pair)
            states.append(pair[0])
    base = [er_numeric(rho) for rho in states]

    # Interval statements: [lower, value] holds the REE to within CERTIFIED_GAP.
    unitary_ok = True
    worst_unitary = -1.0
    for i, (rho, res) in enumerate(zip(states, base)):
        u = np.kron(haar2(), haar2())
        rotated = er_numeric(DensityMatrix(u @ rho.matrix @ u.conj().T, (2, 2)))
        apart = max(rotated.lower - res.value, res.lower - rotated.value)
        if i in exact:
            for r in (res, rotated):
                apart = max(apart, r.lower - exact[i], exact[i] - r.value)
        worst_unitary = max(worst_unitary, apart)
        unitary_ok = unitary_ok and apart <= CERTIFIED_GAP

    p0 = np.diag([1, 0]).astype(complex)
    p1 = np.diag([0, 1]).astype(complex)
    dephase_ok = True
    for rho, res in zip(states, base):
        dephased = sum(
            np.kron(proj, np.eye(2)) @ rho.matrix @ np.kron(proj, np.eye(2))
            for proj in (p0, p1)
        )
        after = er_numeric(DensityMatrix(dephased, (2, 2)))
        dephase_ok = dephase_ok and after.lower <= res.value + CERTIFIED_GAP

    convex_ok = True
    worst_convex = -1.0
    for i in range(len(states) // 2):
        rho1, rho2 = states[2 * i], states[2 * i + 1]
        e1, e2 = base[2 * i].value, base[2 * i + 1].value
        for lam in (0.25, 0.5, 0.75):
            mix = DensityMatrix(lam * rho1.matrix + (1 - lam) * rho2.matrix, (2, 2))
            excess = er_numeric(mix).lower - (lam * e1 + (1 - lam) * e2)
            worst_convex = max(worst_convex, excess)
            convex_ok = convex_ok and excess <= CERTIFIED_GAP
    report(
        9,
        unitary_ok and dephase_ok and convex_ok,
        f"30-state suites (20 Ginibre, 10 inverse-REE with exact values), as certified "
        f"intervals: local-unitary invariance worst "
        f"separation {worst_unitary:.2e} (tol {CERTIFIED_GAP:.0e}), measure-and-discard "
        f"never increases (tol {CERTIFIED_GAP:.0e}), convexity worst excess of the "
        f"mixture's lower bound {worst_convex:.2e} (tol {CERTIFIED_GAP:.0e})",
    )


def test_criterion_10_determinism(tmp_path):
    def cli(*args):
        return subprocess.run(
            [sys.executable, "-m", "entshape", *args], capture_output=True, text=True
        )

    out = tmp_path / "same"
    args = ("table1", "--convention", "both", "--seed", "112233", "--out", str(out), "--quiet")
    assert cli(*args).returncode == 0
    first = "\n".join(
        l for l in (out / "table1_result.json").read_text().splitlines() if "wall_clock" not in l
    )
    (out / "table1_result.json").unlink()
    assert cli(*args).returncode == 0
    second = "\n".join(
        l for l in (out / "table1_result.json").read_text().splitlines() if "wall_clock" not in l
    )
    report(
        10,
        first == second,
        "repeat invocation byte-identical outside the wall-clock field",
    )
