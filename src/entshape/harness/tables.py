"""The ``table1`` and ``table2`` runners: comparison rows and claim checks.

:func:`experiments.run` imports this module only for those two experiments,
so the other subcommands never compile it. Every row is exact, so both
tables give the same result under every seed.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

import numpy as np

from ..channels import (
    amplitude_damping,
    dd_compression,
    dd_effective_pulse_average,
    depolarizing,
    eb_threshold_depolarizing,
    transmit_bell_pair,
)
from ..dynamics import er_production_rate
from ..entanglement import er_bell_diagonal, er_numeric
from ..protocols import dejmps_recursive, hashing_rate
from ..qstate import BellDiagonalState, bell_projection, binary_entropy
from .claims import claim
from .config import CONVENTIONS, DEFAULT_P_PRIME, SIDES, ExperimentConfig, readings
from .experiments import ExperimentResult, _per_transit_factor, er_pair, input_pair_state
from .report import discrepancy_entry


def calibrate_p_prime(target_er: float, bridge: str, geometry: str, p_raw: float) -> dict:
    """Effective noise parameter whose per-pair entanglement equals the target.

    The pair of :func:`input_pair_state` at p' is ``werner(shrink)``, with
    shrink = (1 - 4q/3)^transits at per-transit strength q. Both readings are
    1 - H2(x): ``oracle`` (the closed form) at the Bell weight
    x = (1 + 3 shrink)/4, ``paper`` (the fidelity form, unclamped) at
    x = (1 + shrink)/2. So one bisection on x in [1/2, 1] serves every
    reading, p' follows in closed form, and no state is built. ``feasible``
    records whether compression from the raw parameter reaches p'
    (0 < p' <= p); infeasible calibrations are kept and flagged, not hidden.
    """
    factor = _per_transit_factor(bridge)
    if not 0 <= target_er <= 1:
        raise ValueError(f"target entanglement {target_er} outside [0, 1]")
    # Halve until the midpoint rounds onto an endpoint: about 53 steps.
    lo, x, hi = 0.5, 0.75, 1.0
    while lo < x < hi:
        if 1 - binary_entropy(x) < target_er:
            lo = x
        else:
            hi = x
        x = 0.5 * (lo + hi)
    shrink = 2 * x - 1 if bridge == "paper" else (4 * x - 1) / 3
    p_prime = 0.75 * (1 - shrink ** (1 if geometry == "one" else 0.5)) / factor
    return {
        "p_prime": p_prime,
        "feasible": 0 < p_prime <= p_raw,
        "achieved_er": 1 - binary_entropy(x),
    }


def _distillation_row(cfg: ExperimentConfig, state: BellDiagonalState, bridge: str, geometry: str) -> dict:
    exact = dejmps_recursive(cfg.n_pairs, state, cfg.rounds)
    global_bd = exact.global_state
    selected = exact.selected_state
    er_global = er_pair(global_bd)
    er_selected = er_pair(selected)
    return {
        "protocol": "post_distillation",
        "convention": bridge,
        "sides": geometry,
        "input_fidelity": state.fidelity,
        "success_probability_exact": exact.success_probability,
        "fidelity_selected_exact": selected.fidelity,
        "fidelity_global_exact": global_bd.fidelity,
        "er_global_oracle": er_global["er_oracle"],
        "er_global_fidelity_form": er_global["er_fidelity_form"],
        "er_global_mixed_trash_oracle": er_bell_diagonal(exact.global_with_placeholder_trash()).value,
        "er_selected_oracle": er_selected["er_oracle"],
        "er_selected_fidelity_form": er_selected["er_fidelity_form"],
        "rate_selected_per_pair": exact.success_probability
        * er_selected["er_oracle"]
        / cfg.n_pairs,
        "rate_success_times_global": exact.success_probability * er_global["er_oracle"],
    }


def _pes_row(cfg: ExperimentConfig, bridge: str, geometry: str, p_prime: float, label: str) -> dict:
    """Shaping-pipeline row at one effective noise parameter.

    The shaped pair is the input pair at p'. When 0 < p' <= p, the decoupling
    compression p * exp(-gamma_sd / f_dd) reaches p' at gamma_sd / f_dd =
    ln(p/p'), the ratio the row reports; otherwise the row says that no
    compression reaches p'. Both conventions report these fields, each for
    its own reading of p.
    """
    dd_reachable = 0 < p_prime <= cfg.p
    dd_ratio = math.log(cfg.p / p_prime) if dd_reachable else None
    state = input_pair_state(bridge, geometry, p_prime)
    ers = er_pair(state)
    return {
        "protocol": label,
        "convention": bridge,
        "sides": geometry,
        "p_prime": p_prime,
        "dd_reachable_from_p": dd_reachable,
        "dd_noise_density_over_frequency": dd_ratio,
        "per_pair_fidelity": state.fidelity,
        "er_per_pair_oracle": ers["er_oracle"],
        "er_per_pair_fidelity_form": ers["er_fidelity_form"],
        "success_probability_exact": 1.0,
        "deterministic": True,
        "rate_selected_per_pair": ers["er_oracle"],
        "rate_success_times_global": ers["er_oracle"],
    }


def _static_claim_entries() -> list[dict]:
    """The always-reported claim checks that need no experiment context."""
    entries = []
    h2 = binary_entropy(0.915)
    entries.append(discrepancy_entry(claim("h2_0915"), h2, "direct evaluation"))
    entries.append(
        discrepancy_entry(
            claim("er_werner_083"),
            1 - h2,
            "fidelity-form closed form at F = 0.83 with correct arithmetic",
            extra={"oracle_reading": er_bell_diagonal(input_pair_state("oracle", "one", 0.17)).value},
        )
    )
    entries.append(
        discrepancy_entry(
            claim("hashing_rate_p02"),
            hashing_rate(0.2),
            "direct evaluation; negative, so not achievable as stated",
        )
    )
    entries.append(
        discrepancy_entry(
            claim("eb_threshold"),
            eb_threshold_depolarizing(),
            "closed form: the Choi state's partial transpose has eigenvalues 1/2 - c_k, "
            "so it is PPT (separable for two qubits) iff its Phi+ weight 1 - p is at "
            "most 1/2, i.e. from p = 1/2",
        )
    )
    entries.append(
        discrepancy_entry(
            claim("dd_limit"),
            0.2 * dd_compression(1.0, math.inf),
            "exact high-frequency limit of the compression formula from p = 0.2: "
            "exp(-gamma_sd / f_dd) -> 1 as f_dd -> infinity, so p' -> p, not p' -> 0",
        )
    )
    oracle = input_pair_state("oracle", "one", 0.2)
    paper = input_pair_state("paper", "one", 0.2)
    entries.append(
        discrepancy_entry(
            claim("fidelity_bridge"),
            oracle.fidelity,
            "Bell fidelity of the exact channel output at p = 0.2 is 1 - p = 0.8, but "
            f"the F-mixture state at F = 0.8 has fidelity {paper.fidelity:.4f}; the two "
            "parameterizations agree only at p = 0",
        )
    )
    # Pulse averaging over the full Pauli set erases the input instead of
    # compressing the noise parameter; the conjugated twirl leaves the
    # depolarizing channel unchanged.
    avg = dd_effective_pulse_average(depolarizing(0.2))
    probe = transmit_bell_pair(avg)
    distance_to_flat = float(np.abs(probe.matrix - np.kron(np.eye(2) / 2, np.eye(2) / 2)).max())
    entries.append(
        discrepancy_entry(
            claim("pulse_average_compression"),
            distance_to_flat,
            "max deviation of the pulse-averaged depolarizing output from I/2 on the "
            "transmitted side is zero: the displayed average destroys the state rather "
            "than compressing p; the conjugated twirl leaves a Pauli-covariant channel "
            "unchanged, so neither reading yields p' < p",
        )
    )
    entries.append(
        discrepancy_entry(
            claim("rate_sign"),
            er_production_rate(0.8, 0.2),
            "closed-form rate at F = 0.8, p = 0.2 is negative; the derived formula and "
            "the stated sign disagree, and the implemented invariant follows the formula",
        )
    )
    return entries


def _closest_reading(values: Iterable[tuple], claimed: float) -> tuple:
    """The (label, value) reading nearest the claimed number; the first one on a tie."""
    return min(values, key=lambda reading: abs(reading[1] - claimed))


def run_table1(cfg: ExperimentConfig) -> ExperimentResult:
    result = ExperimentResult("table1", cfg)
    target = claim("table1_pes").value
    pinned = cfg.p_prime if cfg.p_prime is not None else DEFAULT_P_PRIME
    post, pes, calibs = {}, [], {}
    for bridge in readings(cfg.convention, CONVENTIONS):
        for geometry in readings(cfg.sides, SIDES):
            state = input_pair_state(bridge, geometry, cfg.p)
            post[bridge, geometry] = _distillation_row(cfg, state, bridge, geometry)
            calib = calibs[bridge, geometry] = calibrate_p_prime(target, bridge, geometry, cfg.p)
            calibrated = {
                **_pes_row(cfg, bridge, geometry, calib["p_prime"], "pre_channel_shaping_calibrated"),
                "calibrated_to": target,
                "calibration_achieved_er": calib["achieved_er"],
            }
            shaped = [calibrated, _pes_row(cfg, bridge, geometry, pinned, "pre_channel_shaping")]
            result.rows += [post[bridge, geometry], *shaped]
            pes += shaped

    result.discrepancies.extend(_static_claim_entries())
    best = {}
    for key, column in [
        ("table1_success", "success_probability_exact"),
        ("table1_er_global", "er_global_oracle"),
        ("table1_er_selected", "er_selected_oracle"),
    ]:
        values = {label: r[column] for label, r in post.items()}
        (bridge, geometry), best[key] = _closest_reading(values.items(), claim(key).value)
        result.discrepancies.append(
            discrepancy_entry(
                claim(key),
                best[key],
                f"closest documented convention: {bridge}, sides = {geometry}; "
                f"all readings: { {f'{c}/{s}': round(v, 6) for (c, s), v in values.items()} }",
            )
        )
    rates = {
        label: (r["rate_selected_per_pair"], r["rate_success_times_global"])
        for label, r in post.items()
    }
    flat = ((label, v) for label, pair in rates.items() for v in pair)
    _, closest_rate = _closest_reading(flat, claim("table1_rate").value)
    result.discrepancies.append(
        discrepancy_entry(
            claim("table1_rate"),
            closest_rate,
            "both computed definitions reported: success x selected E_R / pairs, and "
            f"success x global E_R; per convention: { {f'{c}/{s}': (round(a, 6), round(b, 6)) for (c, s), (a, b) in rates.items()} }",
        )
    )
    feasible = [v["achieved_er"] for v in calibs.values() if v["feasible"]]
    summary = {
        f"{b}/{g}": {"p_prime": round(v["p_prime"], 6), "feasible_from_p": v["feasible"]}
        for (b, g), v in calibs.items()
    }
    result.discrepancies.append(
        discrepancy_entry(
            claim("pes_calibration"),
            feasible[0] if feasible else math.nan,
            f"per-pair entanglement reached by the feasible calibration; calibrated "
            f"effective parameters per convention: {summary}; conventions whose "
            f"calibration exceeds p = {cfg.p} cannot be reached by compression",
        )
    )

    best_pes = max(r["er_per_pair_oracle"] for r in pes)
    floor_post = min(r["er_global_oracle"] for r in post.values())
    matched_post = best["table1_er_global"]
    ratio = best_pes / matched_post if matched_post > 0 else math.inf
    result.discrepancies.append(
        discrepancy_entry(
            claim("ratio_14"),
            ratio,
            "achieved ratio of best shaping per-pair E_R to the claim-closest "
            f"distillation global E_R (post floor across conventions: {floor_post:.6f})",
        )
    )
    result.rows.append(
        {
            "protocol": "separation_summary",
            "best_pes_per_pair_er_oracle": best_pes,
            "post_global_er_closest_to_claim": matched_post,
            "achieved_ratio": ratio,
        }
    )
    return result


def run_table2(cfg: ExperimentConfig) -> ExperimentResult:
    result = ExperimentResult("table2", cfg)
    post = {}
    for geometry in readings(cfg.sides, SIDES):
        state = bell_projection(transmit_bell_pair(amplitude_damping(cfg.gamma), geometry))
        row = post[geometry] = _distillation_row(cfg, state, "oracle", geometry)
        row["input_twirled"] = True
        result.rows.append(row)

    def damped_er(g: float):
        return er_numeric(transmit_bell_pair(amplitude_damping(g)))

    plain = damped_er(cfg.gamma)
    raw, compressed = damped_er(0.5), damped_er(0.85 * 0.5)
    delta = compressed.value - raw.value
    interval = [float(compressed.lower) - raw.value, compressed.value - float(raw.lower)]
    result.rows.append(
        {
            "protocol": "pre_channel_shaping",
            "convention": "oracle",
            "sides": "one",
            "er_per_pair_unrotated": plain.value,
            "er_per_pair_unrotated_lower": plain.lower,
            "er_per_pair_unrotated_converged": plain.converged,
            "deterministic": True,
            "rate_selected_per_pair": plain.value,
        }
    )
    result.rows.append(
        {
            "protocol": "damping_suppression",
            "gamma": 0.5,
            "compression": 0.85,
            "delta_er": delta,
            "delta_er_interval": interval,
            "er_raw_endpoint": raw.value,
            "er_compressed_endpoint": compressed.value,
            "converged": raw.converged and compressed.converged,
        }
    )

    for key, column in [
        ("table2_success", "success_probability_exact"),
        ("table2_er_global", "er_global_oracle"),
    ]:
        values = {geometry: r[column] for geometry, r in post.items()}
        _, closest = _closest_reading(values.items(), claim(key).value)
        result.discrepancies.append(
            discrepancy_entry(
                claim(key),
                closest,
                f"twirled damping input; all geometries: { {k: round(v, 6) for k, v in values.items()} }",
            )
        )
    rates = {
        geometry: (r["rate_selected_per_pair"], r["rate_success_times_global"])
        for geometry, r in post.items()
    }
    flat = ((geometry, v) for geometry, pair in rates.items() for v in pair)
    _, closest_rate = _closest_reading(flat, claim("table2_rate").value)
    result.discrepancies.append(
        discrepancy_entry(claim("table2_rate"), closest_rate, f"computed definitions: {rates}")
    )
    result.discrepancies.append(
        discrepancy_entry(
            claim("table2_pes"),
            plain.value,
            "numeric bound on the damped Bell pair; no pre-rotation can change it, "
            "because (I x U)|Phi+> = (U^T x I)|Phi+> turns a rotation of the "
            "transmitted qubit into a local unitary on the kept qubit after the "
            "channel, and relative entropy of entanglement is invariant under "
            "local unitaries",
            extra={"interval": [float(plain.lower), plain.value]},
        )
    )
    result.discrepancies.append(
        discrepancy_entry(
            claim("ad_delta"),
            delta,
            "numeric bounds at one-shot damping 0.5 and 0.85 x 0.5; equal-damping "
            "slices compose exactly (AD(a) o AD(b) = AD(1 - (1-a)(1-b))), so any "
            "time-sliced path ends at the same state",
            extra={"interval": interval},
        )
    )
    result.discrepancies.extend(_static_claim_entries())
    return result
