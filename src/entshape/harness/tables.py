"""The claims registry and the ``table1`` and ``table2`` runners.

``CLAIMS`` holds each claimed value under reproduction: its number (with
the stated spread when one was given), or none for a qualitative claim.
Each claim check is a record, claim key -> (computed value, method text[,
extra fields]). Both tables share the eight static records and one
nearest-reading rule for their post-distillation claims; each adds its own
shaping records and turns its records into entries at one call site.

:func:`experiments.run` imports this module only for those two experiments,
so the other subcommands never compile it. Every row is exact, so both
tables give the same result under every seed.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

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
from ..entanglement import CERTIFIED_GAP, ERResult, er_bell_diagonal, er_numeric, er_vedral_plenio
from ..protocols import dejmps_recursive, hashing_rate
from ..qstate import BellDiagonalState, bell_projection, binary_entropy
from .config import CONVENTIONS, DEFAULT_P_PRIME, SIDES, ExperimentConfig, readings
from .experiments import ExperimentResult, _per_transit_factor, er_pair, input_pair_state
from .report import discrepancy_entry


@dataclass(frozen=True)
class Claim:
    key: str
    statement: str
    where: str
    value: float | None
    std: float | None = None


CLAIMS: dict[str, Claim] = {
    c.key: c
    for c in [
        Claim(
            "h2_0915",
            "H2(0.915) ~ 0.456",
            "proof appendix, worked decoupling example",
            0.456,
        ),
        Claim(
            "er_werner_083",
            "E_R at Werner fidelity 0.83 ~ 0.544 bits per pair",
            "proof appendix, worked decoupling example",
            0.544,
        ),
        Claim(
            "hashing_rate_p02",
            "1 - H2(p) - p log2(3) is an achievable distillation rate at p = 0.2",
            "main text, channel construction",
            None,
        ),
        Claim(
            "eb_threshold",
            "the depolarizing channel is not entanglement-breaking for p < 3/4",
            "main text and proof appendix, channel domain",
            0.75,
        ),
        Claim(
            "dd_limit",
            "p' -> 0 as the pulse frequency grows, with p' = p exp(-gamma/f)",
            "main text, decoupling construction",
            0.0,
        ),
        Claim(
            "fidelity_bridge",
            "the channel output equals the F-mixture Werner state with F = 1 - p",
            "proof appendix, channel output form",
            None,
        ),
        Claim(
            "pulse_average_compression",
            "averaging over a Pauli pulse set compresses the depolarizing parameter",
            "proof appendix, pulse-average construction",
            None,
        ),
        Claim(
            "rate_sign",
            "the entanglement rate along the unshaped evolution satisfies dE/dt >= 0",
            "main text, rate-comparison statement",
            None,
        ),
        Claim(
            "table1_er_global",
            "recurrence-distillation global E_R = 0.013 +/- 0.004 at p = 0.2",
            "results table, depolarizing row",
            0.013,
            0.004,
        ),
        Claim(
            "table1_success",
            "recurrence-distillation success probability = 0.31 +/- 0.02 at p = 0.2",
            "results table, depolarizing row",
            0.31,
            0.02,
        ),
        Claim(
            "table1_rate",
            "effective distillable rate 0.004 at p = 0.2",
            "results table, depolarizing row",
            0.004,
        ),
        Claim(
            "table1_pes",
            "shaping-pipeline per-pair E_R = 0.187 +/- 0.009 at p = 0.2",
            "results table, shaping row",
            0.187,
            0.009,
        ),
        Claim(
            "table1_er_selected",
            "success-branch E_R ~ 0.78 for four pairs at p = 0.2",
            "proof appendix, recurrence worked example",
            0.78,
        ),
        Claim(
            "table2_er_global",
            "recurrence-distillation global E_R = 0.021 +/- 0.006 at gamma = 0.3",
            "damping results table",
            0.021,
            0.006,
        ),
        Claim(
            "table2_success",
            "recurrence-distillation success probability = 0.28 +/- 0.02 at gamma = 0.3",
            "damping results table",
            0.28,
            0.02,
        ),
        Claim(
            "table2_rate",
            "effective distillable rate 0.006 at gamma = 0.3",
            "damping results table",
            0.006,
        ),
        Claim(
            "table2_pes",
            "shaping-pipeline per-pair E_R = 0.156 +/- 0.011 at gamma = 0.3",
            "damping results table",
            0.156,
            0.011,
        ),
        Claim(
            "ratio_14",
            "the shaping pipeline retains a factor 14 more global E_R than distillation",
            "flow figure caption",
            14.0,
        ),
        Claim(
            "ad_delta",
            "integrated suppression ~ 0.135 for damping gamma = 0.5",
            "proof appendix, damping check",
            0.135,
        ),
        Claim(
            "pes_calibration",
            "per-pair E_R 0.187 is reachable with finite decoupling from p = 0.2",
            "proof appendix, worked decoupling example",
            0.187,
        ),
        Claim(
            "same_channel_separation",
            "shaping ends at a state 'whose relative entropy of entanglement strictly "
            "exceeds the maximum achievable by post-distillation from the same channel'",
            "abstract, separation statement",
            None,
        ),
    ]
}


def calibrate_p_prime(target_er: float, bridge: str, geometry: str) -> dict:
    """Effective noise parameter whose per-pair entanglement equals the target.

    The pair of :func:`input_pair_state` at p' is ``werner(shrink)``, with
    shrink = (1 - 4q/3)^transits at per-transit strength q. Both readings are
    1 - H2(x): ``oracle`` (the closed form) at the Bell weight
    x = (1 + 3 shrink)/4, ``paper`` (the fidelity form, unclamped) at
    x = (1 + shrink)/2. So one bisection on x in [1/2, 1] serves every
    reading, p' follows in closed form, and no state is built. Whether
    compression from p reaches p' is the calibrated row's
    ``dd_reachable_from_p``.
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
    return {"p_prime": p_prime, "achieved_er": 1 - binary_entropy(x)}


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


def _static_records() -> dict[str, tuple]:
    """The eight always-reported claim records, which need no experiment context.

    Each qualitative claim's computed value is whether its statement holds,
    and its ``evidence`` field is the number that decides it.
    """
    h2 = binary_entropy(0.915)
    oracle = input_pair_state("oracle", "one", 0.2)
    paper = input_pair_state("paper", "one", 0.2)
    # Pulse averaging over the full Pauli set erases the input instead of
    # compressing the noise parameter; the conjugated twirl leaves the
    # depolarizing channel unchanged.
    probe = transmit_bell_pair(dd_effective_pulse_average(depolarizing(0.2)))
    distance_to_flat = float(np.abs(probe.matrix - np.kron(np.eye(2) / 2, np.eye(2) / 2)).max())
    rate = hashing_rate(0.2)
    slope = er_production_rate(0.8, 0.2)
    return {
        "h2_0915": (h2, "direct evaluation"),
        "er_werner_083": (
            1 - h2,
            "fidelity-form closed form at F = 0.83 with correct arithmetic",
            {"oracle_reading": er_bell_diagonal(input_pair_state("oracle", "one", 0.17)).value},
        ),
        "hashing_rate_p02": (
            rate >= 0,
            "direct evaluation; negative, so not achievable as stated",
            {"evidence": rate},
        ),
        "eb_threshold": (
            eb_threshold_depolarizing(),
            "closed form: the Choi state's partial transpose has eigenvalues 1/2 - c_k, "
            "so it is PPT (separable for two qubits) iff its Phi+ weight 1 - p is at "
            "most 1/2, i.e. from p = 1/2",
        ),
        "dd_limit": (
            0.2 * dd_compression(1.0, math.inf),
            "exact high-frequency limit of the compression formula from p = 0.2: "
            "exp(-gamma_sd / f_dd) -> 1 as f_dd -> infinity, so p' -> p, not p' -> 0",
        ),
        "fidelity_bridge": (
            oracle.coefficients == paper.coefficients,
            "Bell fidelity of the exact channel output at p = 0.2 is 1 - p = 0.8, but "
            f"the F-mixture state at F = 0.8 has fidelity {paper.fidelity:.4f}; the two "
            "parameterizations agree only at p = 0",
            {"evidence": oracle.fidelity},
        ),
        "pulse_average_compression": (
            # A depolarized pair at p' has Phi+ weight 1 - p', so p' < p reads as weight > 1 - p.
            bell_projection(probe).fidelity > 1 - 0.2,
            "max deviation of the pulse-averaged depolarizing output from I/2 on the "
            "transmitted side is zero: the displayed average destroys the state rather "
            "than compressing p; the conjugated twirl leaves a Pauli-covariant channel "
            "unchanged, so neither reading yields p' < p",
            {"evidence": distance_to_flat},
        ),
        "rate_sign": (
            slope >= 0,
            "closed-form rate at F = 0.8, p = 0.2 is negative; the derived formula and "
            "the stated sign disagree, and the implemented invariant follows the formula",
            {"evidence": slope},
        ),
    }


def _nearest_reading_records(
    table: str,
    post: dict[str, dict],
    method: Callable[[str, dict], str],
    rate_method: Callable[[dict], str],
) -> dict[str, tuple]:
    """A table's post-distillation claim records, each read where it is nearest its claim.

    ``post`` maps each reading label to its distillation row. Each of
    ``<table>_success``, ``<table>_er_global`` and ``<table>_er_selected`` that
    the registry holds takes its column at the reading nearest the claimed
    number, the first reading of ``post`` on a tie, worded by
    ``method(label, values)``. ``<table>_rate`` takes the nearest of both rate
    definitions of every reading, worded by ``rate_method(rates)``.
    """
    records = {}
    for name, column in [
        ("success", "success_probability_exact"),
        ("er_global", "er_global_oracle"),
        ("er_selected", "er_selected_oracle"),
    ]:
        key = f"{table}_{name}"
        if key in CLAIMS:
            values = {label: row[column] for label, row in post.items()}
            label = min(values, key=lambda reading: abs(values[reading] - CLAIMS[key].value))
            records[key] = (values[label], method(label, values))
    rates = {
        label: (row["rate_selected_per_pair"], row["rate_success_times_global"])
        for label, row in post.items()
    }
    claimed = CLAIMS[f"{table}_rate"].value
    nearest = min((v for pair in rates.values() for v in pair), key=lambda v: abs(v - claimed))
    records[f"{table}_rate"] = (nearest, rate_method(rates))
    return records


def _separation_record(gamma: float, geometry: str, one_sided: ERResult) -> tuple:
    """``same_channel_separation`` on damping at gamma: the best shaped pair against the ceiling.

    The ceiling is the certified interval of damped Phi+ itself, which no LOCC
    post-processing of the unshaped pairs raises per pair. One-sided, the
    shaped pair is a local unitary of it (``one_sided``'s solve), so the claim
    is false. Two-sided, the Vedral-Plenio closed form certifies the claim
    when it exceeds the ceiling's upper end by more than CERTIFIED_GAP bits,
    and leaves it not decided otherwise.
    """
    if geometry == "one":
        shaped, ceiling, holds = one_sided.value, one_sided, False
        method = (
            "one-sided damping: (I x U)|Phi+> = (U^T x I)|Phi+> turns every pre-channel "
            "rotation into a local unitary after the channel, so shaping keeps the "
            "ceiling's own REE and cannot exceed it"
        )
    else:
        shaped = er_vedral_plenio(1 - gamma)
        ceiling = er_numeric(transmit_bell_pair(amplitude_damping(gamma), "two"))
        holds = True if shaped - ceiling.value > CERTIFIED_GAP else None
        method = (
            "two-sided damping: R_y(pi) on A sends Phi+ to Psi-, which the channel takes "
            "to (1 - gamma)|Psi-><Psi-| + gamma|00><00|, whose REE is the Vedral-Plenio "
            "closed form at 1 - gamma; it is compared with the upper end of the numeric "
            "interval of damped Phi+, and holds when the margin exceeds the 1e-9 bit "
            "certification gap"
        )
    extra = {
        "sides": geometry,
        "gamma": gamma,
        "shaped_er": shaped,
        "ceiling_interval": [ceiling.lower, ceiling.value],
        "margin": shaped - ceiling.value,
        "label": "fixed Phi+ source; pre-channel local unitaries; REE form",
    }
    return holds, method, extra


def run_table1(cfg: ExperimentConfig, result: ExperimentResult) -> None:
    target = CLAIMS["table1_pes"].value
    pinned = cfg.p_prime if cfg.p_prime is not None else DEFAULT_P_PRIME
    post, calibrated, pes = {}, {}, []
    for bridge in readings(cfg.convention, CONVENTIONS):
        for geometry in readings(cfg.sides, SIDES):
            label = f"{bridge}/{geometry}"
            state = input_pair_state(bridge, geometry, cfg.p)
            post[label] = _distillation_row(cfg, state, bridge, geometry)
            calib = calibrate_p_prime(target, bridge, geometry)
            calibrated[label] = {
                **_pes_row(cfg, bridge, geometry, calib["p_prime"], "pre_channel_shaping_calibrated"),
                "calibrated_to": target,
                "calibration_achieved_er": calib["achieved_er"],
            }
            shaped = [calibrated[label], _pes_row(cfg, bridge, geometry, pinned, "pre_channel_shaping")]
            result.rows += [post[label], *shaped]
            pes += shaped

    distillation = _nearest_reading_records(
        "table1",
        post,
        lambda label, values: f"closest documented convention: {label.replace('/', ', sides = ')}; "
        f"all readings: { {k: round(v, 6) for k, v in values.items()} }",
        lambda rates: "both computed definitions reported: success x selected E_R / pairs, and "
        f"success x global E_R; per convention: { {k: (round(a, 6), round(b, 6)) for k, (a, b) in rates.items()} }",
    )
    reachable = [r["calibration_achieved_er"] for r in calibrated.values() if r["dd_reachable_from_p"]]
    summary = {
        label: {"p_prime": round(r["p_prime"], 6), "feasible_from_p": r["dd_reachable_from_p"]}
        for label, r in calibrated.items()
    }
    best_pes = max(r["er_per_pair_oracle"] for r in pes)
    floor_post = min(r["er_global_oracle"] for r in post.values())
    matched_post = distillation["table1_er_global"][0]
    ratio = best_pes / matched_post if matched_post > 0 else math.inf
    records = {
        **_static_records(),
        **distillation,
        "pes_calibration": (
            reachable[0] if reachable else math.nan,
            f"per-pair entanglement reached by the feasible calibration; calibrated "
            f"effective parameters per convention: {summary}; conventions whose "
            f"calibration exceeds p = {cfg.p} cannot be reached by compression",
        ),
        "ratio_14": (
            ratio,
            "achieved ratio of best shaping per-pair E_R to the claim-closest "
            f"distillation global E_R (post floor across conventions: {floor_post:.6f})",
        ),
    }
    result.discrepancies += [discrepancy_entry(CLAIMS[key], *record) for key, record in records.items()]
    result.rows.append(
        {
            "protocol": "separation_summary",
            "best_pes_per_pair_er_oracle": best_pes,
            "post_global_er_closest_to_claim": matched_post,
            "achieved_ratio": ratio,
        }
    )


def run_table2(cfg: ExperimentConfig, result: ExperimentResult) -> None:
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
    interval = [compressed.lower - raw.value, compressed.value - raw.lower]
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

    records = {
        **_nearest_reading_records(
            "table2",
            post,
            lambda label, values: "twirled damping input; "
            f"all geometries: { {k: round(v, 6) for k, v in values.items()} }",
            lambda rates: f"computed definitions: {rates}",
        ),
        "table2_pes": (
            plain.value,
            "numeric bound on the damped Bell pair; no pre-rotation can change it, "
            "because (I x U)|Phi+> = (U^T x I)|Phi+> turns a rotation of the "
            "transmitted qubit into a local unitary on the kept qubit after the "
            "channel, and relative entropy of entanglement is invariant under "
            "local unitaries",
            {"interval": [plain.lower, plain.value]},
        ),
        "ad_delta": (
            delta,
            "numeric bounds at one-shot damping 0.5 and 0.85 x 0.5; equal-damping "
            "slices compose exactly (AD(a) o AD(b) = AD(1 - (1-a)(1-b))), so any "
            "time-sliced path ends at the same state",
            {"interval": interval},
        ),
        **_static_records(),
    }
    result.discrepancies += [discrepancy_entry(CLAIMS[key], *record) for key, record in records.items()]
    result.discrepancies += [
        discrepancy_entry(CLAIMS["same_channel_separation"], *_separation_record(cfg.gamma, geometry, plain))
        for geometry in readings(cfg.sides, SIDES)
    ]
