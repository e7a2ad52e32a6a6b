"""Experiment implementations and result persistence.

Determinism contract: every statistic in a result is a pure function of the
configuration and the master seed. Each Monte Carlo row takes one vectorized
categorical draw from a generator seeded with the master seed, and
aggregation happens in run-index order. Output files are written atomically
(temp file + rename); the wall-clock field is the only part of a result that
varies between identical invocations.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .. import __version__
from ..channels import (
    DDConfig,
    amplitude_damping,
    apply,
    choi,
    dd_effective_pulse_average,
    depolarizing,
    eb_threshold_depolarizing,
    pauli_twirl,
)
from ..dynamics import (
    damping_suppression,
    er_production_rate,
    fidelity_decay,
    trajectory,
)
from ..entanglement import (
    CERTIFIED_GAP,
    er_bell_diagonal,
    er_bell_fidelity,
    er_numeric,
    negativity,
)
from ..protocols import (
    dejmps_monte_carlo,
    dejmps_recursive,
    hashing_rate,
    pes_pipeline,
    round_probabilities,
    sample_branch_indices,
    _round_summaries,
)
from ..qstate import (
    BellDiagonalState,
    bell_pair,
    bell_projection,
    binary_entropy,
    purity_and_mixedness,
    werner,
    werner_from_channel,
)
from .claims import claim
from .config import DEFAULT_P_PRIME, ConfigError, ExperimentConfig
from .report import discrepancy_entry, render_report

GEOMETRIES = {"one": ("one",), "two": ("two",), "both": ("one", "two")}
BRIDGES = {"paper": ("paper",), "oracle": ("oracle",), "both": ("paper", "oracle")}


@dataclass
class ExperimentResult:
    experiment: str
    config_echo: dict
    rows: list[dict] = field(default_factory=list)
    discrepancies: list[dict] = field(default_factory=list)
    files: list[str] = field(default_factory=list)
    ok: bool = True
    wall_clock_seconds: float = 0.0

    def to_document(self) -> dict:
        return {
            "experiment": self.experiment,
            "library_version": __version__,
            "config": self.config_echo,
            "rows": self.rows,
            "discrepancies": self.discrepancies,
            "files": self.files,
            "ok": self.ok,
            "wall_clock_seconds": self.wall_clock_seconds,
        }


def atomic_write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _jsonable(obj):
    """Recursively convert numpy scalars and non-finite floats for JSON."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        value = float(obj)
        return value if math.isfinite(value) else repr(value)
    return obj


def _dump_json(document: dict) -> str:
    return json.dumps(_jsonable(document), indent=2, allow_nan=False) + "\n"


def input_pair_state(bridge: str, geometry: str, p: float) -> BellDiagonalState:
    """Per-pair post-channel state under one documented convention.

    * ``oracle``: exact Kraus application of the depolarizing channel to the
      transmitted qubit(s) of a Bell pair.
    * ``paper``: the F-mixture Werner state at F = 1 - p per transit (the
      claim-side bridge), composed multiplicatively for two transits.
    """
    if bridge == "oracle":
        pair = apply(depolarizing(p), bell_pair(), target=1)
        if geometry == "two":
            pair = apply(depolarizing(p), pair, target=0)
        return bell_projection(pair)
    if bridge == "paper":
        f_eff = (1 - p) if geometry == "one" else (1 - p) ** 2
        return werner(f_eff)
    raise ConfigError(f"unknown convention {bridge!r}")


def er_pair(state: BellDiagonalState) -> dict:
    """Both entanglement readings of a Bell-diagonal state."""
    return {
        "er_oracle": er_bell_diagonal(state).value,
        "er_fidelity_form": er_bell_fidelity(state.fidelity),
    }


def calibrate_p_prime(target_er: float, bridge: str, geometry: str, p_raw: float) -> dict:
    """Effective noise parameter whose per-pair entanglement equals the target.

    Solved by bisection on the documented bridge: the claim-side reading
    evaluates the published fidelity-form at its bridge parameter
    F = 1 - p' per transit, the first-principles reading uses the exact
    Bell-diagonal closed form on the channel output. ``feasible`` records
    whether the value is actually reachable by compression from the raw
    parameter (p' <= p); infeasible calibrations are kept and flagged,
    not hidden.
    """

    def per_pair_er(p_prime: float) -> float:
        if bridge == "paper":
            f_bridge = (1 - p_prime) if geometry == "one" else (1 - p_prime) ** 2
            return er_bell_fidelity(f_bridge, clamp=False)
        return er_bell_diagonal(input_pair_state(bridge, geometry, p_prime)).value

    lo, hi = 1e-9, 0.75 - 1e-9
    if not (per_pair_er(hi) <= target_er <= per_pair_er(lo)):
        return {"p_prime": None, "feasible": False, "achieved_er": None}
    # Halve until the midpoint rounds onto an endpoint: about 55 steps.
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if per_pair_er(mid) > target_er:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return {
        "p_prime": mid,
        "feasible": bool(mid <= p_raw + 1e-9),
        "achieved_er": per_pair_er(mid),
    }


def parallel_branch_indices(
    state: BellDiagonalState, rounds: int, n_pairs: int, run_count: int, seed: int, _workers=None
) -> np.ndarray:
    """Per-run branch indices for one distillation row, in one vectorized draw.

    The sixth argument is accepted and ignored, because
    ``perfbench/tracer.py`` passes it when it wraps this function as the
    Monte Carlo layer.
    """
    probs = round_probabilities(_round_summaries(state, rounds, n_pairs))
    return sample_branch_indices(probs, seed, run_count)


def _distillation_row(cfg: ExperimentConfig, state: BellDiagonalState, bridge: str, geometry: str) -> dict:
    indices = parallel_branch_indices(
        state, cfg.rounds, cfg.n_pairs, cfg.run_count, cfg.master_seed
    )
    mc = dejmps_monte_carlo(
        cfg.n_pairs,
        state,
        cfg.rounds,
        cfg.run_count,
        cfg.master_seed,
        batch_count=cfg.batch_count,
        outcome_indices=indices,
    )
    exact = mc.exact
    global_bd = exact.global_state
    global_mixed_trash = exact.global_with_placeholder_trash()
    selected = exact.selected_state
    er_global = er_pair(global_bd)
    er_selected = er_pair(selected)
    row = {
        "protocol": "post_distillation",
        "convention": bridge,
        "sides": geometry,
        "input_fidelity": state.fidelity,
        "success_probability_exact": exact.success_probability,
        "success_probability_mc": mc.success_mean,
        "success_probability_mc_se": mc.success_se,
        "fidelity_selected_exact": selected.fidelity,
        "fidelity_global_exact": global_bd.fidelity,
        "fidelity_global_mc": mc.fidelity_mean,
        "fidelity_global_mc_se": mc.fidelity_se,
        "er_global_oracle": er_global["er_oracle"],
        "er_global_fidelity_form": er_global["er_fidelity_form"],
        "er_global_mixed_trash_oracle": er_bell_diagonal(global_mixed_trash).value,
        "er_global_mc_mean": mc.er_global_mean,
        "er_global_mc_std": mc.er_global_std,
        "er_selected_oracle": er_selected["er_oracle"],
        "er_selected_fidelity_form": er_selected["er_fidelity_form"],
        "rate_selected_per_pair": exact.success_probability
        * er_selected["er_oracle"]
        / cfg.n_pairs,
        "rate_success_times_global": exact.success_probability * er_global["er_oracle"],
    }
    return row


def _pes_row(cfg: ExperimentConfig, bridge: str, geometry: str, p_prime: float, label: str) -> dict:
    """Shaping-pipeline row at one effective noise parameter.

    Under the first-principles bridge the row runs the actual shaping
    pipeline with a decoupling configuration whose compression realizes the
    requested p' (noise density / f_dd = ln(p/p'), the only combination the
    compression reads, so f_dd is fixed at 1); when p' exceeds the raw
    parameter the compression formula cannot reach it, so the state is
    constructed directly and the row says so. The claim-side bridge has no
    channel realization (it is a parameter identification), so its states
    are always constructed directly.
    """
    dd_reachable = 0 < p_prime <= cfg.p
    dd_ratio = math.log(cfg.p / p_prime) if dd_reachable and p_prime > 0 else None
    if bridge == "oracle" and dd_reachable:
        dd_cfg = DDConfig(noise_spectral_density=dd_ratio, pulse_frequency=1.0)
        pes = pes_pipeline(depolarizing(cfg.p), dd_cfg, sides=geometry)
        state = bell_projection(pes.pair)
        realized = pes.effective_channel.param
    else:
        state = input_pair_state(bridge, geometry, p_prime)
        realized = p_prime
    ers = er_pair(state)
    return {
        "protocol": label,
        "convention": bridge,
        "sides": geometry,
        "p_prime": p_prime,
        "p_prime_realized": realized,
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
            extra={"oracle_reading": er_bell_diagonal(werner_from_channel(0.17)).value},
        )
    )
    hr = hashing_rate(0.2)
    entries.append(
        discrepancy_entry(
            claim("hashing_rate_p02"),
            hr.value,
            "direct evaluation; negative, so not achievable as stated",
            reproduced=not hr.is_negative,
        )
    )
    threshold = eb_threshold_depolarizing()
    entries.append(
        discrepancy_entry(
            claim("eb_threshold"),
            threshold,
            "bisection on the minimal partial-transpose eigenvalue of the Choi state",
        )
    )
    dd = DDConfig(noise_spectral_density=1.0, pulse_frequency=1e12)
    entries.append(
        discrepancy_entry(
            claim("dd_limit"),
            0.2 * dd.compression,
            "compression formula evaluated at pulse frequency 1e12 from p = 0.2: "
            "the formula's high-frequency limit is p' -> p, not p' -> 0",
        )
    )
    mix = werner(0.8)
    kraus = werner_from_channel(0.2)
    entries.append(
        discrepancy_entry(
            claim("fidelity_bridge"),
            kraus.fidelity,
            "Bell fidelity of the exact channel output at p = 0.2 is 1 - p = 0.8, but "
            f"the F-mixture state at F = 0.8 has fidelity {mix.fidelity:.4f}; the two "
            "parameterizations agree only at p = 0",
            reproduced=False,
        )
    )
    # Pulse averaging over the full Pauli set erases the input instead of
    # compressing the noise parameter; the conjugated twirl leaves the
    # depolarizing channel unchanged.
    avg = dd_effective_pulse_average(depolarizing(0.2))
    probe = apply(avg, bell_pair(), target=1)
    distance_to_flat = float(np.abs(probe.matrix - np.kron(np.eye(2) / 2, np.eye(2) / 2)).max())
    entries.append(
        discrepancy_entry(
            claim("pulse_average_compression"),
            distance_to_flat,
            "max deviation of the pulse-averaged depolarizing output from I/2 on the "
            "transmitted side is zero: the displayed average destroys the state rather "
            "than compressing p; the conjugated twirl leaves a Pauli-covariant channel "
            "unchanged, so neither reading yields p' < p",
            reproduced=False,
        )
    )
    entries.append(
        discrepancy_entry(
            claim("rate_sign"),
            er_production_rate(0.8, 0.2),
            "closed-form rate at F = 0.8, p = 0.2 is negative; the derived formula and "
            "the stated sign disagree, and the implemented invariant follows the formula",
            reproduced=False,
        )
    )
    return entries


def run_table1(cfg: ExperimentConfig) -> ExperimentResult:
    result = ExperimentResult("table1", cfg.echo())
    bridges = BRIDGES[cfg.convention]
    geometries = GEOMETRIES[cfg.sides]

    target_claim = claim("table1_pes")
    calibs = {
        (b, g): calibrate_p_prime(target_claim.value, b, g, cfg.p)
        for b in bridges
        for g in geometries
    }
    for bridge in bridges:
        for geometry in geometries:
            state = input_pair_state(bridge, geometry, cfg.p)
            row = _distillation_row(cfg, state, bridge, geometry)
            result.rows.append(row)

            calib = calibs[(bridge, geometry)]
            if calib["p_prime"] is not None:
                pes_cal = _pes_row(
                    cfg, bridge, geometry, calib["p_prime"], "pre_channel_shaping_calibrated"
                )
                pes_cal["calibrated_to"] = target_claim.value
                pes_cal["calibration_feasible_from_p"] = calib["feasible"]
                result.rows.append(pes_cal)
            pinned = cfg.p_prime if cfg.p_prime is not None else DEFAULT_P_PRIME
            pes_pinned = _pes_row(cfg, bridge, geometry, pinned, "pre_channel_shaping")
            result.rows.append(pes_pinned)

    result.discrepancies.extend(_static_claim_entries())
    post_rows = [r for r in result.rows if r["protocol"] == "post_distillation"]
    pes_rows = [r for r in result.rows if r["protocol"].startswith("pre_channel_shaping")]

    best = {}
    for key, claimed, pick in [
        ("table1_success", claim("table1_success"), lambda r: r["success_probability_exact"]),
        ("table1_er_global", claim("table1_er_global"), lambda r: r["er_global_oracle"]),
        ("table1_er_selected", claim("table1_er_selected"), lambda r: r["er_selected_oracle"]),
    ]:
        values = {(r["convention"], r["sides"]): pick(r) for r in post_rows}
        closest = min(values.items(), key=lambda kv: abs(kv[1] - claimed.value))
        best[key] = closest
        result.discrepancies.append(
            discrepancy_entry(
                claimed,
                closest[1],
                f"closest documented convention: {closest[0][0]}, sides = {closest[0][1]}; "
                f"all readings: { {f'{c}/{s}': round(v, 6) for (c, s), v in values.items()} }",
            )
        )
    rates = {
        (r["convention"], r["sides"]): (
            r["rate_selected_per_pair"],
            r["rate_success_times_global"],
        )
        for r in post_rows
    }
    flat = [(k, v) for k, pair in rates.items() for v in pair]
    closest_rate = min(flat, key=lambda kv: abs(kv[1] - claim("table1_rate").value))
    result.discrepancies.append(
        discrepancy_entry(
            claim("table1_rate"),
            closest_rate[1],
            "both computed definitions reported: success x selected E_R / pairs, and "
            f"success x global E_R; per convention: { {f'{c}/{s}': (round(a, 6), round(b, 6)) for (c, s), (a, b) in rates.items()} }",
        )
    )
    feasible = {k: v for k, v in calibs.items() if v["p_prime"] is not None and v["feasible"]}
    summary = {
        f"{b}/{g}": {
            "p_prime": round(v["p_prime"], 6) if v["p_prime"] is not None else None,
            "feasible_from_p": v["feasible"],
        }
        for (b, g), v in calibs.items()
    }
    achieved = next((v["achieved_er"] for v in feasible.values()), math.nan)
    result.discrepancies.append(
        discrepancy_entry(
            claim("pes_calibration"),
            achieved,
            f"per-pair entanglement reached by the feasible calibration; calibrated "
            f"effective parameters per convention: {summary}; conventions whose "
            f"calibration exceeds p = {cfg.p} cannot be reached by compression",
            reproduced=bool(feasible),
        )
    )

    best_pes = max(r["er_per_pair_oracle"] for r in pes_rows)
    floor_post = min(r["er_global_oracle"] for r in post_rows)
    matched_post = best["table1_er_global"][1]
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
    result = ExperimentResult("table2", cfg.echo())
    geometries = GEOMETRIES[cfg.sides]

    for geometry in geometries:
        pair = apply(amplitude_damping(cfg.gamma), bell_pair(), target=1)
        if geometry == "two":
            pair = apply(amplitude_damping(cfg.gamma), pair, target=0)
        state = bell_projection(pair)
        row = _distillation_row(cfg, state, "oracle", geometry)
        row["input_twirled"] = True
        result.rows.append(row)

    plain = er_numeric(apply(amplitude_damping(cfg.gamma), bell_pair(), target=1))
    suppression = damping_suppression(0.5, 0.85)
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
            "delta_er": suppression.value,
            "er_raw_endpoint": suppression.er_raw_endpoint,
            "er_compressed_endpoint": suppression.er_compressed_endpoint,
            "converged": suppression.converged,
        }
    )

    post_rows = [r for r in result.rows if r["protocol"] == "post_distillation"]
    for key, pick in [
        ("table2_success", lambda r: r["success_probability_exact"]),
        ("table2_er_global", lambda r: r["er_global_oracle"]),
    ]:
        values = {r["sides"]: pick(r) for r in post_rows}
        closest = min(values.items(), key=lambda kv: abs(kv[1] - claim(key).value))
        result.discrepancies.append(
            discrepancy_entry(
                claim(key),
                closest[1],
                f"twirled damping input; all geometries: { {k: round(v, 6) for k, v in values.items()} }",
            )
        )
    rates = {
        r["sides"]: (r["rate_selected_per_pair"], r["rate_success_times_global"])
        for r in post_rows
    }
    flat = [(k, v) for k, pair in rates.items() for v in pair]
    closest_rate = min(flat, key=lambda kv: abs(kv[1] - claim("table2_rate").value))
    result.discrepancies.append(
        discrepancy_entry(claim("table2_rate"), closest_rate[1], f"computed definitions: {rates}")
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
            suppression.value,
            "numeric bounds at one-shot damping 0.5 and 0.85 x 0.5; equal-damping "
            "slices compose exactly (AD(a) o AD(b) = AD(1 - (1-a)(1-b))), so any "
            "time-sliced path ends at the same state",
        )
    )
    result.discrepancies.extend(_static_claim_entries())
    return result


def run_flow(cfg: ExperimentConfig) -> ExperimentResult:
    result = ExperimentResult("flow", cfg.echo())
    p_prime = cfg.p_prime if cfg.p_prime is not None else DEFAULT_P_PRIME
    post_traj, pes_traj = trajectory(cfg.p, p_prime, 1.0, cfg.t_total, cfg.t_step)

    state = input_pair_state(
        "oracle" if cfg.convention == "both" else cfg.convention,
        "one" if cfg.sides == "both" else cfg.sides,
        cfg.p,
    )
    exact = dejmps_recursive(cfg.n_pairs, state, cfg.rounds)
    global_bd = exact.global_state
    pes_state = input_pair_state(
        "oracle" if cfg.convention == "both" else cfg.convention,
        "one" if cfg.sides == "both" else cfg.sides,
        p_prime,
    )

    def point(name: str, bd: BellDiagonalState) -> dict:
        _, mixed = purity_and_mixedness(bd.to_density_matrix())
        return {
            "name": name,
            "fidelity": bd.fidelity,
            "er_bits": er_bell_diagonal(bd).value,
            "mixedness": mixed,
        }

    points = [
        point("post_global_average", global_bd),
        point("post_success_subensemble", exact.selected_state),
        point("pes_endpoint", pes_state),
    ]
    result.rows.extend(points)
    if points[2]["er_bits"] < points[0]["er_bits"]:
        result.ok = False

    out_dir = Path(cfg.out_dir)
    files = emit_flow_data({"post": post_traj, "pes": pes_traj}, points, out_dir)
    result.files.extend(str(f) for f in files)
    return result


def emit_flow_data(trajectories: dict, points: list[dict], out_dir: Path) -> list[Path]:
    """One CSV per trajectory plus a landmark-points CSV."""
    if not trajectories:
        raise ValueError("no trajectories to emit")
    written = []
    for name, traj in trajectories.items():
        path = out_dir / f"{name}_trajectory.csv"
        lines = ["t,fidelity,er_bits,mixedness"]
        for t, f, er, mixed in traj.samples:
            lines.append(f"{t!r},{f!r},{er!r},{mixed!r}")
        atomic_write_text(path, "\n".join(lines) + "\n")
        written.append(path)
    path = out_dir / "flow_points.csv"
    lines = ["name,fidelity,er_bits,mixedness"]
    for pt in points:
        lines.append(f"{pt['name']},{pt['fidelity']!r},{pt['er_bits']!r},{pt['mixedness']!r}")
    atomic_write_text(path, "\n".join(lines) + "\n")
    written.append(path)
    return written


def run_sweep(cfg: ExperimentConfig) -> ExperimentResult:
    result = ExperimentResult("sweep", cfg.echo())
    bridges = BRIDGES[cfg.convention]
    geometries = GEOMETRIES[cfg.sides]
    ratio = 0.85 if cfg.p_prime is None else None
    grid = np.linspace(cfg.sweep_start, cfg.sweep_stop, cfg.sweep_count)
    lines = ["p,convention,sides,p_prime,er_post_pair,er_pes_pair,success_probability"]
    for p in grid:
        for bridge in bridges:
            for geometry in geometries:
                p_prime = cfg.p_prime if cfg.p_prime is not None else ratio * p
                state = input_pair_state(bridge, geometry, float(p))
                pes_state = input_pair_state(bridge, geometry, float(p_prime))
                exact = dejmps_recursive(cfg.n_pairs, state, cfg.rounds)
                row = {
                    "p": float(p),
                    "convention": bridge,
                    "sides": geometry,
                    "p_prime": float(p_prime),
                    "er_post_pair": er_bell_diagonal(state).value,
                    "er_pes_pair": er_bell_diagonal(pes_state).value,
                    "success_probability": exact.success_probability,
                }
                result.rows.append(row)
                lines.append(
                    ",".join(
                        [
                            repr(row["p"]),
                            bridge,
                            geometry,
                            repr(row["p_prime"]),
                            repr(row["er_post_pair"]),
                            repr(row["er_pes_pair"]),
                            repr(row["success_probability"]),
                        ]
                    )
                )
    path = Path(cfg.out_dir) / "sweep.csv"
    atomic_write_text(path, "\n".join(lines) + "\n")
    result.files.append(str(path))
    return result


def run_er_single(cfg: ExperimentConfig) -> ExperimentResult:
    result = ExperimentResult("er", cfg.echo())
    # An unconverged numeric value is still a valid upper bound; it is
    # surfaced through the converged flag rather than failing the run.
    if cfg.er_state == "werner":
        rho = werner(cfg.er_param).to_density_matrix()
    elif cfg.er_state == "werner_channel":
        rho = werner_from_channel(cfg.er_param).to_density_matrix()
    elif cfg.er_state == "depolarizing":
        rho = apply(depolarizing(cfg.er_param), bell_pair(), target=1)
    elif cfg.er_state == "amplitude_damping":
        rho = apply(amplitude_damping(cfg.er_param), bell_pair(), target=1)
    else:
        rho = bell_pair()

    numeric = er_numeric(rho)
    row = {
        "state": cfg.er_state,
        "param": cfg.er_param,
        "er_numeric": numeric.value,
        "er_numeric_lower": numeric.lower,
        "iterations": numeric.iterations,
        "converged": numeric.converged,
        "negativity": negativity(rho),
    }
    try:
        bd = BellDiagonalState.from_density_matrix(rho, tol=1e-9)
        row["er_closed_form"] = er_bell_diagonal(bd).value
        row["er_fidelity_form"] = er_bell_fidelity(bd.fidelity)
    except ValueError:
        row["er_closed_form"] = None
        row["er_fidelity_form"] = None
    result.rows.append(row)
    return result


def run_selfcheck(cfg: ExperimentConfig) -> ExperimentResult:
    """Oracle batteries; any failure flips ``ok`` and the CLI exits nonzero."""
    result = ExperimentResult("selfcheck", cfg.echo())
    checks: list[tuple[str, bool, str]] = []

    # The closed form must lie in every certified interval [lower, value].
    grid = [werner(0.55 + 0.04 * i) for i in range(11)]
    pairs = [(er_bell_diagonal(w).value, er_numeric(w.to_density_matrix())) for w in grid]
    worst = max(max(res.lower - closed, closed - res.value) for closed, res in pairs)
    converged = all(res.converged for _, res in pairs)
    detail = f"worst excursion beyond [lower, value] {worst:.2e} bits (slack {CERTIFIED_GAP:.0e})"
    checks.append(("closed_vs_numeric_werner_grid", converged and worst <= CERTIFIED_GAP, detail))

    state = werner_from_channel(cfg.p)
    mc = dejmps_monte_carlo(cfg.n_pairs, state, cfg.rounds, min(cfg.run_count, 4000), cfg.master_seed)
    gap = abs(mc.success_mean - mc.exact.success_probability)
    limit = 3 * max(mc.success_se, 1e-6)
    checks.append(("mc_vs_exact_success", gap <= limit, f"gap {gap:.4f} vs 3se {limit:.4f}"))
    fgap = abs(mc.fidelity_mean - mc.exact.global_state.fidelity)
    flimit = 3 * max(mc.fidelity_se, 1e-6)
    checks.append(("mc_vs_exact_fidelity", fgap <= flimit, f"gap {fgap:.4f} vs 3se {flimit:.4f}"))

    worst_rel = 0.0
    for f in np.linspace(0.55, 0.95, 10):
        for p in np.linspace(0.05, 0.5, 10):
            h = 1e-5
            t0 = -math.log(f) / p  # time at which F(t) = f starting from F0 = 1
            fd_rate = (
                er_bell_fidelity(fidelity_decay(1.0, p, t0 + h))
                - er_bell_fidelity(fidelity_decay(1.0, p, t0 - h))
            ) / (2 * h)
            closed = er_production_rate(fidelity_decay(1.0, p, t0), p)
            worst_rel = max(worst_rel, abs(fd_rate / closed - 1))
    checks.append(("rate_vs_finite_difference", worst_rel < 1e-6, f"worst rel {worst_rel:.2e}"))

    rng = np.random.default_rng(cfg.master_seed)
    ok_channel = True
    for _ in range(25):
        p = float(rng.uniform(0, 0.75))
        rho = apply(depolarizing(p), bell_pair(), target=1)
        tr_ok = abs(float(np.trace(rho.matrix).real) - 1) < 1e-10
        psd_ok = float(np.linalg.eigvalsh(rho.matrix).min()) > -1e-10
        ok_channel = ok_channel and tr_ok and psd_ok
    checks.append(("channel_trace_psd", ok_channel, "25 random depolarizing applications"))

    twirled = pauli_twirl(amplitude_damping(0.3))
    c = choi(twirled)
    off = c.matrix - bell_projection(c).to_density_matrix().matrix
    checks.append(
        ("twirled_choi_bell_diagonal", float(np.abs(off).max()) < 1e-10, "damping 0.3")
    )

    for name, ok, detail in checks:
        result.rows.append({"check": name, "ok": ok, "detail": detail})
        if not ok:
            result.ok = False
    return result


_RUNNERS = {
    "table1": run_table1,
    "table2": run_table2,
    "flow": run_flow,
    "sweep": run_sweep,
    "er": run_er_single,
    "selfcheck": run_selfcheck,
}


def run(cfg: ExperimentConfig) -> ExperimentResult:
    """Validate, dispatch, and persist one experiment."""
    cfg.validate()
    start = time.monotonic()
    result = _RUNNERS[cfg.experiment](cfg)
    result.wall_clock_seconds = time.monotonic() - start

    out_dir = Path(cfg.out_dir)
    doc_path = out_dir / f"{cfg.experiment}_result.json"
    atomic_write_text(doc_path, _dump_json(result.to_document()))
    result.files.append(str(doc_path))
    if result.discrepancies:
        report_path = out_dir / f"{cfg.experiment}_discrepancy_report.txt"
        atomic_write_text(report_path, render_report(result.experiment, result.discrepancies))
        result.files.append(str(report_path))
    return result
