"""Experiment implementations and result persistence.

Determinism contract: every statistic in a result is a pure function of the
configuration and the master seed. Only ``check`` reads the seed: its random
channel draws and its sampled runs, one vectorized categorical draw compared
against the exact branch table. The table rows are exact, so ``table1`` and
``table2`` give the same result under every seed. Output files are written
atomically (temp file + rename); the wall-clock field is the only part of a
result that varies between identical invocations.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import time
from collections.abc import Iterable, Sequence
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .. import __version__
from ..channels import (
    amplitude_damping,
    apply,  # not called here; perfbench/tracer.py's self-test reads experiments.apply
    dd_compression,
    dd_effective_pulse_average,
    depolarizing,
    eb_threshold_depolarizing,
    pauli_twirl,
    transmit_bell_pair,
)
from ..dynamics import er_production_rate, fidelity_decay, trajectory
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
    first_failure_branches,
    hashing_rate,
    sample_branch_indices,
)
from ..qstate import (
    BellDiagonalState,
    bell_projection,
    binary_entropy,
    purity_and_mixedness,
    werner,
    werner_from_channel,
)
from .claims import claim
from .config import CONVENTIONS, DEFAULT_P_PRIME, ER_FAMILIES, SIDES, ConfigError, ExperimentConfig, readings
from .report import discrepancy_entry, render_report

# Sampled runs of the self-check's comparison with the exact branch table;
# its standard-error test needs more than one run.
SELFCHECK_RUNS = 4000


@dataclass
class ExperimentResult:
    experiment: str
    config: ExperimentConfig  # serialized by asdict, in declaration order
    rows: list[dict] = field(default_factory=list)
    discrepancies: list[dict] = field(default_factory=list)
    files: list[str] = field(default_factory=list)
    ok: bool = True
    wall_clock_seconds: float = 0.0

    def to_document(self) -> dict:
        doc = asdict(self)
        return {"experiment": doc.pop("experiment"), "library_version": __version__, **doc}


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


def write_csv(path: Path, columns: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Header line, then one line per row: strings raw, numbers by repr."""
    lines = [",".join(columns)]
    lines += [",".join(v if isinstance(v, str) else repr(v) for v in row) for row in rows]
    atomic_write_text(path, "\n".join(lines) + "\n")


def paper_bridge_fidelity(geometry: str, p: float) -> float:
    """Claim-side bridge F = 1 - p per transit, composed multiplicatively for two."""
    return (1 - p) if geometry == "one" else (1 - p) ** 2


def input_pair_state(bridge: str, geometry: str, p: float) -> BellDiagonalState:
    """Per-pair post-channel state under one documented convention.

    * ``oracle``: exact Kraus application of the depolarizing channel to the
      transmitted qubit(s) of a Bell pair.
    * ``paper``: the F-mixture Werner state at the bridge fidelity
      :func:`paper_bridge_fidelity`.
    """
    if bridge == "oracle":
        return bell_projection(transmit_bell_pair(depolarizing(p), geometry))
    if bridge == "paper":
        return werner(paper_bridge_fidelity(geometry, p))
    raise ConfigError(f"unknown convention {bridge!r}")


def er_pair(state: BellDiagonalState) -> dict:
    """Both entanglement readings of a Bell-diagonal state."""
    return {
        "er_oracle": er_bell_diagonal(state).value,
        "er_fidelity_form": er_bell_fidelity(state.fidelity),
    }


def calibrate_p_prime(target_er: float, bridge: str, geometry: str, p_raw: float) -> dict:
    """Effective noise parameter whose per-pair entanglement equals the target.

    Solved by bisection on the documented bridge, with no state built per
    step. The claim-side reading evaluates the published fidelity form,
    unclamped, at its bridge fidelity F = 1 - p' per transit. The
    first-principles reading evaluates the exact Bell-diagonal closed form
    on the oracle pair's Bell weights, which algebra fixes: the one-sided
    pair is ``werner_from_channel(p')``, and two transits compose the shrink
    factor 1 - 4p'/3 into (1 - 4p'/3)^2, the one-sided pair at
    2p' - 4p'^2/3. ``feasible`` records whether the value is actually
    reachable by compression from the raw parameter (p' <= p); infeasible
    calibrations are kept and flagged, not hidden.
    """
    if bridge not in ("paper", "oracle"):
        raise ConfigError(f"unknown convention {bridge!r}")

    def per_pair_er(p_prime: float) -> float:
        if bridge == "paper":
            return er_bell_fidelity(paper_bridge_fidelity(geometry, p_prime), clamp=False)
        one_sided = p_prime if geometry == "one" else 2 * p_prime - 4 * p_prime**2 / 3
        return er_bell_diagonal(werner_from_channel(one_sided)).value

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
    state: BellDiagonalState, rounds: int, n_pairs: int, count: int, seed: int, _workers=None
) -> np.ndarray:
    """Per-run branch indices of one distillation pipeline, in one vectorized draw.

    The self-check draws its runs here. The sixth argument is accepted and
    ignored, because ``perfbench/tracer.py`` passes it when it wraps this
    function as the sampling layer.
    """
    probs = first_failure_branches(state, rounds, n_pairs).probabilities
    return sample_branch_indices(probs, seed, count)


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
    compression reaches p'. Both bridges report these fields, though the
    claim-side one is a parameter identification with no channel behind it.
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
            extra={"oracle_reading": er_bell_diagonal(werner_from_channel(0.17)).value},
        )
    )
    hr = hashing_rate(0.2)
    entries.append(
        discrepancy_entry(
            claim("hashing_rate_p02"),
            hr,
            "direct evaluation; negative, so not achievable as stated",
            reproduced=hr >= 0,
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
            shaped = []
            if calib["p_prime"] is not None:
                row = _pes_row(cfg, bridge, geometry, calib["p_prime"], "pre_channel_shaping_calibrated")
                shaped.append({**row, "calibrated_to": target, "calibration_feasible_from_p": calib["feasible"]})
            shaped.append(_pes_row(cfg, bridge, geometry, pinned, "pre_channel_shaping"))
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
        f"{b}/{g}": {
            "p_prime": round(v["p_prime"], 6) if v["p_prime"] is not None else None,
            "feasible_from_p": v["feasible"],
        }
        for (b, g), v in calibs.items()
    }
    result.discrepancies.append(
        discrepancy_entry(
            claim("pes_calibration"),
            feasible[0] if feasible else math.nan,
            f"per-pair entanglement reached by the feasible calibration; calibrated "
            f"effective parameters per convention: {summary}; conventions whose "
            f"calibration exceeds p = {cfg.p} cannot be reached by compression",
            reproduced=bool(feasible),
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


def run_flow(cfg: ExperimentConfig) -> ExperimentResult:
    result = ExperimentResult("flow", cfg)
    p_prime = cfg.p_prime if cfg.p_prime is not None else DEFAULT_P_PRIME
    post_traj, pes_traj = trajectory(cfg.p, p_prime, 1.0, cfg.t_total, cfg.t_step)

    bridge = "oracle" if cfg.convention == "both" else cfg.convention
    geometry = "one" if cfg.sides == "both" else cfg.sides
    state = input_pair_state(bridge, geometry, cfg.p)
    exact = dejmps_recursive(cfg.n_pairs, state, cfg.rounds)
    global_bd = exact.global_state
    pes_state = input_pair_state(bridge, geometry, p_prime)

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
    for name, traj in (("post", post_traj), ("pes", pes_traj)):
        path = out_dir / f"{name}_trajectory.csv"
        write_csv(path, ("t", "fidelity", "er_bits", "mixedness"), traj)
        result.files.append(str(path))
    path = out_dir / "flow_points.csv"
    write_csv(path, tuple(points[0]), (pt.values() for pt in points))
    result.files.append(str(path))
    return result


def run_sweep(cfg: ExperimentConfig) -> ExperimentResult:
    result = ExperimentResult("sweep", cfg)
    ratio = 0.85 if cfg.p_prime is None else None
    grid = np.linspace(cfg.sweep_start, cfg.sweep_stop, cfg.sweep_count)
    for p in grid:
        for bridge in readings(cfg.convention, CONVENTIONS):
            for geometry in readings(cfg.sides, SIDES):
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
    path = Path(cfg.out_dir) / "sweep.csv"
    write_csv(path, tuple(result.rows[0]), (row.values() for row in result.rows))
    result.files.append(str(path))
    return result


def run_er_single(cfg: ExperimentConfig) -> ExperimentResult:
    result = ExperimentResult("er", cfg)
    # An unconverged numeric value is still a valid upper bound; it is
    # surfaced through the converged flag rather than failing the run.
    _, make_state = ER_FAMILIES[cfg.er_state]
    rho = make_state(cfg.er_param)
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
    result = ExperimentResult("selfcheck", cfg)
    checks: list[tuple[str, bool, str]] = []

    # The closed form must lie in every certified interval [lower, value].
    grid = [werner(0.55 + 0.04 * i) for i in range(11)]
    pairs = [(er_bell_diagonal(w).value, er_numeric(w.to_density_matrix())) for w in grid]
    worst = max(max(res.lower - closed, closed - res.value) for closed, res in pairs)
    converged = all(res.converged for _, res in pairs)
    detail = f"worst excursion beyond [lower, value] {worst:.2e} bits (slack {CERTIFIED_GAP:.0e})"
    checks.append(("closed_vs_numeric_werner_grid", converged and worst <= CERTIFIED_GAP, detail))

    state = werner_from_channel(cfg.p)
    exact = dejmps_recursive(cfg.n_pairs, state, cfg.rounds)
    indices = parallel_branch_indices(state, cfg.rounds, cfg.n_pairs, SELFCHECK_RUNS, cfg.master_seed)
    mc = dejmps_monte_carlo(exact, indices)
    gap = abs(mc.success_mean - exact.success_probability)
    limit = 3 * max(mc.success_se, 1e-6)
    checks.append(("mc_vs_exact_success", gap <= limit, f"gap {gap:.4f} vs 3se {limit:.4f}"))
    fgap = abs(mc.fidelity_mean - exact.global_state.fidelity)
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
        rho = transmit_bell_pair(depolarizing(p))
        tr_ok = abs(float(np.trace(rho.matrix).real) - 1) < 1e-10
        psd_ok = float(np.linalg.eigvalsh(rho.matrix).min()) > -1e-10
        ok_channel = ok_channel and tr_ok and psd_ok
    checks.append(("channel_trace_psd", ok_channel, "25 random depolarizing applications"))

    twirled = pauli_twirl(amplitude_damping(0.3))
    c = transmit_bell_pair(twirled)
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
