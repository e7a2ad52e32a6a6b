"""Experiment implementations and result persistence.

Determinism contract: every statistic in a result is a pure function of the
configuration and the master seed. Only ``check`` reads the seed: its random
channel draws and its sampled runs, one vectorized categorical draw compared
against the exact branch table. The table rows are exact, so ``table1`` and
``table2`` give the same result under every seed. Their runners are in
:mod:`entshape.harness.tables`, which :func:`run` imports only for them.
Output files are written atomically (temp file + rename); the wall-clock
field is the only part of a result that varies between identical
invocations.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import time
from collections.abc import Iterable, Sequence
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .. import __version__
from ..channels import (
    amplitude_damping,
    apply,  # not called here; perfbench/tracer.py's self-test reads experiments.apply
    depolarizing,
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
    sample_branch_indices,
)
from ..qstate import (
    BellDiagonalState,
    bell_projection,
    purity_and_mixedness,
    werner,
)
from .config import (
    CONVENTIONS, DEFAULT_P_PRIME, ER_FAMILIES, READS_CONVENTION, SIDES, ConfigError, ExperimentConfig, readings
)
from .report import render_report

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


def _per_transit_factor(bridge: str) -> float:
    """Depolarizing strength per transit per unit of a convention's p.

    ``paper`` reads p as the map rho -> (1 - p) rho + p I/2, which is
    ``depolarizing(3p/4)`` for p in [0, 1].
    """
    if bridge not in ("paper", "oracle"):
        raise ConfigError(f"unknown convention {bridge!r}")
    return 0.75 if bridge == "paper" else 1.0


def input_pair_state(bridge: str, geometry: str, p: float) -> BellDiagonalState:
    """Per-pair post-channel state: Kraus application of a depolarizing channel.

    Both conventions build the pair on the one Kraus path and differ only in
    how they read p.
    """
    q = _per_transit_factor(bridge) * p
    return bell_projection(transmit_bell_pair(depolarizing(q), geometry))


def er_pair(state: BellDiagonalState) -> dict:
    """Both entanglement readings of a Bell-diagonal state."""
    return {
        "er_oracle": er_bell_diagonal(state).value,
        "er_fidelity_form": er_bell_fidelity(state.fidelity),
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

    state = input_pair_state("oracle", "one", cfg.p)
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
    # Restates the DensityMatrix constructor's trace and PSD checks on the
    # channel's output; the PSD test reads the spectrum the constructor kept.
    for _ in range(25):
        p = float(rng.uniform(0, 0.75))
        rho = transmit_bell_pair(depolarizing(p))
        tr_ok = abs(float(np.trace(rho.matrix).real) - 1) < 1e-10
        psd_ok = float(rho.spectrum[0]) > -1e-10
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


# The table runners live in .tables, imported by run() only when a table runs.
_RUNNERS = {
    "flow": run_flow,
    "sweep": run_sweep,
    "er": run_er_single,
    "selfcheck": run_selfcheck,
}


def run(cfg: ExperimentConfig) -> ExperimentResult:
    """Validate, dispatch, and persist one experiment."""
    cfg.validate()
    if cfg.experiment not in READS_CONVENTION:
        # An unread convention is echoed as "", so it cannot change the result bytes.
        cfg = replace(cfg, convention="")
    if cfg.experiment in ("table1", "table2"):
        from . import tables

        runner = getattr(tables, f"run_{cfg.experiment}")
    else:
        runner = _RUNNERS[cfg.experiment]
    start = time.monotonic()
    result = runner(cfg)
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
