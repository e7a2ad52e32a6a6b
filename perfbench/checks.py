"""Independent numpy checks of entshape's outputs.

REE checks (every ree-* solve):

* the certificate is PPT (minimum partial-transpose eigenvalue >= -1e-10);
* D(rho || sigma_cert) reproduces the reported value within 1e-9;
* the value is not below the floor max(S(A), S(B)) - S(AB);
* the Frank-Wolfe gap (Jaggi 2013) at the certificate,
  (max over product states of <ab|G|ab> - 1) / ln 2 with G the log-gradient,
  so that [value - gap, value] holds the true REE. The maximum comes from a
  Bloch-sphere grid over qubit B, the exact 2x2 top eigenvalue over qubit A,
  and alternating local refinement; it is "computed", not "certified",
  because the grid carries no Lipschitz cover.

CLI checks compare each subcommand's exit code, ``ok`` flag, claim statuses
and self-check rows against ``expected_status.json``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

PPT_TOL = 1e-10
VALUE_TOL = 1e-9
FLOOR_TOL = 1e-9


def entropy_bits(m: np.ndarray) -> float:
    vals = np.linalg.eigvalsh(m)
    vals = vals[vals > 1e-15]
    return float(-np.sum(vals * np.log2(vals)))


def relative_entropy_bits(rho: np.ndarray, sigma: np.ndarray) -> float:
    svals, svecs = np.linalg.eigh(sigma)
    diag = np.einsum("ji,jk,ki->i", svecs.conj(), rho, svecs).real
    return -entropy_bits(rho) - float(np.sum(diag * np.log2(svals)))


def partial_transpose_b(m: np.ndarray) -> np.ndarray:
    return m.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)


def reduced(m: np.ndarray, keep: int) -> np.ndarray:
    t = m.reshape(2, 2, 2, 2)
    return np.einsum("ijkj->ik", t) if keep == 0 else np.einsum("ijil->jl", t)


def log_gradient(rho: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """G with Tr[D G] = d/dt Tr[rho ln(sigma + t D)] at t = 0 (Daleckii-Krein)."""
    s, v = np.linalg.eigh(sigma)
    logs = np.log(s)
    ds = s[:, None] - s[None, :]
    close = np.abs(ds) <= 1e-12 * np.maximum(s[:, None], s[None, :])
    with np.errstate(divide="ignore", invalid="ignore"):
        f = np.where(close, 2.0 / (s[:, None] + s[None, :]), (logs[:, None] - logs[None, :]) / ds)
    g = v @ (f * (v.conj().T @ rho @ v)) @ v.conj().T
    return 0.5 * (g + g.conj().T)


def _kets(theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    return np.stack([np.cos(theta / 2), np.sin(theta / 2) * np.exp(1j * phi)], axis=-1)


def _top_eig_2x2(m: np.ndarray) -> np.ndarray:
    half_tr = 0.5 * (m[..., 0, 0].real + m[..., 1, 1].real)
    half_diff = 0.5 * (m[..., 0, 0].real - m[..., 1, 1].real)
    return half_tr + np.sqrt(half_diff**2 + np.abs(m[..., 0, 1]) ** 2)


def max_product_expectation(g: np.ndarray, extra_b: list[np.ndarray] = (), grid: int = 48) -> float:
    """max over unit a, b of <ab|G|ab> for a Hermitian 4x4 G."""
    g4 = g.reshape(2, 2, 2, 2)
    th, ph = np.meshgrid(np.linspace(0, math.pi, grid + 1), np.linspace(0, 2 * math.pi, 2 * grid, endpoint=False))
    bs = _kets(th.ravel(), ph.ravel())
    if len(extra_b):
        bs = np.concatenate([bs, np.asarray(extra_b).reshape(-1, 2)])
    m_a = np.einsum("nj,ijkl,nl->nik", bs.conj(), g4, bs)
    scores = _top_eig_2x2(m_a)
    best = float(scores.max())
    for idx in np.argsort(scores)[-8:]:
        b = bs[idx]
        value = -math.inf
        for _ in range(200):
            _, vecs = np.linalg.eigh(np.einsum("j,ijkl,l->ik", b.conj(), g4, b))
            a = vecs[:, -1]
            vals, vecs = np.linalg.eigh(np.einsum("i,ijkl,k->jl", a.conj(), g4, a))
            b = vecs[:, -1]
            if vals[-1] - value <= 1e-15:
                value = max(value, float(vals[-1]))
                break
            value = float(vals[-1])
        best = max(best, value)
    return best


def fw_gap_bits(rho: np.ndarray, sigma: np.ndarray, extra_b: list[np.ndarray] = ()) -> float:
    """Computed Frank-Wolfe duality gap of sigma, in bits."""
    g = log_gradient(rho, sigma)
    return (max_product_expectation(g, extra_b) - 1.0) / math.log(2)


def check_ree(rho: np.ndarray, value: float, certificate) -> tuple[float, list[str]]:
    """(computed FW gap in bits, list of violations) for one numeric REE result.

    ``certificate`` is entshape's SeparableAnsatz; only its weights and Bloch
    angles are read, and sigma is rebuilt here from them.
    """
    problems = []
    weights = np.array(certificate.weights)
    a_kets = _kets(*np.array([pa for pa, _ in certificate.product_states]).T)
    b_kets = _kets(*np.array([pb for _, pb in certificate.product_states]).T)
    vecs = np.einsum("ni,nj->nij", a_kets, b_kets).reshape(-1, 4)
    sigma = np.einsum("n,ni,nj->ij", weights, vecs, vecs.conj())
    sigma = 0.5 * (sigma + sigma.conj().T) / np.trace(sigma).real
    if not math.isfinite(value) or value < 0:
        problems.append(f"value {value} is not a finite non-negative number")
        return math.nan, problems
    pt_min = float(np.linalg.eigvalsh(partial_transpose_b(sigma)).min())
    if pt_min < -PPT_TOL:
        problems.append(f"certificate not PPT: min eigenvalue {pt_min:.3e}")
    d = relative_entropy_bits(rho, sigma)
    if abs(d - value) > VALUE_TOL:
        problems.append(f"D(rho||sigma) = {d!r} differs from value {value!r}")
    floor = max(entropy_bits(reduced(rho, 0)), entropy_bits(reduced(rho, 1))) - entropy_bits(rho)
    if value < floor - FLOOR_TOL:
        problems.append(f"value {value!r} below entropy floor {floor!r}")
    gap = fw_gap_bits(rho, sigma, list(b_kets))
    if gap < -VALUE_TOL:
        problems.append(f"negative FW gap {gap:.3e}: product search below the certificate's own atoms")
    return max(gap, 0.0), problems


def cli_status(exit_code: int, out_dir: Path, experiment: str) -> dict:
    """Exit code, ok flag, claim statuses and self-check rows of one CLI run."""
    status: dict = {"exit": exit_code}
    path = out_dir / f"{experiment}_result.json"
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        status["error"] = f"cannot read {path.name}: {exc}"
        return status
    status["ok"] = doc.get("ok")
    status["claims"] = {e["claim"]: e["status"] for e in doc.get("discrepancies", [])}
    if experiment == "selfcheck":
        status["checks"] = {r["check"]: r["ok"] for r in doc.get("rows", [])}
    for name in doc.get("files", []):
        if not Path(name).is_file():
            status["error"] = f"listed output {name} missing"
    return status


def status_mismatches(expected: dict, actual: dict) -> list[str]:
    problems = []
    if "error" in actual:
        problems.append(actual["error"])
    for key in ("exit", "ok", "claims", "checks"):
        if key in expected and expected[key] != actual.get(key):
            problems.append(f"{key}: expected {expected[key]!r}, got {actual.get(key)!r}")
    return problems


def er_row_width(out_dir: Path) -> tuple[float, list[str]]:
    """Width of [closed form, numeric] from the er subcommand on a Bell-diagonal input."""
    try:
        row = json.loads((out_dir / "er_result.json").read_text())["rows"][0]
        width = float(row["er_numeric"]) - float(row["er_closed_form"])
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return math.nan, [f"er result unreadable: {exc}"]
    if not width >= -VALUE_TOL:
        return width, [f"numeric value below closed form by {-width:.3e}"]
    return width, []
