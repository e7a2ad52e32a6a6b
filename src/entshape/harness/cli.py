"""Command-line interface.

Exit codes: 0 success, 1 invariant or selfcheck failure, 2 configuration
error, 3 I/O error. Bad configuration, including a state parameter outside
its family's domain, exits 2 before any computation starts.
"""

from __future__ import annotations

import argparse
import sys

from .config import CONVENTIONS, SIDES, ConfigError, build_config, load_config_file
from .experiments import run

_SUBCOMMANDS = {
    "table1": "depolarizing-channel comparison rows and claim checks",
    "table2": "amplitude-damping comparison rows and claim checks",
    "flow": "entanglement-vs-mixedness trajectory CSVs with landmark points",
    "sweep": "per-pair entanglement and success probability over a noise grid",
    "er": "single-state entanglement: closed form where known, numeric bound always",
    "check": "oracle self-checks; exits 1 on any failure",
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entshape",
        description="Post-channel distillation vs pre-channel shaping, with claim reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key = value configuration file")
        p.add_argument("--seed", dest="master_seed", type=int, help="64-bit master seed")
        p.add_argument("--out", dest="out_dir", help="output directory (default: results)")
        p.add_argument(
            "--convention",
            choices=CONVENTIONS,
            help="parameter bridge: claim-side (paper), first-principles (oracle), or both",
        )
        p.add_argument(
            "--sides",
            choices=SIDES,
            help="transmission geometry: channel on one qubit, two qubits, or both readings",
        )
        p.add_argument(
            "--quiet", action="store_true", default=None, help="suppress the summary printout"
        )
        if name == "er":
            p.add_argument("--state", dest="er_state", help="state family for the er experiment")
            p.add_argument("--param", dest="er_param", type=float, help="state parameter")
    return parser


def _overrides_from_args(args: argparse.Namespace) -> dict:
    """Config-file values, then every flag given; each flag's dest is its config key."""
    overrides = load_config_file(args.config) if args.config else {}
    for key, value in vars(args).items():
        if key not in ("command", "config") and value is not None:
            overrides[key] = value
    return overrides


def _summarize(result) -> str:
    lines = [f"experiment: {result.experiment}  ok: {result.ok}"]
    for row in result.rows:
        parts = [f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}" for k, v in row.items()]
        lines.append("  " + "  ".join(parts))
    if result.discrepancies:
        discrepant = [e for e in result.discrepancies if e["status"] == "discrepant"]
        lines.append(
            f"claims checked: {len(result.discrepancies)}, discrepant: {len(discrepant)}"
        )
    for path in result.files:
        lines.append(f"wrote {path}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    experiment = "selfcheck" if args.command == "check" else args.command
    try:
        overrides = _overrides_from_args(args)
        cfg = build_config(experiment, overrides)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        result = run(cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    if not cfg.quiet:
        print(_summarize(result))
    return 0 if result.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
