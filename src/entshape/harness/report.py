"""Discrepancy report rendering.

Every claim check lands in exactly one of two states: reproduced within
tolerance, or a discrepancy entry carrying the claimed value, the computed
value, and the gap. There is no third state and no silent dropping.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # annotations only: the claims registry loads with the table runners
    from .tables import Claim

# Bare numbers are quoted to at most two or three significant figures, so
# they get a 1% relative window; every known-bad arithmetic entry misses it
# by well over an order of magnitude.
RELATIVE_WINDOW = 1e-2


def _is_reproduced(claimed: Claim, computed: float | bool | None) -> bool:
    """The one verdict rule: a claim with no number is a predicate, reproduced
    only when its computed value is True (False, or None for "not decided", is
    discrepant); a claimed number is reproduced within 3 stated spreads, else
    within 1% of a bare number, and a non-finite value is discrepant."""
    if claimed.value is None:
        return computed is True
    if computed is None or not math.isfinite(computed):
        return False
    if claimed.std is not None:
        return abs(computed - claimed.value) <= 3 * claimed.std
    scale = max(abs(claimed.value), 1e-12)
    return abs(computed - claimed.value) / scale <= RELATIVE_WINDOW


def discrepancy_entry(
    claimed: Claim,
    computed: float | bool | None,
    method: str,
    extra: dict | None = None,
) -> dict:
    """One claim-vs-computation record, its status decided by ``_is_reproduced``."""
    compares = claimed.value is not None and computed is not None and math.isfinite(computed)
    gap = abs(computed - claimed.value) if compares else None
    entry = {
        "claim": claimed.key,
        "statement": claimed.statement,
        "where": claimed.where,
        "claimed_value": claimed.value,
        "claimed_std": claimed.std,
        "computed_value": computed,
        "method": method,
        "status": "reproduced" if _is_reproduced(claimed, computed) else "discrepant",
        "absolute_gap": gap,
        # A claimed value of zero has no meaningful relative scale.
        "relative_gap": gap / abs(claimed.value) if compares and abs(claimed.value) > 1e-9 else None,
    }
    if extra:
        entry.update(extra)
    return entry


def render_report(experiment: str, entries: list[dict]) -> str:
    """Plain-text report, one block per claim, discrepancies first."""
    ordered = sorted(
        entries, key=lambda e: (e["status"] != "discrepant", e["claim"])
    )
    lines = [
        f"discrepancy report: {experiment}",
        f"entries: {len(ordered)} "
        f"(discrepant: {sum(1 for e in ordered if e['status'] == 'discrepant')}, "
        f"reproduced: {sum(1 for e in ordered if e['status'] == 'reproduced')})",
        "",
    ]
    for e in ordered:
        lines.append(f"[{e['status'].upper()}] {e['claim']}")
        lines.append(f"  claim: {e['statement']}")
        lines.append(f"  where: {e['where']}")
        claimed = e["claimed_value"]
        spread = f" +/- {e['claimed_std']}" if e.get("claimed_std") else ""
        lines.append(f"  claimed: {claimed}{spread}")
        computed = e["computed_value"]
        lines.append(f"  computed: {computed}")
        if e.get("absolute_gap") is not None:
            gap_line = f"  gap: {e['absolute_gap']:.6g} absolute"
            if e.get("relative_gap") is not None:
                gap_line += f", {e['relative_gap']:.4%} relative"
            lines.append(gap_line)
        lines.append(f"  method: {e['method']}")
        for key, value in e.items():
            if key not in (
                "claim", "statement", "where", "claimed_value", "claimed_std",
                "computed_value", "method", "status", "absolute_gap", "relative_gap",
            ):
                lines.append(f"  {key}: {value}")
        lines.append("")
    return "\n".join(lines)
