"""Run one entshape CLI subcommand in a fresh interpreter, timed by a SampledClock.

Usage: python3 perfbench/clock_child.py CLOCK_JSON [SUBCOMMAND ARGS...]

Without a subcommand it only imports ``entshape.harness.cli`` (the set-up
sample). Exits with the subcommand's exit code and writes to CLOCK_JSON the
timed part's wall seconds without samples (``wall_s``), its seconds at
reference speed (``ref_s``) and the seconds spent sampling (``sampling_s``).
The benchmark sets PYTHONPATH to the checkout's ``src``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from clock import SampledClock


def run(argv: list[str]) -> int:
    from entshape.harness import cli

    return cli.main(argv) if argv else 0


def main() -> int:
    out, argv = Path(sys.argv[1]), sys.argv[2:]
    start = time.perf_counter()
    code, wall, scaled = SampledClock().time(lambda: run(argv))
    out.write_text(json.dumps({"wall_s": wall, "ref_s": scaled, "sampling_s": time.perf_counter() - start - wall}))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
