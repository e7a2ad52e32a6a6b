"""Run one entshape CLI subcommand in a fresh interpreter with the tracer installed.

Usage: python3 perfbench/trace_child.py TRACE_JSON SUBCOMMAND [ARGS...]

Exits with the subcommand's exit code and writes the span totals to TRACE_JSON.
The benchmark sets PYTHONPATH to the checkout's ``src``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import tracer as tracing
from entshape.harness import cli


def main() -> int:
    out, argv = Path(sys.argv[1]), sys.argv[2:]
    spans = tracing.Tracer()
    with spans.installed():
        code = cli.main(argv)
    out.write_text(json.dumps(spans.to_dict()))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
