"""The README's option table, key list and example config match what the CLI and the config accept."""

import argparse
import re
from pathlib import Path

from entshape.harness.cli import _SUBCOMMANDS, _parser, main
from entshape.harness.config import _KEY_TYPES, load_config_file

README = (Path(__file__).parent.parent / "README.md").read_text()


def _paragraph_after(marker: str) -> str:
    """The text from ``marker`` to the next blank line."""
    start = README.index(marker)
    end = README.find("\n\n", start)
    return README[start:end if end != -1 else None]


def test_common_flags_table_lists_every_option():
    rows = _paragraph_after("| flag | meaning |").splitlines()[2:]
    documented = {re.match(r"\| `(--[a-z-]+)", row).group(1) for row in rows}
    subparsers = next(a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction))
    for name in _SUBCOMMANDS:
        if name == "er":
            continue
        options = {s for a in subparsers.choices[name]._actions for s in a.option_strings}
        assert documented == options - {"-h", "--help"}, name


def test_key_list_names_every_config_key():
    documented = set(re.findall(r"`([a-z_]+)`", _paragraph_after("Keys:")))
    assert documented == set(_KEY_TYPES)


def test_example_config_runs(tmp_path):
    start = README.index("# example.cfg\n")
    path = tmp_path / "example.cfg"
    path.write_text(README[start:README.index("```", start)], encoding="utf-8")
    assert load_config_file(path) == {"p": 0.2, "convention": "both", "sides": "both", "master_seed": 20260808}
    assert main(["table1", "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 0
