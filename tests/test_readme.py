"""The README's code blocks run as written, its config table lists the
CLI's config keys, and its flags line the CLI's flags."""

import os
import re
import subprocess
import sys
from pathlib import Path

import occens
from occens.cli import CHAIN_KEYS, CONFIG_KEYS, _build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        flags=re.M | re.S)
    assert blocks, "README has no python block"
    env = dict(os.environ, PYTHONPATH=str(Path(occens.__file__).parents[1]))
    for code in blocks:
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr


def test_config_table_names_every_key():
    table = README.read_text().split("| key | what it must be | default |")[1]
    rows = re.findall(r"^\| `([^`]+)` \|", table.split("\n\n")[0], flags=re.M)
    assert sorted(rows) == sorted([*CONFIG_KEYS,
                                   *(f"chain.{key}" for key in CHAIN_KEYS)])


def test_common_flags_line_names_every_flag():
    flags = README.read_text().split("Common flags:")[1].split(". ")[0]
    given = {flag for action in _build_parser()._actions
             for flag in action.option_strings} - {"-h", "--help", "--version"}
    assert sorted(re.findall(r"`(--[a-z-]+)`", flags)) == sorted(given)
