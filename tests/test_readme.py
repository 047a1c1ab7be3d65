"""The README's code blocks run as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

import occens

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
