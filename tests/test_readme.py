"""The README's Python examples run as written and print what they say."""
from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import bellkit

SRC = Path(bellkit.__file__).resolve().parent.parent
README = SRC.parent / "README.md"

# The lines each ```python block prints, in the order of the blocks.
PRINTED = [
    ["2.419753086419753", "4", "1", "0.5704 False"],
]


def test_readme_python_blocks_print_their_documented_values():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == len(PRINTED)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    for block, printed in zip(blocks, PRINTED):
        done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", block], capture_output=True,
                              text=True, timeout=120, env=env)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == printed
