"""tools/cold_start.py refuses what it cannot summarize, before it runs anything."""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("runs", ["1", "0"])
def test_too_few_runs_exit_2_with_one_error_line(runs):
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "cold_start.py"), "src", "src", "--runs", runs],
                          capture_output=True, text=True, cwd=ROOT, timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""
    assert "Traceback" not in done.stderr
    assert [line for line in done.stderr.splitlines() if "error:" in line] == [
        "cold_start.py: error: --runs must be at least 2"]
