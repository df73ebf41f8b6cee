"""Cold start of two bellkit source trees, timed in interleaved fresh interpreters.

    python tools/cold_start.py OLD/src src [--runs 25]

Each run imports numpy, then times ``import bellkit; bellkit.reference_fixture()``,
as perfbench's ``setup_s`` does.  Both trees are copied without bytecode into
a temporary directory and timed in two regimes: from source (``-B``, so
bellkit is compiled in every run, as in the benchmark) and with bytecode
that compileall wrote beforehand, as an installed package has.  The trees
alternate which runs first.  For each regime and tree the script prints the
median and interquartile range in ms, and in how many of the paired runs
the tree was the faster one.  First it prints, per tree, the bellkit modules
that the set-up loads and the source lines of each, so code added to that
path shows.  Uses the standard library only.
"""
from __future__ import annotations

import argparse
import compileall
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
import numpy
start = time.perf_counter()
import bellkit
bellkit.reference_fixture()
print(time.perf_counter() - start)
"""

LOADED = """\
import json, sys
sys.path.insert(0, sys.argv[1])
import bellkit
bellkit.reference_fixture()
print(json.dumps({name: module.__file__ for name, module in sys.modules.items() if name.split(".")[0] == "bellkit"}))
"""


def _loaded(src: str, cwd: str) -> dict:
    """Source lines of each bellkit module the set-up loads, by module name."""
    done = subprocess.run([sys.executable, "-B", "-c", LOADED, src], capture_output=True, text=True,
                          cwd=cwd, timeout=60, check=True)
    return {name: len(Path(path).read_text(encoding="utf-8").splitlines())
            for name, path in sorted(json.loads(done.stdout).items())}


def _once(src: str, flags: list, cwd: str) -> float:
    done = subprocess.run([sys.executable, *flags, "-c", CODE, src], capture_output=True, text=True,
                          cwd=cwd, timeout=60, check=True)
    return float(done.stdout) * 1e3


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs=2, help="two directories that each hold the bellkit package")
    parser.add_argument("--runs", type=int, default=25, help="runs per tree and regime (default 25)")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        copies = []
        for k, tree in enumerate(args.trees):
            copies.append(str(Path(tmp, str(k))))
            shutil.copytree(tree, copies[k], ignore=shutil.ignore_patterns("__pycache__"))
        print("modules the set-up loads, with their source lines")
        for tree, copy in zip(args.trees, copies):
            lines = _loaded(copy, tmp)
            print(f"  {tree}: {sum(lines.values())} lines in {len(lines)} modules")
            print("    " + ", ".join(f"{name} {count}" for name, count in lines.items()))
        for regime in ("from source", "bytecode"):
            if regime == "bytecode":
                for copy in copies:
                    compileall.compile_dir(copy, quiet=1)
            times: list = [[], []]
            for run in range(args.runs):
                for k in (0, 1) if run % 2 == 0 else (1, 0):
                    times[k].append(_once(copies[k], ["-B"] if regime == "from source" else [], tmp))
            print(regime)
            for k, tree in enumerate(args.trees):
                q1, _, q3 = statistics.quantiles(times[k], n=4)
                wins = sum(a < b for a, b in zip(times[k], times[1 - k]))
                print(f"  {tree}: median {statistics.median(times[k]):.1f} ms, "
                      f"IQR {q1:.1f}-{q3:.1f} ms, faster in {wins}/{args.runs}")


if __name__ == "__main__":
    main()
