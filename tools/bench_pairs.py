"""Paired benchmark of two bellkit checkouts, with a sign-test verdict per metric.

    python tools/bench_pairs.py OLD NEW [--workloads model-fit ...] [--pairs 10]
                                [--seconds 30] [--seed 1] [--out BENCH_label.json]

OLD and NEW are checkout roots.  Each run is a fresh process of that
checkout's own ``perfbench/run.py --trace 0``, which imports only its own
``src``.  A pair runs both checkouts once on the same workload, seed and run
length; the pairs alternate which checkout runs first.  The script reads the
last two stdout lines of each run (the record and the result).  A pair with a
run that exits non-zero, prints no result, is not ``"correct": true`` or has
failed ops is refused: it is reported and left out of the summary.

For every end-to-end metric it prints OLD's median and quartiles, NEW's
median, and in how many of the N pairs NEW was better (ties count for
neither).  The verdict is "better" or "worse" only when the one-sided sign
test over all N pairs gives p <= 0.05, which takes at least 9 of 10 pairs
(8 of 10 gives p = 0.055), and the medians differ by more than the distance
between OLD's quartiles; otherwise it reads "unresolved".  A metric whose
median is worse than OLD's by more than its bound in NEW's BENCHMARK.json is
flagged.  ``--out`` writes every pair's values, both checkouts' git HEAD,
the machine record of the first run and the summary as JSON.  The exit
status is 1 when a pair was refused or a metric is beyond its bound, else 0.
Uses the standard library only.
"""
from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ALPHA = 0.05


def parse_run(stdout: str) -> tuple:
    """(record, result) from the last two non-empty lines a run.py run prints;
    ValueError when they are not its two JSON objects."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if len(lines) < 2:
        raise ValueError("fewer than two output lines")
    try:
        record, result = (json.loads(line) for line in lines[-2:])
    except json.JSONDecodeError as exc:
        raise ValueError(f"output is not JSON: {exc}") from None
    if not (isinstance(record, dict) and "record" in record and isinstance(result, dict)
            and isinstance(result.get("metrics"), dict)):
        raise ValueError("output lacks the record or the metrics")
    return record["record"], result


def refusal(result: dict) -> str | None:
    """Why a run's result cannot enter the comparison, or None."""
    if result.get("correct") is not True:
        return f"not correct ({result.get('failed')} of {result.get('attempted')} ops failed)"
    if result.get("failed") != 0:
        return f"{result.get('failed')} failed ops"
    return None


def sign_test(wins: int, n: int) -> float:
    """One-sided sign test: P(at least ``wins`` of ``n`` fair coin flips)."""
    return sum(math.comb(n, k) for k in range(wins, n + 1)) / 2 ** n


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(pairs: list, specs: dict) -> dict:
    """Per metric, OLD's and NEW's medians and quartiles, the wins and the verdict.

    ``pairs`` holds (old_metrics, new_metrics) dicts of name -> value;
    ``specs`` maps each compared metric to its BENCHMARK.json entry, with
    ``better`` ("lower" or "higher") and ``bound``.
    """
    summary = {}
    for name, spec in specs.items():
        sign = -1.0 if spec["better"] == "lower" else 1.0
        old = [p[0][name] for p in pairs]
        new = [p[1][name] for p in pairs]
        wins = sum(sign * (b - a) > 0 for a, b in zip(old, new))
        losses = sum(sign * (b - a) < 0 for a, b in zip(old, new))
        old_median, new_median = statistics.median(old), statistics.median(new)
        q1, q3 = _quartiles(old)
        beyond_spread = abs(new_median - old_median) > q3 - q1
        p_better, p_worse = sign_test(wins, len(pairs)), sign_test(losses, len(pairs))
        verdict = "unresolved"
        if p_better <= ALPHA and beyond_spread and sign * (new_median - old_median) > 0:
            verdict = "better"
        elif p_worse <= ALPHA and beyond_spread and sign * (new_median - old_median) < 0:
            verdict = "worse"
        worsening = -sign * (new_median - old_median) / abs(old_median) if old_median else 0.0
        summary[name] = {
            "old_median": old_median, "old_quartiles": [q1, q3],
            "new_median": new_median, "new_quartiles": list(_quartiles(new)),
            "better_in": wins, "pairs": len(pairs), "p_better": p_better, "p_worse": p_worse,
            "verdict": verdict, "bound": spec["bound"], "beyond_bound": worsening > spec["bound"],
        }
    return summary


def run_once(root: Path, workload: str, seed: int, seconds: float) -> str:
    """One run of ``root``'s perfbench; its stdout, or ValueError on a non-zero exit."""
    done = subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=root, capture_output=True, text=True)
    if done.returncode != 0:
        raise ValueError(f"exit code {done.returncode}: {done.stderr.strip()[-200:]}")
    return done.stdout


def collect(roots: tuple, workload: str, n_pairs: int, run) -> tuple:
    """Run ``n_pairs`` pairs through ``run(root) -> stdout``, OLD first in even
    pairs, NEW first in odd ones.  Returns (accepted pairs, refused pairs,
    first machine record); a pair is a dict of its index, the side that ran
    first, and each side's metric values."""
    accepted, refused, machine = [], [], None
    for index in range(n_pairs):
        order = (0, 1) if index % 2 == 0 else (1, 0)
        values, problems = [None, None], []
        for side in order:
            try:
                record, result = parse_run(run(roots[side]))
            except ValueError as exc:
                problems.append(f"{('old', 'new')[side]}: {exc}")
                continue
            machine = machine or record.get("machine")
            problem = refusal(result)
            if problem:
                problems.append(f"{('old', 'new')[side]}: {problem}")
            values[side] = {name: m["value"] for name, m in result["metrics"].items()}
        pair = {"pair": index, "first": ("old", "new")[order[0]], "old": values[0], "new": values[1]}
        if problems:
            refused.append({**pair, "problems": problems})
        else:
            accepted.append(pair)
    return accepted, refused, machine


def _head(root: Path) -> dict:
    def git(*args):
        done = subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True)
        return done.stdout.strip() if done.returncode == 0 else None

    status = git("status", "--porcelain", "--untracked-files=no")
    return {"head": git("rev-parse", "HEAD"), "dirty": None if status is None else bool(status)}


def _line(name: str, s: dict, unit: str) -> str:
    flag = f"  BEYOND ITS {s['bound']:.0%} BOUND" if s["beyond_bound"] else ""
    return (f"  {name}: {s['old_median']:.4g} [{s['old_quartiles'][0]:.4g}-{s['old_quartiles'][1]:.4g}] -> "
            f"{s['new_median']:.4g} {unit}, better in {s['better_in']}/{s['pairs']} "
            f"(p = {s['p_better']:.3f}): {s['verdict']}{flag}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="root of the parent checkout")
    parser.add_argument("new", type=Path, help="root of the changed checkout")
    parser.add_argument("--workloads", nargs="+", help="workloads to run (default: all in BENCHMARK.json)")
    parser.add_argument("--pairs", type=int, default=10, help="pairs per workload (default 10)")
    parser.add_argument("--seconds", type=float, default=30.0, help="seconds per run (default 30)")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    parser.add_argument("--out", type=Path, help="write the pairs and the summary to this JSON file")
    args = parser.parse_args(argv)
    if args.pairs < 1 or not args.seconds > 0:
        parser.error("--pairs must be at least 1 and --seconds positive")
    roots = (args.old.resolve(), args.new.resolve())
    benchmark = json.loads((roots[1] / "BENCHMARK.json").read_text(encoding="utf-8"))
    specs = {m["name"]: m for m in benchmark["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in benchmark["workloads"]]

    report = {"old": _head(roots[0]), "new": _head(roots[1]), "pairs_per_workload": args.pairs,
              "seconds": args.seconds, "seed": args.seed, "machine": None, "workloads": {}}
    status = 0
    for workload in workloads:
        accepted, refused, machine = collect(roots, workload, args.pairs,
                                             lambda root: run_once(root, workload, args.seed, args.seconds))
        report["machine"] = report["machine"] or machine
        print(f"{workload}: {len(accepted)} pairs accepted, {len(refused)} refused")
        for pair in refused:
            print(f"  refused pair {pair['pair']}: " + "; ".join(pair["problems"]))
        summary = summarize([(p["old"], p["new"]) for p in accepted], specs) if accepted else {}
        for name, s in summary.items():
            print(_line(name, s, specs[name]["unit"]))
        status |= bool(refused) or any(s["beyond_bound"] for s in summary.values())
        report["workloads"][workload] = {"pairs": accepted, "refused": refused, "summary": summary}
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
