"""bellkit benchmark: drives ``bellkit.cli.main`` the way a user's script does.

    python3 perfbench/run.py --workload file-batch --seed 1 --seconds 30 --trace 0

One client in a closed loop calls ``bellkit.cli.main(argv)`` in this
process, on files generated from ``--seed`` before timing starts, cycling
through the workload's fixed op list until the ops have taken ``--seconds``.
Every op's output is checked by an independent oracle (oracles.py).  Between
ops, outside their timing, fresh interpreters measure the set-up time.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each op
twice, untraced and then with spans around bellkit's public functions
(spans.py), and prints the per-layer metrics.
The last line of stdout is the result object; the line before it is a record
of the machine and the run.  Per-op times and the spans are written under
``.perfbench_work/`` in the checkout.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter, process_time

import inputs
import oracles
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 15
SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import numpy
numpy_done = time.perf_counter()
import bellkit
bellkit.reference_fixture()
end = time.perf_counter()
print(end - numpy_done, numpy_done - start)
print(bellkit.__file__)
"""
SLOW_ROWS = ("no-common-product-basis", "shared-basis-evolutions", "tsirelson-bound", "product-factorization")
LAYERS = ("cli", "io", "bellstats", "hilbert", "entanglement", "modelfit", "verify")


# ---------------------------------------------------------------------------
# machine record


def _blas_threads():
    """Thread count of numpy's OpenBLAS, read from the loaded library."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and line.strip().endswith(".so")}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record() -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    blas = "unknown"
    with contextlib.suppress(Exception):
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
    }


# ---------------------------------------------------------------------------
# set-up time


def setup_once() -> tuple:
    """Seconds to import bellkit and build the reference fixture in a fresh interpreter.

    Returns (bellkit's part, numpy's import before it).  ``setup_s`` counts
    only bellkit's part.  numpy's import, which starts OpenBLAS's thread
    pool, was 60-75% of the total, and its time doubled or halved from one
    minute to the next on a 2-core machine; no change to bellkit moves it.
    """
    done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], cwd=ROOT, capture_output=True,
                          text=True, timeout=60, check=True)
    times, location = done.stdout.splitlines()
    if not Path(location).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"set-up imported bellkit from {location}, not from {SRC}")
    bellkit_part, numpy_part = map(float, times.split())
    return bellkit_part, numpy_part


class SetupSampler:
    """SETUP_SAMPLES set-up times, spread over the op loop.

    Sample k is due once k/SETUP_SAMPLES of the loop's op time has passed, so
    the median covers the whole run, not one burst of the machine's noise.
    The samples run between ops and outside their timing.
    """

    def __init__(self):
        self.times: list = []
        self.numpy_times: list = []

    def take_due(self, share: float) -> None:
        while len(self.times) < SETUP_SAMPLES and len(self.times) <= share * SETUP_SAMPLES:
            bellkit_part, numpy_part = setup_once()
            self.times.append(bellkit_part)
            self.numpy_times.append(numpy_part)


# ---------------------------------------------------------------------------
# the closed loop


def call(argv: list) -> tuple:
    """Run one command; returns (exit code, stdout, stderr, wall s, cpu s)."""
    import bellkit.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        cpu0, wall0 = process_time(), perf_counter()
        try:
            code = bellkit.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # the op fails; the loop goes on
            code = None
            traceback.print_exc()
        wall, cpu = perf_counter() - wall0, process_time() - cpu0
    return code, out.getvalue(), err.getvalue(), wall, cpu


class Checker:
    """Applies the oracle of each op kind; keeps the run's reference report."""

    def __init__(self):
        self.golden = None

    def __call__(self, op: inputs.Op, code, stdout: str) -> tuple:
        """Returns (problems, extra facts to record for the op)."""
        try:
            return self._check(op, code, stdout)
        except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
            return [f"output has an unexpected shape: {exc!r}"], {}

    def _check(self, op: inputs.Op, code, stdout: str) -> tuple:
        e = op.expect
        if op.kind == "verify-paper":
            problems, failed_rows, stripped = oracles.check_verify(code, stdout, self.golden)
            if self.golden is None and not problems:
                self.golden = stripped
            rows = {r["name"]: r["elapsed_ms"] for r in report_rows(stdout)}
            return problems, {"failed_rows": failed_rows, "row_ms": rows}
        if op.kind == "analyze":
            return oracles.check_analyze(code, stdout, op.path, op.data, e["dataset"]), {}
        if op.kind in ("schmidt-operator", "schmidt-operator-iso"):
            return oracles.check_schmidt_operator(code, stdout, op.path, op.data, e["matrix"], e["iso"],
                                                  e["iso_name"], e["rank"]), {}
        if op.kind == "schmidt-state":
            return oracles.check_schmidt_state(code, stdout, op.path, op.data, e["psi"], e["rank"]), {}
        out = Path(e["out"])
        text = out.read_text(encoding="utf-8") if out.exists() else None
        out.unlink(missing_ok=True)
        return oracles.check_fit(code, stdout, op.path, op.data, e["dataset"], text,
                                 basis_mode=op.kind == "fit-basis"), {}


def report_rows(stdout: str) -> list:
    try:
        return json.loads(stdout)["checks"]
    except json.JSONDecodeError:
        return []


def run_op(ops: list, i: int, checker: Checker) -> dict:
    op = ops[i % len(ops)]
    wall = cpu = 0.0
    problems, extra = [], {}
    for step in op.steps or [op]:
        code, stdout, stderr, step_wall, step_cpu = call(step.argv)
        wall, cpu = wall + step_wall, cpu + step_cpu
        step_problems, step_extra = checker(step, code, stdout)
        if step_problems and stderr:
            step_problems.append("stderr: " + stderr.strip().splitlines()[-1])
        problems += [f"{step.kind}: {p}" for p in step_problems] if op.steps else step_problems
        for key, value in step_extra.items():
            extra.setdefault(key, []).append(value)
    return {"op": i, "kind": op.kind, "wall_s": wall, "cpu_s": cpu, "problems": problems, **extra}


def run_loop(ops: list, seconds: float, checker: Checker, setup: SetupSampler) -> list:
    """Closed loop over ``ops`` for ``seconds`` of op time; one dict per op run."""
    results = []
    spent = 0.0
    while spent < seconds:
        setup.take_due(spent / seconds)
        start = perf_counter()
        results.append(run_op(ops, len(results), checker))
        spent += perf_counter() - start
    setup.take_due(1.0)
    return results


def run_paired(ops: list, seconds: float, checker: Checker, tracer: spans.Tracer,
               setup: SetupSampler) -> tuple:
    """Each op untraced, then again traced; returns (untraced, traced) results.

    Running the two back to back keeps the machine's slow drift out of the
    traced-over-untraced ratio.
    """
    untraced, traced = [], []
    spent = 0.0
    while spent < seconds:
        setup.take_due(spent / seconds)
        start = perf_counter()
        i = len(untraced)
        untraced.append(run_op(ops, i, checker))
        tracer.op = i
        tracer.install()
        try:
            traced.append(run_op(ops, i, checker))
        finally:
            tracer.uninstall()
        spent += perf_counter() - start
    setup.take_due(1.0)
    return untraced, traced


# ---------------------------------------------------------------------------
# metrics


def nearest_rank(values: list, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(results: list, setup: list) -> dict:
    walls = [r["wall_s"] for r in results]
    return {
        "setup_s": metric(statistics.median(setup), "s"),
        "ops_per_s": metric(len(walls) / sum(walls), "ops/s"),
        "latency_p50_ms": metric(statistics.median(walls) * 1e3, "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(untraced: list, traced: list, tracer: spans.Tracer) -> tuple:
    """Per-op layer metrics from the traced ops; also the names with no samples."""
    n = len(traced)
    times = tracer.self_times()
    counters = tracer.counters
    undefined = []

    def calls(name):
        return times.get(name, (0, 0.0))[0]

    def self_ms(*names):
        return sum(times.get(name, (0, 0.0))[1] for name in names) * 1e3

    def per_call(counter, span, label):
        if calls(span) == 0:
            undefined.append(label)
            return 0.0
        return counters[counter] / calls(span)

    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = metric(self_ms(*[k for k in times if k.startswith(layer + ".")]) / n, "ms")
    svd_calls = calls("hilbert.svd")
    m["hilbert.svd.calls"] = metric(svd_calls / n, "count")
    m["hilbert.svd.self_ms"] = metric(self_ms("hilbert.svd") / n, "ms")
    if svd_calls == 0:
        undefined.append("hilbert.svd.us_per_call")
    m["hilbert.svd.us_per_call"] = metric(self_ms("hilbert.svd") * 1e3 / svd_calls if svd_calls else 0.0, "us")
    refute = "entanglement.refute_common_product_iso"
    m[f"{refute}.self_ms"] = metric(self_ms(refute) / n, "ms")
    m[f"{refute}.candidates"] = metric(per_call(f"{refute}.candidates", refute, f"{refute}.candidates"), "count")
    for name in ("hilbert.orthonormalize", "entanglement.random_isomorphism", "entanglement.operator_schmidt",
                 "entanglement.is_product_evolution", "entanglement.check_factorization",
                 "modelfit.fit_state", "modelfit.fit_basis", "modelfit.reference_fixture",
                 "modelfit.synthesize", "bellstats.chsh"):
        m[f"{name}.calls"] = metric(calls(name) / n, "count")
        m[f"{name}.self_ms"] = metric(self_ms(name) / n, "ms")
    m["bellstats.student_t_tail.self_ms"] = metric(self_ms("bellstats.student_t_tail") / n, "ms")
    name = "modelfit.fit_state.accepted_steps"
    m[name] = metric(per_call(name, "modelfit.fit_state", name), "count")
    for counter in ("objective_evals", "restarts_used"):
        name = f"modelfit.fit_basis.{counter}"
        m[name] = metric(per_call(name, "modelfit.fit_basis", name), "count")
    name = "modelfit.fit_basis.converged_ratio"
    m[name] = metric(per_call("modelfit.fit_basis.converged", "modelfit.fit_basis", name), "ratio")
    if not tracer.objectives:
        undefined.append("modelfit.fit_state.objective_p50")
    m["modelfit.fit_state.objective_p50"] = metric(
        statistics.median(tracer.objectives) if tracer.objectives else 0.0, "misfit")
    parse_spans = [k for k in times if k.startswith("io.parse_")]
    m["io.parse.calls"] = metric(sum(calls(k) for k in parse_spans) / n, "count")
    m["io.parse.self_ms"] = metric(self_ms(*parse_spans) / n, "ms")
    m["io.bytes_read"] = metric(counters["io.bytes_read"] / n, "bytes")
    m["io.sha256_of_file.self_ms"] = metric(self_ms("io.sha256_of_file") / n, "ms")
    m["io.canonical_json.self_ms"] = metric(self_ms("io.canonical_json") / n, "ms")
    m["cli.main.self_ms"] = metric(self_ms("cli.main") / n, "ms")
    m["verify.run_verification.self_ms"] = metric(self_ms("verify.run_verification") / n, "ms")
    for row in SLOW_ROWS:
        samples = [rows[row] for r in untraced for rows in r.get("row_ms", []) if row in rows]
        if not samples:
            undefined.append(f"verify.row.{row}.ms")
        m[f"verify.row.{row}.ms"] = metric(statistics.median(samples) if samples else 0.0, "ms")
    m["process.cpu_wall_ratio"] = metric(statistics.median(r["cpu_s"] / r["wall_s"] for r in untraced), "ratio")
    k = min(len(untraced), len(traced))
    m["trace.overhead_ratio"] = metric(
        sum(r["wall_s"] for r in traced[:k]) / sum(r["wall_s"] for r in untraced[:k]), "ratio")
    return m, undefined


# ---------------------------------------------------------------------------
# entry point


def write_spans(path: Path, tracer: spans.Tracer) -> None:
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    rows = [[name, round((s - origin) * 1e6, 3), round((e - origin) * 1e6, 3), parent, op]
            for name, s, e, parent, op in tracer.spans]
    path.write_text(json.dumps({"fields": ["name", "start_us", "end_us", "parent", "op"], "spans": rows}))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bellkit" / "__init__.py").is_file():
        print(f"error: no bellkit sources under {SRC}; run from a bellkit checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bellkit

    if not Path(bellkit.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported bellkit from {bellkit.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    wrapped = spans.wrapped_sites()
    if wrapped:
        print(f"error: wrappers present before the run: {wrapped}", file=sys.stderr)
        return 2

    for sub in ("results", "spans"):
        (WORK / sub).mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = Path(tempfile.mkdtemp(prefix=f"inputs-{tag}-", dir=WORK))
    try:
        ops = inputs.make_ops(args.workload, args.seed, ROOT, workdir)
        setup = SetupSampler()
        checker = Checker()
        if args.trace:
            tracer = spans.Tracer()
            untraced, traced = run_paired(ops, args.seconds, checker, tracer, setup)
            results = untraced + traced
            metrics, undefined = per_layer(untraced, traced, tracer)
            write_spans(WORK / "spans" / f"{tag}.json", tracer)
        else:
            results = run_loop(ops, args.seconds, checker, setup)
            metrics, undefined = end_to_end(results, setup.times), []
            if spans.wrapped_sites():
                raise RuntimeError("a wrapper appeared during the untraced run")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [{k: r[k] for k in ("op", "kind", "problems", "failed_rows") if k in r}
                for r in results if r["problems"]]
    record = {
        "workload": args.workload,
        "why": inputs.WORKLOADS[args.workload][1],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_record(),
        "setup_s": setup.times,
        "setup_numpy_import_s": setup.numpy_times,
        "ops": len(results),
        "wall_s": sum(r["wall_s"] for r in results),
        "cpu_s": sum(r["cpu_s"] for r in results),
        # unbounded: golden-suite and model-fit complete too few ops per run
        # for a tail percentile to be steady
        "latency_p90_ms": nearest_rank([r["wall_s"] for r in results], 0.9) * 1e3,
        "failures": failures[:20],
        "undefined": undefined,
    }
    per_op = {key: [r[key] for r in results] for key in ("kind", "wall_s", "cpu_s")}
    per_op.update({key: [r.get(key) for r in results] for key in ("row_ms", "failed_rows") if key in results[0]})
    (WORK / "results" / f"{tag}.json").write_text(json.dumps({**record, "per_op": per_op}))
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": not failures, "attempted": len(results), "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
