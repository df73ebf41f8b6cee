"""Command-line interface: analyze datasets, fit models, run golden checks.

Exit codes separate failure classes so scripts can react: 0 success,
2 structural parse error, 3 domain validation error, 4 a golden check or a
required convergence failed.  Reports embed the input file hash, the seed,
and the tool version — never timestamps — so identical invocations produce
identical output, except the ``elapsed_ms`` of each verify-paper JSON row:
the wall time of that row, which no verdict reads.

``main(argv)`` may be called repeatedly in one process.  The argument
parser and the identifications of the four built-in reference models are
built on first use and then reused; a ``--model`` file is read on every
call.
"""
from __future__ import annotations

import argparse
import errno
import functools
import os
import sys
from importlib import resources

import numpy as np

from . import __version__
from .bellstats import TSIRELSON_BOUND, chsh
from .entanglement import canonical_iso, canonical_iso_of, measurement_entanglement_degree, operator_schmidt, schmidt_state
from .fitting import check_fit_settings, fit_basis, fit_state
from .hilbert import RANK_TOL, polar_deg
from .io import (
    ParseError,
    canonical_json,
    model_to_dict,
    parse_dataset_file,
    parse_operator_file,
    sha256_of_file,
)
from .modelfit import load_model, load_state, reference_fixture
from .tables import EXPERIMENT_KEYS, check_sum_tolerance
from .verify import run_verification

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INVALID = 3
EXIT_CHECK_FAILED = 4


def _seed_of(args) -> int:
    """--seed wins; BELLKIT_SEED is the fallback; 0 otherwise.  Seeds are non-negative integers."""
    if args.seed is not None:
        if args.seed < 0:
            raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
        return args.seed
    raw = os.environ.get("BELLKIT_SEED")
    if raw is None:
        return 0
    message = f"BELLKIT_SEED must be a non-negative integer, got {raw!r}"
    try:
        seed = int(raw)
    except ValueError:
        raise ValueError(message) from None
    if seed < 0:
        raise ValueError(message)
    return seed


def _provenance(command: str, path, seed: int) -> dict:
    entry = {"path": None, "sha256": None}
    if path is not None:
        entry = {"path": str(path), "sha256": sha256_of_file(path)}
    return {
        "tool": "bellkit",
        "version": __version__,
        "command": command,
        "input": entry,
        "seed": seed,
    }


def _builtin_dataset_provenance(command: str, seed: int) -> dict:
    import hashlib  # here, as in io.sha256_of_file: loading it costs milliseconds
    data = resources.files("bellkit").joinpath("data/reference_dataset_counts.json").read_bytes()
    report = _provenance(command, None, seed)
    report["input"] = {"path": "built-in", "sha256": hashlib.sha256(data).hexdigest()}
    return report


def _emit(report: dict, lines: list, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(canonical_json(report))
    else:
        sys.stdout.write("\n".join(lines) + "\n")


def _read_file(read, path, args, warnings: list, **options):
    """The content of one input file, as ``read(path, strict=args.strict,
    **options)`` returns it with the file's warnings; each warning is printed
    as a ``warning:`` line and appended to the report's ``warnings``."""
    content, found = read(path, strict=args.strict, **options)
    for message in found:
        print(f"warning: {message}", file=sys.stderr)
    warnings += found
    return content


def _read_dataset(args, command: str, **options) -> tuple:
    """(dataset, report) for a dataset-file command; ``options`` go to
    parse_dataset_file."""
    seed = _seed_of(args)
    warnings: list = []
    dataset = _read_file(parse_dataset_file, args.file, args, warnings, **options)
    doc = _provenance(command, args.file, seed)
    doc["warnings"] = warnings
    return dataset, doc


def _side_label(tables: dict, side: str, outcome: int, experiment: str) -> str:
    table = tables[experiment]
    labels = table.a_labels if side in ("A", "A'") else table.b_labels
    return labels[outcome - 1]


# ---------------------------------------------------------------------------
# analyze


def cmd_analyze(args) -> int:
    sum_tol = check_sum_tolerance(args.tolerance if args.tolerance is not None else 0.005)
    dataset, doc = _read_dataset(args, "analyze", sum_tol=sum_tol)
    report = chsh(dataset)

    doc["experiment"] = dataset.name
    doc["n_subjects"] = dataset.n_subjects
    doc["e_values"] = {key: report.e_values[key] for key in EXPERIMENT_KEYS}
    doc["chsh"] = report.chsh
    doc["violates"] = report.violates
    doc["tsirelson_gap"] = report.tsirelson_gap
    doc["marginal_law"] = [
        {
            "side": row.side,
            "outcome": row.outcome,
            "label": _side_label(dataset.tables, row.side, row.outcome, row.experiment_lhs),
            "lhs_experiment": row.experiment_lhs,
            "lhs": row.lhs,
            "rhs_experiment": row.experiment_rhs,
            "rhs": row.rhs,
            "deviation": row.deviation,
        }
        for row in report.marginal_deviations
    ]

    lines = [
        f"experiment: {dataset.name}"
        + (f" (n = {dataset.n_subjects})" if dataset.n_subjects else ""),
        f"input: {args.file} (sha256 {doc['input']['sha256'][:12]}...)",
        "",
    ]
    for key in EXPERIMENT_KEYS:
        table = dataset.tables[key]
        pair = f"{'/'.join(table.a_labels)} x {'/'.join(table.b_labels)}"
        lines.append(f"  E({key:4s}) = {report.e_values[key]:+.5f}   [{pair}]")
    verdict = "violated" if report.violates else "satisfied"
    lines += [
        "",
        f"CHSH = E(A'B') + E(A'B) + E(AB') - E(AB) = {report.chsh:+.5f}",
        f"classical bound |CHSH| <= 2: {verdict}",
        f"gap to the quantum maximum 2*sqrt(2) = {TSIRELSON_BOUND:.5f}: {report.tsirelson_gap:.5f}",
        "",
        "marginal law (same-side marginals across the two experiments sharing a side):",
    ]
    for row in report.marginal_deviations:
        label = _side_label(dataset.tables, row.side, row.outcome, row.experiment_lhs)
        lines.append(
            f"  p({row.side}={label:9s}): {row.lhs:.5f} ({row.experiment_lhs})"
            f"  vs  {row.rhs:.5f} ({row.experiment_rhs})   deviation {row.deviation:.5f}"
        )
    _emit(doc, lines, args.format)
    return EXIT_OK


# ---------------------------------------------------------------------------
# fit


def _polar(vector) -> dict:
    return {name: part.tolist() for name, part in zip(("amplitudes", "phases_deg"), polar_deg(vector))}


def _state_block(state) -> dict:
    """A state's polar form and provenance, as the report and the model file hold it."""
    return {**_polar(state.raw), "provenance": state.provenance}


def _unwritable(path, reason: str) -> ValueError:
    return ValueError(f"--out {path!r} cannot be written: {reason}")


def _check_out(path) -> None:
    """Refuse, before any fit runs and without creating it, an --out path
    that is empty, lies in no directory or is a directory, with the reason
    that opening it would give."""
    if path is None:
        return
    parent = os.path.dirname(path) or os.curdir
    if not path or not os.path.exists(parent):
        raise _unwritable(path, os.strerror(errno.ENOENT))
    if not os.path.isdir(parent):
        raise _unwritable(path, os.strerror(errno.ENOTDIR))
    if os.path.isdir(path):
        raise _unwritable(path, os.strerror(errno.EISDIR))


def _write_fitted_model(path, state_block: dict, models: dict) -> dict:
    """Write the model file of ``--out``; an OSError is a bad flag value."""
    content = {
        "state": state_block,
        "measurements": {
            key: {
                "a_labels": model.a_labels,
                "b_labels": model.b_labels,
                "eigenvalues": model.eigenvalues,
                "eigenvectors": [_polar(v) for v in model.eigenvectors],
            }
            for key, model in models.items()
        },
    }
    text = canonical_json(model_to_dict(content))
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _unwritable(path, exc.strerror or str(exc)) from None
    return {"path": str(path), "sha256": sha256_of_file(path)}


def cmd_fit(args) -> int:
    dataset, doc = _read_dataset(args, "fit")
    seed = doc["seed"]
    target = args.tolerance if args.tolerance is not None else 1e-8
    restarts = args.restarts if args.restarts is not None else 8
    # Refused in both modes, though the closed-form basis fit uses only the
    # target misfit and neither uses nor reports --restarts.
    check_fit_settings(target, seed, restarts)
    _check_out(args.out)
    lines = [f"input: {args.file} (sha256 {doc['input']['sha256'][:12]}...)"]
    all_converged = True

    if args.state is not None:
        state = _read_file(load_state, args.state, args, doc["warnings"])
        doc["mode"] = "basis"
        doc["state_file"] = {"path": str(args.state), "sha256": sha256_of_file(args.state)}
        doc["fits"] = {}
        models = {}
        lines += [f"state: {args.state}", f"mode: basis fits, seed {seed}", ""]
        for key in EXPERIMENT_KEYS:
            result = fit_basis(state, dataset.tables[key], target, experiment=key)
            models[key] = result.model
            all_converged &= result.converged
            doc["fits"][key] = {
                "misfit": result.misfit,
                "converged": result.converged,
                "iterations": result.iterations,
                "restarts_used": result.restarts_used,
            }
            lines.append(
                f"  {key:4s} misfit {result.misfit:.3e}  "
                f"converged {'yes' if result.converged else 'NO'}  "
                f"restarts {result.restarts_used}  iterations {result.iterations}"
            )
        fitted_state = _state_block(state)
    else:
        result = fit_state(dataset, seed=seed, restarts=restarts, target_misfit=target)
        all_converged = result.converged
        doc["mode"] = "state"
        doc["restarts"] = restarts
        doc["objective"] = result.objective
        doc["marginal_bound"] = result.marginal_bound
        doc["converged"] = result.converged
        doc["iterations"] = result.iterations
        doc["evaluations"] = result.evaluations
        doc["state"] = fitted_state = _state_block(result.state)
        doc["fits"] = {
            key: {"misfit": misfit} for key, (_, misfit) in result.per_experiment.items()
        }
        lines += [
            f"mode: state search, seed {seed}, restarts {restarts}",
            "",
            f"  objective {result.objective:.3e}  marginal bound {result.marginal_bound:.3e}  "
            f"converged {'yes' if result.converged else 'NO'}  "
            f"iterations {result.iterations}  evaluations {result.evaluations}",
            "  state amplitudes " + ", ".join(f"{a:.4f}" for a in fitted_state["amplitudes"]),
            "  state phases (deg) " + ", ".join(f"{p:.2f}" for p in fitted_state["phases_deg"]),
            "",
        ]
        for key in EXPERIMENT_KEYS:
            _, misfit = result.per_experiment[key]
            lines.append(f"  {key:4s} table misfit {misfit:.3e}")
        models = {key: model for key, (model, _) in result.per_experiment.items()}

    if args.out is not None:
        doc["output"] = _write_fitted_model(args.out, fitted_state, models)
        lines.append(f"model written: {args.out}")
    else:
        doc["output"] = None

    _emit(doc, lines, args.format)
    if args.strict_converge and not all_converged:
        return EXIT_CHECK_FAILED
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify-paper


def cmd_verify_paper(args) -> int:
    # refused out of range even without a file, where no table reads it
    sum_tol = check_sum_tolerance(args.tolerance if args.tolerance is not None else 0.005)
    if args.file is not None:
        dataset, doc = _read_dataset(args, "verify-paper", sum_tol=sum_tol)
    else:
        dataset = None
        doc = _builtin_dataset_provenance("verify-paper", _seed_of(args))
        doc["warnings"] = []

    rows = run_verification(dataset)
    all_passed = all(row.passed for row in rows)
    doc["checks"] = [row.to_dict() for row in rows]
    doc["all_passed"] = all_passed

    source = args.file if args.file is not None else "built-in reference dataset"
    lines = [f"verification of the built-in reference results against: {source}", ""]
    for row in rows:
        status = "PASS" if row.passed else "FAIL"
        lines.append(f"{status}  {row.name}")
        lines.append(f"      measured:  {row.measured}")
        lines.append(f"      expected:  {row.expected}")
        lines.append(f"      tolerance: {row.tolerance}")
        if row.note:
            lines.append(f"      note:      {row.note}")
    lines += ["", f"result: {'all checks passed' if all_passed else 'CHECKS FAILED'}"]
    _emit(doc, lines, args.format)
    return EXIT_OK if all_passed else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# schmidt


@functools.lru_cache(maxsize=None)
def _reference_isos() -> dict:
    """canonical_iso_of each built-in reference model, keyed by experiment.
    Built once per process; the matrices are read-only, as every call shares
    them."""
    _, models, _ = reference_fixture()
    isos = {key: canonical_iso_of(models[key]) for key in EXPERIMENT_KEYS}
    for iso in isos.values():
        iso.matrix.flags.writeable = False
    return isos


def _resolve_iso(args, warnings: list):
    if args.iso == "canonical":
        return canonical_iso()
    if args.iso.startswith("from-model:"):
        key = args.iso.split(":", 1)[1]
        if key not in EXPERIMENT_KEYS:
            raise ValueError(f"unknown experiment {key!r}; expected one of {EXPERIMENT_KEYS}")
        if args.model is None:
            return _reference_isos()[key]
        _, models = _read_file(load_model, args.model, args, warnings)
        return canonical_iso_of(models[key])
    raise ValueError(f"unknown --iso {args.iso!r}; use 'canonical' or 'from-model:<experiment>'")


def cmd_schmidt(args) -> int:
    seed = _seed_of(args)
    warnings: list = []
    iso = _resolve_iso(args, warnings)
    rank_tol = args.tolerance if args.tolerance is not None else RANK_TOL

    if args.state is not None:
        kind, path = "state", args.state
        state = _read_file(load_state, path, args, warnings)
        decomposition = schmidt_state(state.values, iso)
        field, label, values = "coefficients", "coefficients", decomposition.coefficients
        extra, extra_lines = {}, []
    else:
        kind, path = "operator", args.operator
        operator = np.array(_read_file(parse_operator_file, path, args, warnings))
        decomposition = operator_schmidt(operator, iso)
        field, label, values = "sigma", "schmidt coefficients", decomposition.sigma
        degree = measurement_entanglement_degree(decomposition)
        extra, extra_lines = {"entanglement_degree": degree}, [f"entanglement degree: {degree:.6f}"]
    rank = decomposition.rank(rank_tol)
    doc = _provenance("schmidt", path, seed)
    doc.update(warnings=warnings, kind=kind, iso=iso.name)
    doc[field] = [float(v) for v in values]
    doc.update(rank=rank, product=rank == 1, **extra)
    lines = [
        f"{kind}: {path}",
        f"identification: {iso.name}",
        f"{label}: " + ", ".join(f"{v:.6f}" for v in values),
        f"rank: {rank}",
        f"verdict: {'product' if rank == 1 else 'entangled'} relative to this identification",
        *extra_lines,
    ]
    _emit(doc, lines, args.format)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and entry point


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first ``main`` call and then reused:
    each parse_args call starts from a fresh namespace."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default="text", help="report format (default: text)"
    )
    common.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="numeric tolerance; per command: probability-sum slack when parsing "
        "datasets (analyze, verify-paper), target misfit (fit), rank threshold (schmidt)",
    )
    common.add_argument(
        "--strict", action="store_true", help="reject unknown fields in input files"
    )
    common.add_argument(
        "--seed",
        type=int,
        default=None,
        help="seed for randomized procedures (default: BELLKIT_SEED or 0)",
    )

    parser = argparse.ArgumentParser(
        prog="bellkit",
        description="Coincidence-experiment statistics, entanglement analysis, and model fitting.",
    )
    parser.add_argument("--version", action="version", version=f"bellkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser(
        "analyze", parents=[common], help="expectation values, CHSH, and marginal-law rows"
    )
    p_analyze.add_argument("file", help="dataset file (JSON)")
    p_analyze.set_defaults(func=cmd_analyze)

    p_fit = sub.add_parser(
        "fit", parents=[common], help="fit measurement bases to a dataset, or search for a state"
    )
    p_fit.add_argument("file", help="dataset file (JSON)")
    p_fit.add_argument(
        "--state", default=None, help="state file; fits one basis per experiment to this state"
    )
    p_fit.add_argument(
        "--restarts", type=int, default=None,
        help="state-search restarts (default 8); basis fits are exact and ignore it",
    )
    p_fit.add_argument("--out", default=None, help="write the fitted model file here")
    p_fit.add_argument(
        "--strict-converge",
        action="store_true",
        help="exit nonzero when any fit fails to converge",
    )
    p_fit.set_defaults(func=cmd_fit)

    p_verify = sub.add_parser(
        "verify-paper",
        parents=[common],
        help="golden checks of the built-in reference results",
    )
    p_verify.add_argument(
        "file",
        nargs="?",
        default=None,
        help="optional dataset file to check in place of the built-in reference data",
    )
    p_verify.set_defaults(func=cmd_verify_paper)

    p_schmidt = sub.add_parser(
        "schmidt", parents=[common], help="Schmidt decomposition of a state or an operator"
    )
    source = p_schmidt.add_mutually_exclusive_group(required=True)
    source.add_argument("--state", default=None, help="state file to decompose")
    source.add_argument("--operator", default=None, help="operator file to decompose")
    p_schmidt.add_argument(
        "--iso",
        default="canonical",
        help="identification to use: 'canonical' or 'from-model:<experiment>' (default: canonical)",
    )
    p_schmidt.add_argument(
        "--model",
        default=None,
        help="model file supplying from-model identifications (default: built-in reference model)",
    )
    p_schmidt.set_defaults(func=cmd_schmidt)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # argparse drops a "--" given as a value (--tolerance=--), leaving [].
    if [] in vars(args).values():
        parser.error("'--' is not a value")
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
