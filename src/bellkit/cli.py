"""Command-line interface: analyze datasets, fit models, run golden checks.

Exit codes separate failure classes so scripts can react: 0 success,
2 structural parse error, 3 domain validation error, 4 a golden check or a
required convergence failed.  Reports embed the input file hash, the seed,
and the tool version — never timestamps — so identical invocations produce
identical output, except the ``elapsed_ms`` of each verify-paper JSON row.

``main(argv)`` may be called repeatedly in one process.  The argument
parser and the identifications of the four built-in reference models are
built on first use and then reused; a ``--model`` file is read on every
call.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
from importlib import resources

import numpy as np

from . import __version__
from .bellstats import EXPERIMENT_KEYS, TSIRELSON_BOUND, chsh
from .entanglement import canonical_iso, canonical_iso_of, measurement_entanglement_degree, operator_schmidt, schmidt_state
from .io import (
    ParseError,
    canonical_json,
    model_to_dict,
    parse_dataset_file,
    parse_operator_file,
    sha256_of_file,
)
from .modelfit import (
    FitConfig,
    fit_basis,
    fit_state,
    load_model,
    load_state,
    reference_fixture,
)
from .verify import run_verification

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INVALID = 3
EXIT_CHECK_FAILED = 4


def _seed_of(args) -> int:
    """--seed wins; BELLKIT_SEED is the fallback; 0 otherwise."""
    if args.seed is not None:
        return args.seed
    raw = os.environ.get("BELLKIT_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"BELLKIT_SEED must be an integer, got {raw!r}") from None


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
    data = resources.files("bellkit").joinpath("data/reference_dataset_counts.json").read_bytes()
    report = _provenance(command, None, seed)
    report["input"] = {"path": "built-in", "sha256": hashlib.sha256(data).hexdigest()}
    return report


def _emit(report: dict, lines: list, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(canonical_json(report))
    else:
        sys.stdout.write("\n".join(lines) + "\n")


def _print_warnings(warnings: list) -> None:
    for message in warnings:
        print(f"warning: {message}", file=sys.stderr)


def _read_dataset(args, command: str) -> tuple:
    """(dataset, report) for a dataset-file command: ``--tolerance`` is the
    probability-sum slack, the file's warnings are printed and reported."""
    seed = _seed_of(args)
    sum_tol = args.tolerance if args.tolerance is not None else 0.005
    dataset, warnings = parse_dataset_file(args.file, strict=args.strict, sum_tol=sum_tol)
    _print_warnings(warnings)
    doc = _provenance(command, args.file, seed)
    doc["warnings"] = warnings
    return dataset, doc


def _load_printing_warnings(load, path, strict: bool, warnings: list):
    """``load_state`` or ``load_model`` on a file, its warnings printed and
    appended to ``warnings``."""
    found: list = []
    result = load(path, strict=strict, warnings=found)
    _print_warnings(found)
    warnings += found
    return result


def _side_label(tables: dict, side: str, outcome: int, experiment: str) -> str:
    table = tables[experiment]
    labels = table.a_labels if side in ("A", "A'") else table.b_labels
    return labels[outcome - 1]


# ---------------------------------------------------------------------------
# analyze


def cmd_analyze(args) -> int:
    dataset, doc = _read_dataset(args, "analyze")
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


def _polar_entry(vec) -> tuple:
    return [float(a) for a in vec.amplitudes], [float(p) for p in vec.phases_deg]


def _write_fitted_model(path, state_vector, models: dict) -> dict:
    amplitudes, phases = _polar_entry(state_vector.raw)
    entries = {
        key: {
            "a_labels": model.a_labels,
            "b_labels": model.b_labels,
            "eigenvalues": model.eigenvalues,
            "eigenvectors": [_polar_entry(v) for v in model.eigenvectors],
        }
        for key, model in models.items()
    }
    doc = model_to_dict((amplitudes, phases, state_vector.provenance), entries)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(doc))
    return {"path": str(path), "sha256": sha256_of_file(path)}


def cmd_fit(args) -> int:
    seed = _seed_of(args)
    dataset, warnings = parse_dataset_file(args.file, strict=args.strict)
    _print_warnings(warnings)

    doc = _provenance("fit", args.file, seed)
    doc["warnings"] = warnings
    lines = [f"input: {args.file} (sha256 {doc['input']['sha256'][:12]}...)"]
    all_converged = True

    if args.state is not None:
        # The closed-form basis fit uses no restarts; --restarts is still
        # validated, but neither used nor reported.
        restarts = args.restarts if args.restarts is not None else 64
        target = args.tolerance if args.tolerance is not None else 1e-8
        cfg = FitConfig(seed=seed, restarts=restarts, target_misfit=target)
        state = _load_printing_warnings(load_state, args.state, args.strict, warnings)
        doc["mode"] = "basis"
        doc["state_file"] = {"path": str(args.state), "sha256": sha256_of_file(args.state)}
        doc["fits"] = {}
        models = {}
        lines += [f"state: {args.state}", f"mode: basis fits, seed {seed}", ""]
        for key in EXPERIMENT_KEYS:
            result = fit_basis(state, dataset.tables[key], cfg, experiment=key)
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
        fitted_state = state
    else:
        restarts = args.restarts if args.restarts is not None else 8
        target = args.tolerance if args.tolerance is not None else 1e-8
        cfg = FitConfig(seed=seed, restarts=restarts, target_misfit=target)
        result = fit_state(dataset, cfg)
        all_converged = result.converged
        doc["mode"] = "state"
        doc["restarts"] = restarts
        doc["objective"] = result.objective
        doc["converged"] = result.converged
        doc["iterations"] = result.iterations
        doc["evaluations"] = result.evaluations
        amplitudes, phases = _polar_entry(result.state.raw)
        doc["state"] = {
            "amplitudes": amplitudes,
            "phases_deg": phases,
            "provenance": result.state.provenance,
        }
        doc["fits"] = {
            key: {"misfit": misfit} for key, (_, misfit) in result.per_experiment.items()
        }
        lines += [
            f"mode: state search, seed {seed}, restarts {restarts}",
            "",
            f"  objective {result.objective:.3e}  converged {'yes' if result.converged else 'NO'}  "
            f"iterations {result.iterations}  evaluations {result.evaluations}",
            "  state amplitudes " + ", ".join(f"{a:.4f}" for a in amplitudes),
            "  state phases (deg) " + ", ".join(f"{p:.2f}" for p in phases),
            "",
        ]
        for key in EXPERIMENT_KEYS:
            _, misfit = result.per_experiment[key]
            lines.append(f"  {key:4s} table misfit {misfit:.3e}")
        models = {key: model for key, (model, _) in result.per_experiment.items()}
        fitted_state = result.state

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
    if args.file is not None:
        dataset, doc = _read_dataset(args, "verify-paper")
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
        _, models = _load_printing_warnings(load_model, args.model, args.strict, warnings)
        return canonical_iso_of(models[key])
    raise ValueError(f"unknown --iso {args.iso!r}; use 'canonical' or 'from-model:<experiment>'")


def cmd_schmidt(args) -> int:
    seed = _seed_of(args)
    warnings: list = []
    iso = _resolve_iso(args, warnings)
    rank_tol = args.tolerance if args.tolerance is not None else 1e-7

    if args.state is not None:
        state = _load_printing_warnings(load_state, args.state, args.strict, warnings)
        decomposition = schmidt_state(state.values, iso)
        rank = decomposition.rank(rank_tol)
        doc = _provenance("schmidt", args.state, seed)
        doc["warnings"] = warnings
        doc["kind"] = "state"
        doc["iso"] = iso.name
        doc["coefficients"] = [float(c) for c in decomposition.coefficients]
        doc["rank"] = rank
        doc["product"] = rank == 1
        lines = [
            f"state: {args.state}",
            f"identification: {iso.name}",
            "coefficients: " + ", ".join(f"{c:.6f}" for c in decomposition.coefficients),
            f"rank: {rank}",
            f"verdict: {'product' if rank == 1 else 'entangled'} relative to this identification",
        ]
    else:
        matrix, file_warnings = parse_operator_file(args.operator, strict=args.strict)
        _print_warnings(file_warnings)
        warnings += file_warnings
        operator = np.array(matrix)
        decomposition = operator_schmidt(operator, iso)
        rank = decomposition.rank(rank_tol)
        degree = measurement_entanglement_degree(operator, iso)
        doc = _provenance("schmidt", args.operator, seed)
        doc["warnings"] = warnings
        doc["kind"] = "operator"
        doc["iso"] = iso.name
        doc["sigma"] = [float(s) for s in decomposition.sigma]
        doc["rank"] = rank
        doc["product"] = rank == 1
        doc["entanglement_degree"] = degree
        lines = [
            f"operator: {args.operator}",
            f"identification: {iso.name}",
            "schmidt coefficients: " + ", ".join(f"{s:.6f}" for s in decomposition.sigma),
            f"rank: {rank}",
            f"verdict: {'product' if rank == 1 else 'entangled'} relative to this identification",
            f"entanglement degree: {degree:.6f}",
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
    args = _build_parser().parse_args(argv)
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
