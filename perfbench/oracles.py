"""Output oracles for the benchmark's operations.

Each ``check_*`` function returns a list of problems; an empty list means
the command's output is accepted.  The arithmetic here is plain numpy and
never calls into bellkit, so a change to the library's numerics (for
example a different SVD) is judged against an independent route.
"""
from __future__ import annotations

import hashlib
import json
import math

import numpy as np

KEYS = ("AB", "AB'", "A'B", "A'B'")
TSIRELSON = 2.0 * math.sqrt(2.0)
# bellkit repairs a four-vector eigenbasis by Gram-Schmidt in this order;
# from-model identifications are built from the repaired vectors.
REPAIR_ORDER = (0, 1, 3, 2)
GOLDEN_ROWS = 12
GOLDEN_CHSH = "CHSH=2.41975"
RANK_TOL = 1e-7


def polar(amplitudes, phases_deg) -> np.ndarray:
    return np.asarray(amplitudes, float) * np.exp(1j * np.radians(np.asarray(phases_deg, float)))


def gram_schmidt(vectors, order) -> list:
    out = [None] * len(vectors)
    done = []
    for idx in order:
        w = np.array(vectors[idx], dtype=complex)
        for u in done:
            w = w - np.vdot(u, w) * u
        w = w / np.linalg.norm(w)
        out[idx] = w
        done.append(w)
    return out


def model_isos(model_doc: dict) -> dict:
    """Matrices of the from-model identifications of a model file's bases."""
    isos = {}
    for key in KEYS:
        raw = [polar(v["amplitudes"], v["phases_deg"]) for v in model_doc["measurements"][key]["eigenvectors"]]
        isos[key] = np.array([v.conj() for v in gram_schmidt(raw, REPAIR_ORDER)])
    return isos


def reshuffle(t: np.ndarray) -> np.ndarray:
    return t.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)


def rank_of(sigma: np.ndarray) -> int:
    return int(np.sum(sigma > RANK_TOL * sigma[0])) if sigma[0] > 0 else 0


def _close(reported, expected, tol: float) -> bool:
    try:
        return abs(float(reported) - float(expected)) <= tol
    except (TypeError, ValueError):
        return False


def _parse(stdout: str, problems: list):
    try:
        return json.loads(stdout)
    except json.JSONDecodeError as exc:
        problems.append(f"stdout is not JSON: {exc}")
        return None


def _check_input(doc: dict, path: str, data: bytes, problems: list) -> None:
    entry = doc.get("input", {})
    if entry.get("path") != path or entry.get("sha256") != hashlib.sha256(data).hexdigest():
        problems.append("input provenance does not match the input file")


# ---------------------------------------------------------------------------
# analyze


def expected_analysis(dataset_doc: dict) -> dict:
    """E values, CHSH and the eight marginal-law rows of a counts dataset."""
    n = dataset_doc["n_subjects"]
    probs = {k: np.asarray(dataset_doc["coincidence"][k]["counts"], float) / n for k in KEYS}
    e = {k: float(p[0] + p[3] - p[1] - p[2]) for k, p in probs.items()}
    value = e["A'B'"] + e["A'B"] + e["AB'"] - e["AB"]
    rows = []
    for side, lhs, rhs, axis in (("A", "AB", "AB'", 1), ("A'", "A'B", "A'B'", 1),
                                 ("B", "AB", "A'B", 0), ("B'", "AB'", "A'B'", 0)):
        left = probs[lhs].reshape(2, 2).sum(axis=axis)
        right = probs[rhs].reshape(2, 2).sum(axis=axis)
        labels = dataset_doc["coincidence"][lhs]["a_labels" if axis == 1 else "b_labels"]
        for outcome in (0, 1):
            rows.append({"side": side, "outcome": outcome + 1, "label": labels[outcome],
                         "lhs_experiment": lhs, "rhs_experiment": rhs,
                         "lhs": float(left[outcome]), "rhs": float(right[outcome])})
    return {"e_values": e, "chsh": value, "marginal_law": rows}


def check_analyze(code, stdout: str, path: str, data: bytes, dataset_doc: dict) -> list:
    problems = [] if code == 0 else [f"exit code {code}"]
    doc = _parse(stdout, problems)
    if doc is None:
        return problems
    _check_input(doc, path, data, problems)
    want = expected_analysis(dataset_doc)
    if doc.get("experiment") != dataset_doc["experiment"] or doc.get("n_subjects") != dataset_doc["n_subjects"]:
        problems.append("experiment name or subject count differs from the input")
    for key in KEYS:
        if not _close(doc.get("e_values", {}).get(key), want["e_values"][key], 1e-12):
            problems.append(f"E({key}) differs from the recomputed value")
    if not _close(doc.get("chsh"), want["chsh"], 1e-12):
        problems.append("CHSH differs from the recomputed value")
    if doc.get("violates") != (abs(want["chsh"]) > 2.0):
        problems.append("violation verdict is wrong")
    if not _close(doc.get("tsirelson_gap"), TSIRELSON - abs(want["chsh"]), 1e-12):
        problems.append("Tsirelson gap is wrong")
    rows = doc.get("marginal_law", [])
    if len(rows) != len(want["marginal_law"]):
        problems.append(f"{len(rows)} marginal-law rows, expected 8")
        return problems
    for got, exp in zip(rows, want["marginal_law"]):
        fields = ("side", "outcome", "label", "lhs_experiment", "rhs_experiment")
        if any(got.get(f) != exp[f] for f in fields) or not (
            _close(got.get("lhs"), exp["lhs"], 1e-12)
            and _close(got.get("rhs"), exp["rhs"], 1e-12)
            and _close(got.get("deviation"), abs(exp["lhs"] - exp["rhs"]), 1e-12)
        ):
            problems.append(f"marginal-law row {exp['side']}={exp['outcome']} is wrong")
    return problems


# ---------------------------------------------------------------------------
# schmidt


def check_schmidt_operator(code, stdout: str, path: str, data: bytes, matrix: np.ndarray,
                           iso: np.ndarray, iso_name: str, rank: int) -> list:
    """``rank`` is the rank the operator was built with under ``iso``."""
    problems = [] if code == 0 else [f"exit code {code}"]
    doc = _parse(stdout, problems)
    if doc is None:
        return problems
    _check_input(doc, path, data, problems)
    sigma = np.linalg.svd(reshuffle(iso @ matrix @ iso.conj().T), compute_uv=False)
    got = np.asarray(doc.get("sigma", []), float)
    if got.shape != sigma.shape or np.max(np.abs(got - sigma)) > 1e-9 * max(1.0, sigma[0]):
        problems.append("Schmidt coefficients differ from numpy's SVD")
    if rank_of(sigma) != rank:
        problems.append(f"numpy rank {rank_of(sigma)} differs from the built rank {rank}")
    if doc.get("rank") != rank or doc.get("product") != (rank == 1):
        problems.append(f"reported rank {doc.get('rank')}, built with rank {rank}")
    if doc.get("kind") != "operator" or doc.get("iso") != iso_name:
        problems.append("report names the wrong kind or identification")
    degree = 1.0 - sigma[0] ** 2 / float(np.sum(sigma**2))
    if not _close(doc.get("entanglement_degree"), degree, 1e-9):
        problems.append("entanglement degree differs from the recomputed value")
    return problems


def check_schmidt_state(code, stdout: str, path: str, data: bytes, psi: np.ndarray, rank: int) -> list:
    problems = [] if code == 0 else [f"exit code {code}"]
    doc = _parse(stdout, problems)
    if doc is None:
        return problems
    _check_input(doc, path, data, problems)
    coefficients = np.linalg.svd((psi / np.linalg.norm(psi)).reshape(2, 2), compute_uv=False)
    got = np.asarray(doc.get("coefficients", []), float)
    if got.shape != coefficients.shape or np.max(np.abs(got - coefficients)) > 1e-9:
        problems.append("state Schmidt coefficients differ from numpy's SVD")
    if doc.get("rank") != rank or doc.get("product") != (rank == 1):
        problems.append(f"reported rank {doc.get('rank')}, built with rank {rank}")
    return problems


# ---------------------------------------------------------------------------
# fit


def table_targets(dataset_doc: dict) -> dict:
    """Each table's probabilities, normalized to sum 1 as the fitters do."""
    targets = {}
    for key in KEYS:
        block = dataset_doc["coincidence"][key]
        if "counts" in block:
            t = np.asarray(block["counts"], float) / dataset_doc["n_subjects"]
        else:
            t = np.asarray(block["probabilities"], float)
        targets[key] = t / t.sum()
    return targets


def check_fit(code, stdout: str, path: str, data: bytes, dataset_doc: dict, out_text: str | None,
              basis_mode: bool) -> list:
    """Recompute every table's misfit from the written model file.

    In basis mode the data were generated from the given state and product
    bases, so every fit must also reach the default target 1e-8.
    """
    problems = [] if code == 0 else [f"exit code {code}"]
    doc = _parse(stdout, problems)
    if doc is None:
        return problems
    _check_input(doc, path, data, problems)
    if out_text is None:
        return problems + ["the --out model file was not written"]
    if doc.get("output", {}).get("sha256") != hashlib.sha256(out_text.encode()).hexdigest():
        problems.append("reported model hash does not match the written file")
    model = json.loads(out_text)
    psi = polar(model["state"]["amplitudes"], model["state"]["phases_deg"])
    psi = psi / np.linalg.norm(psi)
    targets = table_targets(dataset_doc)
    total = 0.0
    for key in KEYS:
        vectors = [polar(v["amplitudes"], v["phases_deg"]) for v in model["measurements"][key]["eigenvectors"]]
        q = np.array([abs(np.vdot(v, psi)) ** 2 for v in vectors])
        misfit = float(np.sum((q - targets[key]) ** 2))
        total += misfit
        reported = doc.get("fits", {}).get(key, {}).get("misfit")
        if not _close(reported, misfit, 1e-12):
            problems.append(f"{key}: reported misfit {reported} vs recomputed {misfit:.3e}")
        if basis_mode and misfit > 1e-8:
            problems.append(f"{key}: basis fit misfit {misfit:.3e} misses the target 1e-8")
    # The tables are re-solved from the search's final angles, which can only
    # lower each misfit, so their sum never exceeds the search objective.
    if not basis_mode and not (isinstance(doc.get("objective"), float) and total <= doc["objective"] + 1e-12):
        problems.append(f"table misfits sum to {total:.3e}, above the objective {doc.get('objective')}")
    if doc.get("mode") != ("basis" if basis_mode else "state"):
        problems.append(f"wrong mode {doc.get('mode')!r}")
    return problems


# ---------------------------------------------------------------------------
# verify-paper


def strip_timings(doc: dict) -> dict:
    doc = dict(doc)
    doc["checks"] = [{k: v for k, v in row.items() if k != "elapsed_ms"} for row in doc.get("checks", [])]
    return doc


def check_verify(code, stdout: str, reference: dict | None) -> tuple:
    """Returns (problems, failed row names, report without timings).

    ``reference`` is an earlier accepted report of the same run, timings
    stripped; reports must agree apart from the per-row ``elapsed_ms``.
    """
    problems = [] if code == 0 else [f"exit code {code}"]
    doc = _parse(stdout, problems)
    if doc is None:
        return problems, [], None
    checks = doc.get("checks", [])
    failed_rows = [row.get("name") for row in checks if row.get("passed") is not True]
    if len(checks) != GOLDEN_ROWS:
        problems.append(f"{len(checks)} rows, expected {GOLDEN_ROWS}")
    if failed_rows:
        problems.append("failed rows: " + ", ".join(map(str, failed_rows)))
    if doc.get("all_passed") is not True:
        problems.append("all_passed is not true")
    chsh_rows = [row for row in checks if row.get("name") == "chsh-values"]
    if not chsh_rows or GOLDEN_CHSH not in chsh_rows[0].get("measured", ""):
        problems.append(f"chsh-values row does not report {GOLDEN_CHSH}")
    stripped = strip_timings(doc)
    if reference is not None and stripped != reference:
        problems.append("report differs from the run's first report beyond elapsed_ms")
    return problems, failed_rows, stripped
