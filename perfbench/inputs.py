"""Seeded input files for the benchmark workloads.

Every file an operation reads is written here, before timing starts, from
``numpy.random.default_rng(seed)``; the same seed gives byte-identical
files.  Each operation carries what its oracle needs to judge the output:
the generated counts, matrices and states, and the rank each input was
built with.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles

SUBJECTS = 81
POOL_SEED = 20130215
WORDS = ("Horse", "Bear", "Tiger", "Cat", "Growls", "Whinnies", "Snorts", "Meows",
         "Wolf", "Owl", "Howls", "Hoots", "Fox", "Lynx", "Barks", "Purrs")


@dataclass
class Op:
    """One command line plus what its oracle needs, or a batch of such steps.

    A batch op runs its ``steps`` in order; its time is the sum of theirs,
    and it fails when any step fails.
    """

    kind: str
    argv: list = field(default_factory=list)
    path: str = ""
    data: bytes = b""
    expect: dict = field(default_factory=dict)
    steps: list = field(default_factory=list)


def _write(path: Path, doc: dict) -> bytes:
    data = (json.dumps(doc, indent=2) + "\n").encode()
    path.write_bytes(data)
    return data


def _hermitian(rng, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2.0


def _unit(rng, dim: int) -> np.ndarray:
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


def _unitary2(rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _state_doc(psi: np.ndarray) -> dict:
    return {"schema_version": 1, "kind": "state", "amplitudes": np.abs(psi).tolist(),
            "phases_deg": np.degrees(np.angle(psi)).tolist(), "provenance": "user"}


def _operator_doc(matrix: np.ndarray) -> dict:
    return {"schema_version": 1, "kind": "operator",
            "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in matrix]}


def reference_docs(root: Path) -> tuple:
    data = root / "src" / "bellkit" / "data"
    counts = json.loads((data / "reference_dataset_counts.json").read_text(encoding="utf-8"))
    model = json.loads((data / "reference_model.json").read_text(encoding="utf-8"))
    return counts, model


def resample(rng, reference: dict, name: str, counts_rng=None) -> dict:
    """Multinomial resample (n = 81) of the reference counts, relabelled.

    The counts come from ``counts_rng`` when given, the labels from ``rng``.
    """
    counts_rng = rng if counts_rng is None else counts_rng
    labels = {side: [f"{w}{rng.integers(100)}" for w in rng.choice(WORDS, 2, replace=False)]
              for side in ("A", "A'", "B", "B'")}
    coincidence = {}
    for key in oracles.KEYS:
        counts = np.asarray(reference["coincidence"][key]["counts"], float)
        a_side, b_side = ("A'" if key.startswith("A'") else "A"), ("B'" if key.endswith("'") else "B")
        coincidence[key] = {"a_labels": labels[a_side], "b_labels": labels[b_side],
                            "counts": counts_rng.multinomial(SUBJECTS, counts / counts.sum()).tolist()}
    singles = {side: {"labels": labels[side], "probabilities": entry["probabilities"]}
               for side, entry in reference["singles"].items()}
    return {"schema_version": 1, "experiment": name, "n_subjects": SUBJECTS,
            "coincidence": coincidence, "singles": singles}


def product_dataset(rng) -> tuple:
    """A random state and the tables of four product measurements on it.

    The measurements share per-side bases (A with AB and AB', and so on),
    so the data are exactly realizable from the returned state.
    """
    psi = _unit(rng, 4)
    sides = {side: _unitary2(rng) for side in ("A", "A'", "B", "B'")}
    coincidence = {}
    for key in oracles.KEYS:
        ua = sides["A'" if key.startswith("A'") else "A"]
        ub = sides["B'" if key.endswith("'") else "B"]
        probs = [abs(np.vdot(np.kron(ua[:, i], ub[:, j]), psi)) ** 2 for i in (0, 1) for j in (0, 1)]
        coincidence[key] = {"probabilities": [float(p) for p in probs]}
    return psi, {"schema_version": 1, "experiment": "product-model", "coincidence": coincidence}


def golden_suite(rng, root: Path, workdir: Path) -> list:
    # verify-paper reads only built-in data with its own pinned seeds, so
    # the workload seed changes nothing in this input.
    return [Op("verify-paper", ["verify-paper", "--format", "json"])]


def model_fit(rng, root: Path, workdir: Path, cycles: int = 8) -> list:
    """One op per cycle: three single-restart state searches on resamples, then one basis fit.

    One state-search restart takes from under 0.1 s to 2 s depending on its
    counts and its optimizer seed.  With eight restarts per search a run
    held five or six searches, and whether one more of them fell inside the
    window moved the median by a factor of two; timed one by one, single
    restarts put the median in the gap between the cheap fits and the dear
    ones.  With counts and seeds drawn from the workload seed, medians also
    differed between seeds by more than any usable bound.  So an op is the
    batch of one cycle, and the counts and optimizer seeds of the state
    searches come from the fixed POOL_SEED: every run does the same
    state-search work in the same order.  The workload seed relabels those
    files and draws the whole basis-fit step.
    """
    reference, _ = reference_docs(root)
    pool = np.random.default_rng(POOL_SEED)
    out = str(workdir / "fitted_model.json")
    ops = []
    for c in range(cycles):
        steps = []
        for k in range(3):
            path = workdir / f"resample_{c}_{k}.json"
            doc = resample(rng, reference, f"resample-{c}-{k}", counts_rng=pool)
            data = _write(path, doc)
            seed = int(pool.integers(1 << 16))
            steps.append(Op("fit-state", ["fit", str(path), "--restarts", "1", "--seed", str(seed),
                                          "--out", out, "--format", "json"],
                            str(path), data, {"dataset": doc, "out": out}))
        psi, doc = product_dataset(rng)
        path, state_path = workdir / f"product_{c}.json", workdir / f"product_state_{c}.json"
        data = _write(path, doc)
        _write(state_path, _state_doc(psi))
        seed = int(rng.integers(1 << 16))
        steps.append(Op("fit-basis", ["fit", str(path), "--state", str(state_path), "--restarts", "64",
                                      "--seed", str(seed), "--out", out, "--format", "json"],
                        str(path), data, {"dataset": doc, "out": out}))
        ops.append(Op("model-fit", steps=steps))
    return ops


def file_batch(rng, root: Path, workdir: Path, pool: int = 64) -> list:
    """One op per generated set: analyze, schmidt --operator, schmidt --operator --iso, schmidt --state.

    The four commands cost about 1.5, 2.4, 3.5 and 1.5 ms.  Timed one by
    one, the median fell in the gaps between those clusters, and over ten
    runs its interquartile spread reached 37% of the median, against 25% for
    throughput.  Timed as one batch per set, the median moves with
    throughput.
    """
    reference, model = reference_docs(root)
    isos = oracles.model_isos(model)
    ops = []
    for i in range(pool):
        product = i % 2 == 0
        steps = []

        path = workdir / f"dataset_{i}.json"
        doc = resample(rng, reference, f"resample-{i}")
        steps.append(Op("analyze", ["analyze", str(path), "--format", "json"], str(path), _write(path, doc),
                        {"dataset": doc}))

        path = workdir / f"operator_{i}.json"
        matrix = np.kron(_hermitian(rng, 2), _hermitian(rng, 2)) if product else _hermitian(rng, 4)
        steps.append(Op("schmidt-operator", ["schmidt", "--operator", str(path), "--format", "json"],
                        str(path), _write(path, _operator_doc(matrix)),
                        {"matrix": matrix, "iso": np.eye(4, dtype=complex), "iso_name": "canonical",
                         "rank": 1 if product else 4}))

        key = oracles.KEYS[i % 4]
        iso = isos[key]
        path = workdir / f"operator_iso_{i}.json"
        if product:
            # product relative to the model's identification, not the canonical one
            matrix = iso.conj().T @ np.kron(_hermitian(rng, 2), _hermitian(rng, 2)) @ iso
            matrix = (matrix + matrix.conj().T) / 2.0
        else:
            matrix = _hermitian(rng, 4)
        steps.append(Op("schmidt-operator-iso",
                        ["schmidt", "--operator", str(path), "--iso", f"from-model:{key}", "--format", "json"],
                        str(path), _write(path, _operator_doc(matrix)),
                        {"matrix": matrix, "iso": iso, "iso_name": f"from-model:{key}",
                         "rank": 1 if product else 4}))

        path = workdir / f"state_{i}.json"
        psi = np.kron(_unit(rng, 2), _unit(rng, 2)) if product else _unit(rng, 4)
        steps.append(Op("schmidt-state", ["schmidt", "--state", str(path), "--format", "json"],
                        str(path), _write(path, _state_doc(psi)), {"psi": psi, "rank": 1 if product else 2}))
        ops.append(Op("file-batch", steps=steps))
    return ops


WORKLOADS = {
    "golden-suite": (
        golden_suite,
        "verify-paper on the built-in data, the paper's headline reproduction; hilbert.svd in the "
        "identification search dominates. The seed does not change this input",
    ),
    "model-fit": (
        model_fit,
        "cycles of fit state searches on n=81 resamples and a basis fit: fit_state carries the time "
        "and hilbert.svd is never called, the control for SVD work",
    ),
    "file-batch": (
        file_batch,
        "batches of short analyze and schmidt commands on generated files: io parsing, cli output, "
        "chsh, reference_fixture and one SVD per command",
    ),
}


def make_ops(workload: str, seed: int, root: Path, workdir: Path) -> list:
    build, _ = WORKLOADS[workload]
    workdir.mkdir(parents=True, exist_ok=True)
    return build(np.random.default_rng(seed), root, workdir)
