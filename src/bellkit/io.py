"""Dataset, state, model, and operator files: JSON schemas, parsing with
field-level diagnostics, and a canonical writer.

Parsing is split from domain validation on purpose: structural problems
(bad JSON, missing or unknown fields, wrong types) raise ParseError, while
value-level problems (probabilities out of range, bad sums) surface as
ValueError from the domain types.  The command line maps the two to
different exit codes.

Every reader returns (value, warnings): the file's content and the list of
its unknown-field warnings (with ``strict`` they raise instead).  The
canonical writer emits two-space-indented JSON with a fixed key order and a
trailing newline, so write(parse(f)) is byte-identical for files in
canonical form.  Each ``*_to_dict`` writer is the inverse of its parser;
model_to_dict takes exactly the content parse_model_file returns.
"""
from __future__ import annotations

import json
import math

from .tables import EXPERIMENT_KEYS, CoincidenceTable, ExperimentDataset, SinglesTable

SCHEMA_VERSION = 1

SINGLES_KEYS = ("A", "A'", "B", "B'")


class ParseError(ValueError):
    """A structural problem in an input file; ``location`` names the field."""

    def __init__(self, message: str, location: str = ""):
        prefix = f"{location}: " if location else ""
        super().__init__(prefix + message)
        self.location = location


def sha256_of_file(path) -> str:
    # imported here: hashlib costs milliseconds to load, and only the CLI hashes files
    import hashlib

    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def canonical_json(obj) -> str:
    """Canonical serialized form: 2-space indent, preserved key order.

    ValueError for a NaN or infinite number, which JSON cannot hold.  Text
    reports are not written through here, so this check does not cover them.
    """
    return json.dumps(obj, indent=2, ensure_ascii=False, allow_nan=False) + "\n"


def _reject_constant(name: str):
    raise ParseError(f"non-finite number {name} is not allowed")


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_constant=_reject_constant)
    except ParseError:
        raise
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: invalid byte at offset {exc.start}") from exc
    except ValueError as exc:  # an integer literal over the int/str conversion digit limit
        raise ParseError("integer literal has too many digits") from exc
    except RecursionError as exc:
        raise ParseError("invalid JSON: arrays or objects nested too deeply") from exc
    except OSError as exc:
        raise ParseError(str(exc)) from exc


def _header(doc, kind, fields, strict: bool, warnings: list) -> None:
    """Checks every file starts with, in order: top level an object, unknown
    top-level fields (``fields`` plus ``schema_version`` and ``kind``), the
    schema version, the kind.  Datasets have no kind field and pass None."""
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    allowed = {"schema_version", *fields} | ({"kind"} if kind is not None else set())
    _check_unknown(doc, allowed, "", strict, warnings)
    version = _require(doc, "schema_version", int, "")
    if version != SCHEMA_VERSION:
        raise ParseError(f"unsupported schema_version {version}")
    if kind is not None:
        found = doc.get("kind", kind)
        if found != kind:
            raise ParseError(f"expected kind {kind!r}, got {found!r}")


def _number(value, what: str, location: str) -> float:
    """``value`` as a finite float; ``what`` is the message if it is not a
    number (booleans are not), extended for one beyond the float range."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ParseError(what, location)
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ParseError(f"{what} within the float range", location)
    return number


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _require(mapping: dict, key: str, kind, location: str):
    if key not in mapping:
        raise ParseError(f"missing required field {key!r}", location)
    value = mapping[key]
    if not (_is_int(value) if kind is int else isinstance(value, kind)):
        raise ParseError(f"field {key!r} must be {kind.__name__}", location)
    return value


def _check_unknown(mapping: dict, allowed, location: str, strict: bool, warnings: list,
                   noun: str = "field"):
    for key in mapping:
        if key not in allowed:
            error = ParseError(f"unknown {noun} {key!r}", location)
            if strict:
                raise error
            warnings.append(str(error))


def _number_list(value, length: int, location: str) -> list:
    if not isinstance(value, list) or len(value) != length:
        raise ParseError(f"expected a list of {length} numbers", location)
    return [_number(x, f"entry {i} must be a number", location) for i, x in enumerate(value)]


def _labels(block: dict, name: str, location: str) -> tuple:
    """Field ``name`` of ``block``: two outcome names, ("1", "2") when absent."""
    labels = block.get(name, ["1", "2"])
    if not isinstance(labels, list) or len(labels) != 2 or not all(isinstance(s, str) for s in labels):
        raise ParseError(f"field {name!r} must be a list of two strings", location)
    return tuple(labels)


def _outcome_labels(block: dict, location: str):
    return _labels(block, "a_labels", location), _labels(block, "b_labels", location)


# ---------------------------------------------------------------------------
# dataset files

def parse_dataset_file(path, strict: bool = False, sum_tol: float = 0.005):
    """Parse a dataset file into an ExperimentDataset.

    Returns (dataset, warnings).  ``sum_tol`` is the accepted deviation of
    each table's probability sum from 1 (rounded published tables need the
    loose default).
    """
    return parse_dataset_doc(_load_json(path), strict=strict, sum_tol=sum_tol)


def parse_dataset_doc(doc, strict: bool = False, sum_tol: float = 0.005):
    """parse_dataset_file for an already decoded JSON document."""
    warnings: list = []
    _header(doc, None, {"experiment", "n_subjects", "coincidence", "singles"}, strict, warnings)
    name = _require(doc, "experiment", str, "")
    n_subjects = doc.get("n_subjects")
    if n_subjects is not None and not (_is_int(n_subjects) and n_subjects > 0):
        raise ParseError("field 'n_subjects' must be a positive integer")
    coincidence = _require(doc, "coincidence", dict, "")

    tables = {}
    for key in EXPERIMENT_KEYS:
        if key not in coincidence:
            raise ParseError(f"missing coincidence block {key!r}", "coincidence")
        block = coincidence[key]
        location = f"coincidence.{key}"
        if not isinstance(block, dict):
            raise ParseError("block must be an object", location)
        _check_unknown(
            block, {"a_labels", "b_labels", "probabilities", "counts"}, location, strict, warnings
        )
        a_labels, b_labels = _outcome_labels(block, location)
        has_probs = "probabilities" in block
        has_counts = "counts" in block
        if has_probs == has_counts:
            raise ParseError("block needs exactly one of 'probabilities' or 'counts'", location)
        if has_counts:
            raw = block["counts"]
            if not isinstance(raw, list) or len(raw) != 4 or not all(map(_is_int, raw)):
                raise ParseError("field 'counts' must be a list of 4 integers", location)
            if n_subjects is None:
                raise ParseError("counts blocks require 'n_subjects'", location)
            tables[key] = CoincidenceTable.from_counts(
                key, tuple(raw), n_subjects, a_labels=a_labels, b_labels=b_labels
            )
        else:
            probs = _number_list(block["probabilities"], 4, location)
            tables[key] = CoincidenceTable(
                key, *probs, a_labels=a_labels, b_labels=b_labels, sum_tol=sum_tol
            )
    _check_unknown(coincidence, EXPERIMENT_KEYS, "coincidence", strict, warnings, noun="block")

    singles = None
    if "singles" in doc:
        raw_singles = doc["singles"]
        if not isinstance(raw_singles, dict):
            raise ParseError("field 'singles' must be an object")
        _check_unknown(raw_singles, SINGLES_KEYS, "singles", strict, warnings, noun="side")
        probabilities = {}
        labels = {}
        for side, entry in raw_singles.items():
            if side not in SINGLES_KEYS:
                continue  # reported above
            location = f"singles.{side}"
            if not isinstance(entry, dict):
                raise ParseError("entry must be an object", location)
            _check_unknown(entry, {"labels", "probabilities"}, location, strict, warnings)
            pair = _number_list(_require(entry, "probabilities", list, location), 2, location)
            probabilities[side] = tuple(pair)
            if "labels" in entry:
                labels[side] = _labels(entry, "labels", location)
        singles = SinglesTable(probabilities=probabilities, labels=labels)

    dataset = ExperimentDataset(name=name, tables=tables, singles=singles, n_subjects=n_subjects)
    return dataset, warnings


def dataset_to_dict(dataset: ExperimentDataset) -> dict:
    """Canonical dict form of a dataset (inverse of parse_dataset_file)."""
    doc: dict = {"schema_version": SCHEMA_VERSION, "experiment": dataset.name}
    if dataset.n_subjects is not None:
        doc["n_subjects"] = dataset.n_subjects
    coincidence = {}
    for key in EXPERIMENT_KEYS:
        table = dataset.tables[key]
        block: dict = {}
        if table.a_labels != ("1", "2") or table.b_labels != ("1", "2"):
            block["a_labels"] = list(table.a_labels)
            block["b_labels"] = list(table.b_labels)
        if table.counts is not None:
            block["counts"] = list(table.counts)
        else:
            block["probabilities"] = [table.p11, table.p12, table.p21, table.p22]
        coincidence[key] = block
    doc["coincidence"] = coincidence
    if dataset.singles is not None:
        singles = {}
        for side in SINGLES_KEYS:
            if side not in dataset.singles.probabilities:
                continue
            entry: dict = {}
            if side in dataset.singles.labels:
                entry["labels"] = list(dataset.singles.labels[side])
            entry["probabilities"] = list(dataset.singles.probabilities[side])
            singles[side] = entry
        doc["singles"] = singles
    return doc


# ---------------------------------------------------------------------------
# state, model, and operator files (plain-structure layer; domain objects
# are built in modelfit)

_STATE_FIELDS = ("amplitudes", "phases_deg", "provenance")
_POLAR_FIELDS = _STATE_FIELDS[:2]


def _polar(entry: dict, location: str) -> dict:
    return {
        name: _number_list(_require(entry, name, list, location), 4, location)
        for name in _POLAR_FIELDS
    }


def _parse_polar_vector(entry, location: str, strict: bool, warnings: list) -> dict:
    if not isinstance(entry, dict):
        raise ParseError("expected an object with amplitudes and phases", location)
    _check_unknown(entry, _POLAR_FIELDS, location, strict, warnings)
    return _polar(entry, location)


def _state_content(entry: dict, location: str) -> dict:
    """Amplitudes, phases and provenance of a state file or a model's state block."""
    content = _polar(entry, location)
    provenance = entry.get("provenance", "user")
    if provenance not in ("reference", "fitted", "user"):
        raise ParseError(f"unknown provenance {provenance!r}", location)
    content["provenance"] = provenance
    return content


def _polar_block(entry: dict) -> dict:
    """A state or an eigenvector as written: ``entry``'s _POLAR_FIELDS as
    float lists, then its provenance if it has one."""
    block = {name: [float(x) for x in entry[name]] for name in _POLAR_FIELDS}
    if "provenance" in entry:
        block["provenance"] = entry["provenance"]
    return block


def parse_state_file(path, strict: bool = False):
    """Parse a state file into a plain dict; returns (content, warnings)."""
    doc = _load_json(path)
    warnings: list = []
    _header(doc, "state", _STATE_FIELDS, strict, warnings)
    return _state_content(doc, ""), warnings


def state_to_dict(amplitudes, phases_deg, provenance: str) -> dict:
    content = dict(zip(_STATE_FIELDS, (amplitudes, phases_deg, provenance)))
    return {"schema_version": SCHEMA_VERSION, "kind": "state", **_polar_block(content)}


def parse_model_file(path, strict: bool = False):
    """Parse a model file (state + four measurement bases) into plain dicts;
    returns (content, warnings)."""
    return parse_model_doc(_load_json(path), strict=strict)


def parse_model_doc(doc, strict: bool = False):
    """parse_model_file for an already decoded JSON document."""
    warnings: list = []
    _header(doc, "model", {"state", "measurements"}, strict, warnings)
    content: dict = {"state": None, "measurements": {}}
    if "state" in doc:
        state_block = doc["state"]
        if not isinstance(state_block, dict):
            raise ParseError("must be an object", "state")
        _check_unknown(state_block, _STATE_FIELDS, "state", strict, warnings)
        content["state"] = _state_content(state_block, "state")
    measurements = _require(doc, "measurements", dict, "")
    for key in EXPERIMENT_KEYS:
        if key not in measurements:
            raise ParseError(f"missing measurement block {key!r}", "measurements")
        block = measurements[key]
        location = f"measurements.{key}"
        if not isinstance(block, dict):
            raise ParseError("must be an object", location)
        _check_unknown(
            block, {"a_labels", "b_labels", "eigenvalues", "eigenvectors"}, location, strict, warnings
        )
        a_labels, b_labels = _outcome_labels(block, location)
        eigenvalues = _number_list(_require(block, "eigenvalues", list, location), 4, location)
        raw_vectors = _require(block, "eigenvectors", list, location)
        if len(raw_vectors) != 4:
            raise ParseError("field 'eigenvectors' must list four vectors", location)
        vectors = [
            _parse_polar_vector(v, f"{location}.eigenvectors[{i}]", strict, warnings)
            for i, v in enumerate(raw_vectors)
        ]
        content["measurements"][key] = {
            "a_labels": a_labels,
            "b_labels": b_labels,
            "eigenvalues": eigenvalues,
            "eigenvectors": vectors,
        }
    _check_unknown(measurements, EXPERIMENT_KEYS, "measurements", strict, warnings, noun="block")
    return content, warnings


def model_to_dict(content: dict) -> dict:
    """Canonical dict form of a model file, from content shaped as
    parse_model_file returns it; any sequences of numbers will do."""
    doc: dict = {"schema_version": SCHEMA_VERSION, "kind": "model"}
    if content["state"] is not None:
        doc["state"] = _polar_block(content["state"])
    doc["measurements"] = measurements = {}
    for key in EXPERIMENT_KEYS:
        block = content["measurements"][key]
        measurements[key] = {
            "a_labels": list(block["a_labels"]),
            "b_labels": list(block["b_labels"]),
            "eigenvalues": [float(v) for v in block["eigenvalues"]],
            "eigenvectors": [_polar_block(v) for v in block["eigenvectors"]],
        }
    return doc


def parse_operator_file(path, strict: bool = False):
    """Parse an operator file into a 4x4 complex matrix (as nested lists)."""
    doc = _load_json(path)
    warnings: list = []
    _header(doc, "operator", {"matrix"}, strict, warnings)
    matrix = _require(doc, "matrix", list, "")
    if len(matrix) != 4:
        raise ParseError("field 'matrix' must have 4 rows")
    rows = []
    for i, row in enumerate(matrix):
        if not isinstance(row, list) or len(row) != 4:
            raise ParseError(f"row {i} must have 4 entries", "matrix")
        entries = []
        for j, cell in enumerate(row):
            if not isinstance(cell, list) or len(cell) != 2:
                raise ParseError(f"entry ({i},{j}) must be a [re, im] pair", "matrix")
            what = f"entry ({i},{j}) must hold numbers"
            re, im = (_number(part, what, "matrix") for part in cell)
            entries.append(complex(re, im))
        rows.append(entries)
    return rows, warnings


def operator_to_dict(matrix) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "operator",
        "matrix": [[[float(cell.real), float(cell.imag)] for cell in row] for row in matrix],
    }
