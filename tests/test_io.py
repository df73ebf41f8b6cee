"""Tests for file parsing, canonical writing, and diagnostics."""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from bellkit import io
from bellkit.bellstats import ExperimentDataset

DATA = Path(__file__).resolve().parent.parent / "src" / "bellkit" / "data"


def make_doc(**overrides) -> dict:
    """A minimal valid probability-form dataset document."""
    doc = {
        "schema_version": 1,
        "experiment": "toy",
        "coincidence": {
            key: {"probabilities": [0.25, 0.25, 0.25, 0.25]}
            for key in ("AB", "AB'", "A'B", "A'B'")
        },
    }
    doc.update(overrides)
    return doc


def write_doc(tmp_path: Path, doc, name: str = "dataset.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# canonical writer and hashing


def test_canonical_json_two_space_indent_and_trailing_newline():
    text = io.canonical_json({"a": [1, 2]})
    assert text == '{\n  "a": [\n    1,\n    2\n  ]\n}\n'


@pytest.mark.parametrize("number", [float("nan"), float("inf"), float("-inf")])
def test_canonical_json_refuses_non_finite_numbers(number):
    with pytest.raises(ValueError, match="not JSON compliant"):
        io.canonical_json({"x": number})


def test_sha256_of_file_matches_hashlib(tmp_path):
    path = tmp_path / "blob.bin"
    path.write_bytes(b"coincidence")
    assert io.sha256_of_file(path) == hashlib.sha256(b"coincidence").hexdigest()


@pytest.mark.parametrize(
    "name", ["reference_dataset.json", "reference_dataset_counts.json"]
)
def test_dataset_round_trip_is_byte_identical(name):
    source = DATA / name
    dataset, warnings = io.parse_dataset_file(source, strict=True)
    assert warnings == []
    assert io.canonical_json(io.dataset_to_dict(dataset)).encode("utf-8") == source.read_bytes()


def test_model_round_trip_is_byte_identical():
    source = DATA / "reference_model.json"
    content, warnings = io.parse_model_file(source, strict=True)
    assert warnings == []
    assert io.canonical_json(io.model_to_dict(content)) == source.read_text(encoding="utf-8")


def test_operator_round_trip(tmp_path):
    matrix = np.array(
        [
            [1.0, 0.5 + 0.25j, 0.0, 0.0],
            [0.5 - 0.25j, -1.0, 0.0, 0.0],
            [0.0, 0.0, 0.125, 1j],
            [0.0, 0.0, -1j, 0.0],
        ]
    )
    path = tmp_path / "op.json"
    path.write_text(io.canonical_json(io.operator_to_dict(matrix)), encoding="utf-8")
    parsed, warnings = io.parse_operator_file(path, strict=True)
    assert warnings == []
    np.testing.assert_array_equal(np.array(parsed), matrix)
    rewritten = io.canonical_json(io.operator_to_dict(np.array(parsed)))
    assert rewritten == path.read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# dataset parsing


def test_parse_counts_dataset_builds_tables_and_singles():
    dataset, _ = io.parse_dataset_file(DATA / "reference_dataset_counts.json")
    assert isinstance(dataset, ExperimentDataset)
    assert dataset.name == "the-animal-acts"
    assert dataset.n_subjects == 81
    assert dataset.tables["AB"].counts == (4, 51, 21, 5)
    assert dataset.tables["AB"].a_labels == ("Horse", "Bear")
    assert dataset.tables["AB'"].b_labels == ("Snorts", "Meows")
    assert dataset.singles.probabilities["A'"] == (59 / 81, 22 / 81)
    assert dataset.singles.labels["B'"] == ("Snorts", "Meows")


def test_parse_probability_dataset_keeps_printed_values():
    dataset, _ = io.parse_dataset_file(DATA / "reference_dataset.json")
    assert dataset.tables["AB"].p12 == 0.630
    assert dataset.tables["A'B'"].p22 == 0.667
    assert dataset.singles.probabilities["A"] == (0.5309, 0.4691)


def test_invalid_json_reports_line_and_column(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"schema_version": 1,\n  "experiment": oops}', encoding="utf-8")
    with pytest.raises(io.ParseError, match=r"line 2, column 17"):
        io.parse_dataset_file(path)


def test_truncated_file_is_a_parse_error(tmp_path):
    source = (DATA / "reference_dataset_counts.json").read_text(encoding="utf-8")
    path = tmp_path / "truncated.json"
    path.write_text(source[: len(source) // 2], encoding="utf-8")
    with pytest.raises(io.ParseError, match="invalid JSON"):
        io.parse_dataset_file(path)


def test_top_level_must_be_object(tmp_path):
    path = write_doc(tmp_path, [1, 2, 3])
    with pytest.raises(io.ParseError, match="top level"):
        io.parse_dataset_file(path)


def test_unsupported_schema_version(tmp_path):
    path = write_doc(tmp_path, make_doc(schema_version=99))
    with pytest.raises(io.ParseError, match="unsupported schema_version 99"):
        io.parse_dataset_file(path)


def test_missing_coincidence_block_names_the_block(tmp_path):
    doc = make_doc()
    del doc["coincidence"]["A'B"]
    path = write_doc(tmp_path, doc)
    with pytest.raises(io.ParseError, match=r"coincidence: missing coincidence block \"A'B\""):
        io.parse_dataset_file(path)


def test_block_needs_exactly_one_probability_source(tmp_path):
    doc = make_doc(n_subjects=4)
    doc["coincidence"]["AB"]["counts"] = [1, 1, 1, 1]
    path = write_doc(tmp_path, doc)
    with pytest.raises(io.ParseError, match="exactly one of"):
        io.parse_dataset_file(path)


def test_counts_require_n_subjects(tmp_path):
    doc = make_doc()
    doc["coincidence"]["AB"] = {"counts": [1, 1, 1, 1]}
    path = write_doc(tmp_path, doc)
    with pytest.raises(io.ParseError, match="require 'n_subjects'"):
        io.parse_dataset_file(path)


def test_counts_must_be_integers(tmp_path):
    doc = make_doc(n_subjects=4)
    doc["coincidence"]["AB"] = {"counts": [1.0, 1, 1, 1]}
    path = write_doc(tmp_path, doc)
    with pytest.raises(io.ParseError, match="list of 4 integers"):
        io.parse_dataset_file(path)


def test_probabilities_must_have_four_entries(tmp_path):
    doc = make_doc()
    doc["coincidence"]["AB"]["probabilities"] = [0.5, 0.5]
    path = write_doc(tmp_path, doc)
    with pytest.raises(io.ParseError, match="list of 4 numbers"):
        io.parse_dataset_file(path)


def test_unknown_field_warns_by_default_and_fails_strict(tmp_path):
    doc = make_doc(comment="hello")
    path = write_doc(tmp_path, doc)
    dataset, warnings = io.parse_dataset_file(path)
    assert dataset.name == "toy"
    assert warnings == ["unknown field 'comment'"]
    with pytest.raises(io.ParseError, match="unknown field 'comment'") as err:
        io.parse_dataset_file(path, strict=True)
    assert err.value.location == ""


def test_unknown_coincidence_block_warns(tmp_path):
    doc = make_doc()
    doc["coincidence"]["CD"] = {"probabilities": [0.25, 0.25, 0.25, 0.25]}
    path = write_doc(tmp_path, doc)
    _, warnings = io.parse_dataset_file(path)
    assert warnings == ["coincidence: unknown block 'CD'"]
    with pytest.raises(io.ParseError, match="unknown block 'CD'"):
        io.parse_dataset_file(path, strict=True)


def test_unknown_singles_side_warns(tmp_path):
    doc = make_doc(singles={"C": {"probabilities": [0.5, 0.5]}})
    path = write_doc(tmp_path, doc)
    dataset, warnings = io.parse_dataset_file(path)
    assert dataset.singles.probabilities == {}
    assert warnings == ["singles: unknown side 'C'"]


def test_probability_sum_violation_is_a_value_error_not_parse_error(tmp_path):
    doc = make_doc()
    doc["coincidence"]["AB"]["probabilities"] = [0.5, 0.25, 0.25, 0.25]
    path = write_doc(tmp_path, doc)
    with pytest.raises(ValueError, match="sum") as err:
        io.parse_dataset_file(path)
    assert not isinstance(err.value, io.ParseError)


def test_sum_tolerance_is_adjustable(tmp_path):
    doc = make_doc()
    doc["coincidence"]["AB"]["probabilities"] = [0.251, 0.25, 0.25, 0.25]
    path = write_doc(tmp_path, doc)
    dataset, _ = io.parse_dataset_file(path, sum_tol=0.005)
    assert dataset.tables["AB"].p11 == 0.251
    with pytest.raises(ValueError, match="sum"):
        io.parse_dataset_file(path, sum_tol=1e-6)


def test_bad_n_subjects(tmp_path):
    path = write_doc(tmp_path, make_doc(n_subjects=0))
    with pytest.raises(io.ParseError, match="positive integer"):
        io.parse_dataset_file(path)


# ---------------------------------------------------------------------------
# state files


def state_doc(**overrides) -> dict:
    doc = {
        "schema_version": 1,
        "kind": "state",
        "amplitudes": [0.23, 0.62, 0.75, 0.0],
        "phases_deg": [13.93, 16.72, 9.69, 194.15],
        "provenance": "reference",
    }
    doc.update(overrides)
    return doc


def test_parse_state_file(tmp_path):
    path = write_doc(tmp_path, state_doc(), "state.json")
    content, warnings = io.parse_state_file(path, strict=True)
    assert warnings == []
    assert content["amplitudes"] == [0.23, 0.62, 0.75, 0.0]
    assert content["provenance"] == "reference"


def test_state_provenance_defaults_to_user(tmp_path):
    doc = state_doc()
    del doc["provenance"]
    path = write_doc(tmp_path, doc, "state.json")
    content, _ = io.parse_state_file(path)
    assert content["provenance"] == "user"


def test_state_rejects_unknown_provenance(tmp_path):
    path = write_doc(tmp_path, state_doc(provenance="guessed"), "state.json")
    with pytest.raises(io.ParseError, match="unknown provenance 'guessed'"):
        io.parse_state_file(path)


def test_state_rejects_wrong_kind(tmp_path):
    path = write_doc(tmp_path, state_doc(kind="model"), "state.json")
    with pytest.raises(io.ParseError, match="expected kind 'state'"):
        io.parse_state_file(path)


def test_state_requires_amplitudes(tmp_path):
    doc = state_doc()
    del doc["amplitudes"]
    path = write_doc(tmp_path, doc, "state.json")
    with pytest.raises(io.ParseError, match="missing required field 'amplitudes'"):
        io.parse_state_file(path)


def test_state_to_dict_round_trip(tmp_path):
    doc = io.state_to_dict([0.1, 0.2, 0.3, 0.4], [0.0, 90.0, 180.0, 270.0], "fitted")
    path = tmp_path / "state.json"
    path.write_text(io.canonical_json(doc), encoding="utf-8")
    content, _ = io.parse_state_file(path, strict=True)
    rewritten = io.canonical_json(
        io.state_to_dict(content["amplitudes"], content["phases_deg"], content["provenance"])
    )
    assert rewritten == path.read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# model files


def test_model_file_requires_all_four_measurements(tmp_path):
    content, _ = io.parse_model_file(DATA / "reference_model.json")
    doc = json.loads((DATA / "reference_model.json").read_text(encoding="utf-8"))
    del doc["measurements"]["A'B'"]
    path = write_doc(tmp_path, doc, "model.json")
    with pytest.raises(io.ParseError, match=r"missing measurement block \"A'B'\""):
        io.parse_model_file(path)
    assert set(content["measurements"]) == {"AB", "AB'", "A'B", "A'B'"}


def test_model_eigenvector_list_length_checked(tmp_path):
    doc = json.loads((DATA / "reference_model.json").read_text(encoding="utf-8"))
    doc["measurements"]["AB"]["eigenvectors"] = doc["measurements"]["AB"]["eigenvectors"][:3]
    path = write_doc(tmp_path, doc, "model.json")
    with pytest.raises(io.ParseError, match="four vectors"):
        io.parse_model_file(path)


def test_model_state_block_is_optional(tmp_path):
    doc = json.loads((DATA / "reference_model.json").read_text(encoding="utf-8"))
    del doc["state"]
    path = write_doc(tmp_path, doc, "model.json")
    content, _ = io.parse_model_file(path)
    assert content["state"] is None


def test_model_eigenvector_entry_location_in_diagnostics(tmp_path):
    doc = json.loads((DATA / "reference_model.json").read_text(encoding="utf-8"))
    doc["measurements"]["AB"]["eigenvectors"][2]["amplitudes"] = [0.1, 0.2]
    path = write_doc(tmp_path, doc, "model.json")
    with pytest.raises(io.ParseError, match=r"measurements.AB.eigenvectors\[2\]") as err:
        io.parse_model_file(path)
    assert err.value.location == "measurements.AB.eigenvectors[2]"


# ---------------------------------------------------------------------------
# operator files


def test_operator_file_shape_checks(tmp_path):
    path = write_doc(
        tmp_path, {"schema_version": 1, "kind": "operator", "matrix": [[1, 2], [3, 4]]}, "op.json"
    )
    with pytest.raises(io.ParseError, match="4 rows"):
        io.parse_operator_file(path)


def test_operator_cells_must_be_re_im_pairs(tmp_path):
    matrix = [[[0.0, 0.0]] * 4 for _ in range(4)]
    matrix[1][2] = [1.0]
    path = write_doc(
        tmp_path, {"schema_version": 1, "kind": "operator", "matrix": matrix}, "op.json"
    )
    with pytest.raises(io.ParseError, match=r"entry \(1,2\) must be a \[re, im\] pair"):
        io.parse_operator_file(path)


def test_operator_kind_mismatch(tmp_path):
    path = write_doc(
        tmp_path, {"schema_version": 1, "kind": "state", "matrix": []}, "op.json"
    )
    with pytest.raises(io.ParseError, match="expected kind 'operator'"):
        io.parse_operator_file(path)


# ---------------------------------------------------------------------------
# the header check shared by all four file kinds


def _valid_docs() -> dict:
    """One valid document per file kind, with its parser and kind field."""
    model = json.loads((DATA / "reference_model.json").read_text(encoding="utf-8"))
    operator = io.operator_to_dict(np.eye(4, dtype=complex))
    return {
        "dataset": (make_doc(), io.parse_dataset_file, None),
        "state": (state_doc(), io.parse_state_file, "state"),
        "model": (model, io.parse_model_file, "model"),
        "operator": (operator, io.parse_operator_file, "operator"),
    }


@pytest.mark.parametrize("name", ["dataset", "state", "model", "operator"])
def test_header_checks_are_shared_by_every_file_kind(tmp_path, name):
    doc, parse, kind = _valid_docs()[name]

    def rejects(bad, match):
        with pytest.raises(io.ParseError, match=match):
            parse(write_doc(tmp_path, bad, f"{name}.json"))

    rejects([doc], "top level must be an object")
    rejects({**doc, "schema_version": 2}, "unsupported schema_version 2")
    rejects({**doc, "schema_version": True}, "field 'schema_version' must be int")
    if kind is not None:
        rejects({**doc, "kind": "other"}, f"expected kind '{kind}', got 'other'")

    path = write_doc(tmp_path, {**doc, "comment": "hello"}, f"{name}.json")
    _, warnings = parse(path)
    assert warnings == ["unknown field 'comment'"]
    with pytest.raises(io.ParseError, match="unknown field 'comment'") as err:
        parse(path, strict=True)
    assert err.value.location == ""


def test_unknown_measurement_block_message_is_the_same_in_strict_mode(tmp_path):
    doc = json.loads((DATA / "reference_model.json").read_text(encoding="utf-8"))
    doc["measurements"]["CD"] = doc["measurements"]["AB"]
    path = write_doc(tmp_path, doc, "model.json")
    _, warnings = io.parse_model_file(path)
    assert warnings == ["measurements: unknown block 'CD'"]
    with pytest.raises(io.ParseError) as err:
        io.parse_model_file(path, strict=True)
    assert str(err.value) == "measurements: unknown block 'CD'"


@pytest.mark.parametrize("value", [True, "1", None, [1]])
def test_numbers_reject_non_numbers_and_booleans(tmp_path, value):
    doc = make_doc()
    doc["coincidence"]["AB"]["probabilities"][1] = value
    with pytest.raises(io.ParseError, match="entry 1 must be a number"):
        io.parse_dataset_file(write_doc(tmp_path, doc))


@pytest.mark.parametrize("literal", ["1e400", "-1e400", "1" + "0" * 400])
def test_numbers_beyond_the_float_range_are_parse_errors(tmp_path, literal):
    matrix = json.dumps(io.operator_to_dict(np.eye(4, dtype=complex))).replace("1.0", literal, 1)
    path = tmp_path / "op.json"
    path.write_text(matrix, encoding="utf-8")
    with pytest.raises(io.ParseError, match=r"entry \(0,0\) must hold numbers within the float range"):
        io.parse_operator_file(path)


def test_doc_parsers_match_the_file_parsers():
    for name, parse_file, parse_doc in (
        ("reference_dataset_counts.json", io.parse_dataset_file, io.parse_dataset_doc),
        ("reference_model.json", io.parse_model_file, io.parse_model_doc),
    ):
        doc = json.loads((DATA / name).read_text(encoding="utf-8"))
        assert parse_doc(doc, strict=True) == parse_file(DATA / name, strict=True)
