"""Tests for the command-line interface: reports, exit codes, determinism."""
from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import bellkit
from bellkit import cli
from bellkit.bellstats import EXPERIMENT_KEYS
from bellkit.cli import main
from bellkit.entanglement import canonical_iso_of
from bellkit.io import canonical_json, operator_to_dict, parse_dataset_file, sha256_of_file, state_to_dict
from bellkit.modelfit import fit_basis, fit_state, load_model, load_state, reference_fixture

DATA = Path(__file__).resolve().parent.parent / "src" / "bellkit" / "data"
COUNTS_FILE = str(DATA / "reference_dataset_counts.json")
PROBS_FILE = str(DATA / "reference_dataset.json")


@pytest.fixture()
def state_file(tmp_path) -> str:
    doc = state_to_dict([0.23, 0.62, 0.75, 0.0], [13.93, 16.72, 9.69, 194.15], "reference")
    path = tmp_path / "state.json"
    path.write_text(canonical_json(doc), encoding="utf-8")
    return str(path)


@pytest.fixture()
def operator_file(tmp_path) -> str:
    _, models, _ = reference_fixture()
    path = tmp_path / "op_ab.json"
    path.write_text(canonical_json(operator_to_dict(models["AB"].operator)), encoding="utf-8")
    return str(path)


def run_json(capsys, argv) -> tuple:
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# analyze


def test_analyze_text_report(capsys):
    code = main(["analyze", COUNTS_FILE])
    out = capsys.readouterr().out
    assert code == 0
    assert "CHSH" in out and "+2.41975" in out
    assert "violated" in out
    assert "Horse" in out and "Meows" in out  # outcome labels mirrored
    assert "deviation" in out


def test_analyze_json_report(capsys):
    code, doc = run_json(capsys, ["analyze", "--format", "json", COUNTS_FILE])
    assert code == 0
    assert doc["tool"] == "bellkit"
    assert doc["version"] == bellkit.__version__
    assert doc["command"] == "analyze"
    assert doc["seed"] == 0
    assert doc["input"]["sha256"] == sha256_of_file(COUNTS_FILE)
    assert doc["experiment"] == "the-animal-acts"
    assert doc["chsh"] == pytest.approx(196 / 81, abs=1e-12)
    assert doc["violates"] is True
    assert doc["tsirelson_gap"] == pytest.approx(2 * math.sqrt(2) - 196 / 81, abs=1e-12)
    assert len(doc["marginal_law"]) == 8
    tiger = next(r for r in doc["marginal_law"] if r["side"] == "A'" and r["outcome"] == 1)
    assert tiger["label"] == "Tiger"
    assert tiger["deviation"] == pytest.approx(abs(70 / 81 - 19 / 81), abs=1e-12)


def test_counts_and_probability_forms_agree(capsys):
    _, counts_doc = run_json(capsys, ["analyze", "--format", "json", COUNTS_FILE])
    _, probs_doc = run_json(capsys, ["analyze", "--format", "json", PROBS_FILE])
    n = counts_doc["n_subjects"]
    assert abs(counts_doc["chsh"] - probs_doc["chsh"]) <= 1.0 / n
    for key in counts_doc["e_values"]:
        assert counts_doc["e_values"][key] == pytest.approx(probs_doc["e_values"][key], abs=1e-3)


def test_identical_invocations_produce_identical_reports(capsys):
    main(["analyze", "--format", "json", COUNTS_FILE])
    first = capsys.readouterr().out
    main(["analyze", "--format", "json", COUNTS_FILE])
    second = capsys.readouterr().out
    assert first == second


def test_analyze_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "truncated.json"
    path.write_text(Path(COUNTS_FILE).read_text(encoding="utf-8")[:100], encoding="utf-8")
    code = main(["analyze", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err


def test_analyze_domain_error_exit_code(tmp_path, capsys):
    doc = json.loads(Path(PROBS_FILE).read_text(encoding="utf-8"))
    doc["coincidence"]["AB"]["probabilities"] = [0.5, 0.3, 0.3, -0.1]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["analyze", str(path)])
    captured = capsys.readouterr()
    assert code == 3
    assert "error:" in captured.err


@pytest.mark.parametrize("command", [["analyze"], ["fit", "--restarts", "1"]])
@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_probability_is_a_parse_error(tmp_path, capsys, command, literal):
    doc = json.loads(Path(PROBS_FILE).read_text(encoding="utf-8"))
    doc["coincidence"]["AB"]["probabilities"][0] = "PLACEHOLDER"
    path = tmp_path / "non_finite.json"
    path.write_text(json.dumps(doc).replace('"PLACEHOLDER"', literal), encoding="utf-8")
    code = main([command[0], str(path), *command[1:]])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.count("error:") == 1
    assert captured.err.startswith("error:") and literal in captured.err
    assert "Traceback" not in captured.err


def _replace_first(path: Path, old: str, new: str) -> str:
    return path.read_text(encoding="utf-8").replace(old, new, 1)


# Each case: (arguments before the input path, file name, file contents, text in the error).
HOSTILE_INPUTS = {
    "deep-nesting": (["analyze"], "d.json", "[" * 100_000 + "]" * 100_000, "nested too deeply"),
    "not-utf8": (["analyze"], "d.json", b'{"experiment": "caf\xe9"}', "not UTF-8"),
    "over-4300-digits": (["analyze"], "d.json", '{"n_subjects": ' + "1" * 5000 + "}", "digits"),
    "boolean-schema-version": (
        ["analyze"],
        "d.json",
        _replace_first(Path(PROBS_FILE), '"schema_version": 1', '"schema_version": true'),
        "'schema_version' must be int",
    ),
    "400-digit-probability": (
        ["analyze"],
        "d.json",
        _replace_first(Path(PROBS_FILE), "0.049", "1" + "0" * 400),
        "within the float range",
    ),
    "400-digit-amplitude": (
        ["schmidt", "--state"],
        "s.json",
        canonical_json(state_to_dict([0.23, 0.62, 0.75, 0.0], [0.0] * 4, "reference")).replace(
            "0.23", "1" + "0" * 400, 1
        ),
        "within the float range",
    ),
    "1e400-in-model": (
        ["schmidt", "--operator", "{operator}", "--iso", "from-model:AB", "--model"],
        "m.json",
        _replace_first(DATA / "reference_model.json", "0.23", "1e400"),
        "state: entry 0 must be a number within the float range",
    ),
}


@pytest.mark.parametrize("case", sorted(HOSTILE_INPUTS))
def test_hostile_inputs_are_parse_errors(tmp_path, capsys, operator_file, case):
    command, name, contents, message = HOSTILE_INPUTS[case]
    path = tmp_path / name
    if isinstance(contents, bytes):
        path.write_bytes(contents)
    else:
        path.write_text(contents, encoding="utf-8")
    argv = [operator_file if arg == "{operator}" else arg for arg in command]
    code = main([*argv, str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert message in captured.err
    assert "Traceback" not in captured.err


def test_entanglement_degree_of_a_huge_operator_is_finite(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(canonical_json(operator_to_dict(1e200 * np.eye(4))), encoding="utf-8")
    code = main(["schmidt", "--operator", str(path), "--format", "json"])
    out = capsys.readouterr().out

    def reject(name):
        raise AssertionError(f"report holds {name}")

    doc = json.loads(out, parse_constant=reject)
    assert code == 0
    assert doc["entanglement_degree"] == 0.0
    assert doc["sigma"] == [2e200, 0.0, 0.0, 0.0]


def _model_with_huge_eigenvector_entry() -> str:
    doc = json.loads((DATA / "reference_model.json").read_text(encoding="utf-8"))
    doc["measurements"]["AB"]["eigenvectors"][0]["amplitudes"][0] = sys.float_info.max
    return json.dumps(doc)


# Each case: (arguments before the input path, file contents).  The number
# parses, but squares of it overflow.
NEAR_FLOAT_MAX = {
    "state-amplitude": (
        ["schmidt", "--state"],
        canonical_json(state_to_dict([0.23, 0.62, 0.75, 0.0], [0.0] * 4, "reference")).replace(
            "0.23", repr(sys.float_info.max), 1
        ),
    ),
    "model-eigenvector-entry": (
        ["schmidt", "--operator", "{operator}", "--iso", "from-model:AB", "--model"],
        _model_with_huge_eigenvector_entry(),
    ),
}


@pytest.mark.parametrize("case", sorted(NEAR_FLOAT_MAX))
def test_numbers_near_the_float_maximum_are_domain_errors(tmp_path, capsys, operator_file, case):
    # A numpy overflow warning raises here (pytest's filterwarnings), so it
    # cannot hide behind the exit code.
    command, contents = NEAR_FLOAT_MAX[case]
    path = tmp_path / "input.json"
    path.write_text(contents, encoding="utf-8")
    argv = [operator_file if arg == "{operator}" else arg for arg in command]
    code = main([*argv, str(path)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "amplitudes must be at most 1e150, got 1.79769e+308" in captured.err


# Hermitian operators whose entries have the largest finite parts; the
# complex one's off-diagonal moduli exceed the float maximum.
_HUGE = sys.float_info.max
_HUGE_OPERATORS = {
    "real": np.full((4, 4), _HUGE),
    "complex": np.full((4, 4), _HUGE) + 1j * _HUGE * (np.triu(np.ones((4, 4)), 1)
                                                      - np.tril(np.ones((4, 4)), -1)),
}


@pytest.mark.parametrize("entries", sorted(_HUGE_OPERATORS))
@pytest.mark.parametrize("iso", ["canonical", "from-model:AB"])
def test_operator_near_the_float_maximum_is_a_domain_error(tmp_path, capsys, iso, entries):
    path = tmp_path / "huge.json"
    path.write_text(canonical_json(operator_to_dict(_HUGE_OPERATORS[entries])), encoding="utf-8")
    code = main(["schmidt", "--operator", str(path), "--iso", iso])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == (
        "error: operator entries must have real and imaginary parts of at most 1e+300 "
        "in magnitude, got 1.79769e+308\n"
    )


def test_analyze_unknown_field_warns_then_strict_rejects(tmp_path, capsys):
    doc = json.loads(Path(COUNTS_FILE).read_text(encoding="utf-8"))
    doc["lab_notes"] = "April"
    path = tmp_path / "extra.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["analyze", str(path)])
    captured = capsys.readouterr()
    assert code == 0
    assert "warning: unknown field 'lab_notes'" in captured.err
    code = main(["analyze", "--strict", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "unknown field 'lab_notes'" in captured.err


# Each case: the command, with {dataset}, {state}, {model} and {operator}
# standing for files that carry an unknown field.  Every input-file kind is
# read by one command at least.
UNKNOWN_FIELD_COMMANDS = {
    "analyze-dataset": ["analyze", "{dataset}"],
    "fit-dataset": ["fit", "{dataset}", "--state", "{clean_state}"],
    "schmidt-state": ["schmidt", "--state", "{state}"],
    "fit-state": ["fit", PROBS_FILE, "--restarts", "1", "--state", "{state}"],
    "schmidt-model": ["schmidt", "--state", "{clean_state}", "--iso", "from-model:AB", "--model", "{model}"],
    "schmidt-operator": ["schmidt", "--operator", "{operator}"],
}


def _noted_argv(tmp_path, state_file, operator_file, case) -> list:
    files = {"{clean_state}": state_file}
    for key, source in (("{dataset}", Path(COUNTS_FILE)), ("{state}", Path(state_file)),
                        ("{model}", DATA / "reference_model.json"), ("{operator}", Path(operator_file))):
        doc = json.loads(source.read_text(encoding="utf-8"))
        doc["note"] = "x"
        files[key] = str(tmp_path / f"noted_{source.name}")
        Path(files[key]).write_text(json.dumps(doc), encoding="utf-8")
    return [files.get(arg, arg) for arg in UNKNOWN_FIELD_COMMANDS[case]]


@pytest.mark.parametrize("case", sorted(UNKNOWN_FIELD_COMMANDS))
def test_state_and_model_file_warnings_are_printed(tmp_path, capsys, state_file, operator_file, case):
    argv = _noted_argv(tmp_path, state_file, operator_file, case)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == "warning: unknown field 'note'\n"
    code = main([*argv, "--strict"])
    captured = capsys.readouterr()
    assert code == 2
    assert "unknown field 'note'" in captured.err


@pytest.mark.parametrize("case", sorted(UNKNOWN_FIELD_COMMANDS))
def test_state_and_model_file_warnings_reach_the_json_report(tmp_path, capsys, state_file,
                                                             operator_file, case):
    code, doc = run_json(capsys, [*_noted_argv(tmp_path, state_file, operator_file, case),
                                  "--format", "json"])
    assert code == 0
    assert doc["warnings"] == ["unknown field 'note'"]


# Each case: a change to the singles block of the reference dataset, the exit
# code and the error line.
BAD_SINGLES = {
    "labels-not-strings": ("labels", [1, {"x": 2}], 2,
                           "error: singles.A: field 'labels' must be a list of two strings\n"),
    "probabilities-out-of-range": ("probabilities", [1.5, -0.5], 3,
                                   "error: singles for A: probabilities must lie in [0, 1], "
                                   "got [ 1.5 -0.5]\n"),
}


@pytest.mark.parametrize("case", sorted(BAD_SINGLES))
@pytest.mark.parametrize("command", [["analyze"], ["fit", "--restarts", "1"], ["verify-paper"]])
def test_singles_follow_the_coincidence_rules(tmp_path, capsys, command, case):
    field, value, want_code, want_err = BAD_SINGLES[case]
    doc = json.loads(Path(COUNTS_FILE).read_text(encoding="utf-8"))
    doc["singles"]["A"][field] = value
    path = tmp_path / "bad_singles.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main([*command, str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (want_code, "", want_err)


def test_seed_flag_and_environment_default(capsys, monkeypatch):
    monkeypatch.setenv("BELLKIT_SEED", "11")
    _, doc = run_json(capsys, ["analyze", "--format", "json", COUNTS_FILE])
    assert doc["seed"] == 11
    _, doc = run_json(capsys, ["analyze", "--format", "json", "--seed", "5", COUNTS_FILE])
    assert doc["seed"] == 5
    monkeypatch.setenv("BELLKIT_SEED", "eleven")
    code = main(["analyze", "--format", "json", COUNTS_FILE])
    capsys.readouterr()
    assert code == 3


SEED_FLAG_ERROR = "error: --seed must be a non-negative integer, got -3\n"
SEED_ENV_ERROR = "error: BELLKIT_SEED must be a non-negative integer, got '-5'\n"


@pytest.mark.parametrize("argv, env, err", [
    (["fit", COUNTS_FILE, "--seed", "-3", "--restarts", "1"], None, SEED_FLAG_ERROR),
    (["fit", COUNTS_FILE, "--restarts", "1"], "-5", SEED_ENV_ERROR),
    (["fit", COUNTS_FILE, "--state", "STATE", "--seed", "-3"], None, SEED_FLAG_ERROR),
    (["analyze", COUNTS_FILE, "--seed", "-3"], None, SEED_FLAG_ERROR),
    (["analyze", COUNTS_FILE], "-5", SEED_ENV_ERROR),
    (["schmidt", "--state", "STATE", "--seed", "-3"], None, SEED_FLAG_ERROR),
    (["verify-paper", "--seed", "-3"], None, SEED_FLAG_ERROR),
    (["verify-paper"], "-5", SEED_ENV_ERROR),
    (["analyze", COUNTS_FILE], "eleven", "error: BELLKIT_SEED must be a non-negative integer, got 'eleven'\n"),
], ids=["fit-search", "fit-search-env", "fit-basis", "analyze", "analyze-env", "schmidt", "verify-paper",
        "verify-paper-env", "env-not-an-integer"])
def test_a_seed_that_is_not_a_non_negative_integer_names_its_source(capsys, monkeypatch, state_file, argv, env, err):
    # numpy's default_rng refuses a negative seed with a message that names
    # neither the flag nor the value; every command reads its seed through
    # one check that does
    if env is None:
        monkeypatch.delenv("BELLKIT_SEED", raising=False)
    else:
        monkeypatch.setenv("BELLKIT_SEED", env)
    code = main([state_file if arg == "STATE" else arg for arg in argv])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (3, "", err)


# ---------------------------------------------------------------------------
# fit


def test_fit_basis_mode_converges_and_writes_reusable_model(tmp_path, capsys, state_file):
    out_path = tmp_path / "fitted.json"
    code, doc = run_json(
        capsys,
        ["fit", COUNTS_FILE, "--state", state_file, "--out", str(out_path), "--format", "json"],
    )
    assert code == 0
    assert doc["mode"] == "basis"
    assert doc["state_file"]["sha256"] == sha256_of_file(state_file)
    assert "restarts" not in doc  # the closed-form fit has none to report
    for key in ("AB", "AB'", "A'B", "A'B'"):
        assert doc["fits"][key]["converged"] is True
        assert doc["fits"][key]["misfit"] <= 1e-8
        assert doc["fits"][key]["restarts_used"] == 1
    assert doc["output"]["sha256"] == sha256_of_file(out_path)

    # the written model file is a valid input again
    (state, models), _ = load_model(out_path, strict=True)
    assert state.provenance == "reference"
    assert set(models) == {"AB", "AB'", "A'B", "A'B'"}
    code = main(
        ["schmidt", "--state", state_file, "--iso", "from-model:AB", "--model", str(out_path)]
    )
    capsys.readouterr()
    assert code == 0


def test_fit_state_mode_reports_objective_and_is_deterministic(capsys):
    argv = ["fit", COUNTS_FILE, "--restarts", "2", "--seed", "3", "--format", "json"]
    code, doc = run_json(capsys, argv)
    assert code == 0
    assert doc["mode"] == "state"
    assert doc["converged"] is False  # no product representation of this dataset
    assert doc["marginal_bound"] == pytest.approx(0.5605090687, rel=1e-9)
    assert doc["objective"] >= doc["marginal_bound"]
    assert set(doc["fits"]) == {"AB", "AB'", "A'B", "A'B'"}
    assert doc["state"]["provenance"] == "fitted"
    norm = math.sqrt(sum(a * a for a in doc["state"]["amplitudes"]))
    assert norm == pytest.approx(1.0, abs=1e-9)
    assert doc["state"]["phases_deg"][0] == 0.0
    assert 1 <= doc["iterations"] <= 400
    assert 2 + doc["iterations"] <= doc["evaluations"] <= 2 + 2 * doc["iterations"]

    code2, doc2 = run_json(capsys, argv)
    assert code2 == 0
    assert doc2 == doc


def test_fit_state_mode_prints_the_bound_beside_the_objective(capsys):
    code = main(["fit", COUNTS_FILE, "--restarts", "2", "--seed", "3"])
    assert code == 0
    assert "  objective 5.704e-01  marginal bound 5.605e-01  converged NO  " in capsys.readouterr().out


def test_fit_strict_converge_exit_code(capsys):
    code = main(
        ["fit", COUNTS_FILE, "--restarts", "2", "--seed", "3", "--strict-converge"]
    )
    capsys.readouterr()
    assert code == 4


def test_fit_state_mode_writes_model_with_fitted_state(tmp_path, capsys):
    out_path = tmp_path / "fitted_state_model.json"
    code = main(
        ["fit", COUNTS_FILE, "--restarts", "1", "--seed", "0", "--out", str(out_path)]
    )
    capsys.readouterr()
    assert code == 0
    (state, models), _ = load_model(out_path, strict=True)
    assert state.provenance == "fitted"
    assert abs(np.linalg.norm(state.values) - 1.0) <= 1e-9
    assert set(models) == {"AB", "AB'", "A'B", "A'B'"}


@pytest.mark.parametrize("mode", ["basis", "state"])
def test_fit_out_reloads_to_the_fitted_state_and_eigenvectors(tmp_path, capsys, state_file, mode):
    out_path = tmp_path / "fitted.json"
    dataset, _ = parse_dataset_file(COUNTS_FILE)
    if mode == "basis":
        argv = ["fit", COUNTS_FILE, "--state", state_file, "--out", str(out_path)]
        state, _ = load_state(state_file)
        models = {key: fit_basis(state, dataset.tables[key], 1e-8, experiment=key).model
                  for key in EXPERIMENT_KEYS}
    else:
        argv = ["fit", COUNTS_FILE, "--restarts", "1", "--seed", "0", "--out", str(out_path)]
        result = fit_state(dataset, seed=0, restarts=1, target_misfit=1e-8)
        state = result.state
        models = {key: model for key, (model, _) in result.per_experiment.items()}
    assert main(argv) == 0
    capsys.readouterr()

    (reloaded_state, reloaded_models), _ = load_model(out_path, strict=True)
    assert reloaded_state.provenance == state.provenance
    assert np.max(np.abs(reloaded_state.raw - state.raw)) <= 1e-12
    assert list(reloaded_models) == list(EXPERIMENT_KEYS)
    for key, model in models.items():
        reloaded = reloaded_models[key]
        assert reloaded.eigenvalues == model.eigenvalues
        for written in (reloaded.eigenvectors_raw, reloaded.eigenvectors):
            assert np.max(np.abs(np.array(written) - np.array(model.eigenvectors))) <= 1e-12


@pytest.mark.parametrize("mode", ["basis", "state"])
@pytest.mark.parametrize("where", ["missing-directory", "directory", "empty"])
def test_fit_out_that_cannot_be_written_is_an_invalid_value(tmp_path, capsys, state_file, mode, where):
    # refused like a bad --tolerance: one error line, exit 3, no report
    out = {"missing-directory": str(tmp_path / "missing" / "m.json"), "directory": str(tmp_path), "empty": ""}[where]
    source = ["--state", state_file] if mode == "basis" else ["--restarts", "1"]
    code = main(["fit", COUNTS_FILE, *source, f"--out={out}"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith(f"error: --out {out!r} cannot be written: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("mode", ["basis", "state"])
@pytest.mark.parametrize("where", ["missing-directory", "directory", "empty"])
def test_fit_out_that_cannot_be_written_is_refused_before_the_fit(tmp_path, capsys, monkeypatch, state_file,
                                                                  mode, where):
    # no fit runs, and nothing is created; the message is the one writing
    # the file would give
    def no_fit(*args, **kwargs):
        raise AssertionError("the fit ran")

    monkeypatch.setattr(cli, "fit_state", no_fit)
    monkeypatch.setattr(cli, "fit_basis", no_fit)
    out = {"missing-directory": tmp_path / "missing" / "m.json", "directory": tmp_path, "empty": ""}[where]
    reason = {"missing-directory": "No such file or directory", "directory": "Is a directory",
              "empty": "No such file or directory"}[where]
    before = sorted(tmp_path.rglob("*"))
    source = ["--state", state_file] if mode == "basis" else ["--restarts", "300"]
    code = main(["fit", COUNTS_FILE, *source, f"--out={out}"])
    captured = capsys.readouterr()
    assert code == 3
    assert (captured.out, captured.err) == ("", f"error: --out {str(out)!r} cannot be written: {reason}\n")
    assert sorted(tmp_path.rglob("*")) == before


def test_fit_truncated_file_parse_exit(tmp_path, capsys):
    path = tmp_path / "half.json"
    path.write_text(Path(COUNTS_FILE).read_text(encoding="utf-8")[:50], encoding="utf-8")
    code = main(["fit", str(path)])
    capsys.readouterr()
    assert code == 2


# ---------------------------------------------------------------------------
# schmidt


def test_schmidt_state_canonical(capsys, state_file):
    code, doc = run_json(capsys, ["schmidt", "--state", state_file, "--format", "json"])
    assert code == 0
    assert doc["kind"] == "state"
    assert doc["iso"] == "canonical"
    assert doc["rank"] == 2
    assert doc["product"] is False
    np.testing.assert_allclose(doc["coefficients"], [0.82676734, 0.56254402], atol=5e-7)


def test_schmidt_operator_canonical_vs_own_basis(capsys, operator_file):
    code, doc = run_json(capsys, ["schmidt", "--operator", operator_file, "--format", "json"])
    assert code == 0
    assert doc["kind"] == "operator"
    assert doc["rank"] > 1
    assert doc["product"] is False
    assert doc["entanglement_degree"] == pytest.approx(0.074770, abs=5e-6)
    np.testing.assert_allclose(
        doc["sigma"], [1.923778, 0.476479, 0.260543, 0.064531], atol=5e-6
    )

    code, doc = run_json(
        capsys, ["schmidt", "--operator", operator_file, "--iso", "from-model:AB", "--format", "json"]
    )
    assert code == 0
    assert doc["rank"] == 1
    assert doc["product"] is True
    assert doc["iso"] == "from-model:AB"
    assert doc["entanglement_degree"] == pytest.approx(0.0, abs=1e-12)


def test_schmidt_text_output(capsys, operator_file):
    code = main(["schmidt", "--operator", operator_file])
    out = capsys.readouterr().out
    assert code == 0
    assert "entangled relative to this identification" in out
    assert "entanglement degree" in out


def test_schmidt_operator_decomposes_once(capsys, monkeypatch, operator_file):
    # The entanglement degree reuses the decomposition the report prints.
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    code = main(["schmidt", "--operator", operator_file])
    assert code == 0
    assert "entanglement degree: 0.074770" in capsys.readouterr().out
    assert len(calls) == 1


def test_schmidt_operator_with_subnormal_entries(tmp_path, capsys):
    # Pulled back from a product operator, then scaled below the smallest
    # normal float; a RuntimeWarning raises here (pytest's filterwarnings).
    rng = np.random.default_rng(9)
    u = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    op = u.conj().T @ np.kron(sx, np.diag([1.0, -2.0])) @ u
    path = tmp_path / "subnormal.json"
    path.write_text(canonical_json(operator_to_dict(1e-310 * (op + op.conj().T) / 2)), encoding="utf-8")
    code, doc = run_json(capsys, ["schmidt", "--operator", str(path), "--format", "json"])
    assert code == 0
    assert doc["rank"] > 1
    assert 0.0 < doc["sigma"][0] < 1e-300
    assert 0.0 < doc["entanglement_degree"] < 1.0


@pytest.mark.parametrize("scale", [1e-318, 1e-321])
def test_schmidt_operator_deep_in_the_subnormal_range(tmp_path, capsys, scale):
    # sigma stored this deep keep only a few bits; the Hilbert-Schmidt
    # check must allow for their spacing.
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    path = tmp_path / "deep.json"
    path.write_text(canonical_json(operator_to_dict(scale * np.kron(sx, np.diag([1.0, -2.0])))),
                    encoding="utf-8")
    code, doc = run_json(capsys, ["schmidt", "--operator", str(path), "--format", "json"])
    assert code == 0
    assert doc["rank"] == 1
    assert doc["sigma"][0] == pytest.approx(math.sqrt(10.0) * scale, rel=1e-2)


def test_schmidt_rejects_unknown_iso_key(capsys, state_file):
    code = main(["schmidt", "--state", state_file, "--iso", "from-model:XY"])
    captured = capsys.readouterr()
    assert code == 3
    assert "unknown experiment" in captured.err


def test_schmidt_rejects_non_hermitian_operator(tmp_path, capsys):
    matrix = np.zeros((4, 4), dtype=complex)
    matrix[0, 1] = 1.0
    path = tmp_path / "bad_op.json"
    path.write_text(canonical_json(operator_to_dict(matrix)), encoding="utf-8")
    code = main(["schmidt", "--operator", str(path)])
    captured = capsys.readouterr()
    assert code == 3
    assert "Hermitian" in captured.err


def test_schmidt_requires_a_source():
    with pytest.raises(SystemExit) as err:
        main(["schmidt"])
    assert err.value.code == 2


# ---------------------------------------------------------------------------
# --tolerance ranges


TOLERANCE_REFUSALS = [
    *[(["fit", COUNTS_FILE, "--restarts", "1"], value, "target_misfit must be finite and positive")
      for value in ("nan", "inf")],
    *[(["fit", COUNTS_FILE, "--state", "{state}"], value, "target_misfit must be finite and positive")
      for value in ("nan", "inf")],
    *[(source, value, "rank tolerance must lie in [0, 1)")
      for source in (["schmidt", "--state", "{state}"], ["schmidt", "--operator", "{operator}"])
      for value in ("nan", "inf", "-1", "1")],
    (["analyze", COUNTS_FILE], "nan", "probability-sum tolerance must lie in [0, 1)"),
    (["verify-paper"], "nan", "probability-sum tolerance must lie in [0, 1)"),
]


@pytest.mark.parametrize(
    "argv, value, message", TOLERANCE_REFUSALS,
    ids=[f"{' '.join(a for a in argv if not a.startswith(('/', '{')))} {v}" for argv, v, _ in TOLERANCE_REFUSALS],
)
def test_tolerance_outside_its_range_exits_3(capsys, state_file, operator_file, argv, value, message):
    files = {"{state}": state_file, "{operator}": operator_file}
    code = main([files.get(arg, arg) for arg in argv] + [f"--tolerance={value}"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err


# ---------------------------------------------------------------------------
# verify-paper


def test_verify_paper_passes_on_fresh_build(capsys):
    code, doc = run_json(capsys, ["verify-paper", "--format", "json"])
    assert code == 0
    assert doc["all_passed"] is True
    assert len(doc["checks"]) == 12
    names = [row["name"] for row in doc["checks"]]
    assert "chsh-values" in names and "t-tail-reference" in names
    assert all(row["passed"] for row in doc["checks"])
    informational = next(r for r in doc["checks"] if r["name"] == "p-value-context")
    assert "0.0171" in informational["measured"]
    assert doc["input"]["path"] == "built-in"


def test_verify_paper_fails_on_perturbed_dataset(tmp_path, capsys):
    doc = json.loads(Path(PROBS_FILE).read_text(encoding="utf-8"))
    probs = doc["coincidence"]["AB"]["probabilities"]
    probs[0] += 0.1  # keep the sum by moving mass within the table
    probs[1] -= 0.1
    path = tmp_path / "perturbed.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["verify-paper", "--format", "json", str(path)])
    out = json.loads(capsys.readouterr().out)
    assert code == 4
    assert out["all_passed"] is False
    by_name = {row["name"]: row for row in out["checks"]}
    assert by_name["chsh-values"]["passed"] is False
    assert by_name["operator-entries"]["passed"] is True  # fixture rows unaffected


def test_verify_paper_text_rows(capsys):
    code = main(["verify-paper"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") == 12
    assert "FAIL" not in out
    assert "all checks passed" in out


def test_verify_paper_reports_are_deterministic(capsys):
    def run(*argv):
        assert main(["verify-paper", *argv]) == 0
        return capsys.readouterr().out

    def without_timings(out):
        doc = json.loads(out)
        for row in doc["checks"]:
            del row["elapsed_ms"]
        return doc

    assert without_timings(run("--format", "json")) == without_timings(run("--format", "json"))
    assert run() == run()


# ---------------------------------------------------------------------------
# repeated calls in one process


def _call(capsys, argv) -> tuple:
    """(exit code, stdout, stderr) of one in-process call."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _loose_dataset(tmp_path) -> str:
    """The probability form of the reference dataset with AB summing to 1.008:
    within --tolerance 0.01, beyond the default 0.005."""
    doc = json.loads(Path(PROBS_FILE).read_text(encoding="utf-8"))
    doc["coincidence"]["AB"]["probabilities"][0] += 0.008
    path = tmp_path / "loose.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


# Each case: calls made one after another in one process, and what each must
# give: (exit code, the start of stdout, the start of stderr).
REPEATED_CALLS = {
    "tolerance-falls-back-to-default": [
        (["analyze", "{loose}", "--tolerance", "0.01"], 0, "experiment:", ""),
        (["analyze", "{loose}"], 3, "", "error: AB: probabilities sum to 1.008000"),
    ],
    "format-falls-back-to-text": [
        (["schmidt", "--state", "{state}", "--format", "json"], 0, "{", ""),
        (["schmidt", "--operator", "{operator}"], 0, "operator:", ""),
    ],
    "sources-stay-exclusive": [
        (["schmidt", "--state", "{state}", "--operator", "{operator}"], 2, "", "usage: bellkit schmidt"),
        (["schmidt", "--state", "{state}"], 0, "state:", ""),
        (["schmidt", "--operator", "{operator}", "--state", "{state}"], 2, "", "usage: bellkit schmidt"),
    ],
    "version": [
        (["--version"], 0, f"bellkit {bellkit.__version__}\n", ""),
        (["--version"], 0, f"bellkit {bellkit.__version__}\n", ""),
    ],
    "usage-errors": [
        (["analyze"], 2, "", "usage: bellkit analyze"),
        (["analyze", COUNTS_FILE, "--format", "xml"], 2, "", "usage: bellkit analyze"),
        ([], 2, "", "usage: bellkit"),
    ],
}


@pytest.mark.parametrize("option", ["--tolerance=--", "--seed=--", "--format=--", "--iso=--", "--model=--"])
def test_double_dash_as_an_option_value_is_a_usage_error(capsys, state_file, option):
    code, out, err = _call(capsys, ["schmidt", "--state", state_file, option])
    assert code == 2
    assert out == ""
    assert err.endswith("error: '--' is not a value\n") and "Traceback" not in err


@pytest.mark.parametrize("case", sorted(REPEATED_CALLS))
def test_repeated_calls_share_no_parser_state(tmp_path, capsys, state_file, operator_file, case):
    files = {"{loose}": _loose_dataset(tmp_path), "{state}": state_file, "{operator}": operator_file}
    calls = [([files.get(arg, arg) for arg in argv], *expected) for argv, *expected in REPEATED_CALLS[case]]
    in_one_process = [_call(capsys, argv) for argv, *_ in calls]
    assert cli._build_parser() is cli._build_parser()
    fresh = []
    for argv, *_ in calls:
        cli._build_parser.cache_clear()
        fresh.append(_call(capsys, argv))
    assert in_one_process == fresh
    for (code, out, err), (_, want_code, want_out, want_err) in zip(in_one_process, calls):
        assert code == want_code
        assert out.startswith(want_out)
        assert err.startswith(want_err)


def test_built_in_identifications_are_the_fresh_ones():
    cached = cli._reference_isos()
    assert cli._reference_isos() is cached
    _, models, _ = reference_fixture()
    for key in EXPERIMENT_KEYS:
        fresh = canonical_iso_of(models[key])
        assert np.array_equal(cached[key].matrix, fresh.matrix), key
        assert cached[key].name == fresh.name == f"from-model:{key}"
        assert not cached[key].matrix.flags.writeable  # shared by every call


def test_model_file_is_read_on_every_call(tmp_path, capsys, operator_file):
    doc = json.loads((DATA / "reference_model.json").read_text(encoding="utf-8"))
    path = tmp_path / "model.json"
    argv = ["schmidt", "--operator", operator_file, "--iso", "from-model:AB", "--model", str(path),
            "--format", "json"]
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, own = run_json(capsys, argv)
    assert code == 0 and own["rank"] == 1
    measurements = doc["measurements"]
    measurements["AB"], measurements["A'B'"] = measurements["A'B'"], measurements["AB"]
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, swapped = run_json(capsys, argv)
    assert code == 0 and swapped["rank"] > 1
    assert swapped["sigma"] != own["sigma"]
