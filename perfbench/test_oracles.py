"""Each oracle accepts a real output and rejects one corrupted copy of it.

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import inputs  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402

sys.path.insert(0, str(run.SRC))


def corrupt(stdout: str, edit) -> str:
    doc = json.loads(stdout)
    edit(doc)
    return json.dumps(doc)


def first(ops: list, kind: str) -> inputs.Op:
    return next(step for op in ops for step in (op.steps or [op]) if step.kind == kind)


@pytest.fixture(scope="module")
def file_ops(tmp_path_factory):
    return inputs.make_ops("file-batch", 3, run.ROOT, tmp_path_factory.mktemp("file-batch"))


@pytest.fixture(scope="module")
def fit_ops(tmp_path_factory):
    return inputs.make_ops("model-fit", 3, run.ROOT, tmp_path_factory.mktemp("model-fit"))


def test_analyze_oracle_rejects_a_wrong_chsh(file_ops):
    op = first(file_ops, "analyze")
    code, stdout, _, _, _ = run.call(op.argv)
    check = run.Checker()
    assert check(op, code, stdout)[0] == []

    def edit(doc):
        doc["chsh"] += 1e-9

    assert check(op, code, corrupt(stdout, edit))[0]


@pytest.mark.parametrize("kind", ["schmidt-operator", "schmidt-operator-iso"])
def test_operator_oracle_rejects_a_wrong_sigma(file_ops, kind):
    op = first(file_ops, kind)
    code, stdout, _, _, _ = run.call(op.argv)
    check = run.Checker()
    assert check(op, code, stdout)[0] == []

    def edit(doc):
        doc["sigma"][1] += 1e-6

    assert check(op, code, corrupt(stdout, edit))[0]


def test_operator_oracle_rejects_a_wrong_rank(file_ops):
    op = first(file_ops, "schmidt-operator")
    code, stdout, _, _, _ = run.call(op.argv)

    def edit(doc):
        doc["rank"], doc["product"] = 2, False

    assert run.Checker()(op, code, corrupt(stdout, edit))[0]


def test_state_oracle_rejects_wrong_coefficients(file_ops):
    op = first(file_ops, "schmidt-state")
    code, stdout, _, _, _ = run.call(op.argv)
    check = run.Checker()
    assert check(op, code, stdout)[0] == []

    def edit(doc):
        doc["coefficients"] = doc["coefficients"][::-1]

    assert check(op, code, corrupt(stdout, edit))[0]


def test_fit_oracle_rejects_a_wrong_misfit(fit_ops):
    op = first(fit_ops, "fit-basis")
    check = run.Checker()
    code, stdout, _, _, _ = run.call(op.argv)
    assert check(op, code, stdout)[0] == []

    def edit(doc):
        doc["fits"]["AB"]["misfit"] += 1e-11

    code, stdout, _, _, _ = run.call(op.argv)
    assert check(op, code, corrupt(stdout, edit))[0]


def test_fit_oracle_rejects_a_missing_model_file(fit_ops):
    op = first(fit_ops, "fit-basis")
    code, stdout, _, _, _ = run.call(op.argv)
    Path(op.expect["out"]).unlink()
    assert "the --out model file was not written" in run.Checker()(op, code, stdout)[0]


def test_state_search_oracle_accepts_a_real_search(fit_ops):
    op = first(fit_ops, "fit-state")
    code, stdout, _, _, _ = run.call(op.argv)
    assert run.Checker()(op, code, stdout)[0] == []


def golden_report() -> dict:
    rows = [{"name": f"row-{k}", "passed": True, "measured": "", "expected": "", "tolerance": "",
             "note": "", "elapsed_ms": 1.0 + k} for k in range(oracles.GOLDEN_ROWS)]
    rows[0]["name"], rows[0]["measured"] = "chsh-values", "E(AB)=-0.77778, CHSH=2.41975"
    return {"tool": "bellkit", "checks": rows, "all_passed": True}


def test_verify_oracle_compares_reports_without_timings():
    good = golden_report()
    problems, failed, stripped = oracles.check_verify(0, json.dumps(good), None)
    assert problems == [] and failed == []
    good["checks"][3]["elapsed_ms"] = 99.0
    assert oracles.check_verify(0, json.dumps(good), stripped)[0] == []


@pytest.mark.parametrize("edit", ["failed-row", "chsh", "exit-code", "drift"])
def test_verify_oracle_rejects_a_corrupted_report(edit):
    _, _, reference = oracles.check_verify(0, json.dumps(golden_report()), None)
    bad, code = golden_report(), 0
    if edit == "failed-row":
        bad["checks"][1]["passed"], bad["all_passed"] = False, False
    elif edit == "chsh":
        bad["checks"][0]["measured"] = "E(AB)=-0.77778, CHSH=2.41976"
    elif edit == "exit-code":
        code = 4
    else:
        bad["checks"][5]["measured"] = "changed"
    problems, failed, _ = oracles.check_verify(code, json.dumps(bad), reference)
    assert problems
    assert failed == (["row-1"] if edit == "failed-row" else [])


def test_untraced_process_has_no_wrappers_and_tracer_restores_them():
    assert run.spans.wrapped_sites() == []
    tracer = run.spans.Tracer()
    tracer.install()
    try:
        assert len(run.spans.wrapped_sites()) == len(run.spans._sites())
    finally:
        tracer.uninstall()
    assert run.spans.wrapped_sites() == []


def test_self_time_subtracts_child_spans():
    tracer = run.spans.Tracer()
    tracer.spans[:] = [["a", 0.0, 10.0, -1, 0], ["b", 1.0, 4.0, 0, 0], ["c", 5.0, 6.0, 0, 0], ["b", 2.0, 3.0, 1, 0]]
    assert tracer.self_times() == {"a": (1, 6.0), "b": (2, 3.0), "c": (1, 1.0)}


def test_same_seed_gives_same_files(tmp_path):
    def files(seed, name):
        return [step.data for op in inputs.make_ops("file-batch", seed, run.ROOT, tmp_path / name)
                for step in op.steps]

    assert files(5, "one") == files(5, "two")
    assert files(5, "one") != files(6, "three")


def test_a_batch_fails_when_one_step_fails(file_ops):
    batch = file_ops[0]
    good = run.run_op(file_ops, 0, run.Checker())
    assert good["problems"] == [] and good["kind"] == "file-batch"
    first_step = batch.steps[0]
    missing = inputs.Op("analyze", ["analyze", "missing.json", "--format", "json"], first_step.path,
                        first_step.data, first_step.expect)
    broken = inputs.Op("file-batch", steps=[first_step, missing])
    bad = run.run_op([broken], 0, run.Checker())
    assert bad["problems"] and bad["problems"][0].startswith("analyze: exit code 2")


def test_benchmark_json_matches_the_metrics_printed():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in bench["workloads"]} == {k: v[1] for k, v in inputs.WORKLOADS.items()}
    ops = [{"wall_s": 1.0, "cpu_s": 1.0}]
    e2e = run.end_to_end(ops, [0.1])
    layer, _ = run.per_layer(ops, ops, run.spans.Tracer())
    for printed, declared in ((e2e, bench["end_to_end"]), (layer, bench["per_layer"])):
        assert [m["name"] for m in declared] == list(printed)
        assert all(printed[m["name"]]["unit"] == m["unit"] for m in declared)
