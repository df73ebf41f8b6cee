"""tools/bench_pairs.py on canned perfbench result lines; no benchmark runs."""
from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPECS = {
    "latency_p50_ms": {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    "ops_per_s": {"name": "ops_per_s", "unit": "ops/s", "better": "higher", "bound": 0.25},
}


def lines(latency: float, correct: bool = True, failed: int = 0, extra: str = "") -> str:
    """What perfbench/run.py prints: a record line, then the result line."""
    record = {"record": {"workload": "model-fit", "machine": {"nproc": 2}}}
    result = {"correct": correct, "attempted": 40, "failed": failed,
              "metrics": {"latency_p50_ms": {"value": latency, "unit": "ms"},
                          "ops_per_s": {"value": 1e3 / latency, "unit": "ops/s"}}}
    return extra + json.dumps(record) + "\n" + json.dumps(result) + "\n"


def pairs_of(old: list, new: list) -> list:
    return [({"latency_p50_ms": a, "ops_per_s": 1e3 / a}, {"latency_p50_ms": b, "ops_per_s": 1e3 / b})
            for a, b in zip(old, new)]


OLD = [25.0, 26.0, 24.5, 25.5, 27.0, 24.0, 26.5, 25.2, 24.8, 25.8]


def test_sign_test_takes_nine_of_ten():
    assert bench_pairs.sign_test(9, 10) == pytest.approx(11 / 1024)
    assert bench_pairs.sign_test(8, 10) == pytest.approx(56 / 1024)
    assert bench_pairs.sign_test(9, 10) <= bench_pairs.ALPHA < bench_pairs.sign_test(8, 10)
    assert bench_pairs.sign_test(0, 10) == 1.0


def test_nine_of_ten_is_better_and_eight_of_ten_unresolved():
    nine = [15.0] * 9 + [30.0]
    summary = bench_pairs.summarize(pairs_of(OLD, nine), SPECS)
    assert summary["latency_p50_ms"]["better_in"] == 9
    assert summary["latency_p50_ms"]["verdict"] == "better"
    assert summary["ops_per_s"]["verdict"] == "better"  # higher is better there
    eight = [15.0] * 8 + [30.0, 30.0]
    summary = bench_pairs.summarize(pairs_of(OLD, eight), SPECS)
    assert summary["latency_p50_ms"]["better_in"] == 8
    assert summary["latency_p50_ms"]["verdict"] == "unresolved"


def test_nine_of_ten_worse_is_worse_and_flagged_beyond_its_bound():
    summary = bench_pairs.summarize(pairs_of(OLD, [40.0] * 9 + [10.0]), SPECS)
    assert summary["latency_p50_ms"]["verdict"] == "worse"
    assert summary["latency_p50_ms"]["beyond_bound"]
    assert summary["ops_per_s"]["verdict"] == "worse" and summary["ops_per_s"]["beyond_bound"]


def test_the_bound_is_relative_to_the_old_median():
    median = 25.35  # of OLD
    within = bench_pairs.summarize(pairs_of(OLD, [median * 1.2] * 10), SPECS)["latency_p50_ms"]
    beyond = bench_pairs.summarize(pairs_of(OLD, [median * 1.3] * 10), SPECS)["latency_p50_ms"]
    assert not within["beyond_bound"] and beyond["beyond_bound"]


def test_ten_wins_inside_the_old_spread_are_unresolved():
    # every pair better by 0.1 ms, but OLD's quartiles lie 1 ms apart
    summary = bench_pairs.summarize(pairs_of(OLD, [a - 0.1 for a in OLD]), SPECS)["latency_p50_ms"]
    assert summary["better_in"] == 10
    assert summary["verdict"] == "unresolved"


def test_ties_count_for_neither_side():
    summary = bench_pairs.summarize(pairs_of(OLD, OLD), SPECS)["latency_p50_ms"]
    assert summary["better_in"] == 0 and summary["verdict"] == "unresolved"


def test_parse_run_reads_the_last_two_lines():
    record, result = bench_pairs.parse_run(lines(20.0, extra="warming up\n"))
    assert record["machine"] == {"nproc": 2}
    assert result["metrics"]["latency_p50_ms"]["value"] == 20.0
    for bad in ("", "one line\n", "not json\nnor this\n", '{"a": 1}\n{"b": 2}\n'):
        with pytest.raises(ValueError):
            bench_pairs.parse_run(bad)


def test_refusal_of_incorrect_runs():
    assert bench_pairs.refusal({"correct": True, "attempted": 4, "failed": 0}) is None
    assert "not correct" in bench_pairs.refusal({"correct": False, "attempted": 4, "failed": 1})
    assert "not correct" in bench_pairs.refusal({"attempted": 4, "failed": 0})
    assert "2 failed ops" in bench_pairs.refusal({"correct": True, "attempted": 4, "failed": 2})


def test_collect_alternates_the_first_side_and_refuses_bad_pairs():
    calls = []
    outputs = {"old": iter([lines(25.0), lines(25.0), lines(25.0), lines(25.0, correct=False, failed=1)]),
               "new": iter([lines(15.0), lines(15.0), "crashed\n", lines(15.0)])}

    def run(root):
        calls.append(root)
        return next(outputs[root])

    accepted, refused, machine = bench_pairs.collect(("old", "new"), "model-fit", 4, run)
    assert calls == ["old", "new", "new", "old", "old", "new", "new", "old"]
    assert [p["first"] for p in accepted] == ["old", "new"]
    assert accepted[0]["old"]["latency_p50_ms"] == 25.0 and accepted[0]["new"]["latency_p50_ms"] == 15.0
    assert [p["pair"] for p in refused] == [2, 3]
    assert refused[0]["problems"] == ["new: fewer than two output lines"]
    assert refused[1]["problems"] == ["old: not correct (1 of 40 ops failed)"]
    assert machine == {"nproc": 2}


def test_main_writes_the_report_and_fails_on_a_refused_pair(tmp_path, monkeypatch, capsys):
    old, new = tmp_path / "old", tmp_path / "new"
    for root in (old, new):
        root.mkdir()
    (new / "BENCHMARK.json").write_text(json.dumps({"workloads": [{"name": "model-fit"}],
                                                    "end_to_end": list(SPECS.values())}))
    latencies = {old: iter(OLD), new: iter([15.0] * 10)}
    monkeypatch.setattr(bench_pairs, "run_once", lambda root, *_: lines(next(latencies[root])))
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main([str(old), str(new), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    summary = report["workloads"]["model-fit"]["summary"]["latency_p50_ms"]
    assert summary["better_in"] == 10 and summary["verdict"] == "better"
    assert report["old"]["head"] is None and report["machine"] == {"nproc": 2}
    assert "latency_p50_ms: 25.35 [" in capsys.readouterr().out

    latencies = {old: iter([25.0] * 2), new: iter([15.0] * 2)}
    monkeypatch.setattr(bench_pairs, "run_once",
                        lambda root, *_: lines(next(latencies[root]), correct=root is new, failed=root is old))
    assert bench_pairs.main([str(old), str(new), "--pairs", "2"]) == 1
    assert "refused pair 0: old: not correct" in capsys.readouterr().out
