"""The benchmark's traced run wraps bellkit functions where their callers look
them up; every lookup site it lists must exist, and every other name a
bellkit module imports must be used in it."""
from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"
PACKAGE = ROOT / "src" / "bellkit"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_perfbench_lookup_site_resolves():
    spans = _spans()
    modules = spans.modules()
    missing = [f"{m}.{attr}" for m, attr, _, _ in spans._sites() if not hasattr(modules[m], attr)]
    assert missing == []


def test_every_module_level_import_is_used_or_a_perfbench_site():
    sites = {(m, attr) for m, attr, _, _ in _spans()._sites()}
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for statement in tree.body:
            if isinstance(statement, ast.ImportFrom) and statement.module == "__future__":
                continue
            if isinstance(statement, (ast.Import, ast.ImportFrom)):
                for alias in statement.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used and (path.stem, name) not in sites:
                        unused.append(f"{path.stem}.{name}")
    assert unused == []


def test_traced_verify_paper_runs_every_result_hook_on_its_path(capsys, monkeypatch):
    # a hook reads fields of its function's result, so a field that the
    # benchmark reads and a function no longer returns fails here
    spans = _spans()
    hooked = []

    def recording(name, hook):
        def run(tracer, args, result):
            hooked.append(name)
            hook(tracer, args, result)
        return run

    sites = [(m, attr, name, hook and recording(name, hook)) for m, attr, name, hook in spans._sites()]
    monkeypatch.setattr(spans, "_sites", lambda: sites)
    tracer = spans.Tracer()
    tracer.install()
    try:
        code = spans.modules()["cli"].main(["verify-paper", "--format", "json"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0 and spans.wrapped_sites() == []
    calls = {name: count for name, (count, _) in tracer.self_times().items()}
    with_hooks = {name for _, _, name, hook in sites if hook is not None}
    assert {name: hooked.count(name) for name in set(hooked)} == {
        name: count for name, count in calls.items() if name in with_hooks}
    assert {"entanglement.refute_common_product_iso", "modelfit.fit_basis"} <= set(hooked)
    assert tracer.counters["entanglement.refute_common_product_iso.candidates"] == 4
