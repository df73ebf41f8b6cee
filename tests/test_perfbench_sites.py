"""The benchmark's traced run wraps bellkit functions where their callers look
them up; every lookup site it lists must exist."""
from __future__ import annotations

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_perfbench_lookup_site_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    modules = spans.modules()
    missing = [f"{m}.{attr}" for m, attr, _, _ in spans._sites() if not hasattr(modules[m], attr)]
    assert missing == []
