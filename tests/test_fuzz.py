"""Property tests: no input file and no flag value makes the command line
crash or report a NaN.

Valid documents of each file kind are mutated (fields replaced, removed or
added; out-of-range literals spliced in) or replaced by damaged bytes, then
run through ``analyze``, ``schmidt --state``, ``schmidt --operator`` and
``schmidt --operator --iso from-model:AB --model``.  Separately, every
subcommand runs on valid files with ``--tolerance``, ``--seed``,
``--restarts``, ``--iso`` and ``--format`` drawn from edge and junk values.
"""
from __future__ import annotations

import contextlib
import io as stdio
import json
import math
import re
import tempfile
import warnings
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bellkit.cli import main
from bellkit.io import canonical_json, operator_to_dict, state_to_dict
from bellkit.modelfit import reference_fixture

DATA = Path(__file__).resolve().parent.parent / "src" / "bellkit" / "data"

# JSON text that Python's json module cannot produce, spliced in verbatim.
RAW_LITERALS = (
    "1e400",
    "-1e400",
    "1e-400",
    "1" + "0" * 400,
    "-" + "9" * 400,
    "1" * 5000,
    "NaN",
    "-Infinity",
    "[" * 3000 + "]" * 3000,
    "1.7976931348623157e308",
    "true",
)

PLAIN_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**6), max_value=10**6)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)


def _base_documents() -> dict:
    _, models, _ = reference_fixture()
    return {
        "dataset": json.loads((DATA / "reference_dataset_counts.json").read_text(encoding="utf-8")),
        "dataset-probabilities": json.loads((DATA / "reference_dataset.json").read_text(encoding="utf-8")),
        "state": state_to_dict([0.23, 0.62, 0.75, 0.0], [13.93, 16.72, 9.69, 194.15], "reference"),
        "operator": operator_to_dict(models["AB"].operator),
        "model": json.loads((DATA / "reference_model.json").read_text(encoding="utf-8")),
    }


BASES = _base_documents()
VALID_OPERATOR = canonical_json(BASES["operator"])


def _paths(node, prefix=()) -> list:
    """Every position in a JSON tree, as a tuple of keys and indices."""
    out = [prefix]
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        out += _paths(child, prefix + (key,))
    return out


def _mutated_text(data, doc) -> str:
    doc = json.loads(json.dumps(doc))
    raw = []
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        path = data.draw(st.sampled_from(_paths(doc)), label="path")
        if not path:
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        action = data.draw(st.sampled_from(["replace", "raw", "delete", "add"]), label="action")
        if action == "replace":
            parent[path[-1]] = data.draw(PLAIN_VALUES, label="value")
        elif action == "raw":
            parent[path[-1]] = f"__raw{len(raw)}__"
            raw.append(data.draw(st.sampled_from(RAW_LITERALS), label="literal"))
        elif action == "delete":
            del parent[path[-1]]
        elif isinstance(parent, dict):
            parent[data.draw(st.text(max_size=6), label="key")] = data.draw(PLAIN_VALUES, label="value")
    text = json.dumps(doc, ensure_ascii=data.draw(st.booleans(), label="ascii"))
    for i, literal in enumerate(raw):
        text = text.replace(f'"__raw{i}__"', literal, 1)
    return text


def _file_bytes(data, kind: str) -> bytes:
    mode = data.draw(st.sampled_from(["mutate", "mutate", "mutate", "truncate", "flip", "binary"]), label="mode")
    if mode == "binary":
        return data.draw(st.binary(max_size=64), label="bytes")
    if mode == "mutate":
        return _mutated_text(data, BASES[kind]).encode("utf-8")
    valid = canonical_json(BASES[kind]).encode("utf-8")
    at = data.draw(st.integers(0, len(valid) - 1), label="offset")
    if mode == "truncate":
        return valid[:at]
    return valid[:at] + bytes([data.draw(st.integers(0, 255), label="byte")]) + valid[at + 1:]


def _run(argv: list) -> tuple:
    out, err = stdio.StringIO(), stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _reject_constant(name):
    raise AssertionError(f"report holds {name}")


def _check_outcome(code: int, out: str, err: str) -> None:
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err
    if code in (2, 3):
        assert sum(line.startswith("error:") for line in err.splitlines()) == 1
    if code == 0:
        json.loads(out, parse_constant=_reject_constant)


COMMANDS = {
    "analyze": (("dataset", "dataset-probabilities"), ["analyze", "{file}"]),
    "schmidt-state": (("state",), ["schmidt", "--state", "{file}"]),
    "schmidt-operator": (("operator",), ["schmidt", "--operator", "{file}"]),
    "schmidt-model": (
        ("model",),
        ["schmidt", "--operator", "{operator}", "--iso", "from-model:AB", "--model", "{file}"],
    ),
}


def _fuzz(data, command: str) -> None:
    kinds, template = COMMANDS[command]
    kind = data.draw(st.sampled_from(kinds), label="kind")
    contents = _file_bytes(data, kind)
    options = ["--format", "json"] + (["--strict"] if data.draw(st.booleans(), label="strict") else [])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_bytes(contents)
        operator = Path(tmp) / "operator.json"
        operator.write_text(VALID_OPERATOR, encoding="utf-8")
        fill = {"{file}": str(path), "{operator}": str(operator)}
        argv = [fill.get(arg, arg) for arg in template] + options
        _check_outcome(*_run(argv))


FUZZ = settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(st.data())
def test_fuzz_analyze(data):
    _fuzz(data, "analyze")


@FUZZ
@given(st.data())
def test_fuzz_schmidt_state(data):
    _fuzz(data, "schmidt-state")


@FUZZ
@given(st.data())
def test_fuzz_schmidt_operator(data):
    _fuzz(data, "schmidt-operator")


@FUZZ
@given(st.data())
def test_fuzz_schmidt_operator_with_model_identification(data):
    _fuzz(data, "schmidt-model")


# Flag values: edge floats, NaN, infinities, huge and negative integers, and
# strings that are no number.  Each is passed as --flag=value, so that a
# value starting with "-" is not read as an option.
EDGE_NUMBERS = ("nan", "-nan", "NaN", "inf", "-inf", "Infinity", "1e400", "-1e400", "0", "-0.0", "5e-324",
                "1e-300", "1e-8", "0.5", "0.9999999999999999", "1", "1.5", "1e308", "-1e-8", "-1", "1_0",
                " 2 ", "\u0661", str(2**63), str(-(2**63)), "9" * 40, "-" + "9" * 40)
JUNK = ("", "junk", "0x10", "1e", "--", "from-model:AB", "nan%")
TOLERANCES = st.sampled_from(EDGE_NUMBERS + JUNK) | st.floats().map(repr) | st.text(max_size=6)
SEEDS = st.sampled_from(EDGE_NUMBERS + JUNK) | st.integers().map(str)
# A run's time grows with its restarts, so no draw above 3 is run.
RESTARTS = st.integers(max_value=3).map(str) | st.sampled_from(("", "junk", "nan", "1.5", "-" + "9" * 40))
ISOS = st.sampled_from(("canonical", "from-model:AB", "from-model:A'B'", "from-model:", "from-model:XY",
                        "junk", "")) | st.text(max_size=8)
FORMATS = st.sampled_from(("text", "json", "xml", ""))
# fit's --out: a new file in the run's temporary directory, the directory
# itself, a path under a missing directory, and the empty path.  Only the
# first can be written.
WRITABLE_OUT = "{tmp}/model.json"
OUTS = st.sampled_from((WRITABLE_OUT, "{tmp}", "{tmp}/missing/model.json", ""))

def _in_0_1(tolerance: float) -> bool:
    return 0.0 <= tolerance < 1.0


# Each subcommand on valid files, the flags it takes beyond the common ones,
# and the range of its --tolerance.
FLAG_COMMANDS = {
    "analyze": ([["analyze", "{dataset}"], ["analyze", "{probabilities}"]], {}, _in_0_1),
    "verify-paper": ([["verify-paper"], ["verify-paper", "{dataset}"]], {}, _in_0_1),
    "fit": ([["fit", "{dataset}"], ["fit", "{dataset}", "--state", "{state}"]],
            {"--restarts": RESTARTS, "--out": OUTS}, lambda t: 0.0 < t < math.inf),
    "schmidt": ([["schmidt", "--state", "{state}"], ["schmidt", "--operator", "{operator}"]], {"--iso": ISOS},
                _in_0_1),
}


def _parses(value: str, kind) -> bool:
    try:
        kind(value)
    except ValueError:
        return False
    return True


@FUZZ
@given(st.data())
def test_fuzz_flags(data):
    command = data.draw(st.sampled_from(sorted(FLAG_COMMANDS)), label="command")
    sources, extra, in_range = FLAG_COMMANDS[command]
    template = data.draw(st.sampled_from(sources), label="source")
    flags = {"--tolerance": TOLERANCES, "--seed": SEEDS, "--format": FORMATS, **extra}
    chosen = {flag: data.draw(values, label=flag) for flag, values in flags.items()
              if data.draw(st.booleans(), label=f"with {flag}")}
    # "--" is no option's value (argparse would drop it)
    parses = ("--" not in chosen.values()
              and all(_parses(v, int) for f, v in chosen.items() if f in ("--seed", "--restarts"))
              and chosen.get("--format", "text") in ("text", "json")
              and _parses(chosen.get("--tolerance", "1e-8"), float))
    with tempfile.TemporaryDirectory() as tmp:
        state, operator = Path(tmp) / "state.json", Path(tmp) / "operator.json"
        state.write_text(canonical_json(BASES["state"]), encoding="utf-8")
        operator.write_text(VALID_OPERATOR, encoding="utf-8")
        fill = {"{dataset}": str(DATA / "reference_dataset_counts.json"),
                "{probabilities}": str(DATA / "reference_dataset.json"),
                "{state}": str(state), "{operator}": str(operator)}
        argv = [fill.get(arg, arg) for arg in template] + [f"{f}={v}".replace("{tmp}", tmp)
                                                           for f, v in chosen.items()]
        out, err = stdio.StringIO(), stdio.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert not caught, [str(w.message) for w in caught]
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err
    assert (code == 2) == (not parses), err
    if code == 3:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    if code in (0, 4):
        assert err == ""
        assert not re.search(r"\bnan\b", out, re.IGNORECASE)
        if chosen.get("--format") == "json":
            json.loads(out, parse_constant=_reject_constant)
    if parses and "--tolerance" in chosen and not in_range(float(chosen["--tolerance"])):
        assert code == 3, (argv, out)
    if parses and chosen.get("--out", WRITABLE_OUT) != WRITABLE_OUT:
        assert code == 3 and out == "", (argv, out)
