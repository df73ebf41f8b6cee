"""The package namespace: every exported name loads on first use."""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import bellkit

SRC = Path(bellkit.__file__).resolve().parent.parent

EXPORTED = [
    "__version__",
    "EXPERIMENT_KEYS", "TSIRELSON_BOUND", "ChshReport", "CoincidenceTable", "ExperimentDataset",
    "SinglesTable", "TTestResult", "chsh", "counts_to_probabilities", "expectation",
    "marginal_deviations", "student_t_tail", "t_test_vs_threshold",
    "Evolution", "Isomorphism", "OperatorSchmidt", "SchmidtDecomposition", "canonical_iso",
    "canonical_iso_of", "check_factorization", "evolution_between", "is_product_evolution",
    "measurement_entanglement_degree", "operator_schmidt", "random_isomorphism",
    "refute_common_product_iso", "reshuffle", "schmidt_state", "states_equal_up_to_phase",
    "gram", "orthonormalize", "svd", "tensor", "tensor_op",
    "ParseError", "parse_dataset_file",
    "FitResult", "ObservableModel", "StateFitResult", "StateVector",
    "fit_basis", "fit_state", "load_model", "load_state",
    "probabilities_from_model", "reference_fixture", "reference_published_operators", "synthesize",
    "CheckRow", "run_verification",
]

FRESH = """\
import json, sys
sys.path.insert(0, sys.argv[1])
import numpy
before = set(sys.modules)
import bellkit
bellkit.reference_fixture()
after_fixture = sorted(set(sys.modules) - before)
verify, entanglement = bellkit.verify, bellkit.entanglement
print(json.dumps({"after_fixture": after_fixture, "file": bellkit.__file__,
                  "verify": verify.__name__, "entanglement": entanglement.__name__,
                  "run_verification": bellkit.run_verification is verify.run_verification}))
"""


def test_reference_fixture_loads_neither_verify_nor_entanglement_nor_cli():
    done = subprocess.run([sys.executable, "-c", FRESH, str(SRC)], capture_output=True, text=True,
                          timeout=120, check=True)
    report = json.loads(done.stdout)
    assert Path(report["file"]).resolve().parent.parent == SRC
    loaded = set(report["after_fixture"])
    assert "bellkit.modelfit" in loaded
    assert loaded.isdisjoint({"bellkit.verify", "bellkit.entanglement", "bellkit.cli", "hashlib", "dataclasses"})
    assert (report["verify"], report["entanglement"]) == ("bellkit.verify", "bellkit.entanglement")
    assert report["run_verification"] is True


def test_cli_import_loads_no_dataclasses():
    # bellkit's records are plain classes: creating dataclasses would cost
    # about a fifth of the cold start; hashlib loads when a file is hashed
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import numpy; import bellkit.cli; "
            "print(sorted({'dataclasses', 'hashlib'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True, text=True,
                          timeout=120, check=True)
    assert done.stdout.strip() == "[]"


def test_all_keeps_its_names_and_order():
    assert bellkit.__all__ == EXPORTED


def test_each_export_is_its_submodules_object():
    for module, names in bellkit._EXPORTS.items():
        owner = getattr(bellkit, module)
        assert owner.__name__ == f"bellkit.{module}"
        for name in names:
            assert getattr(bellkit, name) is getattr(owner, name), name


def test_dir_lists_every_export_and_submodule():
    listed = dir(bellkit)
    assert set(EXPORTED) <= set(listed)
    assert {"bellstats", "entanglement", "hilbert", "io", "modelfit", "verify"} <= set(listed)
    assert listed == sorted(listed)


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from bellkit import *", namespace)
    assert set(EXPORTED) <= set(namespace)
    assert namespace["reference_fixture"] is bellkit.reference_fixture


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'bellkit' has no attribute 'no_such_name'"):
        bellkit.no_such_name  # noqa: B018
    assert not hasattr(bellkit, "no_such_name")
