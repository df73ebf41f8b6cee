"""bellkit — CHSH statistics, entanglement structure, and model fitting
for two-part coincidence experiments on a 4-dimensional complex state space.

Every name in ``__all__`` loads on first use (PEP 562): ``import bellkit``
imports no submodule, and ``bellkit.reference_fixture`` imports only
modelfit and the modules it needs, not verify or entanglement.  Submodules
are reachable the same way, as ``bellkit.verify``.  ``bellkit.cli`` still
imports every module when it loads, because its commands bind their callees
by name at import time.
"""

__version__ = "0.1.0"

# Each submodule and the names it exports, in the order of __all__.
_EXPORTS = {
    "bellstats": (
        "EXPERIMENT_KEYS",
        "TSIRELSON_BOUND",
        "ChshReport",
        "CoincidenceTable",
        "ExperimentDataset",
        "SinglesTable",
        "TTestResult",
        "chsh",
        "counts_to_probabilities",
        "expectation",
        "marginal_deviations",
        "student_t_tail",
        "t_test_vs_threshold",
    ),
    "entanglement": (
        "Evolution",
        "Isomorphism",
        "OperatorSchmidt",
        "SchmidtDecomposition",
        "canonical_iso",
        "canonical_iso_of",
        "check_factorization",
        "evolution_between",
        "is_product_evolution",
        "measurement_entanglement_degree",
        "operator_schmidt",
        "random_isomorphism",
        "refute_common_product_iso",
        "reshuffle",
        "schmidt_state",
        "states_equal_up_to_phase",
    ),
    "hilbert": ("gram", "orthonormalize", "svd", "tensor", "tensor_op"),
    "io": ("ParseError", "parse_dataset_file"),
    "modelfit": (
        "FitResult",
        "ObservableModel",
        "StateFitResult",
        "StateVector",
        "fit_basis",
        "fit_state",
        "load_model",
        "load_state",
        "probabilities_from_model",
        "reference_fixture",
        "reference_published_operators",
        "synthesize",
    ),
    "verify": ("CheckRow", "run_verification"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_OWNER]


def __getattr__(name):
    """Import the submodule that owns ``name``, or the submodule ``name``
    itself, and keep the value in the package namespace."""
    owner = _OWNER.get(name, name if name in _EXPORTS else None)
    if owner is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # The import binds the submodule in this namespace.  __import__ and not
    # importlib.import_module, because only the former shows in -X importtime.
    __import__(f"{__name__}.{owner}")
    value = globals()[owner] if owner == name else getattr(globals()[owner], name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})


class _Record:
    """Base of bellkit's record classes.  A subclass's ``__init__`` stores
    each of its parameters as the attribute of that name; ``==`` and
    ``repr`` go over those fields in parameter order, ``==`` skipping the
    names in ``_uncompared``.  Records are mutable, so they are unhashable.
    """

    _uncompared = ()
    __hash__ = None

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]
        cls._compared = tuple(name for name in cls._fields if name not in cls._uncompared)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (tuple(getattr(self, name) for name in self._compared)
                == tuple(getattr(other, name) for name in self._compared))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"
