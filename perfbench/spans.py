"""In-memory spans around bellkit's public functions, for the traced run.

bellkit modules bind their callees by name (``from .hilbert import svd``),
so a wrapper has to replace the name where the caller looks it up: the
attribute of the calling module, not of the defining one.  ``_sites()``
lists the lookup site of every public function that one module calls in
another on the paths the workloads drive.  Helpers within a module and the
constructors of data classes are not wrapped; their time counts under the
calling span.
"""
from __future__ import annotations

import functools
import os
from collections import defaultdict
from time import perf_counter

ORIGINAL = "__perfbench_original__"


def _sites() -> list:
    """(calling module, attribute, span name, result hook) for every wrapper."""
    fit_state = ("modelfit.fit_state", _on_fit_state)
    fit_basis = ("modelfit.fit_basis", _on_fit_basis)
    reference_fixture = ("modelfit.reference_fixture", None)
    random_isomorphism = ("entanglement.random_isomorphism", None)
    operator_schmidt = ("entanglement.operator_schmidt", None)
    canonical_iso_of = ("entanglement.canonical_iso_of", None)
    chsh = ("bellstats.chsh", None)
    student_t_tail = ("bellstats.student_t_tail", None)
    svd = ("hilbert.svd", None)
    gram = ("hilbert.gram", None)
    orthonormalize = ("hilbert.orthonormalize", None)
    tensor = ("hilbert.tensor", None)
    return [
        ("cli", "main", "cli.main", None),
        ("cli", "parse_dataset_file", "io.parse_dataset_file", _on_parse),
        ("cli", "parse_operator_file", "io.parse_operator_file", _on_parse),
        ("io", "parse_state_file", "io.parse_state_file", _on_parse),
        ("io", "parse_model_file", "io.parse_model_file", _on_parse),
        ("cli", "sha256_of_file", "io.sha256_of_file", None),
        ("cli", "canonical_json", "io.canonical_json", None),
        ("cli", "chsh", *chsh),
        ("verify", "chsh", *chsh),
        ("verify", "student_t_tail", *student_t_tail),
        ("bellstats", "student_t_tail", *student_t_tail),
        ("verify", "marginal_deviations", "bellstats.marginal_deviations", None),
        ("entanglement", "svd", *svd),
        ("hilbert", "svd", *svd),
        ("entanglement", "gram", *gram),
        ("modelfit", "gram", *gram),
        ("entanglement", "orthonormalize", *orthonormalize),
        ("modelfit", "orthonormalize", *orthonormalize),
        ("modelfit", "tensor", *tensor),
        ("verify", "tensor", *tensor),
        ("entanglement", "tensor_op", "hilbert.tensor_op", None),
        ("verify", "refute_common_product_iso", "entanglement.refute_common_product_iso", _on_refute),
        ("verify", "random_isomorphism", *random_isomorphism),
        ("entanglement", "random_isomorphism", *random_isomorphism),
        ("cli", "operator_schmidt", *operator_schmidt),
        ("verify", "operator_schmidt", *operator_schmidt),
        ("entanglement", "operator_schmidt", *operator_schmidt),
        ("verify", "is_product_evolution", "entanglement.is_product_evolution", None),
        ("verify", "check_factorization", "entanglement.check_factorization", None),
        ("verify", "evolution_between", "entanglement.evolution_between", None),
        ("verify", "states_equal_up_to_phase", "entanglement.states_equal_up_to_phase", None),
        ("cli", "canonical_iso", "entanglement.canonical_iso", None),
        ("cli", "schmidt_state", "entanglement.schmidt_state", None),
        ("cli", "measurement_entanglement_degree", "entanglement.measurement_entanglement_degree", None),
        ("cli", "canonical_iso_of", *canonical_iso_of),
        ("verify", "canonical_iso_of", *canonical_iso_of),
        ("cli", "fit_state", *fit_state),
        ("cli", "fit_basis", *fit_basis),
        ("verify", "fit_basis", *fit_basis),
        ("cli", "reference_fixture", *reference_fixture),
        ("verify", "reference_fixture", *reference_fixture),
        ("modelfit", "synthesize", "modelfit.synthesize", None),
        ("verify", "probabilities_from_model", "modelfit.probabilities_from_model", None),
        ("verify", "reference_published_operators", "modelfit.reference_published_operators", None),
        ("cli", "model_to_dict", "io.model_to_dict", None),
        ("cli", "load_state", "modelfit.load_state", None),
        ("cli", "load_model", "modelfit.load_model", None),
        ("cli", "run_verification", "verify.run_verification", None),
    ]


def _on_parse(tracer, args, result):
    tracer.count("io.bytes_read", os.path.getsize(args[0]))


def _on_refute(tracer, args, result):
    tracer.count("entanglement.refute_common_product_iso.candidates", result.trials)


def _on_fit_state(tracer, args, result):
    tracer.count("modelfit.fit_state.accepted_steps", len(result.trace))
    tracer.objectives.append(result.objective)


def _on_fit_basis(tracer, args, result):
    tracer.count("modelfit.fit_basis.objective_evals", result.iterations)
    tracer.count("modelfit.fit_basis.restarts_used", result.restarts_used)
    tracer.count("modelfit.fit_basis.converged", int(result.converged))


def modules() -> dict:
    from bellkit import bellstats, cli, entanglement, hilbert, io, modelfit, verify

    return {"cli": cli, "io": io, "bellstats": bellstats, "hilbert": hilbert,
            "entanglement": entanglement, "modelfit": modelfit, "verify": verify}


def wrapped_sites() -> list:
    """Lookup sites that currently hold a wrapper; empty in an untraced process."""
    mods = modules()
    return [f"{m}.{attr}" for m, attr, _, _ in _sites() if hasattr(getattr(mods[m], attr), ORIGINAL)]


class Tracer:
    """Spans [name, start, end, parent index, op id] and per-op counters."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.op = -1
        self.counters = defaultdict(float)
        self.objectives: list = []
        self._installed: list = []

    def count(self, name: str, amount) -> None:
        self.counters[name] += amount

    def _wrap(self, module, attr: str, name: str, hook) -> None:
        original = getattr(module, attr)
        spans, stack = self.spans, self.stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        setattr(wrapper, ORIGINAL, original)
        setattr(module, attr, wrapper)
        self._installed.append((module, attr, original))

    def install(self) -> None:
        mods = modules()
        for m, attr, name, hook in _sites():
            self._wrap(mods[m], attr, name, hook)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def self_times(self) -> dict:
        """name -> (calls, total self seconds); self = duration minus child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict = defaultdict(lambda: [0, 0.0])
        for (name, start, end, _, _), covered in zip(self.spans, child):
            totals[name][0] += 1
            totals[name][1] += end - start - covered
        return {name: tuple(v) for name, v in totals.items()}
