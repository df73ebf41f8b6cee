"""Coincidence tables and the rules for their inputs: the four experiment
keys, probability and count checks, and the table, singles and dataset
records that io builds and every analysis reads.

Probability tables follow the outcome order (11, 12, 21, 22): first factor's
outcome varies slowest, so p12 is "first side outcome 1, second side
outcome 2".
"""
from __future__ import annotations

import numpy as np

from . import _Record

EXPERIMENT_KEYS = ("AB", "AB'", "A'B", "A'B'")


def check_sum_tolerance(sum_tol: float) -> float:
    """Return ``sum_tol`` if it lies in [0, 1), the range of a
    probability-sum tolerance; raise ValueError otherwise, NaN included."""
    if not 0.0 <= sum_tol < 1.0:
        raise ValueError(f"probability-sum tolerance must lie in [0, 1), got {sum_tol}")
    return sum_tol


def check_probabilities(probs, experiment: str, sum_tol: float = 1e-6) -> None:
    """Raise ValueError unless every row of ``probs`` (rows along the last
    axis, of any length) is finite, lies in [0, 1] and sums to 1 within
    ``sum_tol``; the message names ``experiment`` and the first offending
    row."""
    rows = np.asarray(probs, dtype=float)
    rows = rows.reshape(-1, rows.shape[-1])
    # Whole-array bounds first: NaN fails every comparison, so only a stack
    # that passes all three checks below returns here.
    if rows.size == 0 or (rows.min() >= -1e-12 and rows.max() <= 1.0 + 1e-12
                          and np.abs(rows.sum(axis=1) - 1.0).max() <= sum_tol):
        return
    bad = ~np.isfinite(rows).all(axis=1)
    if bad.any():
        raise ValueError(f"{experiment}: probabilities must be finite, got {rows[bad][0]}")
    # tiny epsilon: computed probabilities land on 0 and 1 up to round-off
    bad = ((rows < -1e-12) | (rows > 1.0 + 1e-12)).any(axis=1)
    if bad.any():
        raise ValueError(f"{experiment}: probabilities must lie in [0, 1], got {rows[bad][0]}")
    totals = rows.sum(axis=1)
    bad = np.abs(totals - 1.0) > sum_tol
    if bad.any():
        raise ValueError(
            f"{experiment}: probabilities sum to {totals[bad][0]:.6f}, "
            f"outside 1 +/- {sum_tol}"
        )


def _check_four_counts(counts) -> None:
    if len(counts) != 4:
        raise ValueError("counts must be four nonnegative integers")


class CoincidenceTable(_Record):
    """Joint outcome probabilities of one coincidence experiment.

    Parameters
    ----------
    experiment : str
        Which pair of single measurements was run, e.g. "AB'".
    p11, p12, p21, p22 : float
        Outcome probabilities in (first, second)-outcome order.
    a_labels, b_labels : pairs of str
        Outcome names of the two sides, e.g. ("Horse", "Bear").
    counts : tuple of four int, optional
        Raw counts behind the probabilities, checked against ``n`` by
        counts_to_probabilities; counts/n must match the probabilities
        within 1e-9.
    n : int, optional
        Number of trials; required when counts are given.
    sum_tol : float
        Allowed deviation of the probability sum from 1, in [0, 1).  Use
        0.005 for tables transcribed from rounded sources, the tight
        default otherwise.
    """

    def __init__(self, experiment: str, p11: float, p12: float, p21: float, p22: float,
                 a_labels: tuple = ("1", "2"), b_labels: tuple = ("1", "2"),
                 counts: tuple | None = None, n: int | None = None, sum_tol: float = 1e-6):
        self.experiment = experiment
        self.p11, self.p12, self.p21, self.p22 = p11, p12, p21, p22
        self.a_labels, self.b_labels = a_labels, b_labels
        self.counts, self.n = counts, n
        self.sum_tol = sum_tol
        check_sum_tolerance(self.sum_tol)
        probs = self.probabilities
        check_probabilities(probs, self.experiment, self.sum_tol)
        if len(self.a_labels) != 2 or len(self.b_labels) != 2:
            raise ValueError("a_labels and b_labels must each have two entries")
        if self.counts is not None:
            _check_four_counts(self.counts)
            for c, q, p in zip(self.counts, counts_to_probabilities(self.counts, self.n), probs):
                if abs(q - p) > 1e-9:
                    raise ValueError(
                        f"{self.experiment}: counts/n disagree with probabilities "
                        f"({c}/{self.n} vs {p})"
                    )

    @classmethod
    def from_counts(cls, experiment, counts, n, a_labels=("1", "2"), b_labels=("1", "2")) -> "CoincidenceTable":
        """The table of probabilities counts/n that keeps its counts and n;
        ValueError for counts that direct construction refuses."""
        _check_four_counts(counts)
        table = cls(experiment, *counts_to_probabilities(counts, n), a_labels=a_labels, b_labels=b_labels,
                    sum_tol=1e-9)
        # set after construction: the probabilities are counts/n already, so
        # __init__'s check of counts against them would count them again
        table.counts, table.n = tuple(int(c) for c in counts), int(n)
        return table

    @property
    def probabilities(self) -> np.ndarray:
        return np.array([self.p11, self.p12, self.p21, self.p22], dtype=float)

    @property
    def labels(self) -> tuple:
        """Combined outcome names in table order (11, 12, 21, 22)."""
        return tuple(f"{a} {b}" for a in self.a_labels for b in self.b_labels)


class SinglesTable(_Record):
    """Single-measurement outcome probabilities, one (p1, p2) pair per side,
    each checked as check_probabilities checks a table, within 1e-4.
    ``labels`` defaults to a new empty dict."""

    def __init__(self, probabilities: dict, labels: dict | None = None):
        self.probabilities = probabilities
        self.labels = {} if labels is None else labels
        for side, pair in self.probabilities.items():
            if len(pair) != 2:
                raise ValueError(f"singles for {side} must be a pair")
            check_probabilities(pair, f"singles for {side}", sum_tol=1e-4)


class ExperimentDataset(_Record):
    """Four coincidence tables (and optional singles) from one experiment.

    ``singles`` is parsed, checked and written back with the dataset; no
    analysis reads it: each side's marginals come from the coincidence
    tables (marginal_deviations).
    """

    def __init__(self, name: str, tables: dict, singles: SinglesTable | None = None,
                 n_subjects: int | None = None):
        self.name, self.tables, self.singles, self.n_subjects = name, tables, singles, n_subjects
        missing = [k for k in EXPERIMENT_KEYS if k not in self.tables]
        if missing:
            raise ValueError(f"dataset is missing coincidence tables: {missing}")
        extra = [k for k in self.tables if k not in EXPERIMENT_KEYS]
        if extra:
            raise ValueError(f"dataset has unknown coincidence tables: {extra}")


def counts_to_probabilities(counts, n) -> tuple:
    """Relative frequencies counts[k]/n.  ValueError unless n is positive
    and the counts are nonnegative integers (in value) summing to n."""
    if n is None or n <= 0:
        raise ValueError("n must be a positive integer")
    # float() would overflow on integers beyond the float range; NaN and inf fail
    if not all(isinstance(c, (int, np.integer)) or float(c).is_integer() for c in counts):
        raise ValueError(f"counts must be integers, got {tuple(counts)}")
    counts = [int(c) for c in counts]
    if any(c < 0 for c in counts):
        raise ValueError("counts must be nonnegative")
    if sum(counts) != n:
        raise ValueError(f"counts sum to {sum(counts)}, expected n={n}")
    return tuple(c / n for c in counts)
