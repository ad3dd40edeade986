"""Sample container, CSV ingestion, empirical distribution function, cutoff split."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import CsvParseError, EmptySide, NonFinite, SupportViolation, TooFew


@dataclass(frozen=True)
class Sample:
    """Sorted, validated observations with support endpoint metadata.

    ``values`` is ascending and finite;
    ``support_lower``/``support_upper`` may be ``-inf``/``+inf`` for
    unbounded support. Immutable: safe to share across threads.
    """

    values: np.ndarray
    support_lower: float
    support_upper: float
    n: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "n", len(self.values))
        self.values.setflags(write=False)

    @cached_property
    def F(self) -> np.ndarray:
        """The EDF at each observation, read-only; computed on first use."""
        F = edf_values(self, self.values)
        F.setflags(write=False)
        return F

    @cached_property
    def sd(self) -> float:
        """Standard deviation (ddof=1), computed on first use."""
        return float(np.std(self.values, ddof=1))

    @property
    def support_range(self) -> float:
        return self.support_upper - self.support_lower

    @property
    def span(self) -> float:
        """Support range when finite, else the data range."""
        rng = self.support_range
        return rng if np.isfinite(rng) else float(self.values[-1] - self.values[0])


def load_sample(raw, support=None) -> Sample:
    """Validate and sort raw observations into a :class:`Sample`.

    Parameters
    ----------
    raw : sequence of float
        At least two finite observations, any order.
    support : (float, float), optional
        Known support endpoints; use ``-inf``/``inf`` for unbounded sides.
        Defaults to the sample min/max.
    """
    values = np.asarray(raw, dtype=float).ravel()
    if values.size < 2:
        raise TooFew(f"need at least 2 observations, got {values.size}")
    if not np.all(np.isfinite(values)):
        raise NonFinite("sample contains NaN or infinite values")
    values = np.sort(values)
    if support is None:
        lo, hi = float(values[0]), float(values[-1])
    else:
        lo, hi = float(support[0]), float(support[1])
        if not lo < hi:
            raise SupportViolation(f"support lower {lo} must be below upper {hi}")
        if values[0] < lo or values[-1] > hi:
            raise SupportViolation("data outside declared support")
    return Sample(values=values, support_lower=lo, support_upper=hi)


def load_csv(path, support=None) -> Sample:
    """Read a single numeric column from ``path``; optional header row.

    Any non-header line that fails to parse is a hard error with its
    line number.
    """
    values = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                values.append(float(text))
            except ValueError:
                if lineno == 1:  # tolerate a single header line
                    continue
                raise CsvParseError(f"line {lineno}: cannot parse {text!r}") from None
    return load_sample(values, support=support)


def edf_values(sample: Sample, t):
    """Empirical distribution function at a scalar or array ``t``: fraction of observations <= t."""
    return np.searchsorted(sample.values, t, side="right") / sample.n


def split_at_cutoff(sample: Sample, cutoff: float):
    """Split into left (< cutoff) and right (>= cutoff) subsamples.

    Observations equal to the cutoff go right. Left support upper endpoint
    is set to the cutoff, right support lower endpoint likewise. Each side's
    values are a read-only view of the parent's.

    Returns
    -------
    (Sample, Sample, int, int)
        left sample, right sample, n_minus, n_plus.
    """
    k = int(np.searchsorted(sample.values, cutoff, side="left"))
    n_minus, n_plus = k, sample.n - k
    if n_minus < 2 or n_plus < 2:
        raise EmptySide(
            f"cutoff {cutoff} leaves {n_minus} left / {n_plus} right observations"
        )
    left = Sample(
        values=sample.values[:k],
        support_lower=sample.support_lower,
        support_upper=cutoff,
    )
    right = Sample(
        values=sample.values[k:],
        support_lower=cutoff,
        support_upper=sample.support_upper,
    )
    return left, right, n_minus, n_plus
