"""Sample container, CSV ingestion, EDF, cutoff split."""

import numpy as np
import pytest

from lpdens.errors import (
    CsvParseError,
    EmptySide,
    NonFinite,
    SupportViolation,
    TooFew,
)
from lpdens.sample import edf_values, load_csv, load_sample, split_at_cutoff


def test_load_sample_sorts_and_defaults_support():
    s = load_sample([3.0, 1.0, 2.0])
    assert np.array_equal(s.values, [1.0, 2.0, 3.0])
    assert s.support_lower == 1.0 and s.support_upper == 3.0
    assert s.n == 3


def test_load_sample_declared_support():
    s = load_sample([0.2, 0.8], support=(0.0, 1.0))
    assert s.support_range == 1.0


def test_load_sample_values_are_immutable():
    s = load_sample([1.0, 2.0])
    with pytest.raises(ValueError):
        s.values[0] = 5.0


def test_sample_sd_is_computed_once():
    vals = np.random.default_rng(12).normal(size=1000)
    s = load_sample(vals)
    assert s.sd == float(np.std(vals, ddof=1))
    assert vars(s)["sd"] is s.sd
    # a constant sample still loads; the zero sd fails only where it is used
    assert load_sample([1.0, 1.0, 1.0]).sd == 0.0


@pytest.mark.parametrize("raw,exc", [
    ([1.0], TooFew),
    ([1.0, np.nan], NonFinite),
    ([1.0, np.inf], NonFinite),
])
def test_load_sample_rejects_bad_input(raw, exc):
    with pytest.raises(exc):
        load_sample(raw)


def test_load_sample_rejects_support_violations():
    with pytest.raises(SupportViolation):
        load_sample([0.0, 2.0], support=(0.5, 3.0))
    with pytest.raises(SupportViolation):
        load_sample([0.0, 2.0], support=(3.0, 1.0))


def test_load_csv_plain_and_header(tmp_path):
    plain = tmp_path / "plain.csv"
    plain.write_text("1.5\n0.5\n2.5\n")
    assert np.array_equal(load_csv(plain).values, [0.5, 1.5, 2.5])

    headed = tmp_path / "headed.csv"
    headed.write_text("poverty_index\n1.0\n2.0\n")
    assert load_csv(headed).n == 2


def test_load_csv_reports_bad_line_number(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0\n2.0\noops\n3.0\n")
    with pytest.raises(CsvParseError, match="line 3"):
        load_csv(bad)


def test_load_csv_skips_blank_lines(tmp_path):
    f = tmp_path / "gaps.csv"
    f.write_text("1.0\n\n2.0\n\n")
    assert load_csv(f).n == 2


def test_edf_right_continuous_step():
    s = load_sample([1.0, 2.0, 2.0, 3.0])
    assert edf_values(s, 0.5) == 0.0
    assert edf_values(s, 1.0) == 0.25
    assert edf_values(s, 2.0) == 0.75  # ties counted inclusively
    assert edf_values(s, 3.0) == 1.0
    assert np.allclose(edf_values(s, np.array([1.0, 2.0])), [0.25, 0.75])
    assert np.array_equal(s.F, [0.25, 0.75, 0.75, 1.0])
    assert not s.F.flags.writeable


def test_split_at_cutoff_tie_goes_right():
    s = load_sample([0.0, 1.0, 2.0, 2.0, 3.0, 4.0])
    left, right, n_minus, n_plus = split_at_cutoff(s, 2.0)
    assert n_minus == 2 and n_plus == 4
    assert left.support_upper == 2.0 and right.support_lower == 2.0
    assert right.values[0] == 2.0
    # each side's EDF has its own denominator
    assert np.array_equal(left.F, [0.5, 1.0])
    assert np.array_equal(right.F, [0.5, 0.5, 0.75, 1.0])


def test_split_at_cutoff_sides_are_read_only_views():
    s = load_sample([0.0, 1.0, 2.0, 2.0, 3.0, 4.0])
    left, right, _, _ = split_at_cutoff(s, 2.0)
    for side in (left, right):
        assert np.shares_memory(side.values, s.values)
        assert not side.values.flags.writeable
        with pytest.raises(ValueError):
            side.values[0] = 9.0
    assert np.array_equal(s.values, [0.0, 1.0, 2.0, 2.0, 3.0, 4.0])


def test_split_sides_compute_their_edf_on_first_use():
    # cutoff_test's unrestricted and restricted models read neither side
    s = load_sample(np.random.default_rng(5).normal(size=200))
    for side in split_at_cutoff(s, 0.1)[:2]:
        assert "F" not in vars(side) and "sd" not in vars(side)
        F = side.F
        assert np.array_equal(F, edf_values(side, side.values))
        assert not F.flags.writeable
        assert side.F is F
        with pytest.raises(ValueError):
            side.F[0] = 0.0


def test_split_at_cutoff_empty_side():
    s = load_sample([1.0, 2.0, 3.0, 4.0])
    with pytest.raises(EmptySide):
        split_at_cutoff(s, 0.0)
    with pytest.raises(EmptySide):
        split_at_cutoff(s, 10.0)
