"""Kernel families, bases, region classification, quadrature moments."""

import numpy as np
import pytest

from oracles import gamma_bruteforce_triangles, monomial_moment_uniform

from lpdens.errors import DegenerateRegion
from lpdens.kernels import (
    BasisKind,
    EvalRegion,
    basis_dim,
    basis_matrix,
    basis_powers,
    classify_region,
    kernel_value,
    moments,
    selector,
    selector_index,
)
from lpdens.lpfit import fit_local
from lpdens.sample import load_sample

INTERIOR = EvalRegion(a=-1.0, b=1.0, kind="interior", c=0.0)


def test_kernel_values():
    assert kernel_value("triangular", 0.0) == 1.0
    assert kernel_value("uniform", 0.5) == 0.5
    assert kernel_value("epanechnikov", 1.5) == 0.0
    assert kernel_value("epanechnikov", 0.0) == 0.75
    assert kernel_value("triangular", np.array([-2.0, 2.0])).sum() == 0.0


def test_kernel_integrates_to_one():
    u = np.linspace(-1, 1, 200001)
    for fam in ("triangular", "epanechnikov", "uniform"):
        assert np.trapezoid(kernel_value(fam, u), u) == pytest.approx(1.0, abs=1e-8)


def test_kernel_unknown_family():
    with pytest.raises(ValueError):
        kernel_value("gaussian", 0.0)


def test_basis_dims_and_powers():
    assert basis_dim(2, BasisKind.STANDARD) == 3
    assert basis_dim(2, BasisKind.UNRESTRICTED) == 6
    assert basis_dim(2, BasisKind.RESTRICTED) == 4
    assert np.array_equal(basis_powers(3, BasisKind.STANDARD), [0, 1, 2, 3])
    assert np.array_equal(basis_powers(1, BasisKind.UNRESTRICTED), [0, 1, 0, 1])
    assert np.array_equal(basis_powers(3, BasisKind.RESTRICTED), [0, 1, 1, 2, 3])


def test_restricted_basis_needs_order_one():
    # the restricted basis always carries u*1{u<0} and u*1{u>=0} columns
    with pytest.raises(ValueError):
        basis_dim(0, BasisKind.RESTRICTED)
    s = load_sample(np.linspace(-1.0, 1.0, 200))
    with pytest.raises(ValueError):
        fit_local(s, 0.0, 0.5, 0, basis=BasisKind.RESTRICTED)


def test_unrestricted_basis_ties_to_right():
    row = basis_matrix(np.array([0.0]), 1, BasisKind.UNRESTRICTED)[0]
    # u=0 belongs to the right block
    assert np.array_equal(row, [0.0, 0.0, 1.0, 0.0])


def test_restricted_basis_shape():
    rows = basis_matrix(np.array([-0.5, 0.5]), 2, BasisKind.RESTRICTED)
    assert np.allclose(rows[0], [1.0, -0.5, 0.0, 0.25])
    assert np.allclose(rows[1], [1.0, 0.0, 0.5, 0.25])


def test_selector_indices():
    assert selector_index(2, BasisKind.STANDARD, 1) == 1
    assert selector_index(2, BasisKind.UNRESTRICTED, 1, "left") == 1
    assert selector_index(2, BasisKind.UNRESTRICTED, 1, "right") == 4
    assert selector_index(2, BasisKind.RESTRICTED, 0) == 0
    assert selector_index(2, BasisKind.RESTRICTED, 1, "left") == 1
    assert selector_index(2, BasisKind.RESTRICTED, 1, "right") == 2
    assert selector_index(3, BasisKind.RESTRICTED, 2) == 3
    with pytest.raises(ValueError):
        selector_index(2, BasisKind.UNRESTRICTED, 1)
    # selector is the one-hot e_v on the same column, in every basis
    for basis, v, side, idx in [
        (BasisKind.STANDARD, 0, None, 0),
        (BasisKind.STANDARD, 2, None, 2),
        (BasisKind.UNRESTRICTED, 1, "left", 1),
        (BasisKind.UNRESTRICTED, 1, "right", 4),
        (BasisKind.RESTRICTED, 0, None, 0),
        (BasisKind.RESTRICTED, 1, "left", 1),
        (BasisKind.RESTRICTED, 1, "right", 2),
        (BasisKind.RESTRICTED, 2, "right", 3),
    ]:
        assert np.array_equal(selector(2, basis, v, side), np.eye(basis_dim(2, basis))[idx])
    with pytest.raises(ValueError):
        selector(2, BasisKind.RESTRICTED, 1)
    for basis in BasisKind:
        with pytest.raises(ValueError):
            selector(2, basis, 3, "left")
        with pytest.raises(ValueError):
            selector(2, basis, -1, "left")


def test_classify_region_cases():
    r = classify_region(0.5, 0.2, 0.0, 1.0)
    assert r.is_interior and r.a == -1.0 and r.b == 1.0

    r = classify_region(0.1, 0.4, 0.0, 1.0)
    assert r.kind == "lower_boundary" and r.a == pytest.approx(-0.25) and r.c == pytest.approx(0.25)

    r = classify_region(0.9, 0.4, 0.0, 1.0)
    assert r.kind == "upper_boundary" and r.b == pytest.approx(0.25) and r.c == pytest.approx(0.25)


def test_classify_region_degenerate():
    with pytest.raises(DegenerateRegion):
        classify_region(0.5, 5.0, 0.0, 1.0)  # truncated both sides
    with pytest.raises(DegenerateRegion):
        # window collapses onto a hairline support
        classify_region(0.5, 1.0, 0.5 - 1e-10, 0.5 + 1e-10)


def test_moments_uniform_interior_closed_form():
    # S = [[1,0,1/3],[0,1/3,0],[1/3,0,1/5]], c = (0,1/5,0)
    mom = moments("uniform", INTERIOR, 2)
    expect_S = np.array([[1, 0, 1 / 3], [0, 1 / 3, 0], [1 / 3, 0, 1 / 5]])
    assert np.allclose(mom.S, expect_S, atol=1e-12)
    assert np.allclose(mom.c, [0.0, 0.2, 0.0], atol=1e-12)


def test_moments_uniform_lower_boundary_closed_form():
    # a=0, b=1: S = [[1/2,1/4],[1/4,1/6]], c = (1/6, 1/8)
    reg = EvalRegion(a=0.0, b=1.0, kind="lower_boundary", c=0.0)
    mom = moments("uniform", reg, 1)
    assert np.allclose(mom.S, [[0.5, 0.25], [0.25, 1 / 6]], atol=1e-12)
    assert np.allclose(mom.c, [1 / 6, 0.125], atol=1e-12)


def test_moments_uniform_gamma_p1_closed_form():
    mom = moments("uniform", INTERIOR, 1)
    assert np.allclose(mom.Gamma, [[-1 / 3, 1 / 6], [1 / 6, 1 / 15]], atol=1e-12)


@pytest.mark.parametrize("fam", ["triangular", "epanechnikov", "uniform"])
def test_moments_S_odd_entries_vanish_interior(fam):
    mom = moments(fam, INTERIOR, 3)
    for j in range(4):
        for k in range(4):
            if (j + k) % 2 == 1:
                assert abs(mom.S[j, k]) < 1e-12
    assert mom.S[0, 0] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("fam,region", [
    pytest.param(fam, region, id=fam + suffix)
    for region, suffix in (
        (INTERIOR, ""),
        (EvalRegion(a=-0.3, b=1.0, kind="lower_boundary", c=0.3), "-lower_boundary"),
    )
    for fam in ("triangular", "epanechnikov", "uniform")
])
def test_gamma_against_dense_triangle_bruteforce(fam, region):
    # high-resolution grid so the oracle error is negligible
    mom = moments(fam, region, 2)
    brute = gamma_bruteforce_triangles(fam, 2, n_grid=2000, a=region.a, b=region.b)
    # oracle discretization error is O(n_grid^-2) ~ 1e-7 at this resolution
    assert np.max(np.abs(mom.Gamma - brute)) < 2e-7
    assert np.allclose(mom.Gamma, mom.Gamma.T, atol=1e-14)


def test_moments_truncated_uniform_closed_form():
    reg = EvalRegion(a=-0.3, b=1.0, kind="lower_boundary", c=0.3)
    mom = moments("uniform", reg, 3)
    for j in range(4):
        for k in range(4):
            assert mom.S[j, k] == pytest.approx(
                monomial_moment_uniform(j + k, -0.3, 1.0), abs=1e-12
            )
        assert mom.c[j] == pytest.approx(monomial_moment_uniform(j + 4, -0.3, 1.0), abs=1e-12)
        assert mom.c_tilde[j] == pytest.approx(monomial_moment_uniform(j + 5, -0.3, 1.0), abs=1e-12)


def test_tmat_uniform_interior():
    # Tmat = int r r' K^2 = S/2 for the uniform kernel
    mom = moments("uniform", INTERIOR, 2)
    assert np.allclose(mom.Tmat, mom.S / 2.0, atol=1e-12)


def test_cached_moments_are_read_only():
    # the cached arrays are shared by every later call (and by run_design's
    # threads), so an in-place edit must raise instead of poisoning the cache
    mom = moments("triangular", INTERIOR, 2)
    S = mom.S.copy()
    for name in ("S", "c", "c_tilde", "Gamma", "Tmat"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(mom, name)[...] *= 2
    assert np.array_equal(moments("triangular", INTERIOR, 2).S, S)
