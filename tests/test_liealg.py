import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solitonlab import catalog
from solitonlab.errors import InvalidInput
from solitonlab.liealg import (
    LieAlgebra,
    ad,
    bracket,
    change_basis,
    derivation_defect,
    derivation_space,
    is_derivation,
    jacobi_residual,
    series_flags,
    validate,
)

HEIS3 = LieAlgebra(3, ((0, 1, 2, 1.0),))
SOL3 = LieAlgebra(3, ((0, 2, 0, -1.0), (1, 2, 1, 1.0)))


def test_validate_catalog_algebras():
    for name in catalog.names():
        rep = validate(catalog.get(name).algebra)
        assert rep.passed, name
        assert rep.jacobi_residual <= rep.tol
        assert rep.antisymmetry_residual <= rep.tol


def test_validate_rejects_jacobi_violation():
    # [e1,e2]=e3, [e1,e3]=e1 breaks Jacobi: jac(e1,e2,e3) = [[e1,e2],e3] + ...
    bad = LieAlgebra(3, ((0, 1, 2, 1.0), (0, 2, 0, 1.0)))
    rep = validate(bad)
    assert not rep.passed
    assert rep.jacobi_residual > 1e-6


def test_structure_constants_antisymmetric():
    c = HEIS3.c
    assert np.array_equal(c, -np.transpose(c, (0, 2, 1)))


def test_entries_require_lower_triangle():
    with pytest.raises(InvalidInput):
        LieAlgebra(3, ((1, 0, 2, 1.0),))
    with pytest.raises(InvalidInput):
        LieAlgebra(3, ((0, 0, 2, 1.0),))
    with pytest.raises(InvalidInput):
        LieAlgebra(3, ((0, 1, 3, 1.0),))


@pytest.mark.parametrize("entries", [
    ((0, 1, 2, 1e308),) * 2,                                   # sums to inf
    ((0, 1, 2, np.inf), (0, 1, 2, -np.inf)),                 # sums to NaN
    ((0, 1, 2, 1.0), (0, 2, 1, np.nan)),
])
def test_structure_constants_must_sum_to_finite_values(entries):
    # duplicates of a finite entry used to sum to inf in c unseen
    with pytest.raises(InvalidInput, match="non-finite structure constant in entry"):
        LieAlgebra(3, entries)


def test_bracket_heis3():
    e1, e2, e3 = np.eye(3)
    assert np.allclose(bracket(HEIS3, e1, e2), e3)
    assert np.allclose(bracket(HEIS3, e2, e1), -e3)
    assert np.allclose(bracket(HEIS3, e1, e3), 0)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_bracket_bilinear_antisymmetric(seed):
    rng = np.random.default_rng(seed)
    x, y, z = rng.standard_normal((3, 3))
    a, b = rng.standard_normal(2)
    assert np.allclose(bracket(SOL3, x, y), -bracket(SOL3, y, x))
    assert np.allclose(
        bracket(SOL3, a * x + b * z, y),
        a * bracket(SOL3, x, y) + b * bracket(SOL3, z, y),
    )


def test_ad_matches_bracket():
    rng = np.random.default_rng(0)
    for L in (HEIS3, SOL3):
        x, y = rng.standard_normal((2, 3))
        assert np.allclose(ad(L, x) @ y, bracket(L, x, y))


def test_curvature_constants_match_definitions():
    for name in catalog.names():
        L = catalog.get(name).algebra
        ads = [ad(L, e) for e in np.eye(L.n)]
        assert np.array_equal(L.ad_stack, np.array(ads)), name
        assert np.allclose(L.killing, [[np.trace(x @ y) for y in ads] for x in ads],
                           atol=1e-14), name
        assert np.array_equal(L.trace_form, [np.trace(x) for x in ads]), name
        # the Ricci kernel's constants; tau is the trace form, or None
        # exactly when the trace form is zero
        nn = L.n * L.n
        assert np.array_equal(L._c_rows, L.c.reshape(nn, L.n)), name
        assert np.shares_memory(L._c_rows, L.c), name
        assert np.array_equal(L._neg_half_killing, -0.5 * L.killing), name
        assert np.array_equal(L._gram_coef, [-0.5] * nn + [0.25] * nn), name
        assert L._tau is (L.trace_form if L.trace_form.any() else None), name
        for arr in (L.c, L.ad_stack, L.killing, L.trace_form, L._c_rows,
                    L._neg_half_killing, L._gram_coef):
            assert not arr.flags.writeable


def test_jacobi_residual_zero_on_catalog():
    for name in ("nil3", "nil4", "heis5", "sol3", "hyp_4", "heis3_ext"):
        assert jacobi_residual(catalog.get(name).algebra) < 1e-14


def test_derivation_recognition():
    D = np.diag([1.0, 1.0, 2.0])
    assert np.max(np.abs(derivation_defect(HEIS3, D))) < 1e-14
    assert is_derivation(HEIS3, D) < 1e-14
    bad = np.diag([1.0, 0.0, 0.0])
    assert is_derivation(HEIS3, bad) > 0.5


def test_derivation_defect_of_a_stack_is_the_stack_of_defects():
    L = catalog.get("heis3_ext").algebra
    Ds = np.random.default_rng(2).standard_normal((2, 3, L.n, L.n))
    out = derivation_defect(L, Ds)
    assert out.shape == (2, 3, L.n, L.n, L.n)
    for idx in np.ndindex(2, 3):
        assert np.allclose(out[idx], derivation_defect(L, Ds[idx]), rtol=0, atol=1e-14)


@pytest.mark.parametrize("shape", [(3,), (3, 2), (2, 4, 4), ()])
def test_derivation_defect_refuses_the_wrong_shape(shape):
    with pytest.raises(InvalidInput, match="derivation candidate must be 3x3"):
        derivation_defect(HEIS3, np.ones(shape))


@pytest.mark.parametrize("n", [0, -1, 2.0, "3"])
def test_algebra_refuses_a_dimension_that_is_not_a_positive_integer(n):
    with pytest.raises(InvalidInput, match="dimension must be a positive integer"):
        LieAlgebra(n)


def test_bracket_refuses_vectors_of_the_wrong_length():
    with pytest.raises(InvalidInput, match="vectors must have length 3"):
        bracket(HEIS3, [1.0, 0.0], [0.0, 1.0, 0.0])


@pytest.mark.parametrize("A", [np.eye(2), np.eye(4), np.ones((3, 2))])
def test_change_basis_refuses_a_matrix_of_the_wrong_size(A):
    with pytest.raises(InvalidInput):
        change_basis(HEIS3, A)


def test_derivation_space_heis3():
    # derivations of the Heisenberg algebra form a 6-dimensional space
    basis = derivation_space(HEIS3)
    assert basis.shape[0] == 6
    for B in basis:
        assert is_derivation(HEIS3, B.reshape(3, 3)) < 1e-10


def test_derivation_space_abelian():
    L = LieAlgebra(3)
    assert derivation_space(L).shape[0] == 9  # every linear map


def derivation_system_loops(L):
    """The n^3 x n^2 derivation system, row (i, j, k) and column (p, q), by loops."""
    n, c = L.n, L.c
    M = np.zeros((n ** 3, n * n))
    r = 0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for q in range(n):
                    M[r, k * n + q] += c[q, i, j]
                for p in range(n):
                    M[r, p * n + i] -= c[k, p, j]
                    M[r, p * n + j] -= c[k, i, p]
                r += 1
    return M


@pytest.mark.parametrize("name", catalog.names())
def test_derivation_space_matches_loop_system(name):
    L = catalog.get(name).algebra
    rng = np.random.default_rng(sum(map(ord, name)))
    L = change_basis(L, np.linalg.qr(rng.standard_normal((L.n, L.n)))[0])
    _, s, vt = np.linalg.svd(derivation_system_loops(L))
    ref = vt[s <= 1e-10]
    der = derivation_space(L).reshape(-1, L.n ** 2)
    assert der.shape == ref.shape
    assert np.allclose(der.T @ der, ref.T @ ref, rtol=0, atol=1e-12)


def test_series_flags():
    assert series_flags(HEIS3) == {
        "nilpotent": True, "solvable": True, "unimodular": True}
    assert series_flags(SOL3) == {
        "nilpotent": False, "solvable": True, "unimodular": True}
    hyp = catalog.get("hyp_3").algebra
    assert series_flags(hyp) == {
        "nilpotent": False, "solvable": True, "unimodular": False}
    abelian = LieAlgebra(4)
    flags = series_flags(abelian)
    assert flags["nilpotent"] and flags["solvable"] and flags["unimodular"]


def test_change_basis_preserves_jacobi():
    rng = np.random.default_rng(7)
    for L in (HEIS3, SOL3, catalog.get("nil4").algebra):
        A = rng.standard_normal((L.n, L.n))
        Q, _ = np.linalg.qr(A)
        L2 = change_basis(L, Q)
        assert jacobi_residual(L2) < 1e-12


def test_change_basis_transforms_bracket():
    """New bracket of coordinate vectors is A [A^{-1} x, A^{-1} y]."""
    rng = np.random.default_rng(3)
    A = rng.standard_normal((3, 3)) + 3 * np.eye(3)
    L2 = change_basis(HEIS3, A)
    x, y = rng.standard_normal((2, 3))
    lhs = bracket(L2, x, y)
    rhs = A @ bracket(HEIS3, np.linalg.solve(A, x), np.linalg.solve(A, y))
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_change_basis_rejects_singular():
    with pytest.raises(InvalidInput):
        change_basis(HEIS3, np.zeros((3, 3)))


def test_change_basis_accepts_any_scaling():
    """s I scales the structure constants by 1/s, however small its
    determinant (1e-15 for s = 1e-3 on heis5)."""
    L = catalog.get("heis5").algebra
    for s in (1e-3, 1e3):
        L2 = change_basis(L, s * np.eye(L.n))
        np.testing.assert_allclose(L2.c, L.c / s, rtol=1e-15, atol=0.0)


def test_change_basis_rejects_rank_deficient():
    A = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]])
    for bad in (A, 1e-3 * A, np.array([[1.0, 0, 0], [0, np.nan, 0], [0, 0, 1.0]])):
        with pytest.raises(InvalidInput):
            change_basis(HEIS3, bad)
