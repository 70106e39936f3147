"""Curvature of left-invariant metrics, checked against index-loop oracles.

The production code assembles everything with einsum contractions; every
formula here is re-derived with explicit Python loops so that a silently
permuted index in the fast path cannot survive.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solitonlab import catalog
from solitonlab.errors import InvalidInput, InvalidMetric
from solitonlab.flow import flow_field, rhs_unnormalized
from solitonlab.leftinv import (
    _lichnerowicz,
    check_metric,
    curvature,
    curvature_action,
    lichnerowicz,
    lie_derivative_term,
    orthonormal_frame,
    ricci,
    sym2,
)
from solitonlab.liealg import LieAlgebra, change_basis
from solitonlab.soliton import solve_soliton

from conftest import random_spd


def frame_constants_loops(L, g):
    """Structure constants of a g-orthonormal frame, by loops."""
    C = np.linalg.cholesky(g)
    F = np.linalg.inv(C).T          # columns are the frame vectors
    n = L.n
    ch = np.zeros((n, n, n))
    for a in range(n):
        for b in range(n):
            v = np.einsum("kij,i,j->k", L.c, F[:, a], F[:, b])
            ch[:, a, b] = C.T @ v   # back to frame coordinates
    return ch


def koszul_loops(ch):
    n = ch.shape[0]
    gamma = np.zeros((n, n, n))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                gamma[k, i, j] = 0.5 * (ch[k, i, j] - ch[i, j, k] + ch[j, k, i])
    return gamma


def riemann_loops(ch, gamma):
    """<R(f_i, f_j) f_l, f_k> from the Koszul connection, by loops."""
    n = ch.shape[0]
    Rm = np.zeros((n, n, n, n))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    s = 0.0
                    for p in range(n):
                        s += (gamma[p, j, l] * gamma[k, i, p]
                              - gamma[p, i, l] * gamma[k, j, p]
                              - ch[p, i, j] * gamma[k, p, l])
                    Rm[i, j, k, l] = s
    return Rm


@pytest.mark.parametrize("name", ["nil3", "nil4", "heis5", "sol3", "hyp_3",
                                  "heis3_ext"])
def test_curvature_pipeline_matches_loop_oracle(name):
    entry = catalog.get(name)
    L = entry.algebra
    rng = np.random.default_rng(hash(name) % 2 ** 31)
    for g in (np.asarray(entry.metric), random_spd(L.n, rng)):
        pkg = curvature(L, g)
        ch = frame_constants_loops(L, g)
        gamma = koszul_loops(ch)
        Rm = riemann_loops(ch, gamma)
        assert np.allclose(pkg.c_frame, ch, atol=1e-12)
        assert np.allclose(pkg.gamma, gamma, atol=1e-12)
        assert np.allclose(pkg.Rm, Rm, atol=1e-11)


def test_nil3_curvature_closed_form():
    # Heisenberg with the flat metric: Rc = diag(-1/2, -1/2, 1/2), scal = -1/2
    entry = catalog.get("nil3")
    pkg = curvature(entry.algebra, np.eye(3))
    assert np.allclose(pkg.Rc, np.diag([-0.5, -0.5, 0.5]), atol=1e-14)
    assert np.allclose(pkg.ric, np.diag([-0.5, -0.5, 0.5]), atol=1e-14)
    assert abs(pkg.scal + 0.5) < 1e-14


def test_sol3_curvature_closed_form():
    pkg = curvature(catalog.get("sol3").algebra, np.eye(3))
    assert np.allclose(pkg.ric, np.diag([0.0, 0.0, -2.0]), atol=1e-14)
    assert abs(pkg.scal + 2.0) < 1e-14


def test_hyperbolic_space_forms():
    # hyp_n is the hyperbolic space of curvature -1: ric = -(n-1) g
    pkg2 = curvature(catalog.get("hyp_2").algebra, np.eye(2))
    assert abs(pkg2.Rm[0, 1, 0, 1] + 1.0) < 1e-14
    for n in range(2, 7):
        pkg = curvature(catalog.get(f"hyp_{n}").algebra, np.eye(n))
        assert np.allclose(pkg.ric, -(n - 1) * np.eye(n), atol=1e-13)


def test_abelian_is_flat():
    for n in (2, 5, 8):
        pkg = curvature(LieAlgebra(n), np.eye(n))
        assert np.max(np.abs(pkg.Rm)) < 1e-15


def test_orthonormal_frame_property():
    rng = np.random.default_rng(12)
    for name in ("nil4", "sol3", "heis3_ext"):
        L = catalog.get(name).algebra
        g = random_spd(L.n, rng)
        F, ch = orthonormal_frame(L, g)
        assert np.allclose(F.T @ g @ F, np.eye(L.n), atol=1e-13)
        # frame constants stay antisymmetric in the lower pair
        assert np.allclose(ch, -np.transpose(ch, (0, 2, 1)), atol=1e-13)


def test_scal_invariant_under_orthogonal_change():
    rng = np.random.default_rng(5)
    L = catalog.get("nil4").algebra
    g = random_spd(4, rng)
    Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    L2 = change_basis(L, Q)
    g2 = Q @ g @ Q.T    # metric in the basis ebar_i = Q^{-1} e_i
    assert abs(curvature(L, g).scal - curvature(L2, g2).scal) < 1e-10


def test_curvature_action_loop_oracle():
    rng = np.random.default_rng(42)
    L = catalog.get("heis5").algebra
    g = random_spd(5, rng)
    pkg = curvature(L, g)
    A = rng.standard_normal((5, 5))
    h = sym2(0.5 * (A + A.T))
    out = curvature_action(pkg, h)
    n = 5
    ref = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    ref[i, j] += pkg.Rm[i, k, j, l] * h[k, l]
    assert np.allclose(out, ref, atol=1e-12)


def test_lichnerowicz_of_metric_vanishes():
    """Delta_L g = 0: the defining identity, exact in the frame."""
    rng = np.random.default_rng(2)
    for name in ("nil3", "sol3", "nil4", "hyp_4", "heis3_ext", "abelian_3"):
        L = catalog.get(name).algebra
        for _ in range(10):
            g = random_spd(L.n, rng)
            F, _ = orthonormal_frame(L, g)
            out = lichnerowicz(L, g, np.eye(L.n))   # g in frame components
            assert np.max(np.abs(out)) < 1e-10, name


def test_lichnerowicz_linear_and_symmetric_valued():
    rng = np.random.default_rng(9)
    L = catalog.get("sol3").algebra
    g = random_spd(3, rng)
    h1 = 0.5 * (lambda A: A + A.T)(rng.standard_normal((3, 3)))
    h2 = 0.5 * (lambda A: A + A.T)(rng.standard_normal((3, 3)))
    a, b = 0.7, -1.3
    lhs = lichnerowicz(L, g, a * h1 + b * h2)
    rhs = a * lichnerowicz(L, g, h1) + b * lichnerowicz(L, g, h2)
    assert np.allclose(lhs, rhs, atol=1e-12)
    assert np.allclose(lhs, lhs.T, atol=1e-12)


@pytest.mark.parametrize("name", ["nil4", "sol3", "heis5", "hyp_4", "heis3_ext"])
def test_symmetric_tensor_ops_accept_batch_axes(name):
    """A (k, n, n) stack through one call equals k single calls."""
    rng = np.random.default_rng(sum(map(ord, name)))
    L = catalog.get(name).algebra
    g = random_spd(L.n, rng)
    pkg = curvature(L, g)
    A = rng.standard_normal((7, L.n, L.n))
    hs = A + A.swapaxes(-1, -2)
    D = rng.standard_normal((L.n, L.n))
    for op in (lambda h: lichnerowicz(L, g, h),
               lambda h: curvature_action(pkg, h),
               lambda h: lie_derivative_term(h, D),
               sym2):
        stacked = op(hs)
        assert stacked.shape == hs.shape
        for h, out in zip(hs, stacked):
            assert np.allclose(out, op(h), rtol=0, atol=1e-13)
        assert np.allclose(op(hs.reshape(7, 1, L.n, L.n))[:, 0], stacked,
                           rtol=0, atol=1e-13)
    assert np.allclose(lichnerowicz(L, g, hs), _lichnerowicz(pkg, hs),
                       rtol=0, atol=1e-13)


def test_sym2_checks_each_tensor_of_a_stack():
    h = np.stack([np.eye(3), np.array([[1.0, 0.1, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])])
    with pytest.raises(InvalidMetric, match="not symmetric"):
        sym2(h)
    with pytest.raises(InvalidMetric, match="must be square"):
        sym2(np.ones(3))
    with pytest.raises(InvalidMetric, match="must be 4x4"):
        sym2(np.stack([np.eye(3)] * 2), n=4)


@pytest.mark.parametrize("s", [1e-8, 1.0, 1e8])
def test_symmetry_check_is_scale_free(s):
    """A relative asymmetry of 1e-10 is refused and one at rounding level is
    accepted, whatever the scale of the matrix."""
    with pytest.raises(InvalidMetric, match="not symmetric"):
        check_metric(s * np.array([[2.0, 1e-10], [0.0, 1.0]]))
    with pytest.raises(InvalidMetric, match="not symmetric"):
        sym2(s * np.array([[2.0, 1e-10], [0.0, 1.0]]))
    g = np.array([[2.0, 0.3], [np.nextafter(0.3, 1.0), 1.0]])
    assert g[0, 1] != g[1, 0]
    for out in (check_metric(s * g), sym2(s * g)):
        assert np.array_equal(out, out.T)
        assert np.allclose(out, s * g, rtol=1e-15, atol=0)


def test_sym2_accepts_zero_tensor():
    assert np.array_equal(sym2(np.zeros((2, 3, 3))), np.zeros((2, 3, 3)))


def test_sym2_refuses_non_finite_tensors():
    """A NaN or inf entry is refused, not passed on as symmetric: the
    comparison against a non-finite scale is False."""
    for h in ([[1.0, np.nan], [np.nan, 1.0]], [[1.0, np.inf], [0.0, 1.0]],
              [[1.0, np.inf], [np.inf, 1.0]], [[-np.inf, 0.0], [0.0, 1.0]]):
        with pytest.raises(InvalidMetric, match="non-finite"):
            sym2(h)
    hs = np.stack([np.eye(3)] * 4)
    hs[2, 1, 1] = np.nan
    with pytest.raises(InvalidMetric, match="non-finite"):
        sym2(hs)
    L = catalog.get("sol3").algebra
    pkg = curvature(L, np.eye(3))
    for op in (lambda h: curvature_action(pkg, h),
               lambda h: lichnerowicz(L, np.eye(3), h)):
        with pytest.raises(InvalidMetric, match="non-finite"):
            op(hs)


def test_lie_derivative_term():
    D = np.diag([1.0, 2.0, 3.0])
    h = np.array([[2.0, 1.0, 0.0], [1.0, 4.0, -1.0], [0.0, -1.0, 6.0]])
    out = lie_derivative_term(h, D)
    assert np.allclose(out, D.T @ h + h @ D)


@pytest.mark.parametrize("shape", [(0, 0), (2, 0, 0)])
def test_empty_input_raises_invalid_metric(shape):
    with pytest.raises(InvalidMetric):
        check_metric(np.zeros(shape))
    with pytest.raises(InvalidMetric):
        sym2(np.zeros(shape))


def test_check_metric_returns_a_fresh_symmetric_copy():
    g = np.diag([1.0, 2.0, 3.0])
    out = check_metric(g)
    assert out is not g and not np.shares_memory(out, g)
    assert np.array_equal(out, g)
    g[0, 1] = 1e-16          # within tolerance: symmetrized
    out = check_metric(g)
    assert np.array_equal(out, out.T) and out[0, 1] == 0.5e-16


def test_check_metric_rejects_bad_input():
    with pytest.raises(InvalidInput):
        check_metric(np.diag([1.0, -1.0]))
    with pytest.raises(InvalidInput):
        check_metric(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(InvalidInput):
        check_metric(np.eye(3), 4)


def random_orthogonal(n, rng):
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


def assert_rel_close(a, b, tol):
    assert np.linalg.norm(a - b) <= tol * np.linalg.norm(b)


@pytest.mark.parametrize("name", catalog.names())
def test_ricci_matches_full_curvature(name):
    """The Ricci-only kernel against ``curvature().ric`` (built from Rm)."""
    L = catalog.get(name).algebra
    rng = np.random.default_rng(sum(map(ord, name)))
    for Lb in (L, change_basis(L, random_orthogonal(L.n, rng))):
        for g in [np.asarray(catalog.get(name).metric)] + [
                random_spd(L.n, rng, scale=s) for s in (0.4, 2.0, 10.0)]:
            ric = ricci(Lb, g)
            assert np.array_equal(ric, ric.T)
            assert_rel_close(ric, curvature(Lb, g).ric, 1e-13)


_names = st.sampled_from([n for n in catalog.names() if not n.startswith("abelian")])
_seeds = st.integers(0, 2 ** 32 - 1)


@settings(max_examples=30, deadline=None)
@given(_names, _seeds, st.floats(1e-3, 1e3))
def test_ricci_invariant_under_metric_scaling(name, seed, a):
    L = catalog.get(name).algebra
    g = random_spd(L.n, np.random.default_rng(seed))
    assert_rel_close(ricci(L, a * g), ricci(L, g), 1e-12)


@pytest.mark.parametrize("name", [n for n in catalog.names()
                                  if not n.startswith("abelian")])
def test_ricci_exact_under_extreme_metric_scaling(name):
    """ric(t g) = ric(g) where g^{-1} or t^2-sized products would under- or overflow."""
    L = catalog.get(name).algebra
    rng = np.random.default_rng(sum(map(ord, name)))
    for g in (np.asarray(catalog.get(name).metric, dtype=float),
              random_spd(L.n, rng)):
        ref = ricci(L, g)
        for t in (1e-200, 1e-150, 1e150, 1e200):
            assert_rel_close(ricci(L, t * g), ref, 1e-13)


@settings(max_examples=30, deadline=None)
@given(_names, _seeds, st.floats(1e-3, 1e3))
def test_ricci_quadratic_in_structure_constants(name, seed, s):
    L = catalog.get(name).algebra
    Ls = LieAlgebra(L.n, tuple((i, j, k, s * v) for i, j, k, v in L.entries))
    g = random_spd(L.n, np.random.default_rng(seed))
    assert_rel_close(ricci(Ls, g), s ** 2 * ricci(L, g), 1e-12)


@settings(max_examples=30, deadline=None)
@given(_names, _seeds)
def test_ricci_covariant_under_orthogonal_change(name, seed):
    rng = np.random.default_rng(seed)
    L = catalog.get(name).algebra
    g = random_spd(L.n, rng)
    Q = random_orthogonal(L.n, rng)
    # in the basis ebar_i = Q^{-1} e_i both g and ric become Q (.) Q^T
    assert_rel_close(ricci(change_basis(L, Q), Q @ g @ Q.T),
                     Q @ ricci(L, g) @ Q.T, 1e-12)


@pytest.mark.parametrize("g, msg", [
    (np.array([[1.0, np.nan, 0.0], [np.nan, 1.0, 0.0], [0.0, 0.0, 1.0]]),
     "non-finite"),
    (np.array([[1.0, 0.1, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
     "not symmetric"),
    (np.diag([1.0, -1.0, 1.0]), "not positive definite"),
    (np.diag([1.0, 0.0, 1.0]), "not positive definite"),
    (np.eye(4), "must be 3x3"),
    (np.ones(3), "must be square"),
])
def test_ricci_rejects_invalid_metric(g, msg):
    # the Ricci form and both flow fields validate g by the same rules
    e = catalog.get("nil3")
    cert = solve_soliton(e.algebra, e.metric)
    for entry in (lambda g: ricci(e.algebra, g),
                  lambda g: rhs_unnormalized(e.algebra, g),
                  flow_field(e.algebra), flow_field(e.algebra, cert)):
        with pytest.raises(InvalidMetric, match=msg):
            entry(g)
