import ast
from pathlib import Path

import numpy as np
import pytest

from solitonlab import catalog, stability
from solitonlab.flow import flow_field
from solitonlab.leftinv import curvature, lichnerowicz, orthonormal_frame
from solitonlab.liealg import TOL_RANK, change_basis, derivation_space
from solitonlab.errors import InvalidInput
from solitonlab.soliton import SolitonCertificate, solve_soliton
from solitonlab.stability import (
    GAUGE_RESIDUAL_TOL,
    assemble_operator,
    classify,
    gauge_subspace,
    ode_jacobian,
    stability_operator,
    sym_tensor_basis,
    unvec_sym,
    vec_sym,
)

from conftest import random_spd

# classification, sharp quadratic-form bound on the gauge complement, and
# decaying spectral abscissa of the ODE jacobian -- frozen after the
# assembled operator matched the loop-built Lichnerowicz oracle
EXPECTED = {
    "nil3":      ("strict", -3.0,  -1.0),
    "sol3":      ("strict", -4.0,  -2.0),
    "nil4":      ("strict", -2.5,  -0.5),
    "heis5":     ("strict", -2.0,  -1.5),
    "hyp_3":     ("strict", -4.0,  -4.0),
    "hyp_6":     ("strict", -10.0, -10.0),
    "heis3_ext": ("strict", -2.25, -2.25),
}


def report_for(name):
    e = catalog.get(name)
    cert = solve_soliton(e.algebra, e.metric)
    return e, cert, stability_operator(e.algebra, e.metric, cert)


def test_sym_basis_orthonormal_roundtrip():
    rng = np.random.default_rng(0)
    for n in (2, 3, 5):
        basis = sym_tensor_basis(n)
        assert len(basis) == n * (n + 1) // 2
        G = np.array([[np.sum(a * b) for b in basis] for a in basis])
        assert np.allclose(G, np.eye(len(basis)), atol=1e-14)
        A = rng.standard_normal((n, n))
        h = 0.5 * (A + A.T)
        assert np.allclose(unvec_sym(vec_sym(h, basis), basis), h, atol=1e-14)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_frozen_stability_table(name):
    _, _, rep = report_for(name)
    cls, quad, absc = EXPECTED[name]
    assert rep.classification == cls
    assert abs(rep.quad_bound - quad) < 1e-8
    assert abs(rep.jac_decay_abscissa - absc) < 1e-6
    assert rep.epsilon > 0


def test_abelian_is_weak_with_zero_operator():
    for n in (2, 3, 7):
        _, _, rep = report_for(f"abelian_{n}")
        assert rep.classification == "weak"
        assert np.max(np.abs(rep.lmat)) < 1e-12
        assert np.max(np.abs(rep.jac)) < 1e-9


def test_neutral_modes_are_pure_gauge():
    """Zero eigenvalues of sym(Lmat) lie in the derivation gauge span."""
    for name in sorted(EXPECTED):
        _, _, rep = report_for(name)
        assert 0 < rep.neutral_dim <= rep.gauge_dim
        assert rep.neutral_gauge_residual < 1e-8
        assert rep.complement_bound < -1e-3


def test_rayleigh_consistency():
    """No unit tensor beats the raw symmetric-part bound."""
    rng = np.random.default_rng(31)
    for name in ("nil3", "sol3", "heis5", "hyp_4"):
        e, cert, rep = report_for(name)
        m = rep.lmat.shape[0]
        sym_part = 0.5 * (rep.lmat + rep.lmat.T)
        for _ in range(100):
            v = rng.standard_normal(m)
            v /= np.linalg.norm(v)
            assert v @ sym_part @ v <= rep.quad_bound_raw + 1e-9


def test_operator_matrix_is_lichnerowicz_assembly():
    for name in ("nil3", "sol3", "hyp_3"):
        e, cert, rep = report_for(name)
        assert np.allclose(rep.lmat, assemble_operator(e.algebra, e.metric, cert),
                           atol=1e-13)


def test_spectrum_invariant_under_orthogonal_change():
    rng = np.random.default_rng(77)
    for name in ("nil3", "nil4", "sol3"):
        e = catalog.get(name)
        n = e.algebra.n
        cert = solve_soliton(e.algebra, e.metric)
        rep = stability_operator(e.algebra, e.metric, cert)
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        L2 = change_basis(e.algebra, Q)
        g2 = Q @ np.asarray(e.metric) @ Q.T
        cert2 = solve_soliton(L2, g2)
        rep2 = stability_operator(L2, g2, cert2)
        s1 = np.sort_complex(rep.spectrum)
        s2 = np.sort_complex(rep2.spectrum)
        assert np.max(np.abs(s1 - s2)) < 1e-8


def test_einstein_metrics_have_eigenvalue_two_lambda():
    for name in ("hyp_2", "hyp_4", "hyp_6", "heis3_ext"):
        e, cert, rep = report_for(name)
        gap = np.min(np.abs(rep.spectrum - 2.0 * cert.lam))
        assert gap < 1e-9, name


def test_gauge_subspace_shapes_and_orthogonality():
    e = catalog.get("nil3")
    Q, C = gauge_subspace(e.algebra, e.metric)
    m = 6
    assert Q.shape[0] == m and C.shape[0] == m
    assert Q.shape[1] + C.shape[1] == m
    assert np.allclose(Q.T @ Q, np.eye(Q.shape[1]), atol=1e-12)
    assert np.max(np.abs(Q.T @ C)) < 1e-12


def test_stability_operator_refuses_a_certificate_that_does_not_verify():
    e = catalog.get("sol3")
    cert = solve_soliton(e.algebra, e.metric)
    wrong = SolitonCertificate(cert.lam + 1.0, cert.D, cert.residual, cert.classification)
    with pytest.raises(InvalidInput, match="does not verify"):
        stability_operator(e.algebra, e.metric, wrong)


def test_neutral_modes_without_gauge_directions_stay_weak(monkeypatch):
    """With no gauge directions no neutral mode is certified gauge: each lies
    its whole unit norm off the empty gauge span, and the verdict is the raw,
    neutral bound."""
    e = catalog.get("abelian_3")
    cert = solve_soliton(e.algebra, e.metric)
    monkeypatch.setattr(stability, "derivation_space", lambda L: np.zeros((0, L.n, L.n)))
    rep = stability_operator(e.algebra, e.metric, cert)
    assert rep.gauge_dim == 0 and rep.neutral_dim == 6
    assert rep.neutral_gauge_residual > GAUGE_RESIDUAL_TOL
    assert rep.quad_bound == rep.quad_bound_raw
    assert rep.classification == "weak"


def test_ode_jacobian_linearizes_rhs():
    from solitonlab.leftinv import orthonormal_frame

    e = catalog.get("sol3")
    cert = solve_soliton(e.algebra, e.metric)
    J = ode_jacobian(e.algebra, e.metric, cert)
    basis = sym_tensor_basis(3)
    F, _ = orthonormal_frame(e.algebra, np.asarray(e.metric))
    rng = np.random.default_rng(4)
    A = rng.standard_normal((3, 3))
    h = 0.5 * (A + A.T)
    pred = unvec_sym(J @ vec_sym(F.T @ h @ F, basis), basis)
    errs = []
    for s in (1e-2, 5e-3):
        g0 = np.asarray(e.metric)
        rhs = flow_field(e.algebra, cert)
        diff = (rhs(g0 + s * h) - rhs(g0 - s * h)) / (2 * s)
        errs.append(np.linalg.norm(F.T @ diff @ F - pred))
    assert 3.5 <= errs[0] / errs[1] <= 4.5


def test_classify_thresholds():
    _, _, rep = report_for("nil3")
    assert classify(rep) == "strict"
    weak = type(rep)(**{**rep.__dict__, "quad_bound": 0.0})
    assert classify(weak) == "weak"
    bad = type(rep)(**{**rep.__dict__, "quad_bound": 0.3})
    assert classify(bad) == "unstable"


# ------------------------------------------------ loop-built reference assembly
#
# The operator assembly by loops: a list basis, one Lichnerowicz evaluation
# per basis tensor with explicit loops over the connection matrices, and the
# frame inverted with np.linalg.inv.  The stacked contractions of the package
# must agree with it.

def sym_basis_list(n):
    basis = []
    for i in range(n):
        E = np.zeros((n, n))
        E[i, i] = 1.0
        basis.append(E)
    for i in range(n):
        for j in range(i + 1, n):
            E = np.zeros((n, n))
            E[i, j] = E[j, i] = 1.0 / np.sqrt(2.0)
            basis.append(E)
    return basis


def vec_sym_loops(h, basis):
    return np.array([float(np.sum(h * E)) for E in basis])


def lichnerowicz_loops(pkg, h):
    n = h.shape[0]
    G = np.einsum("piq->ipq", pkg.gamma)
    rough = np.zeros_like(h)
    for i in range(n):
        Th = G[i] @ h - h @ G[i]
        rough += G[i] @ Th - Th @ G[i]
    trace_gamma = np.einsum("kii->k", pkg.gamma)
    for k in range(n):
        rough -= trace_gamma[k] * (G[k] @ h - h @ G[k])
    Rh = np.einsum("ikjl,kl->ij", pkg.Rm, h)
    ric = pkg.ric_frame
    out = rough + (Rh + Rh.T) - ric @ h - h @ ric
    return 0.5 * (out + out.T)


def assemble_operator_loops(L, g0, cert):
    pkg = curvature(L, g0)
    F = pkg.frame
    Dhat = np.linalg.inv(F) @ np.asarray(cert.D) @ F
    basis = sym_basis_list(L.n)
    cols = []
    for E in basis:
        img = lichnerowicz_loops(pkg, E) + 2.0 * cert.lam * E + Dhat.T @ E + E @ Dhat
        cols.append(vec_sym_loops(img, basis))
    return np.array(cols).T


def gauge_projector_loops(L, g0):
    F, _ = orthonormal_frame(L, g0)
    Finv = np.linalg.inv(F)
    basis = sym_basis_list(L.n)
    ders = derivation_space(L)
    if ders.shape[0] == 0:
        return np.zeros((len(basis), len(basis)))
    cols = []
    for B in ders:
        Bhat = Finv @ B @ F
        cols.append(vec_sym_loops(Bhat.T + Bhat, basis))
    U, s, _ = np.linalg.svd(np.array(cols).T)
    Q = U[:, :int(np.sum(s > TOL_RANK))]
    return Q @ Q.T


def own_and_rotated(name):
    e = catalog.get(name)
    L, g = e.algebra, np.asarray(e.metric)
    rng = np.random.default_rng(sum(map(ord, name)))
    Q, R = np.linalg.qr(rng.standard_normal((L.n, L.n)))
    Q = Q * np.sign(np.diag(R))
    return [(L, g), (change_basis(L, Q), Q @ g @ Q.T)]


@pytest.mark.parametrize("name", catalog.names())
def test_stacked_assembly_matches_loop_oracle(name):
    for L, g0 in own_and_rotated(name):
        cert = solve_soliton(L, g0)
        ref = assemble_operator_loops(L, g0, cert)
        lmat = assemble_operator(L, g0, cert)
        assert np.linalg.norm(lmat - ref) <= 1e-13 * max(1.0, np.linalg.norm(ref))
        Q, C = gauge_subspace(L, g0)
        assert np.max(np.abs(Q @ Q.T - gauge_projector_loops(L, g0))) <= 1e-12
        assert np.max(np.abs(C @ C.T + Q @ Q.T - np.eye(C.shape[0]))) <= 1e-12
        # the trace-of-gamma term vanishes at every catalog soliton, so the
        # Lichnerowicz closed form is also checked away from them
        g = random_spd(L.n, np.random.default_rng(L.n))
        pkg = curvature(L, g)
        E = sym_tensor_basis(L.n)
        ref = np.array([lichnerowicz_loops(pkg, h) for h in E])
        out = lichnerowicz(L, g, E)
        assert np.linalg.norm(out - ref) <= 1e-13 * max(1.0, np.linalg.norm(ref))


def test_sym_basis_matches_list_basis():
    for n in (1, 2, 4):
        assert np.array_equal(sym_tensor_basis(n), np.array(sym_basis_list(n)))


def test_vec_sym_accepts_batch_axes():
    rng = np.random.default_rng(5)
    basis = sym_tensor_basis(3)
    A = rng.standard_normal((2, 4, 3, 3))
    h = A + A.swapaxes(-1, -2)
    v = vec_sym(h, basis)
    assert v.shape == (2, 4, 6)
    assert np.allclose(v[1, 2], vec_sym_loops(h[1, 2], basis), atol=1e-14)
    assert np.allclose(unvec_sym(v, basis), h, atol=1e-14)


def test_stability_operator_computes_curvature_once(monkeypatch):
    import sys

    from solitonlab import leftinv

    e = catalog.get("heis5")
    cert = solve_soliton(e.algebra, e.metric)
    calls = []
    real = leftinv.curvature

    def counting(L, g):
        calls.append(1)
        return real(L, g)

    # every module that bound the name, so no call path escapes the count
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("solitonlab") \
                and getattr(mod, "curvature", None) is real:
            monkeypatch.setattr(mod, "curvature", counting)
    stability_operator(e.algebra, e.metric, cert)
    assert len(calls) == 1


# ------------------------------------------ finite-difference reference Jacobian

def jacobian_central_differences(L, g0, cert):
    """Central differences of the normalized flow field along the frame basis tensors.

    Step 1e-6 relative to |g0|_F, so each entry is off by O(step^2) plus
    rounding over the step: about 1e-9 on the catalog.
    """
    F, _ = orthonormal_frame(L, g0)
    Finv = F.T @ g0
    E = sym_tensor_basis(L.n)
    dgs = Finv.T @ E @ Finv   # defining-basis tensors with frame components E
    s = 1e-6 * max(1.0, float(np.linalg.norm(g0)))
    rhs = flow_field(L, cert)
    diff = np.array([rhs(g0 + s * dg) - rhs(g0 - s * dg) for dg in dgs]) / (2.0 * s)
    return vec_sym(F.T @ diff @ F, E).T


@pytest.mark.parametrize("name", catalog.names())
def test_jacobian_is_operator_plus_gauge(name):
    """J - L is the Lie derivative of g0 along a field: it lies in the gauge span."""
    for L, g0 in own_and_rotated(name):
        rep = stability_operator(L, g0, solve_soliton(L, g0))
        Q, _ = gauge_subspace(L, g0)
        diff = rep.jac - rep.lmat
        resid = np.linalg.norm(diff - Q @ (Q.T @ diff), axis=0).max()
        assert resid <= 1e-12, (name, resid)


@pytest.mark.parametrize("name", catalog.names())
def test_jacobian_matches_central_differences(name):
    for L, g0 in own_and_rotated(name):
        cert = solve_soliton(L, g0)
        ref = jacobian_central_differences(L, g0, cert)
        assert np.max(np.abs(ode_jacobian(L, g0, cert) - ref)) <= 1e-8, name


def test_stability_imports_nothing_from_flow():
    tree = ast.parse(Path(stability.__file__).read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            mods = [node.module or ""] + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            mods = [a.name for a in node.names]
        else:
            continue
        if any(m.split(".")[-1] == "flow" for m in mods):
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
    assert not found, found
