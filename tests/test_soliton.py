import numpy as np
import pytest

from solitonlab import catalog
from solitonlab.errors import DomainError, InvalidInput
from solitonlab.leftinv import curvature
from solitonlab.liealg import LieAlgebra, change_basis, is_derivation, validate
from solitonlab.soliton import (
    exact_unnormalized_solution,
    solve_soliton,
    verify_soliton,
)

from conftest import random_spd

HEIS3 = catalog.get("nil3").algebra


def test_certificates_match_hand_values():
    cases = {
        "nil3": (-1.5, [1.0, 1.0, 2.0], "nilsoliton"),
        "sol3": (-2.0, [2.0, 2.0, 0.0], "solvsoliton"),
        "nil4": (-1.5, [0.5, 1.0, 1.5, 2.0], "nilsoliton"),
        "heis5": (-2.0, [1.5, 1.5, 1.5, 1.5, 3.0], "nilsoliton"),
    }
    for name, (lam, diag, cls) in cases.items():
        e = catalog.get(name)
        cert = solve_soliton(e.algebra, e.metric)
        assert cert.classification == cls
        assert abs(cert.lam - lam) < 1e-12
        assert np.allclose(cert.D, np.diag(diag), atol=1e-12)
        assert cert.residual < 1e-10


def test_einstein_and_flat_certificates():
    for n in range(2, 7):
        e = catalog.get(f"hyp_{n}")
        cert = solve_soliton(e.algebra, e.metric)
        assert cert.classification == "Einstein"
        assert abs(cert.lam + (n - 1)) < 1e-12
        assert np.max(np.abs(cert.D)) < 1e-12
    cert = solve_soliton(LieAlgebra(3), np.eye(3))
    assert cert.classification == "flat" and cert.lam == 0.0


def test_solvsoliton_requires_non_nilpotent():
    assert solve_soliton(catalog.get("sol3").algebra,
                         np.eye(3)).classification == "solvsoliton"
    assert solve_soliton(catalog.get("heis3_ext").algebra,
                         np.eye(4)).classification == "Einstein"


def test_non_soliton_metric_detected():
    # a generic metric on the filiform algebra is not an algebraic soliton
    rng = np.random.default_rng(1)
    L = catalog.get("nil4").algebra
    for _ in range(5):
        cert = solve_soliton(L, random_spd(4, rng, scale=1.0))
        assert cert.classification == "none"


def test_every_heis3_metric_is_a_nilsoliton():
    # the automorphism group acts transitively on metrics mod scaling, so
    # solve_soliton must succeed for arbitrary SPD g (with varying lambda, D)
    rng = np.random.default_rng(1)
    for _ in range(5):
        cert = solve_soliton(HEIS3, random_spd(3, rng, scale=1.0))
        assert cert.classification == "nilsoliton"
        assert cert.residual < 1e-10
        assert cert.lam < 0


def test_verify_pass_and_fail_cases():
    good = verify_soliton(HEIS3, np.eye(3), -1.5, np.diag([1.0, 1.0, 2.0]))
    assert good.passed
    assert good.soliton_residual < 1e-14
    assert good.derivation_residual < 1e-14
    # wrong lambda shifts Rc - lam*id - D by 1/2 in every diagonal slot
    bad = verify_soliton(HEIS3, np.eye(3), -1.0, np.diag([1.0, 1.0, 2.0]))
    assert not bad.passed
    assert abs(bad.soliton_residual - 0.5) < 1e-14


@pytest.mark.parametrize("tol", [-1.0, 0.0, np.nan, np.inf])
def test_verify_refuses_bad_tolerance(tol):
    """Refused as `liealg.validate` refuses it, not reported as a verdict."""
    with pytest.raises(InvalidInput, match="tolerance must be positive"):
        verify_soliton(HEIS3, np.eye(3), -1.5, np.diag([1.0, 1.0, 2.0]), tol=tol)
    with pytest.raises(InvalidInput, match="tolerance must be positive"):
        validate(HEIS3, tol=tol)


def test_lambda_invariant_under_orthogonal_change():
    rng = np.random.default_rng(8)
    for name in ("nil3", "nil4", "sol3", "heis5"):
        e = catalog.get(name)
        cert = solve_soliton(e.algebra, e.metric)
        Q, _ = np.linalg.qr(rng.standard_normal((e.algebra.n,) * 2))
        L2 = change_basis(e.algebra, Q)
        g2 = Q @ np.asarray(e.metric) @ Q.T
        cert2 = solve_soliton(L2, g2)
        assert abs(cert.lam - cert2.lam) < 1e-9
        # D conjugates accordingly: eigenvalues must agree
        assert np.allclose(np.sort(np.linalg.eigvals(cert.D).real),
                           np.sort(np.linalg.eigvals(cert2.D).real),
                           atol=1e-9)


def test_nilsoliton_derivation_spd():
    for name in ("nil3", "nil4", "heis5"):
        e = catalog.get(name)
        cert = solve_soliton(e.algebra, e.metric)
        D = np.asarray(cert.D)
        assert np.allclose(D, D.T, atol=1e-12)
        assert np.linalg.eigvalsh(D).min() > 0
        assert is_derivation(e.algebra, D) < 1e-10


def test_non_einstein_solitons_expand(soliton_entries):
    for e in soliton_entries:
        cert = solve_soliton(e.algebra, e.metric)
        assert cert.lam < 0


def test_exact_solution_nil3_closed_form():
    e = catalog.get("nil3")
    cert = solve_soliton(e.algebra, e.metric)
    for t in (0.0, 0.3, 1.0, 5.0):
        got = exact_unnormalized_solution(np.eye(3), cert, t)
        s = 3.0 * t + 1.0
        want = np.diag([s ** (1 / 3), s ** (1 / 3), s ** (-1 / 3)])
        assert np.allclose(got, want, atol=1e-13), t


def test_exact_solution_einstein_scaling():
    e = catalog.get("hyp_3")
    cert = solve_soliton(e.algebra, e.metric)
    got = exact_unnormalized_solution(np.eye(3), cert, 0.25)
    assert np.allclose(got, 2.0 * np.eye(3), atol=1e-14)   # (4t+1) g0


def test_exact_solution_domain():
    e = catalog.get("hyp_3")
    cert = solve_soliton(e.algebra, e.metric)   # lam = -2, valid for t > -1/4
    with pytest.raises(DomainError):
        exact_unnormalized_solution(np.eye(3), cert, -0.3)


def test_exact_solution_satisfies_flow(soliton_entries):
    """Centered difference of the closed form solves dg/dt = -2 ric(g)."""
    dt = 1e-4
    for e in soliton_entries:
        cert = solve_soliton(e.algebra, e.metric)
        g0 = np.asarray(e.metric)
        for t in (0.0, 0.5, 1.0):
            gp = exact_unnormalized_solution(g0, cert, t + dt)
            gm = exact_unnormalized_solution(g0, cert, max(t - dt, 0.0))
            span = (t + dt) - max(t - dt, 0.0)
            gdot = (gp - gm) / span
            gt = exact_unnormalized_solution(g0, cert, t if t > 0 else dt / 2)
            ric = curvature(e.algebra, gt).ric
            assert np.max(np.abs(gdot + 2.0 * ric)) < 1e-6, (e.name, t)
