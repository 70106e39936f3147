import numpy as np
import pytest

from solitonlab import catalog, flow, stability
from solitonlab.errors import DomainError, InvalidInput, UnsupportedDerivation
from solitonlab.leftinv import curvature
from solitonlab.liealg import LieAlgebra, change_basis, is_derivation, validate
from solitonlab.soliton import (
    SolitonCertificate,
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


def test_non_expanding_soliton_is_classified_none():
    # su(2) + R, [e1,e2] = e3, [e2,e3] = e1, [e3,e1] = e2, round metric:
    # Rc = diag(1/2, 1/2, 1/2, 0) = 1/2 id + D with D = diag(0, 0, 0, -1/2) a
    # derivation: an exact soliton, but not expanding (lambda > 0), so 'none'
    L = LieAlgebra(4, ((0, 1, 2, 1.0), (1, 2, 0, 1.0), (0, 2, 1, -1.0)))
    cert = solve_soliton(L, np.eye(4))
    assert abs(cert.lam - 0.5) < 1e-12
    assert np.allclose(cert.D, np.diag([0.0, 0.0, 0.0, -0.5]), rtol=0, atol=1e-12)
    assert cert.residual < 1e-12
    assert cert.classification == "none"
    assert verify_soliton(L, np.eye(4), cert.lam, cert.D).passed


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


def test_exact_solution_refuses_a_derivation_not_self_adjoint():
    """g0 @ P(t) is a metric only when D is g0-self-adjoint."""
    D = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
    cert = SolitonCertificate(-1.5, D, 0.0, "none")
    with pytest.raises(UnsupportedDerivation, match="not self-adjoint"):
        exact_unnormalized_solution(np.eye(3), cert, 0.5)


def test_exact_solution_domain():
    e = catalog.get("hyp_3")
    cert = solve_soliton(e.algebra, e.metric)   # lam = -2, valid for t > -1/4
    with pytest.raises(DomainError, match=r"^t=-0\.3 outside domain"):
        exact_unnormalized_solution(np.eye(3), cert, -0.3)
    # an array of times: the message names the first one out of the domain
    with pytest.raises(DomainError, match=r"^t=-0\.25 outside domain"):
        exact_unnormalized_solution(np.eye(3), cert, [0.0, 0.5, -0.25, -0.4, 1.0])


@pytest.mark.parametrize("name", ["nil3", "sol3", "abelian_3"])
def test_exact_solution_on_an_array_of_times_is_the_stack_of_scalar_calls(name):
    """One call on a trajectory's step times gives each scalar call's bits,
    for lambda != 0 (nil3, sol3) and lambda = 0 (abelian_3), in the
    defining basis and in a skewed one (dense g0 and D)."""
    e = catalog.get(name)
    Q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((3, 3)))
    Ainv = np.linalg.inv(Q * [1.0, 1.5, 0.7])
    for L, g0 in ((e.algebra, np.asarray(e.metric)),
                  (change_basis(e.algebra, Q * [1.0, 1.5, 0.7]), Ainv.T @ Ainv)):
        cert = solve_soliton(L, g0)
        times = flow.integrate(flow.flow_field(L), g0, 2.0).times
        assert len(times) > 5
        got = exact_unnormalized_solution(g0, cert, times)
        want = np.stack([exact_unnormalized_solution(g0, cert, t) for t in times])
        assert got.shape == (len(times), 3, 3)
        assert np.array_equal(got, want), name
        assert exact_unnormalized_solution(g0, cert, times[3]).shape == (3, 3)
        assert exact_unnormalized_solution(g0, cert, times.reshape(-1, 1)).shape == (
            len(times), 1, 3, 3)


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


# --------------------------------------------------------- certificate checks

@pytest.mark.parametrize("lam, D, msg", [
    (np.nan, np.eye(3), "lambda must be finite"),
    (np.inf, np.eye(3), "lambda must be finite"),
    (-1.0, np.diag([1.0, np.nan, 1.0]), "finite 3x3 matrix"),
    (-1.0, np.diag([1.0, -np.inf]), "finite 2x2 matrix"),
    (-1.0, np.ones((3, 4)), "square matrix, got shape"),
    (-1.0, np.ones(3), "square matrix, got shape"),
    (-1.0, np.ones((2, 3, 3)), "square matrix, got shape"),
])
def test_certificate_refuses_non_finite_or_non_square_data(lam, D, msg):
    # before, each was accepted and failed later inside numpy, or gave NaNs
    with pytest.raises(InvalidInput, match=msg):
        SolitonCertificate(lam, D, 0.0, "none")


#: every function that takes a certificate, called as f(L, g0, cert)
CONSUMERS = {
    "ode_jacobian": stability.ode_jacobian,
    "assemble_operator": stability.assemble_operator,
    "stability_operator": stability.stability_operator,
    "predicted_rate": flow.predicted_rate,
    "convergence_experiment": flow.convergence_experiment,
    "flow_field": lambda L, g0, cert: flow.flow_field(L, cert),
    "exact_unnormalized_solution":
        lambda L, g0, cert: exact_unnormalized_solution(g0, cert, 0.1),
}


@pytest.mark.parametrize("consumer", sorted(CONSUMERS))
def test_consumers_refuse_a_certificate_of_another_dimension(consumer):
    # a 4x4 D on nil3 raised numpy's ValueError (a matmul or broadcast
    # mismatch) in every consumer but flow_field
    cert = SolitonCertificate(-1.0, np.eye(4), 0.0, "none")
    with pytest.raises(InvalidInput, match="certificate derivation must be a finite 3x3"):
        CONSUMERS[consumer](HEIS3, np.eye(3), cert)
