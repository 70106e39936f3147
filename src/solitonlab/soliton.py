"""Algebraic soliton equation: solve, verify, and the closed-form flow solution.

An algebraic soliton is a metric whose Ricci endomorphism splits as
``Rc = lambda * id + D`` with D a derivation.  Since ``D := Rc - lambda*id``
satisfies the soliton equation identically, the only freedom is lambda, and
the derivation defect of D is affine in lambda:

    defect(lambda) = defect(Rc) + lambda * c

(the derivation defect of the identity is ``-c``).  The optimal lambda is
therefore the one-parameter linear least-squares minimizer
``lambda* = -<defect(Rc), c> / <c, c>``; for abelian algebras (c = 0) any
lambda works and we report the flat certificate with lambda = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .errors import DomainError, UnsupportedDerivation
from .liealg import (LieAlgebra, _as_matrix, check_tol, derivation_defect, is_derivation,
                     series_flags)
from .leftinv import CurvaturePackage, check_metric, curvature

#: residual threshold for accepting a soliton certificate
TOL_SOL = 1e-10


@dataclass(frozen=True)
class SolitonCertificate:
    """lambda, derivation D, max residual, and classification of a soliton.

    ``classification`` is one of 'Einstein', 'nilsoliton', 'solvsoliton',
    'flat', 'none'.  Non-flat, non-Einstein solitons must be expanding
    (lambda < 0); candidates violating this are classified 'none'.
    """

    lam: float
    D: np.ndarray
    residual: float
    classification: str

    def __post_init__(self):
        D = np.asarray(self.D, dtype=float).copy()
        D.flags.writeable = False
        object.__setattr__(self, "D", D)


@dataclass(frozen=True)
class VerificationReport:
    soliton_residual: float
    derivation_residual: float
    tol: float
    passed: bool


def solve_soliton(L: LieAlgebra, g) -> SolitonCertificate:
    """Best algebraic-soliton certificate for (L, g).

    Computes the Ricci endomorphism, solves the least-squares problem for
    lambda, sets ``D = Rc - lambda*id`` and classifies the result using the
    structural flags of L.  If the derivation residual exceeds ``TOL_SOL``
    the classification is 'none' with the best-effort lambda and D reported.
    """
    pkg = curvature(L, g)
    c = L.c
    c2 = float(np.sum(c * c))
    if c2 == 0.0:
        lam = 0.0
    else:
        lam = -float(np.sum(derivation_defect(L, pkg.Rc) * c)) / c2
    D = pkg.Rc - lam * np.eye(L.n)
    residual = is_derivation(L, D)
    flags = series_flags(L)

    flat = float(np.abs(pkg.Rm).max()) <= TOL_SOL
    einstein = float(np.abs(D).max()) <= TOL_SOL
    if residual > TOL_SOL:
        cls = "none"
    elif flat:
        cls = "flat"
    elif einstein:
        cls = "Einstein"
    elif lam >= -TOL_SOL:
        # non-Einstein solitons on these groups must be expanding
        cls = "none"
    elif flags["nilpotent"]:
        cls = "nilsoliton"
    elif flags["solvable"]:
        cls = "solvsoliton"
    else:
        cls = "none"
    return SolitonCertificate(lam=float(lam), D=D, residual=float(residual),
                              classification=cls)


def verify_soliton(L: LieAlgebra, g, lam, D, tol=TOL_SOL) -> VerificationReport:
    """Recompute both residuals of a supplied (lambda, D) pair.

    Raises ``InvalidInput`` unless ``tol`` is finite and positive.
    """
    check_tol(tol)
    return _verify(L, curvature(L, g), lam, D, tol)


def _verify(L: LieAlgebra, pkg: CurvaturePackage, lam, D, tol) -> VerificationReport:
    """``verify_soliton`` from the curvature package of a validated metric."""
    Dm = _as_matrix(D)
    sol_res = float(np.abs(pkg.Rc - lam * np.eye(L.n) - Dm).max())
    der_res = is_derivation(L, Dm)
    return VerificationReport(soliton_residual=sol_res, derivation_residual=der_res,
                              tol=float(tol), passed=(sol_res <= tol and der_res <= tol))


def exact_unnormalized_solution(g0, cert: SolitonCertificate, t) -> np.ndarray:
    """Closed-form solution of the unnormalized flow  dg/dt = -2 ric(g).

    Starting from a soliton metric g0 the solution is the pullback by the
    positive-definite automorphism

        P(t) = (-2 lambda t + 1) * exp[ log(-2 lambda t + 1) / lambda * D ],

    i.e. ``g(t) = <P(t) . , . >_0 = g0 @ P(t)`` (symmetric because D is
    g0-self-adjoint).  For lambda = 0 this degenerates to exp(-2 t D).
    """
    g0 = check_metric(g0)
    D = np.asarray(cert.D, dtype=float)
    lam = float(cert.lam)
    if np.abs(g0 @ D - D.T @ g0).max() > 1e-10 * max(1.0, np.abs(g0).max(), np.abs(D).max()):
        raise UnsupportedDerivation("D is not self-adjoint with respect to g0")
    s = 1.0 - 2.0 * lam * t
    if s <= 0.0:
        raise DomainError(f"t={t} outside domain: need -2*lambda*t + 1 > 0")
    if lam == 0.0:
        P = expm(-2.0 * t * D)
    else:
        P = s * expm((np.log(s) / lam) * D)
    gt = g0 @ P
    return 0.5 * (gt + gt.T)
