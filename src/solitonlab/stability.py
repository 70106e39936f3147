"""Linearized operator L = Delta_L + 2 lambda + Lie_X on left-invariant tensors.

The operator is assembled in an orthonormal basis of symmetric 2-tensors
(components in the g0-orthonormal frame) and its quadratic form classified.

A structural fact drives the shape of the report: the left-invariant block
always contains *exact* neutral directions.  Conjugating g0 by automorphisms
of the algebra produces a manifold of isometric solitons, so tensors of the
form ``B^T g0 + g0 B`` with B a derivation (frame components ``Bhat^T +
Bhat``) are, at best, neutrally stable, and numerically they exhaust the
kernel of the symmetric part of L for every catalog entry.  The verdict is
therefore computed on the orthogonal complement of this gauge subspace
whenever the raw bound is neutral and every neutral eigenvector is certified
to lie inside the gauge span; the raw bound is always reported alongside.
The same applies to the Jacobian of the reduced normalized-flow ODE, whose
neutral modes span the tangent space of the fixed-point manifold (gauge by
automorphisms commuting with D); the rate predictor for flow experiments is
the spectral abscissa of its decaying part.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .liealg import LieAlgebra, _rank, derivation_space
from .leftinv import CurvaturePackage, _lichnerowicz, curvature, lie_derivative_term
from .soliton import SolitonCertificate, _check_cert, _verify

#: classification threshold for the quadratic-form bound
TOL_SPEC = 1e-9
#: eigenvalues of the ODE Jacobian within this of zero count as neutral
TOL_NEUTRAL = 1e-6
#: a neutral eigenvector must project onto the gauge span within this residual
GAUGE_RESIDUAL_TOL = 1e-8


def sym_tensor_basis(n: int) -> np.ndarray:
    """Orthonormal basis of symmetric n x n matrices w.r.t. <A,B> = sum A_ij B_ij.

    An ``(m, n, n)`` stack, m = n(n+1)/2: diagonal units E_ii first, then
    (E_ij + E_ji)/sqrt(2) for i < j in lexicographic order.
    """
    iu, ju = np.triu_indices(n, 1)
    rows = np.concatenate([np.arange(n), iu])
    cols = np.concatenate([np.arange(n), ju])
    k = np.arange(rows.size)
    vals = np.where(rows == cols, 1.0, 1.0 / np.sqrt(2.0))
    basis = np.zeros((rows.size, n, n))
    basis[k, rows, cols] = vals
    basis[k, cols, rows] = vals
    return basis


def vec_sym(h: np.ndarray, basis) -> np.ndarray:
    """Coordinates ``<h, E_k>`` of (..., n, n) tensors in ``basis``: shape (..., m)."""
    return np.tensordot(h, basis, axes=([-2, -1], [-2, -1]))


def unvec_sym(v: np.ndarray, basis) -> np.ndarray:
    """Tensors ``sum_k v_k E_k`` from (..., m) coordinates: shape (..., n, n)."""
    return np.tensordot(v, basis, axes=1)


@dataclass(frozen=True)
class StabilityReport:
    """Spectrum and verdict of L on the left-invariant block.

    ``quad_bound`` drives the classification: it is the largest eigenvalue
    of the symmetric part of ``lmat`` restricted to the orthogonal
    complement of the derivation-gauge subspace when the raw bound is
    neutral (and the neutral directions are certified gauge), otherwise the
    raw bound itself.  ``quad_bound_raw`` is the unrestricted bound;
    ``epsilon = -quad_bound`` when negative.  ``jac`` is the Jacobian of
    the reduced normalized flow in the same basis (``ode_jacobian``);
    ``jac_decay_abscissa`` is its ``decay_abscissa`` (the predictor of
    nonlinear decay rates).  ``classification`` thresholds ``quad_bound``
    (``classify``).
    ``jac`` is non-normal with clustered eigenvalues, so rounding-level
    changes in it move ``jac_spectrum`` by up to ~1e-10: digits past that
    depend on the BLAS and the basis and are not reproducible.
    """

    lmat: np.ndarray
    spectrum: np.ndarray
    quad_bound: float
    quad_bound_raw: float
    epsilon: float
    gauge_dim: int
    neutral_dim: int
    neutral_gauge_residual: float
    complement_bound: float | None
    jac: np.ndarray
    jac_spectrum: np.ndarray
    jac_decay_abscissa: float | None
    jac_neutral_dim: int

    @property
    def classification(self) -> str:
        return classify(self)


def decay_abscissa(spectrum) -> float | None:
    """Largest real part among the eigenvalues below ``-TOL_NEUTRAL`` (None if none)."""
    re = np.asarray(spectrum).real
    decaying = re[re < -TOL_NEUTRAL]
    return float(decaying.max()) if decaying.size else None


def gauge_subspace(L: LieAlgebra, g0) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases (Q, C) of the gauge span and its complement.

    The gauge span is {sym frame components of B^T g0 + g0 B : B in Der(L)},
    the tangent directions of conjugating g0 by automorphisms.  Columns of Q
    span it; columns of C span the orthogonal complement inside the
    m-dimensional coordinate space of ``sym_tensor_basis``.
    """
    return _gauge(L, curvature(L, g0))


def _gauge(L: LieAlgebra, pkg: CurvaturePackage) -> tuple[np.ndarray, np.ndarray]:
    """``gauge_subspace`` from the curvature package of a validated g0."""
    Bhat = pkg.coframe @ derivation_space(L) @ pkg.frame
    A = vec_sym(Bhat + Bhat.swapaxes(-1, -2), sym_tensor_basis(L.n)).T
    U, s, _ = np.linalg.svd(A)
    rank = _rank(s)
    return U[:, :rank], U[:, rank:]


def assemble_operator(L: LieAlgebra, g0, cert: SolitonCertificate) -> np.ndarray:
    """Matrix of L h = Delta_L h + 2 lambda h + D^T h + h D on the block.

    Columns are images of the orthonormal symmetric-tensor basis, all
    components in the g0-orthonormal frame (D is conjugated into the frame).
    """
    _check_cert(cert, L.n)
    return _assemble(curvature(L, g0), cert)


def _assemble(pkg: CurvaturePackage, cert: SolitonCertificate) -> np.ndarray:
    """``assemble_operator`` from the curvature package of a validated g0."""
    Dhat = pkg.coframe @ cert.D @ pkg.frame
    E = sym_tensor_basis(cert.D.shape[0])
    img = (_lichnerowicz(pkg, E) + 2.0 * cert.lam * E
           + lie_derivative_term(E, Dhat))
    return vec_sym(img, E).T


def ode_jacobian(L: LieAlgebra, g0, cert: SolitonCertificate) -> np.ndarray:
    """Jacobian of the reduced normalized flow at g0, exact from the operator L.

    By Besse, *Einstein Manifolds*, 1.174, -2 ric'(h) = Delta_L h + 2
    delta^* delta h + nabla d tr h (Delta_L signed as in ``lichnerowicz``).
    On left-invariant h the trace is constant and 2 delta^* xi = Lie_{xi#} g0,
    so J h = L h + Lie_{(delta h)#} g0, in the tensor basis of the operator.
    """
    _check_cert(cert, L.n)
    pkg = curvature(L, g0)
    return _jacobian(pkg, _assemble(pkg, cert))


def _jacobian(pkg: CurvaturePackage, lmat) -> np.ndarray:
    """``ode_jacobian`` from the curvature package and the assembled ``lmat``.

    In the frame, (delta h)_k = -sum_i [G_i, h]_ik with the connection
    matrices G_i = gamma[:, i, :] (``lichnerowicz``), and a left-invariant
    field V acts on g0 by Lie_V g0 = -(A + A^T), A = sum_k V_k c_frame[:, k, :].
    """
    E = sym_tensor_basis(pkg.frame.shape[0])
    G = pkg.gamma.transpose(1, 0, 2)
    V = -np.einsum("miik->mk", G @ E[:, None] - E[:, None] @ G)
    A = np.einsum("mk,akb->mab", V, pkg.c_frame)
    return lmat - vec_sym(A + A.swapaxes(-1, -2), E).T


def stability_operator(L: LieAlgebra, g0, cert: SolitonCertificate) -> StabilityReport:
    """Assemble L, classify the quadratic form, and attach the ODE Jacobian.

    The certificate is re-verified first (the operator is only meaningful
    at a soliton).  See the module docstring for how neutral gauge modes
    are handled in the verdict.
    """
    _check_cert(cert, L.n)
    pkg = curvature(L, g0)   # the report's one reading of g0
    ver = _verify(L, pkg, cert.lam, cert.D, tol=1e-8)
    if not ver.passed:
        raise InvalidInput(
            "certificate does not verify at (L, g0): residuals "
            f"{ver.soliton_residual:.2e}, {ver.derivation_residual:.2e}")

    lmat = _assemble(pkg, cert)
    spectrum = np.linalg.eigvals(lmat)
    sym = 0.5 * (lmat + lmat.T)
    w, V = np.linalg.eigh(sym)
    quad_raw = float(w.max())

    Q, C = _gauge(L, pkg)
    # the neutral unit eigenvectors' distance from the gauge span, 1 when it is empty
    vecs = V[:, np.abs(w) <= TOL_SPEC]
    resid = float(np.linalg.norm(vecs - Q @ (Q.T @ vecs), axis=0).max(initial=0.0))

    complement_bound = None
    if C.shape[1] > 0:
        complement_bound = float(np.linalg.eigvalsh(C.T @ sym @ C).max())

    # a neutral raw bound is itself a neutral eigenvalue; when every neutral
    # direction is gauge, the verdict is read on the complement
    quad_bound = quad_raw
    if abs(quad_raw) <= TOL_SPEC and resid <= GAUGE_RESIDUAL_TOL and complement_bound is not None:
        quad_bound = complement_bound
    epsilon = -quad_bound if quad_bound < 0 else 0.0

    jac = _jacobian(pkg, lmat)
    jac_spectrum = np.linalg.eigvals(jac)
    return StabilityReport(
        lmat=lmat,
        spectrum=spectrum,
        quad_bound=float(quad_bound),
        quad_bound_raw=quad_raw,
        epsilon=float(epsilon),
        gauge_dim=int(Q.shape[1]),
        neutral_dim=int(vecs.shape[1]),
        neutral_gauge_residual=resid,
        complement_bound=complement_bound,
        jac=jac,
        jac_spectrum=jac_spectrum,
        jac_decay_abscissa=decay_abscissa(jac_spectrum),
        jac_neutral_dim=int(np.sum(np.abs(jac_spectrum.real) <= TOL_NEUTRAL)),
    )


def classify(report: StabilityReport) -> str:
    """Threshold a report's quad_bound at ``TOL_SPEC``: the one strict/weak/unstable rule."""
    if report.quad_bound < -TOL_SPEC:
        return "strict"
    if report.quad_bound > TOL_SPEC:
        return "unstable"
    return "weak"
