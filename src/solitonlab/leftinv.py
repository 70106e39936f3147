"""Left-invariant Riemannian geometry from structure constants.

Everything is computed in a g-orthonormal frame obtained by Gram-Schmidt
on the defining basis in index order (equivalently from the Cholesky
factor of g), where the Koszul formula and the index gymnastics of the
curvature action are simplest.  Curvature components follow the sign
convention

    R(X, Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z,
    R_ijkl   = < R(f_i, f_j) f_l , f_k >,

pinned by requiring the 2D hyperbolic model ([e2,e1] = e1) to have
sectional curvature K = R_1212 = -1.

The flow right-hand side needs only the Ricci form.  ``ricci_kernel``
computes it in the defining basis from a closed formula, without the frame
or ``Rm``: one stacked Gram product on constants built once per algebra,
plus the mean-curvature term only on non-unimodular algebras.  Each public
function validates and factors its metric once.

The operators on symmetric 2-tensors (``sym2``, ``curvature_action``,
``lichnerowicz``, ``lie_derivative_term``) accept leading batch axes, so a
whole stacked basis of tensors is mapped in one call; the Lichnerowicz
Laplacian is a closed form in a few matrix products, not a loop over the
connection matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dtrtri

from .errors import InvalidMetric
from .liealg import SYM_TOL, LieAlgebra, _as_matrix


def _factor(g, n=None) -> tuple[np.ndarray, np.ndarray]:
    """Validate an SPD matrix once: ``(g, C)``, g symmetrized and g = C C^T.

    C is the lower Cholesky factor from one LAPACK ``dpotrf`` call; every
    kernel below takes what it needs of g^{-1} from it.
    """
    g = np.asarray(g, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise InvalidMetric(f"metric must be square, got shape {g.shape}")
    if n is not None and g.shape[0] != n:
        raise InvalidMetric(f"metric must be {n}x{n}, got {g.shape[0]}x{g.shape[0]}")
    if g.size == 0:
        raise InvalidMetric("metric is empty")
    asym = float((g - g.T).max())  # max |g - g^T|: 0 iff finite and symmetric
    if asym:
        amax = float(np.abs(g).max())      # non-finite iff some entry is
        if not math.isfinite(amax):
            raise InvalidMetric("metric has non-finite entries")
        if asym > SYM_TOL * amax:
            raise InvalidMetric("metric is not symmetric")
        g = 0.5 * (g + g.T)
    C, info = dpotrf(g, lower=1)
    if info != 0:
        raise InvalidMetric("metric is not positive definite")
    return g, C


def check_metric(g, n=None) -> np.ndarray:
    """Validate an SPD matrix and return it (symmetrized) as a float array."""
    return _factor(g, n)[0].copy()


def sym2(h, n=None) -> np.ndarray:
    """Validate symmetric 2-tensors (matrices) and return symmetrized copies.

    ``h`` has shape ``(..., n, n)``; each matrix of the stack is checked
    against its own scale, and one non-finite entry refuses the stack.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim < 2 or h.shape[-1] != h.shape[-2]:
        raise InvalidMetric(f"tensor must be square, got shape {h.shape}")
    if n is not None and h.shape[-1] != n:
        raise InvalidMetric(f"tensor must be {n}x{n}")
    if h.shape[-1] == 0:
        raise InvalidMetric("tensor is empty")
    ht = h.swapaxes(-1, -2)
    scale = np.abs(h).max(axis=(-2, -1))
    if not np.isfinite(scale).all():   # a NaN or inf entry gives a non-finite scale
        raise InvalidMetric("tensor has non-finite entries")
    if np.any(np.abs(h - ht).max(axis=(-2, -1)) > SYM_TOL * scale):
        raise InvalidMetric("tensor is not symmetric")
    return 0.5 * (h + ht)


def orthonormal_frame(L: LieAlgebra, g) -> tuple[np.ndarray, np.ndarray]:
    """g-orthonormal frame and the structure constants expressed in it.

    Returns ``(F, c_frame)`` where the columns of F are the frame vectors
    (so ``F.T @ g @ F = I``) and ``c_frame[m, a, b]`` is the f_m-component
    of ``[f_a, f_b]``.  F is upper triangular with positive diagonal: this
    is exactly Gram-Schmidt applied to ``e_1, ..., e_n`` in index order.
    """
    return _frame(L, _factor(g, L.n)[1])


def _frame(L: LieAlgebra, C) -> tuple[np.ndarray, np.ndarray]:
    """``orthonormal_frame`` from the Cholesky factor C of an SPD metric."""
    F = dtrtri(C, lower=1)[0].T        # F = C^{-T}, so F^T g F = I
    u = np.einsum("kij,ia,jb->kab", L.c, F, F)
    c_frame = np.einsum("mk,kab->mab", C.T, u)   # F^{-1} = C^T
    return F, c_frame


@dataclass(frozen=True)
class CurvaturePackage:
    """Connection and curvature of (L, g) in the orthonormal frame.

    Attributes
    ----------
    frame, coframe : (n, n) arrays
        Columns of F are the g-orthonormal frame vectors; the coframe
        F^{-1} = C^T maps the defining basis into the frame.
    c_frame : (n, n, n) array
        Structure constants in the frame.
    gamma : (n, n, n) array
        Connection coefficients ``gamma[k, i, j] = <nabla_{f_i} f_j, f_k>``.
    Rm : (n, n, n, n) array
        Curvature components ``R_ijkl`` in the frame.
    ric_frame, ric : (n, n) arrays
        Ricci bilinear form in the frame / in the defining basis.
    Rc : (n, n) array
        Ricci endomorphism ``g^{-1} ric`` in the defining basis.
    scal : float
        Scalar curvature.
    """

    frame: np.ndarray
    coframe: np.ndarray
    c_frame: np.ndarray
    gamma: np.ndarray
    Rm: np.ndarray
    ric_frame: np.ndarray
    ric: np.ndarray
    Rc: np.ndarray
    scal: float


def curvature(L: LieAlgebra, g) -> CurvaturePackage:
    """Connection, curvature tensor, Ricci and scalar curvature of (L, g).

    The Koszul formula in an orthonormal frame reduces to

        gamma[k, i, j] = (c[k,i,j] - c[i,j,k] + c[j,k,i]) / 2,

    which is metric-compatible (antisymmetric in k <-> j).  The curvature
    is assembled termwise from gamma and the frame brackets; since the
    fields are left-invariant there are no derivative terms.
    """
    g, C = _factor(g, L.n)
    F, ch = _frame(L, C)
    gamma = 0.5 * (ch - np.einsum("ijk->kij", ch) + np.einsum("jki->kij", ch))
    # R(f_i, f_j) f_l = (gamma^p_jl gamma^k_ip - gamma^p_il gamma^k_jp
    #                    - c^p_ij gamma^k_pl) f_k
    Rm = (np.einsum("pjl,kip->ijkl", gamma, gamma)
          - np.einsum("pil,kjp->ijkl", gamma, gamma)
          - np.einsum("pij,kpl->ijkl", ch, gamma))
    ric_frame = np.einsum("ijil->jl", Rm)
    ric_frame = 0.5 * (ric_frame + ric_frame.T)
    ric = C @ ric_frame @ C.T          # F^{-1} = C^T
    ric = 0.5 * (ric + ric.T)
    Rc = F @ (F.T @ ric)               # g^{-1} = F F^T
    scal = float(np.trace(ric_frame))
    return CurvaturePackage(frame=F, coframe=C.T, c_frame=ch, gamma=gamma, Rm=Rm,
                            ric_frame=ric_frame, ric=ric, Rc=Rc, scal=scal)


def ricci_kernel(L: LieAlgebra, g) -> tuple[np.ndarray, np.ndarray]:
    """``(g, r)``: g validated and factored once, and r with ric = (r + r^T)/2.

    For a left-invariant metric with orthonormal basis (f_i), Killing form
    B and mean curvature vector Z (``<Z, X> = tr ad_X``), Besse, *Einstein
    Manifolds*, 7.38 gives

        ric(X, Y) = - 1/2 sum_i <[X, f_i], [Y, f_i]> - 1/2 B(X, Y)
                    + 1/4 sum_ij <[f_i, f_j], X> <[f_i, f_j], Y>
                    - 1/2 (<[Z, X], Y> + <[Z, Y], X>).

    With g = C C^T, F = C^{-T} and P = c F, the frame sums are the Gram
    matrices Y Y^T and W W^T of the balanced products Y[a] = C^T ad_a F and
    W[a] = (g F^T P)[a] = (<[f_i, f_j], e_a>)_ij.  Both are written side by
    side into one (n, 2 n^2) block S, so -1/2 Y Y^T + 1/4 W W^T is the one
    product (S * coef) S^T with the algebra's Gram coefficient row.  The
    mean-curvature term g P F^T tau (ad_Z = -P F^T tau) is added only when
    the trace form tau is nonzero: on a unimodular algebra it is identically
    zero, so skipping it is exact.  Y, W and g P F^T tau do not change under
    g -> t g, so ric(t g) = ric(g) to rounding for t in [1e-200, 1e200].
    """
    g, C = _factor(g, L.n)
    n = L.n
    F = dtrtri(C, lower=1)[0].T
    P = L._c_rows.dot(F).reshape(n, n, n)
    Y = C.T @ P.transpose(1, 0, 2)
    W = g.dot((F.T @ P).reshape(n, -1))
    S = np.concatenate((Y.reshape(n, -1), W), axis=1)
    r = (S * L._gram_coef).dot(S.T)
    r += L._neg_half_killing
    if L._tau is not None:
        r += g.dot(P.dot(L._tau.dot(F)))
    return g, r


def ricci(L: LieAlgebra, g) -> np.ndarray:
    """Ricci form of (L, g) in the defining basis, without forming ``Rm``.

    ``ricci_kernel``'s r, symmetrized; ``curvature().ric`` is the full-``Rm``
    reference.
    """
    r = ricci_kernel(L, g)[1]
    ric = r + r.T                      # r += r.T would copy r.T first
    ric *= 0.5
    return ric


def curvature_action(pkg: CurvaturePackage, h) -> np.ndarray:
    """Action of the curvature tensor on symmetric 2-tensors.

    ``(Rh)_ij = sum_kl R_ikjl h_kl`` with all components in the
    orthonormal frame; ``h`` may carry leading batch axes.  For h = g (the
    identity in the frame) this reduces to the Ricci form, which is used as
    a self-test elsewhere.
    """
    n = pkg.Rm.shape[0]
    h = sym2(h, n)
    # R2[(i, j), (k, l)] = R_ikjl, so Rh is one matmul on the flattened h
    R2 = pkg.Rm.transpose(0, 2, 1, 3).reshape(n * n, n * n)
    out = (h.reshape(*h.shape[:-2], n * n) @ R2.T).reshape(h.shape)
    return 0.5 * (out + out.swapaxes(-1, -2))


def lichnerowicz(L: LieAlgebra, g, h) -> np.ndarray:
    """Lichnerowicz Laplacian on left-invariant symmetric 2-tensors.

    Parameters
    ----------
    h : (..., n, n) array
        Components in the g-orthonormal frame, with optional leading batch
        axes.

    Returns
    -------
    (..., n, n) array
        ``Delta_L h = Delta h + 2 Rh - Rc h - h Rc`` in frame components,
        where ``Delta`` is the rough Laplacian.  On left-invariant tensors
        the covariant derivative along f_i acts as the commutator with the
        (antisymmetric) connection matrix ``G_i[p, q] = gamma[p, i, q]``, so

            Delta h = sum_i [G_i, [G_i, h]] - sum_k (sum_i gamma[k,i,i]) [G_k, h].

        Expanding the commutators with A = sum_i G_i G_i and
        T = sum_k (sum_i gamma[k,i,i]) G_k gives the closed form

            Delta_L h = (A - T - Ric) h + h (A + T - Ric)
                        - 2 sum_i G_i h G_i + 2 Rh.
    """
    return _lichnerowicz(curvature(L, g), h)


def _lichnerowicz(pkg: CurvaturePackage, h) -> np.ndarray:
    """``lichnerowicz`` from the curvature package of a validated metric."""
    h = sym2(h, pkg.Rm.shape[0])
    G = pkg.gamma.transpose(1, 0, 2)
    A = np.einsum("ipq,iqr->pr", G, G)
    T = np.tensordot(np.einsum("kii->k", pkg.gamma), G, axes=1)
    # in the orthonormal frame the Ricci endomorphism equals the Ricci form
    ric = pkg.ric_frame
    out = ((A - T - ric) @ h + h @ (A + T - ric)
           - 2.0 * (G @ h[..., None, :, :] @ G).sum(axis=-3)
           + 2.0 * curvature_action(pkg, h))
    return 0.5 * (out + out.swapaxes(-1, -2))


def lie_derivative_term(h, D) -> np.ndarray:
    """Lie derivative of left-invariant 2-tensors along the field of D.

    The flow of the soliton field acts by automorphisms whose derivative
    at the identity is D, so on left-invariant tensors the Lie derivative
    is the algebraic expression ``D^T h + h D``; ``h`` may carry leading
    batch axes.
    """
    Dm = _as_matrix(D)
    h = np.asarray(h, dtype=float)
    out = Dm.swapaxes(-1, -2) @ h + h @ Dm
    return 0.5 * (out + out.swapaxes(-1, -2))
