"""Finite-dimensional real Lie algebras given by structure constants.

A Lie algebra is stored as its dimension together with the sparse list of
bracket entries ``[e_i, e_j] = sum_k c^k_ij e_k`` for ``i < j``; the dense
``c[k, i, j]`` tensor (antisymmetric in ``i, j``) and the per-algebra
constants of the curvature formulas (ad stack, Killing form, trace form,
and the Ricci kernel's row view of c, -B/2, Gram coefficients and tau)
are built once, when the algebra is constructed.
All algebraic identities are checked in double precision against absolute
tolerances: the inputs of interest are O(1) rationals.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput

#: absolute tolerance for algebraic identities (Jacobi, derivation, ...)
TOL_ALG = 1e-12
#: singular-value threshold for numerical rank / null-space computations
TOL_RANK = 1e-10
#: symmetry tolerance for metrics and symmetric 2-tensors, relative to max|entry|
SYM_TOL = 1e-14


@dataclass(frozen=True)
class LieAlgebra:
    """Lie algebra of dimension ``n`` with sparse structure constants.

    Parameters
    ----------
    n : int
        Dimension (number of basis vectors ``e_1, ..., e_n``; indices are
        0-based internally, 1-based in file formats).
    entries : tuple
        Bracket entries ``(i, j, k, value)`` with ``i < j``, meaning the
        ``e_k`` coefficient of ``[e_i, e_j]`` is ``value``.  Antisymmetry
        is enforced by the storage convention.
    """

    n: int
    entries: tuple = ()
    _dense: np.ndarray = field(init=False, repr=False, compare=False)
    _ad: np.ndarray = field(init=False, repr=False, compare=False)
    _killing: np.ndarray = field(init=False, repr=False, compare=False)
    _trace_form: np.ndarray = field(init=False, repr=False, compare=False)
    # constants of ``leftinv.ricci_kernel``: c as (n^2, n) rows, -B/2, the
    # Gram coefficient row (-1/2 on the Y half, 1/4 on the W half) and the
    # trace form, or None when it is exactly zero
    _c_rows: np.ndarray = field(init=False, repr=False, compare=False)
    _neg_half_killing: np.ndarray = field(init=False, repr=False, compare=False)
    _gram_coef: np.ndarray = field(init=False, repr=False, compare=False)
    _tau: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n <= 0:
            raise InvalidInput(f"dimension must be a positive integer, got {self.n!r}")
        raw, norm = tuple(self.entries), []
        for ent in raw:
            i, j, k, val = ent
            i, j, k = int(i), int(j), int(k)
            val = float(val)
            if not (0 <= i < self.n and 0 <= j < self.n and 0 <= k < self.n):
                raise InvalidInput(f"bracket entry {ent!r} out of range for n={self.n}")
            if i >= j:
                raise InvalidInput(f"bracket entry {ent!r} must have i < j")
            norm.append((i, j, k, val))
        object.__setattr__(self, "entries", tuple(norm))
        c = np.zeros((self.n, self.n, self.n))
        # checked once summed, since finite duplicates can overflow
        with np.errstate(over="ignore", invalid="ignore"):
            for i, j, k, val in norm:
                c[k, i, j] += val
                c[k, j, i] -= val
        if not np.isfinite(c).all():
            ent = next(ent for ent, (i, j, k, _) in zip(raw, norm)
                       if not np.isfinite(c[k, i, j]))
            raise InvalidInput(f"non-finite structure constant in entry {ent!r}")
        ad = np.ascontiguousarray(np.transpose(c, (1, 0, 2)))
        killing = np.einsum("aij,bji->ab", ad, ad)
        trace_form = np.einsum("kik->i", c)
        nn = self.n * self.n
        for name, arr in (("_dense", c), ("_ad", ad), ("_killing", killing),
                          ("_trace_form", trace_form), ("_c_rows", c.reshape(nn, self.n)),
                          ("_neg_half_killing", -0.5 * killing),
                          ("_gram_coef", np.repeat((-0.5, 0.25), nn))):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "_tau", trace_form if trace_form.any() else None)

    @property
    def c(self) -> np.ndarray:
        """Dense structure constants, ``c[k, i, j]`` = e_k-component of [e_i, e_j]."""
        return self._dense

    @property
    def ad_stack(self) -> np.ndarray:
        """``ad_stack[a]`` is the matrix of ad_{e_a}: ``ad_stack[a, k, j] = c[k, a, j]``."""
        return self._ad

    @property
    def killing(self) -> np.ndarray:
        """Killing form ``B[a, b] = tr(ad_{e_a} ad_{e_b})``."""
        return self._killing

    @property
    def trace_form(self) -> np.ndarray:
        """``trace_form[a] = tr ad_{e_a}``; zero iff the algebra is unimodular."""
        return self._trace_form

    def __repr__(self):
        return f"LieAlgebra(n={self.n}, entries={self.entries})"


def _as_matrix(D) -> np.ndarray:
    a = np.asarray(D, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInput(f"expected a square matrix, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class ValidationReport:
    jacobi_residual: float
    antisymmetry_residual: float
    passed: bool
    tol: float = TOL_ALG


def jacobi_residual(L: LieAlgebra) -> float:
    """Max-norm of the Jacobi tensor [[e_i,e_j],e_k] + cyclic."""
    c = L.c
    # [[e_i, e_j], e_k]^l = c^m_ij c^l_mk
    t = np.einsum("mij,lmk->lijk", c, c)
    jac = t + np.einsum("lijk->ljki", t) + np.einsum("lijk->lkij", t)
    return float(np.abs(jac).max()) if L.n > 1 else 0.0


def check_tol(tol) -> None:
    """Raise ``InvalidInput`` unless ``tol`` is finite and positive."""
    if not (np.isfinite(tol) and tol > 0):
        raise InvalidInput(f"tolerance must be positive, got {tol}")


def check_seed(seed) -> None:
    """Raise ``InvalidInput`` unless ``seed`` is a non-negative integer."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise InvalidInput(f"seed must be a non-negative integer, got {seed!r}")


def validate(L: LieAlgebra, tol: float = TOL_ALG) -> ValidationReport:
    """Check antisymmetry and the Jacobi identity to ``tol``.

    Antisymmetry is enforced by the sparse storage, so its residual is
    computed from the dense expansion as a consistency check only.
    """
    check_tol(tol)
    c = L.c
    anti = float(np.abs(c + np.swapaxes(c, 1, 2)).max())
    jac = jacobi_residual(L)
    return ValidationReport(jac, anti, passed=(jac <= tol and anti <= tol), tol=tol)


def bracket(L: LieAlgebra, x, y) -> np.ndarray:
    """Lie bracket ``[x, y]^k = c^k_ij x^i y^j`` of coordinate vectors."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (L.n,) or y.shape != (L.n,):
        raise InvalidInput(f"vectors must have length {L.n}, got {x.shape} and {y.shape}")
    return np.einsum("kij,i,j->k", L.c, x, y)


def ad(L: LieAlgebra, x) -> np.ndarray:
    """Adjoint map ad_x = [x, .] as a matrix."""
    x = np.asarray(x, dtype=float)
    return np.einsum("kij,i->kj", L.c, x)


def derivation_defect(L: LieAlgebra, D) -> np.ndarray:
    """Tensor D[e_i,e_j] - [De_i,e_j] - [e_i,De_j], indexed ``[..., k, i, j]``.

    Each matrix of a ``(..., n, n)`` stack D gives its own tensor."""
    Dm = np.asarray(D, dtype=float)
    n, c = L.n, L.c
    if Dm.shape[-2:] != (n, n):
        raise InvalidInput(f"derivation candidate must be {n}x{n}, got shape {Dm.shape}")
    Dx = Dm[..., None, :, :]       # broadcast against the k axis of c
    return ((Dm @ c.reshape(n, n * n)).reshape(*Dm.shape[:-2], n, n, n)
            - Dx.swapaxes(-1, -2) @ c
            - c @ Dx)


def is_derivation(L: LieAlgebra, D) -> float:
    """Max-norm residual of the derivation identity; 0 iff D is a derivation."""
    return float(np.abs(derivation_defect(L, D)).max())


def _rank(s) -> int:
    """Numerical rank from descending singular values ``s``: the one rank cut."""
    return int(np.sum(s > TOL_RANK))


def derivation_space(L: LieAlgebra) -> np.ndarray:
    """Basis of Der(L) as an array of shape ``(dim Der, n, n)``.

    The defects of the n^2 unit matrices are the columns of the n^3 x n^2
    constraint system, rows ordered (i, j, k); Der(L) is its null space,
    read from the SVD at the ``_rank`` cut.
    """
    n = L.n
    units = np.eye(n * n).reshape(n * n, n, n)
    M = derivation_defect(L, units).transpose(2, 3, 1, 0).reshape(n ** 3, n * n)
    # M has n^3 >= n^2 rows, so the thin SVD still returns all n^2 singular values
    _, s, vt = np.linalg.svd(M, full_matrices=False)
    return vt[_rank(s):].reshape(-1, n, n)


def series_flags(L: LieAlgebra) -> dict:
    """Nilpotency / solvability / unimodularity flags.

    Lower central and derived series are computed by iterated spans of
    brackets until the dimension stabilizes; unimodular iff every ad_x is
    trace-free.
    """
    n = L.n
    c = L.c
    basis = np.eye(n)

    def bracket_span(U, V):
        # orthonormal basis of the span of [u, v] over the rows of U and V
        A = np.einsum("kij,ai,bj->abk", c, U, V).reshape(-1, n)
        _, s, vt = np.linalg.svd(A, full_matrices=False)
        return vt[:_rank(s)]

    def reaches_zero(step):
        # iterate a descending series from [g, g]; it stops at {0} or at
        # the first term whose dimension no longer drops
        U = bracket_span(basis, basis)
        while U.shape[0]:
            nxt = step(U)
            if nxt.shape[0] == U.shape[0]:
                return False
            U = nxt
        return True

    # lower central series g_{m+1} = [g, g_m]; derived series g^(m+1) = [g^(m), g^(m)]
    nilpotent = reaches_zero(lambda U: bracket_span(basis, U))
    solvable = reaches_zero(lambda U: bracket_span(U, U))

    unimodular = bool(np.abs(L.trace_form).max() <= TOL_ALG)
    return {"nilpotent": bool(nilpotent), "solvable": bool(solvable),
            "unimodular": unimodular}


def change_basis(L: LieAlgebra, A) -> LieAlgebra:
    """Structure constants in the basis ``ebar_i = A^{-1} e_i``.

    The new bracket of coordinate vectors is ``A [A^{-1} x, A^{-1} y]``,
    i.e. ``c'[m, i, j] = A[m, k] c[k, a, b] Ainv[a, i] Ainv[b, j]``; Jacobi
    is preserved exactly (up to roundoff).  Only a numerically singular A is
    refused, so any rescaling of the basis is accepted.
    """
    Am = _as_matrix(A)
    if Am.shape != (L.n, L.n):
        raise InvalidInput(f"basis change must be {L.n}x{L.n}")
    if not np.all(np.isfinite(Am)):
        raise InvalidInput("basis change has non-finite entries")
    sv = np.linalg.svd(Am, compute_uv=False)
    if sv[-1] <= L.n * np.finfo(float).eps * sv[0]:
        raise InvalidInput(f"basis change is numerically singular (singular values "
                           f"{sv[-1]:.3e} to {sv[0]:.3e})")
    Ainv = np.linalg.inv(Am)
    cnew = np.einsum("mk,kab,ai,bj->mij", Am, L.c, Ainv, Ainv).transpose(1, 2, 0)
    upper = np.triu(np.ones((L.n, L.n), dtype=bool), 1)[..., None]
    # np.nonzero walks the (i, j, k) axes in lexicographic order
    i, j, k = np.nonzero(upper & (np.abs(cnew) > 1e-15))
    return LieAlgebra(L.n, tuple(zip(i.tolist(), j.tolist(), k.tolist(),
                                     cnew[i, j, k].tolist())))
