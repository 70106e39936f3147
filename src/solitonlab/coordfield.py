"""Coordinate-chart machinery: weights, discrete norms, and the FD operator.

This module is the PDE-facing counterpart of `leftinv`/`stability`.  It
works with metric coefficient fields g_ij(x) on a single global chart,
assembles the linearized operator

    L h = Delta_L h + 2*lam*h + Lie_{X0} h,    X0 = d_k x^k d/dx^k,

by finite differences on a cube grid, and provides the weight function
f_tau together with the annulus-based weighted Hölder norm used to
measure decay of compactly supported perturbations.

A chart's coframe is C(t) = exp(t A) in its one coordinate t, so g = C^T C
has exact jets, and curvature comes from them independently of `leftinv`
(acceptance criterion 8 compares the two at the origin).  Conventions match
`leftinv` exactly: Rm[i,j,k,l] = <R(ei,ej)el, ek>, ric_{jl} = g^{ik}
Rm[i,j,k,l], and Delta_L h = Delta h + 2*Rm(h) - Rc.h - h.Rc.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate as _integrate
from scipy import sparse as _sparse
from scipy.sparse import csgraph as _csgraph

from . import catalog
from .errors import (GridTooCoarse, GridTooLarge, InvalidInput, InvalidWeight,
                     NotInCatalog)
from .leftinv import SYM_TOL

_BLOCK = 1024  # points per block of the pointwise curvature algebra


# ---------------------------------------------------------------------------
# weights and summability
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightSpec:
    """Weight f_tau on annulus radii.

    a = 0  ->  f_tau(R) = R^(n+tau),   legal for tau > 1;
    a < 0  ->  f_tau(R) = e^((n+tau)R), legal for tau > 0.

    `a` is the curvature lower bound of the comparison space form used
    in the volume estimates.
    """

    a: float
    n: int
    tau: float

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.tau)):
            raise InvalidWeight("weight parameters must be finite")
        if self.a > 0:
            raise InvalidWeight(f"curvature bound must be <= 0, got a={self.a}")
        if int(self.n) != self.n or self.n < 2:
            raise InvalidWeight(f"dimension must be an integer >= 2, got n={self.n}")
        if self.a == 0 and not self.tau > 1:
            raise InvalidWeight(f"a = 0 requires tau > 1, got tau={self.tau}")
        if self.a < 0 and not self.tau > 0:
            raise InvalidWeight(f"a < 0 requires tau > 0, got tau={self.tau}")

    def f(self, R):
        R = np.asarray(R, dtype=float)
        if self.a == 0:
            return R ** (self.n + self.tau)
        return np.exp((self.n + self.tau) * R)


def _ball_volume_const(n: int) -> float:
    # Euclidean unit-ball volume omega_n
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def _log_volume_neg(a: float, n: int, R: float) -> float:
    """log of the comparison volume V_a(R) for a < 0.

    V_a(R) = A_{n-1} * int_0^R (sinh(kappa*s)/kappa)^(n-1) ds with
    kappa = sqrt(-a).  The integrand overflows for large R, so factor out
    the growth:
    int_0^R sinh(kappa s)^(n-1) ds
        = e^(kappa(n-1)R) * int_0^R e^(-kappa(n-1)u) ((1-e^(-2kappa(R-u)))/2)^(n-1) du
    and integrate the bounded factor by quadrature.
    """
    kappa = math.sqrt(-a)
    rate = kappa * (n - 1)

    def integrand(u):
        return math.exp(-rate * u) * ((1.0 - math.exp(-2.0 * kappa * (R - u))) / 2.0) ** (n - 1)

    upper = min(R, 60.0 / rate) if rate > 0 else R
    val, _err = _integrate.quad(integrand, 0.0, upper, limit=200)
    if val <= 0.0:
        return -math.inf
    return (math.log(n * _ball_volume_const(n)) - (n - 1) * math.log(kappa)
            + rate * R + math.log(val))


def summability_check(w: WeightSpec, N_max: int = 250_000) -> dict:
    """Partial sums of sum_{N>=2} V(2N) / f_tau(2N-2) plus a tail bound.

    V is the volume of the comparison space form with curvature a (a
    Euclidean ball for a = 0).  Returns partial sums over N = 2..N_max,
    a rigorous analytic bound on the discarded tail, and a convergence
    verdict: eventually-decreasing terms with tail below 1e-6 of the
    computed sum.
    """
    if int(N_max) != N_max or N_max < 10:
        raise InvalidInput(f"N_max must be an integer >= 10, got {N_max}")
    N_max = int(N_max)
    Ns = np.arange(2, N_max + 1)
    nt = w.n + w.tau

    if w.a == 0:
        log_omega = math.log(_ball_volume_const(w.n))
        log_terms = log_omega + w.n * np.log(2.0 * Ns) - nt * np.log(2.0 * Ns - 2.0)
        terms = np.exp(log_terms)
        # tail over N > N_max:  (2N)^n/(2N-2)^(n+tau) <= (M/(M-1))^n (2N-2)^(-tau)
        # with M = N_max+1, and sum (2N-2)^(-tau) bounded by an integral.
        M = N_max + 1
        tail = (_ball_volume_const(w.n) * (M / (M - 1.0)) ** w.n * 2.0 ** (-w.tau)
                * ((M - 1.0) ** (-w.tau) + (M - 1.0) ** (1.0 - w.tau) / (w.tau - 1.0)))
        tail_finite = True
    else:
        kappa = math.sqrt(-w.a)
        log_terms = np.empty(len(Ns))
        partial = 0.0
        stop = len(Ns)
        for idx, N in enumerate(Ns):
            lt = _log_volume_neg(w.a, w.n, 2.0 * N) - nt * (2.0 * N - 2.0)
            log_terms[idx] = lt
            partial += math.exp(lt) if -700 < lt < 700 else 0.0
            # once terms are far below the running sum they cannot move it,
            # and once they are growing the verdict is already settled;
            # either way stop integrating and extrapolate the trend
            settled = partial > 0 and lt < math.log(partial) - 80.0
            growing = idx >= 200 and lt >= log_terms[idx - 1]
            if settled or growing or lt > 700:
                stop = idx + 1
                break
        if stop < len(Ns):
            # extend the asymptotically log-linear terms analytically
            # instead of integrating each one
            slope = 2.0 * (kappa * (w.n - 1) - nt)
            log_terms[stop:] = log_terms[stop - 1] + slope * np.arange(1, len(Ns) - stop + 1)
        with np.errstate(over="ignore"):
            terms = np.exp(np.where(log_terms > -700, log_terms, -np.inf))
        # geometric tail via
        # V_a(R) <= A_{n-1} e^(kappa(n-1)R) / (2^(n-1) kappa^(n-1) kappa(n-1))
        rate = 2.0 * (kappa * (w.n - 1) - nt)
        if rate < 0:
            log_C = (math.log(w.n * _ball_volume_const(w.n))
                     - (w.n - 1) * math.log(2.0 * kappa) - math.log(kappa * (w.n - 1)))
            log_first = log_C + 2.0 * (N_max + 1) * (kappa * (w.n - 1) - nt) + 2.0 * nt
            tail = math.exp(log_first - math.log1p(-math.exp(rate))) if log_first > -700 else 0.0
            tail_finite = True
        else:
            tail = math.inf
            tail_finite = False

    partial_sums = np.cumsum(terms)
    total = float(partial_sums[-1])
    with np.errstate(invalid="ignore"):
        # inf/inf -> nan in the divergent regime; nan < 1 is False, as wanted
        ratios = terms[1:] / np.where(terms[:-1] > 0, terms[:-1], np.inf)
    # eventually decreasing: the last few computed ratios are all < 1
    k = min(5, len(ratios))
    eventually_decreasing = bool(np.all(ratios[-k:] < 1.0)) if k else False
    converged = bool(eventually_decreasing and tail_finite and tail < 1e-6 * total)
    return {
        "a": w.a, "n": w.n, "tau": w.tau, "N_max": N_max,
        "terms": terms, "partial_sums": partial_sums,
        "tail_bound": float(tail), "bound": total + float(tail),
        "converged": converged,
    }


# ---------------------------------------------------------------------------
# grids and chart metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    """Uniform cube grid [-R, R]^3 covering the coordinate ball B_R.

    The requested spacing is snapped so the axis hits both endpoints;
    stencils are second order and boundary values are Dirichlet zero.
    """

    radius: float
    dx: float

    def __post_init__(self):
        if not (np.isfinite(self.radius) and self.radius > 0):
            raise InvalidInput(f"radius must be positive, got {self.radius}")
        if not (np.isfinite(self.dx) and self.dx > 0):
            raise InvalidInput(f"dx must be positive, got {self.dx}")
        if self.dx > self.radius:
            raise InvalidInput("dx larger than the radius")
        steps = max(2, int(round(2.0 * self.radius / self.dx)))
        if steps % 2:  # keep the origin on the grid
            steps += 1
        object.__setattr__(self, "dx", 2.0 * self.radius / steps)

    @property
    def npts(self) -> int:
        return int(round(2.0 * self.radius / self.dx)) + 1

    def axis(self) -> np.ndarray:
        return np.linspace(-self.radius, self.radius, self.npts)

    def points(self) -> np.ndarray:
        """Grid coordinates, shape (npts, npts, npts, 3).

        Raises `GridTooLarge` before allocating anything when the grid's
        coordinates plus the operator's temporaries exceed physical memory.
        The budget covers only these; a caller that keeps further grid-sized
        arrays checks them itself (as `probe_tensor_suite` does).
        """
        self.require_memory(_POINT_BYTES, "its coordinates and operator")
        ax = self.axis()
        X, Y, Z = np.meshgrid(ax, ax, ax, indexing="ij")
        return np.stack([X, Y, Z], axis=-1)

    def require_memory(self, point_bytes: int, what: str) -> None:
        """Raise `GridTooLarge` if `point_bytes` per grid point, spent on
        `what`, exceed physical memory."""
        need = self.npts ** 3 * point_bytes
        phys = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        if need > phys:
            raise GridTooLarge(
                f"{self.npts}^3 grid needs ~{need / 2 ** 30:.3g} GiB for {what}, "
                f"above the {phys / 2 ** 30:.3g} GiB of physical memory")

    @property
    def origin_index(self) -> tuple:
        m = (self.npts - 1) // 2
        return (m, m, m)


@dataclass(frozen=True, eq=False)
class ChartMetric:
    """Left-invariant coframe of a 3D model geometry in one global chart.

    In the coordinates n * exp(t X), t = x[axis], the coframe is C(t) =
    exp(t A) for one 3 x 3 generator A (Milnor 1976), held read-only.  Its
    off-diagonal part N commutes with diag A and N^3 = 0, so `coframe(t)`
    is the closed form exp(t diag A) (I + t N + t^2 N^2 / 2): it maps t of
    shape (...) to the coframe rows C of shape (..., 3, 3), used to push
    frame tensors into coordinates, and `metric(t)` is g = C^T C.  Left
    translation by the normal subgroup is a coordinate translation, so every
    curvature field is constant along the other two axes, which is what
    lets the chart layer work on one line.

    The soliton data are those of the catalog entry `name`: `lam` is its
    soliton constant and `d` the diagonal of its derivation D (diagonal on
    every chart), the eigenvalues of the drift X0 = d_k x^k d/dx^k.
    """

    name: str
    A: np.ndarray
    axis: int  # the one coordinate the coframe depends on

    def __post_init__(self):
        if self.axis not in (0, 1, 2):
            raise InvalidInput(f"chart axis must be 0, 1 or 2, got {self.axis!r}")
        A = np.array(self.A, dtype=float)
        if A.shape != (3, 3) or not np.all(np.isfinite(A)):
            raise InvalidInput(f"chart generator must be a finite 3x3 matrix, got {self.A!r}")
        d, N = np.diag(A), A - np.diag(np.diag(A))
        # N commutes with diag(d) iff N_ij = 0 wherever d_i != d_j
        if np.any(N[d[:, None] != d]) or np.abs(N @ N @ N).max() > 1e-14 * np.abs(N).max() ** 3:
            raise InvalidInput("chart generator: off-diagonal part not nilpotent or not commuting")
        A.flags.writeable = False
        object.__setattr__(self, "A", A)

    def coframe(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)[..., None, None]
        d, N = np.diag(self.A), self.A - np.diag(np.diag(self.A))
        return np.exp(t * d[:, None]) * (np.eye(3) + t * N + (0.5 * t * t) * (N @ N))

    def metric(self, t) -> np.ndarray:
        C = self.coframe(t)
        # einsum adds the products in index order, so where they are exact
        # (nil3) g is exactly the closed form
        return np.einsum("...ki,...kj->...ij", C, C)

    @property
    def lam(self) -> float:
        return catalog.get(self.name).expected.lam

    @property
    def d(self) -> np.ndarray:
        return np.diag(catalog.get(self.name).expected.D)


_CHARTS = {
    # A = -ad_e1 (nil3), -ad_e3 (sol3), +ad_e3 (hyp3: the z -> -z mirror of the others)
    "nil3": ChartMetric("nil3", [[0, 0, 0], [0, 0, 0], [0, -1, 0]], axis=0),
    "sol3": ChartMetric("sol3", np.diag([-1.0, 1.0, 0.0]), axis=2),
    "hyp3": ChartMetric("hyp3", np.diag([1.0, 1.0, 0.0]), axis=2),
}


def metric_jets(cm: ChartMetric, pts: np.ndarray):
    """g, dg, d2g at the given points, in closed form.

    dg[..., a, i, j] = d_a g_ij and d2g[..., a, b, i, j] = d_a d_b g_ij.  The
    metric reads only t = pts[..., cm.axis], and C' = C A, so g' = A^T g + g A
    and g'' = A^T g' + g' A; every other entry is exactly 0.
    """
    pts = np.asarray(pts, dtype=float)
    A, a = cm.A, cm.axis
    g0 = cm.metric(pts[..., a])
    dg = np.zeros(pts.shape[:-1] + (3, 3, 3))
    d2g = np.zeros(pts.shape[:-1] + (3, 3, 3, 3))
    # g A = (A^T g)^T for symmetric g, so each jet is exactly symmetric
    Ag = A.T @ g0
    dg[..., a, :, :] = Ag + np.swapaxes(Ag, -1, -2)
    Ag = A.T @ dg[..., a, :, :]
    d2g[..., a, a, :, :] = Ag + np.swapaxes(Ag, -1, -2)
    return g0, dg, d2g


_FIELD_SHAPES = {"g": (3, 3), "ginv": (3, 3), "Gamma": (3, 3, 3), "Rm": (3, 3, 3, 3),
                 "ric": (3, 3), "Rc": (3, 3), "scal": (), "sqrt_det": ()}
# bytes per grid point that a grid still allocates: the coordinates and what
# the operator holds at its peak: h, its 6-component slab, L h (6), T (18), the
# product buffer (6) and 2 for the mask, coefficients and end planes (36.8 in
# all at 33^3, tracemalloc); curvature fields are views of their line
_POINT_BYTES = 8 * (3 + 9 + 6 + 6 + 24 + 2)
# bytes per grid point at the peak of building the metric graph: ~36.2 per
# directed edge and 26 edges per interior point (tracemalloc: 883 B/pt at
# 33^3 and 911 B/pt at 65^3, where boundary points have fewer edges); the
# finished graph keeps about a third of it
_GRAPH_BYTES = 37 * 26


def _line_reduced(cm: ChartMetric, pts: np.ndarray) -> np.ndarray:
    """`pts` cut to length 1 along every leading axis on which the chart
    coordinate `pts[..., cm.axis]` is exactly constant.

    The metric reads that coordinate only, so anything computed from it on
    the reduced points and broadcast back to `pts.shape[:-1]` equals its
    per-point evaluation: an N^3 grid reduces to its N line points, and
    scattered points stay as they are.
    """
    v = pts[..., cm.axis]
    return pts[tuple(
        slice(0, 1) if n > 1 and np.all(v == v[(slice(None),) * k + (slice(0, 1),)])
        else slice(None) for k, n in enumerate(v.shape))]


def _on_axis(cm: ChartMetric, values: np.ndarray) -> np.ndarray:
    """Values of the chart coordinate, shaped to lie along `cm.axis` of a
    grid and broadcast over the other two axes."""
    return values.reshape([-1 if k == cm.axis else 1 for k in range(3)])


def curvature_fields(cm: ChartMetric, pts: np.ndarray) -> dict:
    """Pointwise curvature data of the chart metric.

    Returns g, ginv, Gamma (Gamma[..., k, i, j] = Gamma^k_ij), the
    lowered Riemann tensor Rm[..., i, j, k, l] = <R(ei,ej)el, ek>, the
    Ricci tensor, the Ricci endomorphism Rc = g^(-1) ric, scal, and
    sqrt(det g); each has the leading shape of `pts`.

    The metric reads only `pts[..., cm.axis]`, so the kernel runs on the
    points reduced by `_line_reduced` (N points for an N^3 grid), and each
    field is a read-only `np.broadcast_to` view of that line, with stride 0
    along the axes the chart coordinate is constant on.  Values are
    bit-identical to evaluating every point.  Only constancy along whole
    array axes is exploited: scattered points, and a grid flattened to
    (N^3, 3), are evaluated point by point, `_BLOCK` at a time.
    """
    pts = np.asarray(pts, dtype=float)
    red = _line_reduced(cm, pts)
    flat = red.reshape(-1, 3)
    out = {key: np.empty((len(flat),) + tail) for key, tail in _FIELD_SHAPES.items()}
    for blk in (slice(s, s + _BLOCK) for s in range(0, len(flat), _BLOCK)):
        _curvature_block(cm, flat[blk], {key: a[blk] for key, a in out.items()})
    return {key: np.broadcast_to(a.reshape(red.shape[:-1] + a.shape[1:]),
                                 pts.shape[:-1] + a.shape[1:]) for key, a in out.items()}


def _curvature_block(cm: ChartMetric, pts: np.ndarray, out: dict) -> None:
    """`curvature_fields` on a flat (B, 3) block, written into `out`.

    Every contraction is a batched matmul over the block axis; index
    groups are merged by reshapes so each product is (B, m, k) @ (B, k, n).
    """
    B = len(pts)
    g0, dg, d2g = metric_jets(cm, pts)
    ginv = np.linalg.inv(g0)
    ginvT = np.swapaxes(ginv, -1, -2)
    # Gamma^k_ij = 1/2 g^kl (d_i g_jl + d_j g_il - d_l g_ij); low is [i, j, l]
    low = dg + dg.transpose(0, 2, 1, 3) - dg.transpose(0, 2, 3, 1)
    Gamma = 0.5 * (low.reshape(B, 9, 3) @ ginvT).reshape(B, 3, 3, 3).transpose(0, 3, 1, 2)
    # d_a Gamma^k_ij needs d_a g^kl = -g^kp (d_a g_pq) g^ql; dGamma is [a, i, j, k]
    dginv = -(ginv[:, None] @ dg @ ginv[:, None])
    dlow = d2g + d2g.transpose(0, 1, 3, 2, 4) - d2g.transpose(0, 1, 3, 4, 2)
    dGamma = 0.5 * (low.reshape(B, 1, 9, 3) @ np.swapaxes(dginv, -1, -2)
                    + dlow.reshape(B, 3, 9, 3) @ ginvT[:, None])
    # R^m_ijl = d_i Gamma^m_jl - d_j Gamma^m_il + G^m_ip G^p_jl - G^m_jp G^p_il
    #         = A[m, i, j, l] - A[m, j, i, l]
    A = dGamma.reshape(B, 3, 3, 3, 3).transpose(0, 4, 1, 2, 3) + (
        Gamma.reshape(B, 9, 3) @ Gamma.reshape(B, 3, 9)).reshape(B, 3, 3, 3, 3)
    Rup = A - A.transpose(0, 1, 3, 2, 4)
    # Rm_ijkl = g_km R^m_ijl, computed as [k, i, j, l]
    Rm = (g0 @ Rup.reshape(B, 3, 27)).reshape(B, 3, 3, 3, 3)
    # ric_jl = g^ik Rm_ijkl = sum over (k, i) of g^ik Rm[k, i, j, l]
    ric = (ginvT.reshape(B, 1, 9) @ Rm.reshape(B, 9, 9)).reshape(B, 3, 3)
    ric = 0.5 * (ric + np.swapaxes(ric, -1, -2))
    Rc = ginv @ ric
    out["g"][...] = g0
    out["ginv"][...] = ginv
    out["Gamma"][...] = Gamma
    out["Rm"][...] = Rm.transpose(0, 2, 3, 1, 4)
    out["ric"][...] = ric
    out["Rc"][...] = Rc
    out["scal"][...] = np.trace(Rc, axis1=-2, axis2=-1)
    out["sqrt_det"][...] = np.sqrt(np.linalg.det(g0))


def chart_metric(name: str) -> ChartMetric:
    """The chart model `name`: nil3, sol3 or hyp3."""
    try:
        return _CHARTS[name]
    except KeyError:
        raise NotInCatalog(f"unknown chart model {name!r}; "
                           f"known: {', '.join(sorted(_CHARTS))}") from None


# ---------------------------------------------------------------------------
# grid derivatives and the FD operator
# ---------------------------------------------------------------------------

def _diff(field: np.ndarray, axis: int, out: np.ndarray) -> np.ndarray:
    """out = field[k+1] - field[k-1] along `axis`, with zero ghost cells.

    The axes of `out` after the first must be contiguous together (a
    C-contiguous array, or a slab's run of components): the interior is then
    one shifted subtraction per index of axis 0, and the ends are set after.
    """
    n = field.shape[0]
    src, dst = field.reshape(n, -1), out.reshape(n, -1)
    if axis == 0:
        np.subtract(src[2:], src[:-2], out=dst[1:-1])
    else:
        s = math.prod(field.shape[axis + 1:])
        np.subtract(src[:, 2 * s:], src[:, :-2 * s], out=dst[:, s:-s])
    src, dst = np.moveaxis(field, axis, 0), np.moveaxis(out, axis, 0)
    dst[0] = src[1]
    np.negative(src[-2], out=dst[-1])
    return out


def _diff1(field: np.ndarray, axis: int, dx: float) -> np.ndarray:
    """Second-order centered first derivative with zero ghost cells."""
    out = _diff(field, axis, np.empty(field.shape))
    out /= 2.0 * dx
    return out


# The operator works on slabs of the 6 components 00, 11, 22, 01, 02, 12 of a
# symmetric tensor field: (N, 6, N, N), the chart axis first, then the
# components, then the other two axes.  Each line value x owns a contiguous
# (6, N^2) block, so a pointwise map that depends on x only is one batched matmul.
_I6, _J6 = np.array([0, 1, 2, 0, 0, 1]), np.array([0, 1, 2, 1, 2, 2])
_FULL = np.array([[0, 3, 4], [3, 1, 5], [4, 5, 2]])  # component of entry (i, j)
_MULT = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 2.0])     # entries per component


def _sym_map(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """(..., 6, 6) component matrices of h -> X^T h Y + Y^T h X on symmetric
    h, for X and Y of shape (..., 3, 3)."""
    i, j, p, q = _I6[:, None], _J6[:, None], _I6, _J6
    A = (X[..., p, i] * Y[..., q, j] + Y[..., p, i] * X[..., q, j]
         + X[..., q, i] * Y[..., p, j] + Y[..., q, i] * X[..., p, j])
    A[..., :3] *= 0.5  # a diagonal component is one entry, not two
    return A


def _operator_input(cm: ChartMetric, h: np.ndarray, grid: GridSpec,
                    fields: dict = None) -> tuple:
    """Checked operator input: h in slab layout, and the curvature fields
    on the N grid points of the chart axis.

    h must be symmetric: max|h_ij - h_ji| may not exceed `SYM_TOL` times
    max|h|.  Grid fields are read at index 0 on the invariant axes; without
    them the N line points are evaluated.
    """
    if grid.dx > grid.radius / 8.0 + 1e-12:
        raise GridTooCoarse(
            f"dx = {grid.dx} exceeds radius/8 = {grid.radius / 8.0}")
    h = np.asarray(h, dtype=float)
    N = grid.npts
    shape = (N,) * 3 + (3, 3)
    if h.shape != shape:
        raise InvalidInput(f"field shape {h.shape} does not match grid {shape}")
    if fields is None:
        pts = np.zeros((N, 3))
        pts[:, cm.axis] = grid.axis()
        line = curvature_fields(cm, pts)
    else:
        bad = sorted(key for key, tail in _FIELD_SHAPES.items()
                     if key not in fields or np.shape(fields[key]) != (N,) * 3 + tail)
        if bad:
            raise InvalidInput(f"fields {bad} do not match the {N}^3 grid")
        on_line = [0, 0, 0]
        on_line[cm.axis] = slice(None)
        line = {key: fields[key][tuple(on_line)] for key in _FIELD_SHAPES}
    full = np.ascontiguousarray(np.moveaxis(h.reshape((N,) * 3 + (9,)), (cm.axis, 3), (0, 1)))
    asym = max(float(np.max(np.abs(full[:, 3 * i + j] - full[:, 3 * j + i])))
               for i, j in zip(_I6[3:], _J6[3:]))
    hs = np.take(full, 3 * _I6 + _J6, axis=1)
    scale = max(float(hs.max()), -float(hs.min()))
    if asym > SYM_TOL * scale:
        raise InvalidInput(f"field is not symmetric: max|h_ij - h_ji| = {asym:.3e} "
                           f"against max|h| = {scale:.3e}")
    return hs, line


def apply_L_fd(cm: ChartMetric, lam: float, d, h: np.ndarray,
               grid: GridSpec, _fields: dict = None) -> np.ndarray:
    """Apply L = Delta_L + 2 lam + Lie_{X0} to a sampled symmetric tensor field.

    `h` has shape grid + (3, 3) (coordinate components, lowered indices),
    must be symmetric (`InvalidInput` otherwise; its upper triangle is
    used) and must vanish on and outside the boundary sphere of B_R.  The
    covariant structure is pointwise-exact (the exact jets of g = C^T C,
    C = exp(t A)); the h-derivatives are second-order centered differences, so
    plateau discrepancies against the algebraic operator shrink at
    O(dx^2).  The result is exactly symmetric, and zero outside the open
    ball (Dirichlet).
    """
    hs, line = _operator_input(cm, h, grid, _fields)
    Lh = _apply_L(cm, lam, d, hs, grid, line)[0]
    return np.moveaxis(Lh[:, _FULL], (0, 1, 2), (cm.axis, 3, 4))


def _apply_L(cm: ChartMetric, lam: float, d, hs: np.ndarray, grid: GridSpec,
             line: dict) -> tuple:
    """(L h, g^-1 h g^-1) in slab layout, for a symmetric h in slab layout.

    The coefficients are built per line value (`line`) on the 6 components:
    the Gamma correction of T = nabla h (6 x 6 per axis), the trace and M
    terms on T with the drift along the chart axis (6 x 18), and the
    zeroth-order terms (6 x 6), each a batched matmul over the N line values.
    The g^ab Laplacian weights are scalar sums S_a = g^ab T_b, differenced
    along a.  T is held as 2 dx nabla h, the difference's denominator folded
    into the coefficients; it and the buffer that every other product goes
    through are one (N, 24, N, N) block, the buffer ending as g^-1 h g^-1.
    """
    N, dx, I = grid.npts, grid.dx, np.eye(3)
    others = [a for a in range(3) if a != cm.axis]
    sax = {cm.axis: 0, others[0]: 2, others[1]: 3}               # slab axis of each grid axis
    ax, d = grid.axis(), np.asarray(d, dtype=float)
    # the Dirichlet mask, taken before the large arrays exist
    outside = sum(ax.reshape([-1 if s == sax[a] else 1 for s in range(4)]) ** 2
                  for a in range(3)) >= grid.radius ** 2
    g, G, Rm, Rc = line["ginv"], line["Gamma"], line["Rm"], line["Rc"]
    hs2 = hs.reshape(N, 6, N * N)

    # nabla_a h_ij = d_a h_ij - G^p_ai h_pj - G^p_aj h_pi, stored as
    # T[x, (a, ij)] = 2 dx nabla_a h_ij; K[:, a] is h -> Gamma_a^T h + h Gamma_a
    K = _sym_map(G.transpose(0, 2, 1, 3), I)

    # 2 Rm(g^-1 h g^-1) - Rc^T h - h Rc + (2 lam + d_i + d_j) h_ij, with the K
    # part of the drift d_a x^a d_a h along the chart axis (d_a h = nabla_a h + K_a h)
    H = 0.5 * _sym_map(g, g)                                      # h -> g^-1 h g^-1
    Rm9 = Rm.transpose(0, 1, 3, 2, 4)[:, _I6, _J6].reshape(N, 6, 9)   # Rm[i, a, j, b]
    Z = (2.0 * (Rm9 @ H[:, _FULL.ravel()]) - _sym_map(Rc, I)
         + (d[cm.axis] * ax)[:, None, None] * K[:, cm.axis])
    Z[:, range(6), range(6)] += 2.0 * lam + d[_I6] + d[_J6]
    out = Z @ hs2

    # one allocation for T and the product buffer: with glibc malloc and a
    # block under its 32 MiB cap on the dynamic mmap threshold (N <= 55, which
    # covers the 17^3 and 33^3 probe grids), the block freed once lifts the
    # heap's trim threshold above what a call holds, so later calls reuse its
    # pages instead of faulting them in again; larger blocks (65^3: 53 MB) are
    # mmapped and unmapped on every call whatever the layout
    work = np.empty((N, 24, N, N))
    T, buf = work[:, :18], work[:, 18:].reshape(N, 6, N * N)
    T2 = T.reshape(N, 18, N * N)
    for a in range(3):
        _diff(hs, sax[a], T[:, 6 * a:6 * a + 6])
        if a != cm.axis and d[a] != 0.0:
            # the drift d_a x^a d_a h, its coefficient laid out on the (N, N)
            # plane of the two invariant axes
            c = (d[a] / (2.0 * dx)) * ax
            plane = np.broadcast_to(c[:, None] if sax[a] == 2 else c, (N, N)).reshape(1, 1, -1)
            out += np.multiply(plane, T2[:, 6 * a:6 * a + 6], out=buf)
        T2[:, 6 * a:6 * a + 6] -= np.matmul((2.0 * dx) * K[:, a], hs2, out=buf)

    # Delta h_ij = g^ab [ d_a T_bij - G^p_ab T_pij - G^p_ai T_bpj - G^p_aj T_bip ];
    # the last three terms are Q_b T_b with Q_b = trG_b + g^ba K_a, and the
    # rest of the drift along the chart axis joins trG there as -d_a x^a
    trG = np.einsum("nab,npab->np", g, G)
    trG[:, cm.axis] -= d[cm.axis] * ax
    Q = np.einsum("nba,naij->nbij", g, K)
    Q[:, :, range(6), range(6)] += trG[:, :, None]
    out -= np.matmul(Q.transpose(0, 2, 1, 3).reshape(N, 6, 18) / (2.0 * dx), T2, out=buf)
    # S_a = g^ab T_b / (2 dx)^2, one scalar sum per component
    T3, S, out2 = T.reshape(N, 3, -1), buf.reshape(N, 1, -1), out.reshape(N, -1)
    wts = g / (2.0 * dx) ** 2
    for a in range(3):
        if a == cm.axis:
            # the weights vary along their own axis: difference g^ab[x] T_b[x +- 1]
            out[:-1] += np.matmul(wts[:-1, a, None], T3[1:], out=S[:-1]).reshape(N - 1, 6, -1)
            out[1:] -= np.matmul(wts[1:, a, None], T3[:-1], out=S[1:]).reshape(N - 1, 6, -1)
        else:
            # the weights are constant along a, so d_a commutes with them; the
            # shifted adds reach across the ends of a, which the mask zeroes
            s = N ** (3 - sax[a])
            S2 = np.matmul(wts[:, a, None], T3, out=S).reshape(N, -1)
            out2[:, :-s] += S2[:, s:]
            out2[:, s:] -= S2[:, :-s]

    hup = np.matmul(H, hs2, out=buf).reshape(N, 6, N, N)
    np.copyto(out, 0.0, where=outside.reshape(N, 1, -1))
    return out.reshape(N, 6, N, N), hup


def rayleigh_quotient(cm: ChartMetric, lam: float, d, h: np.ndarray,
                      grid: GridSpec, _fields: dict = None) -> float:
    """(L h, h) / (h, h) in the L2 pairing of the chart metric.

    `h` is a symmetric field, as for `apply_L_fd`; the pairing runs over
    its 6 components, each off-diagonal one counted twice.  Pointwise inner
    products raise indices with g; the measure is sqrt(det g) dx^3.
    Scale-invariant by construction.
    """
    hs, line = _operator_input(cm, h, grid, _fields)
    Lh, hup = _apply_L(cm, lam, d, hs, grid, line)
    N = grid.npts
    w = line["sqrt_det"] * grid.dx ** 3
    hup = hup.reshape(N, 6, -1)
    den = float(w @ np.einsum("xck,xck->xc", hup, hs.reshape(N, 6, -1)) @ _MULT)
    if den <= 0.0 or not np.isfinite(den):
        raise InvalidInput("Rayleigh quotient of a zero (or degenerate) field")
    return float(w @ np.einsum("xck,xck->xc", hup, Lh.reshape(N, 6, -1)) @ _MULT) / den


def radial_bump(grid: GridSpec, r_inner: float, r_outer: float) -> np.ndarray:
    """C^2 cutoff in the Euclidean grid radius: 1 inside r_inner, 0 outside
    r_outer (quintic ramp)."""
    if not 0.0 < r_inner < r_outer:
        raise InvalidInput("need 0 < r_inner < r_outer")
    pts = grid.points()
    dist = np.sqrt(np.einsum("...k,...k->...", pts, pts))
    s = np.clip((dist - r_inner) / (r_outer - r_inner), 0.0, 1.0)
    return 1.0 - (10.0 * s ** 3 - 15.0 * s ** 4 + 6.0 * s ** 5)


def frame_tensor_field(cm: ChartMetric, grid: GridSpec, S) -> np.ndarray:
    """Coordinate components of the left-invariant field with frame matrix S,
    as a read-only view broadcast from the chart-axis line."""
    C = cm.coframe(_on_axis(cm, grid.axis()))
    return np.broadcast_to(_frame_field(C, S), (grid.npts,) * 3 + (3, 3))


def _frame_field(C: np.ndarray, S) -> np.ndarray:
    """C^T sym(S) C pointwise, for coframe rows C of shape (..., 3, 3)."""
    S = np.asarray(S, dtype=float)
    return np.swapaxes(C, -1, -2) @ (0.5 * (S + S.T)) @ C


def probe_tensor_suite(cm: ChartMetric, grid: GridSpec, count: int = 20,
                       seed: int = 0) -> list:
    """Bump-modulated compactly supported test tensors for Rayleigh probes.

    The first entries sweep the symmetric frame basis; the rest are
    seeded random symmetric combinations.  All are supported in the open
    ball (the bump ramps from 0.45 R to 0.9 R) and C^2 at the cutoff.
    """
    if count < 1:
        raise InvalidInput("count must be positive")
    # the suite's 9 doubles per point and tensor, held next to the operator
    grid.require_memory(_POINT_BYTES + 72 * count,
                        f"its coordinates, operator and {count} probe tensors")
    chi = radial_bump(grid, 0.45 * grid.radius, 0.9 * grid.radius)
    mats = []
    for i, j in zip(*np.triu_indices(3)):
        E = np.zeros((3, 3))
        E[i, j] = E[j, i] = 1.0
        mats.append(E)
    rng = np.random.default_rng(seed)
    while len(mats) < count:
        A = rng.uniform(-1.0, 1.0, size=(3, 3))
        S = 0.5 * (A + A.T)
        mats.append(S / np.linalg.norm(S))
    C = cm.coframe(_on_axis(cm, grid.axis()))
    return [chi[..., None, None] * _frame_field(C, S) for S in mats[:count]]


# ---------------------------------------------------------------------------
# metric distances, annuli, weighted norms
# ---------------------------------------------------------------------------

_PAIRS = 48  # sampled Hölder pairs per annulus


def _grid_graph(cm: ChartMetric, grid: GridSpec):
    """26-neighbor graph with edge lengths in the chart metric.

    Edge (x, x + o*dx) gets weight dx * sqrt(o^T g(mid) o), the length
    of the straight segment in the metric at its midpoint.  The metric
    reads only the chart coordinate: it is evaluated once on the axis, for
    the offsets that keep it, and once on the axis midpoints, for the rest,
    and each offset's lengths are broadcast over the other two axes.
    """
    grid.require_memory(_GRAPH_BYTES, "its metric graph")
    npts, ax = grid.npts, grid.axis()
    g_axis, g_mid = cm.metric(ax), cm.metric(0.5 * (ax[:-1] + ax[1:]))
    idx = np.arange(npts ** 3).reshape((npts,) * 3)
    offsets = [(a, b, c) for a in (-1, 0, 1) for b in (-1, 0, 1)
               for c in (-1, 0, 1) if (a, b, c) > (0, 0, 0)]
    rows, cols, weights = [], [], []
    for off in offsets:
        sl_src = tuple(slice(None, -1 if o == 1 else None) if o >= 0
                       else slice(1, None) for o in off)
        sl_dst = tuple(slice(1, None) if o == 1
                       else slice(None, -1) if o == -1 else slice(None)
                       for o in off)
        src = idx[sl_src]
        o = np.asarray(off, dtype=float)
        g = g_axis if off[cm.axis] == 0 else g_mid
        length = grid.dx * np.sqrt(np.einsum("i,...ij,j->...", o, g, o))
        rows.append(src.ravel())
        cols.append(idx[sl_dst].ravel())
        weights.append(np.broadcast_to(_on_axis(cm, length), src.shape).ravel())
    n = npts ** 3
    upper = _sparse.csr_matrix(
        (np.concatenate(weights), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n))
    return upper + upper.T  # symmetric: a directed search needs no conversion


def _dijkstra(graph, grid: GridSpec, sources) -> np.ndarray:
    """Graph distances from flat node indices to every grid node, shaped
    `np.shape(sources)` + the grid."""
    out = _csgraph.dijkstra(graph, directed=True, indices=sources)
    return out.reshape(np.shape(sources) + (grid.npts,) * 3)


def distance_field(cm: ChartMetric, grid: GridSpec) -> np.ndarray:
    """Approximate metric distance to the origin at every grid point."""
    origin = np.ravel_multi_index(grid.origin_index, (grid.npts,) * 3)
    return _dijkstra(_grid_graph(cm, grid), grid, origin)


@dataclass
class Annulus:
    N: int
    mask: np.ndarray      # boolean grid mask
    d_boundary: np.ndarray  # radial distance to the annulus boundary


@dataclass
class AnnulusCover:
    """Overlapping annuli A_1 = {d < 4}, A_N = {N-1 < d < N+3} (N >= 2).

    `graph` is the grid's metric graph and `dist` its distance field.
    """

    cm: ChartMetric
    grid: GridSpec
    graph: _sparse.csr_matrix
    dist: np.ndarray
    annuli: list = field(default_factory=list)

    def pair_distances(self, sources) -> np.ndarray:
        """Graph distances from the given flat node indices to all nodes."""
        return _dijkstra(self.graph, self.grid, sources)


def build_annulus_cover(cm: ChartMetric, grid: GridSpec) -> AnnulusCover:
    graph = _grid_graph(cm, grid)
    dist = _dijkstra(graph, grid, np.ravel_multi_index(grid.origin_index, (grid.npts,) * 3))
    dmax = float(np.max(dist[np.isfinite(dist)]))
    cover = AnnulusCover(cm=cm, grid=grid, graph=graph, dist=dist)
    mask1 = dist < 4.0
    cover.annuli.append(Annulus(1, mask1, np.where(mask1, 4.0 - dist, 0.0)))
    N = 2
    while N - 1 < dmax:
        mask = (dist > N - 1.0) & (dist < N + 3.0)
        if np.any(mask):
            db = np.minimum(dist - (N - 1.0), (N + 3.0) - dist)
            cover.annuli.append(Annulus(N, mask, np.where(mask, db, 0.0)))
        N += 1
    return cover


def _partials_up_to(h: np.ndarray, grid: GridSpec, k: int) -> list:
    """Partials of h's components of orders 0..k, one grid array per order
    with components last; order q + 1 holds d_a of order-q component c at
    index 3 * c + a."""
    orders = [h.reshape((grid.npts,) * 3 + (-1,))]
    for _q in range(k):
        prev = orders[-1]
        nxt = np.stack([_diff1(prev, a, grid.dx) for a in range(3)], axis=-1)
        orders.append(nxt.reshape(prev.shape[:3] + (-1,)))
    return orders


def weighted_holder_norm(cover: AnnulusCover, h: np.ndarray, k: int,
                         alpha: float, w: WeightSpec, seed: int = 0) -> float:
    """Discrete tau-weighted little Hölder norm over the annulus cover.

    Per annulus N the bracket is  sum_{q<=k} sup_x d_x^q max_{|l|=q}
    |d^l h(x)|  plus the sampled Hölder seminorm  sup over pairs of
    min(d_x, d_y)^(k+alpha) |d^k h(x) - d^k h(y)| / d(x,y)^alpha; the
    norm is the max over annuli of sqrt(f_tau(N)) times the bracket.
    `_PAIRS` pairs per annulus are sampled from a seeded generator with
    d(x, y) >= dx, so the seminorm is a lower bound on its continuum value.
    h must be a finite grid + (3, 3) field.  Each sampled source's pairs are
    bounded with d(x, y) >= |d0(x) - d0(y)| (d0 the cover's distance field),
    and only sources whose bound exceeds the max so far are searched, in
    descending bound: the value is the same float as searching every source.
    """
    if k not in (0, 1, 2):
        raise InvalidInput(f"k must be 0, 1 or 2, got {k}")
    if not 0.0 < alpha < 1.0:
        raise InvalidInput(f"alpha must lie in (0, 1), got {alpha}")
    h = np.asarray(h, dtype=float)
    grid = cover.grid
    shape = (grid.npts,) * 3 + (3, 3)
    if h.shape != shape:
        raise InvalidInput(f"field shape {h.shape} does not match grid {shape}")
    if not np.all(np.isfinite(h)):
        raise InvalidInput("field has non-finite entries")
    orders = _partials_up_to(h, grid, k)
    abs_max = [np.max(np.abs(part), axis=-1) for part in orders]
    top = orders[k].reshape(-1, orders[k].shape[-1])  # k-th partials, one row per node
    d0 = cover.dist.ravel()
    rng = np.random.default_rng(seed)

    def terms(s, tgt, db, dxy):
        diff = np.max(np.abs(top[tgt] - top[s]), axis=1)
        return np.minimum(db[tgt], db[s]) ** (k + alpha) * diff / dxy ** alpha

    best, cands = 0.0, []  # cands: (bound, sqrt f(N), sup term, source, targets, d_boundary)
    for ann in cover.annuli:
        if not np.any(ann.mask):
            continue
        sup_term = float(np.max(sum((ann.d_boundary[ann.mask] ** q) * abs_max[q][ann.mask]
                                    for q in range(k + 1))))
        scale = math.sqrt(float(w.f(ann.N)))
        best = max(best, scale * sup_term)
        flat = np.flatnonzero(ann.mask.ravel())
        if len(flat) < 2:
            continue
        db = ann.d_boundary.ravel()
        sources = rng.choice(flat, size=min(4, len(flat)), replace=False)
        per_src = max(1, _PAIRS // len(sources))
        for s in sources:
            tgt = rng.choice(flat, size=min(per_src, len(flat)), replace=False)
            # A kept pair has d(x, y) >= dx, and d(x, y) >= |d0(x) - d0(y)| by
            # the triangle inequality.  The slack covers rounding in the
            # Dijkstra sums, whose relative error is at most (edges on a
            # path) * eps: under 1e-12 even at 65^3.
            lb = np.maximum(grid.dx, np.abs(d0[tgt] - d0[s])) * (1.0 - 1e-9)
            sem = float(np.max(terms(s, tgt, db, lb)))
            cands.append((scale * (sup_term + sem), scale, sup_term, s, tgt, db))

    # float + and * are monotone, so the max over sources of
    # sqrt f(N) (sup + sem_s) is the annulus term as one seminorm gives it
    for bound, scale, sup_term, s, tgt, db in sorted(cands, key=lambda c: c[0], reverse=True):
        if bound <= best:
            break
        dxy = cover.pair_distances([s]).ravel()[tgt]
        ok = (dxy >= grid.dx) & np.isfinite(dxy)
        if np.any(ok):
            sem = float(np.max(terms(s, tgt[ok], db, dxy[ok])))
            best = max(best, scale * (sup_term + sem))
    return best
