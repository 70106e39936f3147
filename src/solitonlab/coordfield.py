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

import functools
import math
import numbers
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import (GridTooCoarse, GridTooLarge, InvalidInput, InvalidWeight,
                     NotInCatalog)
from .liealg import SYM_TOL, check_seed

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
        if not (isinstance(self.n, numbers.Real) and self.n >= 2 and self.n % 1 == 0):
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


def _physical_memory() -> int:
    """Bytes of physical memory: the budget of every allocation guard here."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _require_memory(need: float, subject: str, what: str, error: type) -> None:
    """Raise `error` if the `need` bytes that `subject` spends on `what`
    exceed physical memory."""
    phys = _physical_memory()
    if need > phys:
        raise error(f"{subject} needs ~{need / 2 ** 30:.3g} GiB for {what}, "
                    f"above the {phys / 2 ** 30:.3g} GiB of physical memory")


def _log_ball_volume(n: int) -> float:
    # log of the Euclidean unit-ball volume omega_n, finite in any dimension
    return n / 2.0 * math.log(math.pi) - math.lgamma(n / 2.0 + 1.0)


@functools.cache
def _gauss_legendre() -> tuple:
    """Nodes and weights of the 20-point Gauss-Legendre rule on [-1, 1],
    read-only (Golub-Welsch 1969): the nodes are the eigenvalues of the
    Jacobi matrix of the Legendre polynomials, the weights twice the squared
    first components of its eigenvectors.  Built on first use, not at import.
    """
    k = np.arange(1.0, 20.0)
    off = k / np.sqrt(4.0 * k * k - 1.0)
    x, v = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    w = 2.0 * v[0] ** 2
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _log_volume_neg(a: float, n: int, R) -> np.ndarray:
    """log of the comparison volume V_a(R) for a < 0, at each radius of R.

    V_a(R) = A_{n-1} * int_0^R (sinh(kappa*s)/kappa)^(n-1) ds with
    kappa = sqrt(-a).  The integrand overflows for large R, so factor out
    the growth:
    int_0^R sinh(kappa s)^(n-1) ds
        = e^(kappa(n-1)R) / 2^(n-1) * int_0^R e^(-kappa(n-1)u) (1-e^(-2kappa(R-u)))^(n-1) du
    and integrate the bounded factor, cut at u = 60/(kappa(n-1)) where
    e^(-kappa(n-1)u) drops below e^-60, by a composite 20-point
    Gauss-Legendre rule: the same number of equal panels at every radius,
    each spanning at most 3 e-folds of e^(-kappa(n-1)u), of e^(-2kappa(R-u))
    and of the bounded factor near u = 0, which falls there by
    fall = (n-1) 2kappa e^(-2kappa R) / (1 - e^(-2kappa R)) e-folds per
    unit u, about (n-1)/R where kappa R is small.  Its log is concave in u,
    so past u = 60/fall it is below e^-60 of its start and the cut moves
    there when that comes first; so about 40 panels at most.  Where
    lead^(n-1) underflows, lead = 1 - e^(-2kappa R), the factor's largest
    value, is divided out and added back as (n-1) log(lead).
    """
    kappa = math.sqrt(-a)
    rate = kappa * (n - 1)
    R = np.asarray(R, dtype=float)
    lead = -np.expm1(-2.0 * kappa * R)
    fall = (n - 1) * 2.0 * kappa * np.exp(-2.0 * kappa * R) / lead
    upper = np.minimum(R, 60.0 / np.maximum(rate, fall))
    panels = max(1, math.ceil(float(np.max(upper * np.maximum(max(rate, 2.0 * kappa), fall)))
                              / 3.0))
    x, wts = _gauss_legendre()
    half = upper / (2.0 * panels)
    u = half[..., None, None] * (2.0 * np.arange(panels)[:, None] + 1.0 + x)
    lead = np.where(lead ** (n - 1) < np.finfo(float).tiny, lead, 1.0)
    base = -np.expm1(-2.0 * kappa * (R[..., None, None] - u)) / lead[..., None, None]
    val = half * np.sum((np.exp(-rate * u) * base ** (n - 1)) @ wts, axis=-1)
    return (math.log(n) + _log_ball_volume(n) - (n - 1) * math.log(2.0 * kappa)
            + rate * R + np.log(val) + (n - 1) * np.log(lead))


def _exp(x: float) -> float:
    """e^x, inf where it exceeds the float range (`math.exp` raises there)."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


# bytes per term that a weight sum allocates at its peak: three float64
# arrays of N_max terms (tracemalloc at N_max = 10^6: 24.0 B/term for a = 0,
# 16.0 for a < 0; in both the terms overwrite their logs)
_TERM_BYTES = 8 * 3
_LN2 = math.log(2.0)
_LOG_TINY = math.log(np.finfo(float).tiny)     # below e^_LOG_TINY a term is subnormal
_LOG_ZERO = -746.0                              # and below e^_LOG_ZERO an exact 0.0
_LOG_RESOLVED = 2.0 ** 53       # past it, a double's spacing exceeds 1 and terms lose all digits


def summability_check(w: WeightSpec, N_max: int = 250_000) -> dict:
    """Partial sums of sum_{N>=2} V(2N) / f_tau(2N-2) plus a tail bound.

    V is the volume of the comparison space form with curvature a (a
    Euclidean ball for a = 0; for a < 0 by `_log_volume_neg`'s quadrature,
    numpy alone).  For a < 0 one quadrature call takes the terms up to a
    radius fixed in closed form, and the log-terms past it are extended
    linearly from the last one taken.  That radius is at most
    60/(kappa (n - 1)) + 19/kappa, past which log V(R) is linear in R to
    rounding; for a falling sum it is at most where the bound
    C e^(kappa (n - 1) R) / f_tau(R - 2) on the terms, which the tail
    estimate uses, lies e^80 below omega_n 4^n / f_tau(2), a lower bound on
    the first term.  A falling sum is exponentiated and summed only up to
    where its extension sinks below the float range, a closed form.  Where
    the largest term is subnormal or less, the terms are scaled by 2^-k
    before they are summed.  Returns partial sums over N = 2..N_max, the
    sum's log `log_sum`, `log_tail_bound`, the log of a rigorous analytic
    bound on the discarded tail, and the verdict, decided in log space: the
    last log-terms fall and log_tail_bound < log(1e-6) + log_sum.
    Next to the verdict stand its threshold and margin: the series
    converges iff tau > tau_critical, which is kappa (n - 1) - n for a < 0
    (the terms behave like e^(2 (kappa (n - 1) - n - tau) N), kappa =
    sqrt(-a)) and 1 for a = 0, and `margin` is tau - tau_critical.
    An N_max that is not a finite integer >= 10, or whose term arrays
    exceed physical memory, raises `InvalidInput` before anything is
    allocated; a largest log-term below -2^53, which doubles no longer
    resolve, raises `InvalidWeight`.
    """
    if not (isinstance(N_max, numbers.Real) and math.isfinite(N_max)
            and int(N_max) == N_max and N_max >= 10):
        raise InvalidInput(f"N_max must be an integer >= 10, got {N_max}")
    N_max = int(N_max)
    _require_memory(N_max * _TERM_BYTES, f"N_max={N_max}", "its terms", InvalidInput)
    tau_critical = math.sqrt(-w.a) * (w.n - 1) - w.n if w.a < 0 else 1.0
    nt = w.n + w.tau
    log_omega = _log_ball_volume(w.n)

    if w.a == 0:
        # log(2N) for N = 1..N_max: log(2N) and log(2N - 2) over N = 2..N_max
        # are its two overlapping slices
        log_2N = np.log(np.arange(2.0, 2.0 * N_max + 1, 2.0))
        with np.errstate(over="ignore"):        # -inf past the double range, refused below
            log_terms = log_omega + w.n * log_2N[1:] - nt * log_2N[:-1]
        top = log_terms[0]          # (N/(N-1))^n and (2N-2)^-tau both fall
        # tail over N > N_max:  (2N)^n/(2N-2)^(n+tau) <= (M/(M-1))^n (2N-2)^(-tau)
        # with M = N_max+1, and sum (2N-2)^(-tau) bounded by an integral:
        # omega_n (M/(M-1))^n (2(M-1))^(-tau) (1 + (M-1)/(tau-1)), in log form
        M = N_max + 1
        log_tail = (log_omega + w.n * math.log1p(1.0 / (M - 1.0))
                    - w.tau * math.log(2.0 * (M - 1.0)) + math.log1p((M - 1.0) / (w.tau - 1.0)))
    else:
        kappa = math.sqrt(-w.a)
        grow = kappa * (w.n - 1)        # log V(R) rises as grow * R
        slope = 2.0 * (grow - nt)       # and the log-terms as slope * N
        # V(R) <= C e^(grow R) with C = A_{n-1} / ((2 kappa)^(n-1) grow)
        log_C = (math.log(w.n) + log_omega - (w.n - 1) * math.log(2.0 * kappa)
                 - math.log(grow))
        # integrate while log V(R) is not yet linear in R to rounding, and a
        # falling sum only until that bound is 80 e-folds under the first term
        R_end = 60.0 / grow + 19.0 / kappa
        if slope < 0:
            R_end = min(R_end, (log_C + 80.0 + 4.0 * nt - log_omega - w.n * math.log(4.0))
                        / (nt - grow))
        stop = min(N_max - 1, max(1, math.ceil(R_end / 2.0) - 1))
        R = np.arange(4.0, 2.0 * stop + 3.0, 2.0)
        log_terms = np.empty(N_max - 1)
        with np.errstate(over="ignore"):        # -inf past the double range, refused below
            log_terms[:stop] = _log_volume_neg(w.a, w.n, R) - nt * (R - 2.0)
            ext = log_terms[stop:]     # past it the log-terms are extended linearly
            np.multiply(np.arange(1.0, len(ext) + 1), slope, out=ext)
            ext += log_terms[stop - 1]
        top = max(np.max(log_terms[:stop]), log_terms[-1])     # the extension is monotone
        # geometric tail of the bound C e^(grow 2N) / f_tau(2N - 2)
        log_tail = (log_C + (N_max + 1) * slope + 2.0 * nt - math.log1p(-math.exp(slope))
                    if slope < 0 else math.inf)

    if not top > -_LOG_RESOLVED:        # also -inf and nan
        raise InvalidWeight(f"the largest log-term {top:.6g} lies below -2^53, where doubles "
                            f"no longer resolve the terms (margin {w.tau - tau_critical:.6g})")
    # scaled by 2^-k only where the largest term is subnormal or less
    k = math.floor(top / _LN2) if top < _LOG_TINY else 0
    cut = N_max - 1                 # the head: the terms exponentiated and summed
    if w.a < 0 and slope < 0:
        # past j = q the extension log_terms[stop - 1] + j slope lies below
        # _LOG_ZERO + k ln 2, and its scaled terms are exact zeros
        q = (log_terms[stop - 1] - k * _LN2 - _LOG_ZERO) / -slope
        cut = stop + min(len(ext), max(0, math.ceil(q)))
    # eventually decreasing: the last 5 log-term differences are < 0 (N_max >= 10)
    eventually_decreasing = bool(np.all(np.diff(log_terms[-6:]) < 0.0))
    terms, head = log_terms, log_terms[:cut]
    if k:
        head -= k * _LN2
    partial_sums = np.empty_like(terms)
    # a divergent a < 0 sum of finite terms may overflow to inf here
    with np.errstate(over="ignore"):
        np.exp(head, out=head)
        np.cumsum(head, out=partial_sums[:cut])
    terms[cut:] = 0.0
    partial_sums[cut:] = partial_sums[cut - 1]
    log_sum = k * _LN2 + math.log(partial_sums[-1])
    if k and k + math.frexp(partial_sums[-1])[1] <= -1075:
        # every value v < 2^e has v 2^k < 2^-1075, which np.ldexp rounds to 0
        terms[:] = partial_sums[:] = 0.0
    elif k:
        np.ldexp(terms, k, out=terms)
        np.ldexp(partial_sums, k, out=partial_sums)
    tail = _exp(log_tail)
    return {
        "a": w.a, "n": w.n, "tau": w.tau, "N_max": N_max,
        "terms": terms, "partial_sums": partial_sums,
        "tail_bound": tail, "bound": float(partial_sums[-1]) + tail,
        "log_sum": log_sum, "log_tail_bound": log_tail,
        "converged": eventually_decreasing and log_tail < math.log(1e-6) + log_sum,
        "tau_critical": tau_critical, "margin": w.tau - tau_critical,
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
        # sizes in Python floats, which reach inf past the double range without a warning
        if not (self.radius > 0 and math.isfinite(2.0 * float(self.radius))):
            raise InvalidInput(f"radius must be positive with a finite 2R, got {self.radius}")
        if not (np.isfinite(self.dx) and self.dx > 0):
            raise InvalidInput(f"dx must be positive, got {self.dx}")
        if self.dx > self.radius:
            raise InvalidInput("dx larger than the radius")
        steps = 2.0 * float(self.radius) / float(self.dx)
        if not math.isfinite(steps):
            raise GridTooLarge(f"2R/dx overflows a double at R={self.radius}, dx={self.dx}")
        steps = max(2, int(round(steps)))
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
        m = float(self.npts)           # m^3 in floats: inf, not a 900-digit int
        _require_memory(m * m * m * point_bytes, f"{m:.6g}^3 grid", what, GridTooLarge)

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
        from . import catalog
        return catalog.get(self.name).expected.lam

    @property
    def d(self) -> np.ndarray:
        from . import catalog
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
    and g'' = A^T g' + g' A; every other entry is exactly 0.  Points where g
    overflows or is not numerically positive definite (exp(t A) leaves the
    range of a double near |t| = 355 on sol3 and hyp3) are refused with
    `InvalidInput`, before any jet or inverse is formed.
    """
    pts = np.asarray(pts, dtype=float)
    A, a = cm.A, cm.axis
    with np.errstate(over="ignore", invalid="ignore"):
        g0 = cm.metric(pts[..., a])
    try:
        if not np.isfinite(g0).all():
            raise np.linalg.LinAlgError
        np.linalg.cholesky(g0)
    except np.linalg.LinAlgError:
        raise InvalidInput(f"the {cm.name} chart metric is not finite and positive "
                           f"definite at chart coordinates up to |t| = "
                           f"{np.max(np.abs(pts[..., a])):.6g}") from None
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
# the operator holds at its peak: h, the slab of its 6 components, the 9
# entries of `apply_L_fd`'s result and 8 for one block of the stack R = [D_0 h,
# D_1 h, D_2 h, h], the block's L h and buffer, and the operator plan, whose
# mask takes 1 byte per point (tracemalloc of one `apply_L_fd`: 22.0 at
# 33^3 and 17.0 at 65^3 apart from the coordinates and h; at 17^3, where one
# block spans the grid, the stack alone is 24); curvature fields are views of
# their line
_POINT_BYTES = 8 * (3 + 9 + 6 + 9 + 8)
# bytes of `_apply_L`'s block stack: the 24 rows of R for each line value of
# a block, at least three line values (one interior value) per block
_STACK_BYTES = 2 ** 20
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
    (N^3, 3), are evaluated point by point, `_BLOCK` at a time.  Points
    where the metric or a field overflows are refused with `InvalidInput`
    (on hyp3 the curvature does first, near |t| = 177).
    """
    pts = np.asarray(pts, dtype=float)
    red = _line_reduced(cm, pts)
    flat = red.reshape(-1, 3)
    out = {key: np.empty((len(flat),) + tail) for key, tail in _FIELD_SHAPES.items()}
    with np.errstate(over="ignore", invalid="ignore"):
        for blk in (slice(s, s + _BLOCK) for s in range(0, len(flat), _BLOCK)):
            _curvature_block(cm, flat[blk], {key: a[blk] for key, a in out.items()})
    if not all(np.isfinite(a).all() for a in out.values()):
        raise InvalidInput(f"the curvature of the {cm.name} chart metric overflows at chart "
                           f"coordinates up to |t| = {np.max(np.abs(flat[:, cm.axis])):.6g}")
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

    The axes of `field` and of `out` after the first must be contiguous
    together (a C-contiguous array, or a slab's run of components): the
    interior is then one shifted subtraction per index of axis 0, and the
    two end planes along `axis` are set after, by basic indexing.
    """
    n = field.shape[0]
    src, dst = field.reshape(n, -1), out.reshape(n, -1)
    if axis == 0:
        np.subtract(src[2:], src[:-2], out=dst[1:-1])
    else:
        s = math.prod(field.shape[axis + 1:])
        np.subtract(src[:, 2 * s:], src[:, :-2 * s], out=dst[:, s:-s])
    lead = (slice(None),) * axis
    out[lead + (0,)] = field[lead + (1,)]
    np.negative(field[lead + (-2,)], out=out[lead + (-1,)])
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


@functools.cache
def _line_tables() -> tuple:
    """Read-only constant tables, built on first use (not at import): T9 and
    T81 with _sym_map(X, I) = vec X @ T9 and _sym_map(X, Y) = vec(X (x) Y) @
    T81 (it is bilinear), and KRON with vec g @ KRON = g^ab delta_ij over
    (a, i, b, j)."""
    I3, E = np.eye(3), np.eye(9).reshape(9, 3, 3)
    tables = (_sym_map(E, I3).reshape(9, 36), _sym_map(E[:, None], E).reshape(81, 36),
              np.einsum("Aa,Bb,ij->ABaibj", I3, I3, np.eye(6)).reshape(9, 324))
    for t in tables:
        t.setflags(write=False)
    return tables


def _max_abs(a: np.ndarray) -> float:
    """max |a| of a slab view, NaN or inf iff `a` holds one; reduced along
    each line value's run first, which numpy does faster than a whole
    strided reduction."""
    a = a.reshape(len(a), -1)
    return max(float(a.max(axis=1).max()), -float(a.min(axis=1).min()))


def _operator_input(cm: ChartMetric, lam: float, d, h: np.ndarray, grid: GridSpec,
                    fields: dict = None) -> tuple:
    """Checked operator input: the `_operator_plan` of (cm, lam, D, grid), and
    h's 6 components as an (N, 6, N, N) slab, the chart axis first.

    Grid `fields` are only checked against the grid: the plan evaluates the
    curvature on the N points of the chart axis, where it equals theirs.  h
    must be finite and symmetric: max|h_ij - h_ji| may not exceed `SYM_TOL`
    times max|h|.
    """
    plan = _operator_plan(cm, float(lam), tuple(map(float, d)), grid)
    N = grid.npts
    bad = [] if fields is None else sorted(
        key for key, tail in _FIELD_SHAPES.items()
        if key not in fields or np.shape(fields[key]) != (N,) * 3 + tail)
    if bad:
        raise InvalidInput(f"fields {bad} do not match the {N}^3 grid")
    h = np.asarray(h, dtype=float)
    shape = (N,) * 3 + (3, 3)
    if h.shape != shape:
        raise InvalidInput(f"field shape {h.shape} does not match grid {shape}")
    # h's 9 entries in slab layout (a view), and its 6 components by one copy
    hv = np.moveaxis(h.reshape((N,) * 3 + (9,)), (cm.axis, 3), (0, 1))
    S = np.empty((N, 6, N, N))
    S[:, :3] = hv[:, 0:9:4]                          # 00, 11, 22
    S[:, 3:5] = hv[:, 1:3]                           # 01, 02
    S[:, 5] = hv[:, 5]                               # 12
    scale = _max_abs(S)
    if math.isfinite(scale):
        # h_ij - h_ji for 01, 02, 12, subtracted only when finite (no inf - inf);
        # a NaN below the diagonal makes it NaN
        asym = np.empty((N, 3, N, N))
        np.subtract(hv[:, 1:3], hv[:, 3:7:3], out=asym[:, :2])
        np.subtract(hv[:, 5], hv[:, 7], out=asym[:, 2])
        asym = _max_abs(asym)
    else:
        asym = scale
    if not math.isfinite(asym):
        raise InvalidInput("field has non-finite entries")
    if asym > SYM_TOL * scale:
        raise InvalidInput(f"field is not symmetric: max|h_ij - h_ji| = {asym:.3e} "
                           f"against max|h| = {scale:.3e}")
    return plan, S


@functools.lru_cache(maxsize=1)
def _operator_plan(cm: ChartMetric, lam: float, d: tuple, grid: GridSpec) -> tuple:
    """The part of the operator on `grid` that does not depend on h, all
    read-only: (C, W, P, outside, drift), with (C, W, P) of
    `_line_coefficients`, the Dirichlet mask `outside` on the interior line
    values, and the drift rows d_a x^a / 2 dx of the two invariant axes on
    their (N, N) plane (None where d_a = 0).

    The last plan is kept, so consecutive operator calls with one chart,
    lam, D (a tuple of floats) and grid build it once.  It holds no h and no
    workspace, so calls stay re-entrant.  A refusal is never kept:
    `GridTooCoarse` if dx > R/8, and an overflowing chart metric, curvature
    or coefficient (`InvalidInput`).
    """
    if grid.dx > grid.radius / 8.0 + 1e-12:
        raise GridTooCoarse(f"dx = {grid.dx} exceeds radius/8 = {grid.radius / 8.0}")
    N, n, dx, c = grid.npts, grid.npts - 2, grid.dx, cm.axis
    ax, line = grid.axis(), np.zeros((N, 3))
    line[:, c] = ax
    C, W, P = _line_coefficients(cm, lam, d, grid, curvature_fields(cm, line))
    others = [a for a in range(3) if a != c]
    sax = {c: 0, others[0]: 2, others[1]: 3}                     # slab axis of each grid axis
    # the mask, r^2 summed in grid-axis order
    sq = ax * ax
    r2 = [(sq[1:-1] if a == c else sq).reshape([-1 if s == sax[a] else 1 for s in range(4)])
          for a in range(3)]
    outside = ((r2[0] + r2[1]) + r2[2] >= grid.radius ** 2).reshape(n, 1, -1)
    drift = []
    for a in others:
        coef = (d[a] / (2.0 * dx)) * ax
        drift.append(np.broadcast_to(coef[:, None] if sax[a] == 2 else coef, (N, N))
                     .reshape(1, 1, -1) if d[a] != 0.0 else None)
    plan = (C, W, P, outside, tuple(drift))
    for arr in (C, W, P, outside, *drift):
        if arr is not None:
            arr.setflags(write=False)
    return plan


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
    ball (Dirichlet).  The part of L that does not depend on h is built once
    per grid and reused by the next call with the same chart, lam, D and
    grid (`_operator_plan`); `_fields` are only checked against the grid.
    """
    plan, S = _operator_input(cm, lam, d, h, grid, _fields)
    N = grid.npts
    out = np.empty((N, 3, 3, N * N))
    for lo, hi, V in _apply_L(cm, grid, S, plan):
        # the 9 entries of L h; "clip" writes into `out` unbuffered
        np.take(V, _FULL, axis=1, out=out[lo:hi], mode="clip")
    return np.moveaxis(out.reshape(N, 3, 3, N, N), (0, 1, 2), (cm.axis, 3, 4))


def _line_coefficients(cm: ChartMetric, lam: float, d, grid: GridSpec,
                       line: dict) -> tuple:
    """(C, W, P), the coefficients of `_apply_L` on R per line value x and
    the weights of the L2 pairing.

    On the interior x = 1 .. N - 2, C (N - 2, 6, 72) = [-W_c | M | W_c] acts
    on the rows of R at x - 1, x and x + 1, the chart axis's W_c taking K_b
    at x - 1 and x + 1 (and its drift joining -Q_c / 2 dx); W (N - 2, 2, 6,
    24) are the invariant axes' W_a, in grid-axis order.  On each plane of
    the chart axis, plane sums v_c . h_d of two fields' components pair as
    sum_cd P[x, c, d] (v_c . h_d), P (N, 6, 6) = sqrt(det g) dx^3 MULT_c
    H[c, d] with H: h -> g^-1 h g^-1.  The products of g^-1 in H and P are
    the first coefficients to overflow (near |t| = 177 on sol3); a grid on
    which they do is refused with `InvalidInput` before numpy warns.
    """
    N, n, c, dx, I6 = grid.npts, grid.npts - 2, cm.axis, grid.dx, np.eye(6)
    ax, d = grid.axis(), np.asarray(d, dtype=float)
    g, G, Rm, Rc = line["ginv"], line["Gamma"], line["Rm"], line["Rc"]
    T9, T81, KRON = _line_tables()
    # K[:, b] = K_b and H as 36-vectors on the whole line, the rest on its interior
    K = (G.transpose(0, 2, 1, 3).reshape(3 * N, 9) @ T9).reshape(N, 3, 36)
    with np.errstate(over="ignore", invalid="ignore"):
        H = ((0.5 * g.reshape(N, 9, 1) * g.reshape(N, 1, 9)).reshape(N, 81) @ T81).reshape(N, 6, 6)
        P = (line["sqrt_det"] * dx ** 3)[:, None, None] * (_MULT[:, None] * H)
    if not np.isfinite(P).all():        # P is finite only where H is
        raise InvalidInput(f"the {cm.name} chart metric's operator coefficients overflow "
                           f"on the grid of radius {grid.radius}")
    g, G, Ki = g[1:-1], G[1:-1], K[1:-1]
    # Z = 2 Rm(g^-1 h g^-1) - Rc^T h - h Rc + (2 lam + d_i + d_j) h_ij
    Rm9 = Rm[1:-1].transpose(0, 1, 3, 2, 4)[:, _I6, _J6].reshape(n, 6, 9)   # Rm[i, a, j, b]
    Z = 2.0 * (Rm9 @ H[1:-1, _FULL.ravel()]) - (Rc[1:-1].reshape(n, 9) @ T9).reshape(n, 6, 6)
    Z.reshape(n, 36)[:, ::7] += 2.0 * lam + d[_I6] + d[_J6]        # its diagonal
    # Delta h_ij = g^ab [ d_a nabla_b h_ij - G^p_ab nabla_p h_ij - G^p_ai nabla_b h_pj
    # - G^p_aj nabla_b h_ip ]: the last three terms are Q_b nabla_b h with
    # Q_b = trG_b + sum_a g^ba K_a, laid out as [Q_0 | Q_1 | Q_2]
    gK = g @ Ki
    trG = (G.reshape(n, 3, 9) @ g.reshape(n, 9, 1)).reshape(n, 3)
    Q = (gK.reshape(n, 3, 6, 6) + trG[:, :, None, None] * I6).transpose(0, 2, 1, 3).reshape(n, 6, 18)
    # the flux weights of S_a = g^ab T_b / (2 dx)^2 on R, with K_b at x
    W = np.empty((n, 3, 6, 24))
    W[..., :18] = ((g / (2.0 * dx) ** 2).reshape(n, 9) @ KRON).reshape(n, 3, 6, 18)
    W[..., 18:] = (gK / (-2.0 * dx)).reshape(n, 3, 6, 6)
    C = np.empty((n, 6, 72))
    C[:, :, :18] = -W[:, c, :, :18]
    C[:, :, 18:24] = (g[:, c, None] @ K[:-2]).reshape(n, 6, 6) / (2.0 * dx)
    C[:, :, 42:48] = Z + Q @ Ki.reshape(n, 18, 6)
    Q.reshape(n, 108)[:, 6 * c::19] -= (d[c] * ax[1:-1])[:, None]   # the diagonal of Q_c
    C[:, :, 24:42] = Q / (-2.0 * dx)
    C[:, :, 48:66] = W[:, c, :, :18]
    C[:, :, 66:] = (g[:, c, None] @ K[2:]).reshape(n, 6, 6) / (-2.0 * dx)
    return C, W[:, [a for a in range(3) if a != c]], P


def _apply_L(cm: ChartMetric, grid: GridSpec, S: np.ndarray, plan: tuple):
    """Yield (lo, hi, V): L h on the line values lo .. hi - 1, in order and
    each once, for the slab S of `_operator_input` and the `_operator_plan`
    of its grid.  V (hi - lo, 12, N^2) holds L h in its first 6 rows and h
    in the last 6; it is only valid until the next block.

    R = [D_0 h, D_1 h, D_2 h, h] holds raw centred differences D_a h = 2 dx
    d_a h (zero ghost cells).  With K_b: h -> Gamma_b^T h + h Gamma_b,
    T_b = 2 dx nabla_b h = D_b h - 2 dx K_b h, so every term is a line
    coefficient times R: the zeroth- and first-order part is M[x] R with
    M = [-Q_b / 2 dx | Z + sum_b Q_b K_b], and each Laplacian flux S_a =
    g^ab T_b / (2 dx)^2 = W_a[x] R is differenced along a.  The rows of R at
    x - 1, x and x + 1 are consecutive, so M and the chart axis's flux are
    one batched matmul over the interior x (the end planes lie outside the
    ball); each invariant axis's flux, and its drift, whose coefficient
    varies over the plane, are a product into one buffer.

    R exists one block of interior line values x0 .. x1 - 1 at a time: its
    rows for x0 - 1 .. x1, within `_STACK_BYTES` (at least one value per
    block), so only the slab spans the grid.
    """
    N, n, c = grid.npts, grid.npts - 2, cm.axis
    C, W, _, outside, drift = plan
    others = [a for a in range(3) if a != c]
    sax = {c: 0, others[0]: 2, others[1]: 3}                     # slab axis of each grid axis
    b = min(n, max(1, _STACK_BYTES // (8 * 24 * N * N) - 2))
    stack, Lb, buf = np.empty((b + 2, 24, N, N)), np.empty((b, 6, N * N)), np.empty((b, 6, N * N))
    for x0 in range(1, N - 1, b):
        x1 = min(x0 + b, N - 1)
        m = x1 - x0
        R = stack[:m + 2]                                        # line values x0 - 1 .. x1
        R[:, 18:] = S[x0 - 1:x1 + 1]
        # the chart axis's differences S[x + 1] - S[x - 1], zero ghost cells
        # past both ends, as `_diff` takes them
        Dc, lo, hi = R[:, 6 * c:6 * c + 6], max(x0 - 1, 1), min(x1, N - 2)
        np.subtract(S[lo + 1:hi + 2], S[lo - 1:hi], out=Dc[lo - x0 + 1:hi - x0 + 2])
        if x0 == 1:
            Dc[0] = S[1]
        if x1 == N - 1:
            np.negative(S[N - 2], out=Dc[-1])
        for a in others:
            _diff(R[:, 18:], sax[a], R[:, 6 * a:6 * a + 6])
        R2 = R.reshape(m + 2, 24, -1)
        # the (72, N^2) rows of R at x - 1, x and x + 1, one view per interior x
        rows = np.ndarray((m, 72, N * N), buffer=R2, strides=R2.strides[:2] + (8,))
        Li, Ri, bf = np.matmul(C[x0 - 1:x1 - 1], rows, out=Lb[:m]), R2[1:-1], buf[:m]
        Lf = Li.reshape(-1)
        for k, a in enumerate(others):
            if drift[k] is not None:
                Li += np.multiply(drift[k], Ri[:, 6 * a:6 * a + 6], out=bf)
            # the weights are constant along a, so d_a commutes with them; the
            # shifted adds run over the flat block (numpy adds 1-d runs several
            # times faster than 2-d ones) and reach across the ends of a and of
            # each line value, only onto the cube's faces, which the mask zeroes
            s = N ** (3 - sax[a])
            Sf = np.matmul(W[x0 - 1:x1 - 1, k], Ri, out=bf).reshape(-1)
            Lf[:-s] += Sf[s:]
            Lf[s:] -= Sf[:-s]
        np.copyto(Li, 0.0, where=outside[x0 - 1:x1 - 1])
        # L h next to h, in the rows of R whose differences are spent; L h is
        # 0 on the end planes, which the first and last blocks carry
        R2[1:-1, 12:18] = Li
        lo, hi = (0 if x0 == 1 else x0), (N if x1 == N - 1 else x1)
        if lo == 0:
            R2[0, 12:18] = 0.0
        if hi == N:
            R2[-1, 12:18] = 0.0
        yield lo, hi, R2[lo - x0 + 1:hi - x0 + 1, 12:]


def rayleigh_quotient(cm: ChartMetric, lam: float, d, h: np.ndarray,
                      grid: GridSpec, _fields: dict = None) -> float:
    """(L h, h) / (h, h) in the L2 pairing of the chart metric.

    `h` is a symmetric field, as for `apply_L_fd`; the pairing runs over
    its 6 components, each off-diagonal one counted twice.  Pointwise inner
    products raise indices with g; the measure is sqrt(det g) dx^3.
    Scale-invariant by construction.  As in `apply_L_fd`, the part of L
    that does not depend on h is reused by the next call with the same
    chart, lam, D and grid, and `_fields` are only checked.
    """
    plan, S = _operator_input(cm, lam, d, h, grid, _fields)
    N = grid.npts
    # one product per block gives the plane sums of both pairings (numpy
    # would send h h^T alone to syrk, slower here)
    sums = np.empty((N, 12, 6))
    for lo, hi, V in _apply_L(cm, grid, S, plan):
        np.matmul(V, V[:, 6:].transpose(0, 2, 1), out=sums[lo:hi])
    num, den = np.einsum("xkc,xc->k", sums.reshape(N, 2, 36), plan[2].reshape(N, 36))
    if den <= 0.0 or not np.isfinite(den):
        raise InvalidInput("Rayleigh quotient of a zero (or degenerate) field")
    return float(num) / float(den)


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
    return np.swapaxes(C, -1, -2) @ (0.5 * (S + np.swapaxes(S, -1, -2))) @ C


def probe_tensor_suite(cm: ChartMetric, grid: GridSpec, count: int = 20,
                       seed: int = 0) -> list:
    """Bump-modulated compactly supported test tensors for Rayleigh probes.

    The first entries sweep the symmetric frame basis; the rest are
    seeded random symmetric combinations.  All are supported in the open
    ball (the bump ramps from 0.45 R to 0.9 R) and C^2 at the cutoff.
    """
    _check_probes(count, seed)
    # the suite's 9 doubles per point and tensor, held next to the operator
    grid.require_memory(_POINT_BYTES + 72 * count,
                        f"its coordinates, operator and {count} probe tensors")
    chi = radial_bump(grid, 0.45 * grid.radius, 0.9 * grid.radius)
    C = cm.coframe(_on_axis(cm, grid.axis()))
    return [chi[..., None, None] * _frame_field(C, S) for S in _probe_matrices(count, seed)]


def _check_probes(count: int, seed: int):
    """Refuse a probe count below 1 or a seed that `check_seed` refuses."""
    if count < 1:
        raise InvalidInput("count must be positive")
    check_seed(seed)


def _probe_matrices(count: int, seed: int) -> np.ndarray:
    """The frame matrices of the probe suite, shape (count, 3, 3): the
    symmetric frame units E_ij, i <= j in `np.triu_indices` order, then
    seeded random symmetric matrices of unit Frobenius norm."""
    mats = np.zeros((max(count, 6), 3, 3))
    I, J = np.triu_indices(3)
    mats[np.arange(6), I, J] = mats[np.arange(6), J, I] = 1.0
    rng = np.random.default_rng(seed)
    for S in mats[6:]:
        A = rng.uniform(-1.0, 1.0, size=(3, 3))
        S[...] = 0.5 * (A + A.T)
        S /= np.linalg.norm(S)
    return mats[:count]


# bytes per probe that `rayleigh_span` and its caller hold at their peak,
# apart from the grid arrays: the frame matrix, its 6 span coordinates and
# the quotient, then the quotient list and its JSON text (tracemalloc: 160
# B/probe in `rayleigh_span`, 146 while `rayleigh` prints its report)
_PROBE_BYTES = 8 * 24


def rayleigh_span(cm: ChartMetric, lam: float, d, grid: GridSpec, count: int = 20,
                  seed: int = 0) -> tuple:
    """The Rayleigh quotients of `probe_tensor_suite(cm, grid, count, seed)`,
    in suite order, and the exact maximum of the quotient over their span.

    Every probe chi C^T S C lies in the span of the six frame units h_k =
    chi C^T E_k C, and L and the pairing of `rayleigh_quotient` are linear,
    so the probe with coordinates s = (S_ij), i <= j, has quotient
    s^T A s / s^T B s with A_kl = (L h_k, h_l) and B_kl = (h_k, h_l).  L is
    applied once to each h_k, so a count below 6 costs as much as 6.  Each
    h_k is a line function times chi, so both pairings are line sums of
    plane sums against chi.  span_max is the top eigenvalue of the pencil
    (sym A, B), by Cholesky of B and `eigvalsh` in numpy alone: the supremum
    of the quotient over the span, at least every sampled quotient up to
    rounding.  The six applications share one `_operator_plan`, which the
    next call with the same chart, lam, D and grid reuses.

    Returns (quotients, span_max).  Refused before anything grid-sized is
    allocated: a count or seed that `probe_tensor_suite` refuses, a count
    whose probes (`_PROBE_BYTES` each) exceed physical memory
    (`InvalidInput`), a grid whose
    coordinates and operator do (`GridTooLarge`), dx > R/8
    (`GridTooCoarse`), and a radius at which the chart metric, its
    curvature or the operator's coefficients overflow (`InvalidInput`).
    """
    _check_probes(count, seed)
    _require_memory(count * _PROBE_BYTES, f"count={count}", "its probes", InvalidInput)
    grid.require_memory(_POINT_BYTES, "its coordinates and operator")
    plan = _operator_plan(cm, float(lam), tuple(map(float, d)), grid)
    N = grid.npts
    chi = np.moveaxis(radial_bump(grid, 0.45 * grid.radius, 0.9 * grid.radius), cm.axis, 0)
    # the first six frame matrices are the units E_k; F[x, k, c] is component
    # c of C^T E_k C at line value x
    mats = _probe_matrices(max(count, 6), seed)
    F = _frame_field(cm.coframe(grid.axis())[:, None], mats[:6])[..., _I6, _J6]
    S, V = np.empty((N, 6, N, N)), np.empty((N, 6, 6))
    chi_col = np.ascontiguousarray(chi).reshape(N, N * N, 1)
    for k in range(6):
        np.multiply(F[:, k, :, None, None], chi[:, None], out=S)
        for lo, hi, Lh in _apply_L(cm, grid, S, plan):
            V[lo:hi, k] = (Lh[:, :6] @ chi_col[lo:hi])[..., 0]
    # G[x, c, l] = sum_d P[x, c, d] F[x, l, d]: a plane sum v pairs with
    # h_l as sum_c v_c G[x, c, l]
    G = plan[2] @ F.transpose(0, 2, 1)
    A = np.einsum("xkc,xcl->kl", V, G)
    B = np.einsum("xkc,xcl->kl", np.einsum("xab,xab->x", chi, chi)[:, None, None] * F, G)
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(B))):
        raise InvalidInput("Rayleigh quotients of non-finite probe fields")
    try:
        Lc = np.linalg.cholesky(B)
    except np.linalg.LinAlgError:
        raise InvalidInput("Rayleigh quotients of a degenerate probe span: its Gram "
                           "matrix is not positive definite") from None
    I, J = np.triu_indices(3)
    s = mats[:count, I, J]
    quotients = np.einsum("pk,kl,pl->p", s, A, s) / np.einsum("pk,kl,pl->p", s, B, s)
    # Lc^-1 sym(A) Lc^-T has the eigenvalues of the pencil (sym A, B)
    M = np.linalg.solve(Lc, np.linalg.solve(Lc, 0.5 * (A + A.T)).T)
    return quotients.tolist(), float(np.linalg.eigvalsh(0.5 * (M + M.T))[-1])


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
    from scipy import sparse
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
    upper = sparse.csr_matrix(
        (np.concatenate(weights), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n))
    return upper + upper.T  # symmetric: a directed search needs no conversion


def _dijkstra(graph, grid: GridSpec, sources) -> np.ndarray:
    """Graph distances from flat node indices to every grid node, shaped
    `np.shape(sources)` + the grid."""
    from scipy.sparse import csgraph
    out = csgraph.dijkstra(graph, directed=True, indices=sources)
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
    graph: object  # scipy.sparse.csr_matrix
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
    check_seed(seed)
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
