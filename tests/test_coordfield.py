import ast
import math
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.integrate import quad

from solitonlab import catalog, coordfield, leftinv
from solitonlab.coordfield import (
    _BLOCK,
    _FIELD_SHAPES,
    ChartMetric,
    GridSpec,
    _curvature_block,
    _diff1,
    _grid_graph,
    _partials_up_to,
    WeightSpec,
    apply_L_fd,
    build_annulus_cover,
    chart_metric,
    curvature_fields,
    distance_field,
    frame_tensor_field,
    metric_jets,
    probe_tensor_suite,
    radial_bump,
    rayleigh_quotient,
    rayleigh_span,
    summability_check,
    weighted_holder_norm,
)
from solitonlab.errors import (GridTooCoarse, GridTooLarge, InvalidInput, InvalidWeight,
                               NotInCatalog)
from solitonlab.soliton import solve_soliton
from solitonlab.stability import assemble_operator, sym_tensor_basis, unvec_sym, vec_sym

GRID = GridSpec(radius=2.0, dx=0.25)


@pytest.fixture(scope="module")
def nil3_fields():
    cm = chart_metric("nil3")
    return cm, curvature_fields(cm, GRID.points())


@pytest.fixture(scope="module")
def hyp3_fields():
    cm = chart_metric("hyp3")
    return cm, curvature_fields(cm, GRID.points())


# ---------------------------------------------------------------- weights

def test_weight_function_forms():
    w0 = WeightSpec(a=0.0, n=3, tau=2.0)
    assert w0.f(0.0) == 0.0
    assert abs(w0.f(2.0) - 2.0 ** 5) < 1e-12
    wa = WeightSpec(a=-1.0, n=3, tau=1.0)
    assert abs(wa.f(1.0) - np.exp(4.0)) < 1e-10


def test_weight_legality():
    with pytest.raises(InvalidWeight):
        WeightSpec(a=0.0, n=3, tau=1.0)     # needs tau > 1
    with pytest.raises(InvalidWeight):
        WeightSpec(a=-1.0, n=3, tau=0.0)    # needs tau > 0
    with pytest.raises(InvalidWeight):
        WeightSpec(a=0.5, n=3, tau=2.0)     # curvature bound must be <= 0
    with pytest.raises(InvalidWeight):
        WeightSpec(a=0.0, n=1, tau=2.0)
    for n in (math.nan, math.inf):
        with pytest.raises(InvalidWeight):
            WeightSpec(a=0.0, n=n, tau=2.0)
    for a, tau in ((math.nan, 2.0), (-math.inf, 2.0), (0.0, math.nan), (-1.0, math.inf)):
        with pytest.raises(InvalidWeight, match="must be finite"):
            WeightSpec(a=a, n=3, tau=tau)


@given(st.floats(0.1, 8.0), st.floats(0.0, 1.5))
@settings(max_examples=40, deadline=None)
def test_weight_monotone_increasing(r, dr):
    w = WeightSpec(a=-0.5, n=4, tau=0.75)
    assert w.f(r + dr) >= w.f(r)


def test_summability_legal_cases_converge():
    for a, tau in ((-1.0, 1.0), (0.0, 2.0)):
        for n in (2, 5, 8):
            res = summability_check(WeightSpec(a=a, n=n, tau=tau))
            assert res["converged"], (a, n, tau)
            assert res["tail_bound"] < 1e-5 * res["bound"]
            sums = res["partial_sums"]
            assert sums[-1] + res["tail_bound"] == pytest.approx(res["bound"])


@pytest.mark.parametrize("a", [-9.0, -4.0, -1.0, -0.25, -1e-4, -1e-300])
@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_negative_curvature_volume_matches_quadrature(a, n):
    """V_a(R) is the ball volume of the space form of curvature a:
    A_{n-1} int_0^R (sinh(kappa s)/kappa)^(n-1) ds, kappa = sqrt(-a).
    The reference is scipy's adaptive quadrature of the integrand as it
    stands, where it does not overflow.  The radii pass one at a time and
    as one array."""
    kappa = np.sqrt(-a)
    area = n * np.pi ** (n / 2) / math.gamma(n / 2 + 1)
    radii, refs = (0.5, 2.0, 6.0, 40.0, 100.0), []
    for R in radii:
        if kappa * (n - 1) * R < 600:
            ref, _ = quad(lambda s: (np.sinh(kappa * s) / kappa) ** (n - 1), 0.0, R,
                          limit=200)
            log_ref = math.log(area * ref)
        else:
            # sinh(kappa s)^(n-1) overflows; factor e^(kappa (n-1) R) out of
            # the integrand and integrate the rest of it
            rate = kappa * (n - 1)
            rest, _ = quad(lambda s: (-np.expm1(-2.0 * kappa * s) / 2.0) ** (n - 1)
                           * np.exp(rate * (s - R)), 0.0, R, limit=200,
                           points=[max(0.0, R - 60.0 / rate)])
            log_ref = math.log(area) - (n - 1) * math.log(kappa) + rate * R + math.log(rest)
        assert coordfield._log_volume_neg(a, n, R) == pytest.approx(
            log_ref, rel=1e-10, abs=1e-10), R
        refs.append(log_ref)
    assert coordfield._log_volume_neg(a, n, np.array(radii)) == pytest.approx(
        refs, rel=1e-10, abs=1e-10)


@pytest.mark.parametrize("a, n, R, tol", [(-1e-300, n, R, 1e-9) for n in (100, 400)
                                          for R in (4.0, 100.0, 1e4)]
                         + [(-1e-12, 400, 4.0, 1e-8)])
def test_nearly_flat_volume_is_euclidean_in_high_dimension(a, n, R, tol):
    """Where kappa R is small the bounded factor is about (1 - u/R)^(n-1),
    which falls by (n-1)/R e-folds per unit u: resolved, log V_a(R) is the
    Euclidean log(omega_n R^n) (at a = -1e-12 up to a correction of 1e-9)."""
    euclid = coordfield._log_ball_volume(n) + n * math.log(R)
    assert abs(coordfield._log_volume_neg(a, n, R) - euclid) < tol


@pytest.mark.parametrize("N_max", [float("nan"), float("inf"), -math.inf, 9, 10.5, "100"])
def test_summability_refuses_bad_n_max(N_max):
    with pytest.raises(InvalidInput, match="N_max must be an integer >= 10"):
        summability_check(WeightSpec(a=0.0, n=3, tau=2.0), N_max=N_max)


@pytest.mark.parametrize("a", [0.0, -1.0])
def test_summability_refuses_n_max_beyond_physical_memory(a):
    # refused before anything is allocated: 10**15 terms would be petabytes
    tracemalloc.start()
    try:
        with pytest.raises(InvalidInput, match="physical memory"):
            summability_check(WeightSpec(a=a, n=3, tau=2.0), N_max=10 ** 15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_summability_reports_divergence():
    # steep negative curvature beats the weight: kappa (n-1) > n + tau
    res = summability_check(WeightSpec(a=-9.0, n=4, tau=0.5), N_max=400)
    assert not res["converged"]


# the 105 a < 0 settings on which the weight reports were checked
NEGATIVE_WEIGHTS = [(a, n, tau) for a in (-1.0, -0.25, -4.0, -9.0, -0.01)
                    for n in range(2, 9) for tau in (0.5, 2.0, 9.0)]


# a nearly flat space form: V is Euclidean to rounding, and every margin is positive
FLAT_WEIGHTS = [(-1e-300, n, tau) for n in range(2, 9) for tau in (0.5, 2.0, 9.0)]


def test_summability_reports_the_critical_tau():
    """tau* = kappa (n - 1) - n for a < 0 and 1 for a = 0, margin = tau - tau*,
    and no sum with margin <= 0 is reported convergent.  For a < 0 the verdict
    is the margin's sign (a = 0, tau = 1.5 is honestly unconverged at N_max:
    its tail is about 2e-3 of its sum)."""
    negative = 0
    for a, n, tau in (NEGATIVE_WEIGHTS + FLAT_WEIGHTS
                      + [(0.0, n, tau) for n in (2, 5) for tau in (1.5, 9.0)]):
        res = summability_check(WeightSpec(a=a, n=n, tau=tau))
        want = math.sqrt(-a) * (n - 1) - n if a < 0 else 1.0
        assert res["tau_critical"] == want, (a, n, tau)
        assert res["margin"] == tau - want, (a, n, tau)
        if res["margin"] <= 0:
            negative += 1
            assert not res["converged"], (a, n, tau)
        if a < 0:
            assert res["converged"] is (res["margin"] > 0), (a, n, tau)
    assert negative > 20   # the margin-0 settings a = -4, n = 4, tau = 2 among them


@pytest.mark.parametrize("a, n, tau", [(-1.0, 3, 2.0), (-1.0, 2, 2.0), (-0.25, 5, 0.5),
                                       (-9.0, 2, 9.0), (-4.0, 4, 2.0), (-9.0, 4, 0.5)])
def test_summability_terms_past_the_underflow_are_exact_zeros(a, n, tau):
    """Past its last term that does not underflow a falling sum holds exact
    zeros, and its partial sums are the running sum of its terms bit for bit."""
    res = summability_check(WeightSpec(a=a, n=n, tau=tau))
    terms, sums = res["terms"], res["partial_sums"]
    with np.errstate(over="ignore"):
        assert np.array_equal(sums, np.cumsum(terms))
    if res["margin"] > 0:
        last = np.flatnonzero(terms)[-1]
        assert last < len(terms) // 100      # the zeros are nearly all of the series
        assert np.all(terms[last + 1:] == 0.0)
        # the first zero is a term that underflows, N = last + 3, R = 2N
        R = 2.0 * (last + 3)
        assert coordfield._log_volume_neg(a, n, R) - (n + tau) * (R - 2.0) < -699.0


@pytest.mark.parametrize("n, tau", [(3, 4e9), (200_000_000, 2.0)])
def test_summability_far_below_the_double_range_is_a_sum_of_zeros(n, tau):
    """Where the 2^k scale-back sends every partial sum below half the
    smallest subnormal, the sum holds the exact zeros np.ldexp would give,
    and its verdict and log-sum are still read in log space."""
    res = summability_check(WeightSpec(a=0.0, n=n, tau=tau))
    assert res["converged"] and math.isfinite(res["log_sum"])
    assert res["log_sum"] < -1e9
    assert not res["terms"].any() and not res["partial_sums"].any()


@pytest.mark.parametrize("a, n, tau", [(-1.0, 3, 1e305), (-1.0, 3, 1e308), (0.0, 3, 1e300),
                                       (0.0, 3, 1e308), (-1.0, 3, 1e16)])
def test_summability_refuses_log_terms_that_doubles_do_not_resolve(a, n, tau):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidWeight, match=r"below -2\^53"):
            summability_check(WeightSpec(a=a, n=n, tau=tau))


def test_summability_integrates_a_closed_form_extent(monkeypatch):
    """An a < 0 sum takes its terms in one quadrature call, on the same
    number of radii at any distance to tau* (the log-terms are linear past
    60/(kappa (n - 1)) + 19/kappa), and a nearly flat space form stops where
    the terms' bound falls 80 e-folds below the first term."""
    log_volume_neg, counts = coordfield._log_volume_neg, []

    def count(a, n, R):
        counts.append(len(R))
        return log_volume_neg(a, n, R)

    monkeypatch.setattr(coordfield, "_log_volume_neg", count)
    for tau in (3.0, 2.001, 2.0001, 2.000001):
        summability_check(WeightSpec(a=-4.0, n=4, tau=tau))
    assert len(counts) == 4 and len(set(counts)) == 1
    counts.clear()
    for a, n, tau in FLAT_WEIGHTS:
        summability_check(WeightSpec(a=a, n=n, tau=tau))
    assert len(counts) == 21 and max(counts) < 200


def test_summability_terms_decrease_eventually():
    res = summability_check(WeightSpec(a=0.0, n=2, tau=2.0))
    terms = np.asarray(res["terms"][-5:])
    assert np.all(terms[1:] < terms[:-1])


# ------------------------------------------------------------------ grids

def test_grid_snaps_and_centres():
    g = GridSpec(radius=2.0, dx=0.3)
    assert g.npts % 2 == 1
    assert g.dx <= 0.3            # snapped down so the axis hits +/- R exactly
    ax = g.axis()
    assert ax[0] == -2.0 and ax[-1] == 2.0
    i, j, k = g.origin_index
    assert abs(ax[i]) < 1e-15
    pts = g.points()
    assert pts.shape == (g.npts, g.npts, g.npts, 3)
    assert np.all(pts[i, j, k] == 0)


def test_grid_rejects_bad_spacing():
    with pytest.raises(InvalidInput):
        GridSpec(radius=2.0, dx=0.0)
    with pytest.raises(InvalidInput):
        GridSpec(radius=-1.0, dx=0.1)
    with pytest.raises(InvalidInput, match="dx larger than the radius"):
        GridSpec(radius=1.0, dx=1.5)


def test_grid_sizes_past_the_double_range_are_refused():
    with pytest.raises(InvalidInput, match="finite 2R"):
        GridSpec(radius=1e308, dx=1e307)
    with pytest.raises(GridTooLarge, match="overflows a double"):
        GridSpec(radius=4.0, dx=1e-320)
    grid = GridSpec(radius=4.0, dx=1e-300)      # 8e300 + 1 points a side
    with pytest.raises(GridTooLarge, match="physical memory"):
        grid.points()


def test_grid_too_large_refused_before_allocating():
    grid = GridSpec(4.0, 1e-3)      # 8001^3 points
    assert issubclass(GridTooLarge, InvalidInput)
    tracemalloc.start()
    try:
        with pytest.raises(GridTooLarge):
            grid.points()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_grid_memory_guard_counts_no_field_bytes(monkeypatch):
    """The per-point budget covers the coordinates and the operator only,
    not the 146 doubles of curvature fields a grid no longer holds."""
    grid = GridSpec(radius=2.0, dx=0.25)
    n = grid.npts ** 3

    def with_memory(phys):
        pages = {"SC_PHYS_PAGES": phys, "SC_PAGE_SIZE": 1}
        monkeypatch.setattr(coordfield, "os", SimpleNamespace(sysconf=pages.__getitem__))

    with_memory(n * 8 * 146)        # too small for full-grid fields alone
    assert grid.points().shape == (grid.npts,) * 3 + (3,)
    with_memory(n * 8 * 3)          # too small for the coordinates alone
    with pytest.raises(GridTooLarge, match="coordinates and operator"):
        grid.points()


def test_probe_suite_counts_its_tensors_in_the_memory_guard(monkeypatch):
    """A grid whose operator fits but whose probe suite would not is refused
    before the suite is built."""
    cm = chart_metric("nil3")
    grid = GridSpec(radius=2.0, dx=0.25)
    need = grid.npts ** 3 * (coordfield._POINT_BYTES + 72 * 20)
    pages = {"SC_PHYS_PAGES": need - 1, "SC_PAGE_SIZE": 1}
    monkeypatch.setattr(coordfield, "os", SimpleNamespace(sysconf=pages.__getitem__))
    assert grid.points().shape == (grid.npts,) * 3 + (3,)
    with pytest.raises(GridTooLarge, match="20 probe tensors"):
        probe_tensor_suite(cm, grid, count=20)
    assert len(probe_tensor_suite(cm, grid, count=2)) == 2


def test_metric_graph_counts_its_build_peak_in_the_memory_guard(monkeypatch):
    """A grid whose coordinates and operator fit but whose metric graph
    would not at its build peak is refused before the graph is built."""
    cm = chart_metric("nil3")
    grid = GridSpec(radius=2.0, dx=0.25)
    per_point = (coordfield._POINT_BYTES + coordfield._GRAPH_BYTES) // 2
    pages = {"SC_PHYS_PAGES": grid.npts ** 3 * per_point, "SC_PAGE_SIZE": 1}
    monkeypatch.setattr(coordfield, "os", SimpleNamespace(sysconf=pages.__getitem__))
    assert grid.points().shape == (grid.npts,) * 3 + (3,)
    with pytest.raises(GridTooLarge, match="its metric graph"):
        distance_field(cm, grid)
    with pytest.raises(GridTooLarge, match="its metric graph"):
        build_annulus_cover(cm, grid)


def test_metric_graph_build_peak_within_its_memory_figure():
    grid = GridSpec(radius=2.0, dx=0.125)
    assert grid.npts == 33
    tracemalloc.start()
    try:
        _grid_graph(chart_metric("hyp3"), grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= grid.npts ** 3 * coordfield._GRAPH_BYTES


# ----------------------------------------------------------------- charts

def test_chart_metric_unknown_name():
    with pytest.raises(NotInCatalog):
        chart_metric("torus")


# Closed-form metrics and coframes of the three charts as functions of the
# full coordinates (..., 3): an independent reference for `ChartMetric.metric`
# (C^T C of a coframe of one coordinate) and for the evaluations on the axis.

def _ref_metric(name, p):
    x, z = p[..., 0], p[..., 2]
    g = np.zeros(p.shape[:-1] + (3, 3))
    g[..., 2, 2] = 1.0
    if name == "nil3":
        g[..., 0, 0] = 1.0
        g[..., 1, 1] = 1.0 + x * x
        g[..., 1, 2] = -x
        g[..., 2, 1] = -x
    elif name == "sol3":
        g[..., 0, 0] = np.exp(-2.0 * z)
        g[..., 1, 1] = np.exp(2.0 * z)
    else:
        g[..., 0, 0] = np.exp(2.0 * z)
        g[..., 1, 1] = np.exp(2.0 * z)
    return g


def _ref_coframe(name, p):
    x, z = p[..., 0], p[..., 2]
    C = np.zeros(p.shape[:-1] + (3, 3))
    C[..., 2, 2] = 1.0
    if name == "nil3":
        C[..., 0, 0] = 1.0
        C[..., 1, 1] = 1.0
        C[..., 2, 1] = -x
    elif name == "sol3":
        C[..., 0, 0] = np.exp(-z)
        C[..., 1, 1] = np.exp(z)
    else:
        C[..., 0, 0] = np.exp(z)
        C[..., 1, 1] = np.exp(z)
    return C


@pytest.mark.parametrize("name", ["nil3", "sol3", "hyp3"])
def test_chart_metric_matches_closed_form(name):
    """g = C^T C of the one-coordinate coframe equals the closed form to
    1e-15 relative, entry by entry (exactly on nil3, where no exponential
    is squared)."""
    cm = chart_metric(name)
    pts = np.random.default_rng(6).uniform(-4.0, 4.0, size=(2000, 3))
    pts[:33, cm.axis] = GridSpec(radius=4.0, dx=0.25).axis()
    g, ref = cm.metric(pts[:, cm.axis]), _ref_metric(name, pts)
    np.testing.assert_allclose(g, ref, rtol=1e-15, atol=0.0)
    if name == "nil3":
        assert np.array_equal(g, ref)
    assert np.array_equal(cm.coframe(pts[:, cm.axis]), _ref_coframe(name, pts))


def test_charts_identity_at_origin():
    o = np.zeros((1, 3))
    for name in ("nil3", "sol3", "hyp3"):
        cm = chart_metric(name)
        assert np.allclose(cm.metric(o[:, cm.axis])[0], np.eye(3), atol=1e-15)


def test_nil3_origin_ricci_endomorphism(nil3_fields):
    cm, fields = nil3_fields
    Rc = fields["Rc"][GRID.origin_index]
    assert np.allclose(Rc, np.diag([-0.5, -0.5, 0.5]), atol=1e-8)


def test_sol3_scalar_curvature_constant():
    cm = chart_metric("sol3")
    rng = np.random.default_rng(17)
    pts = rng.uniform(-3.0, 3.0, size=(100, 3))
    scal = curvature_fields(cm, pts)["scal"]
    assert np.max(np.abs(scal + 2.0)) < 1e-6


def test_hyp3_is_einstein_everywhere(hyp3_fields):
    cm, fields = hyp3_fields
    assert np.max(np.abs(fields["ric"] + 2.0 * fields["g"])) < 1e-6
    assert np.max(np.abs(fields["scal"] + 6.0)) < 1e-6


def test_metric_jets_nil3_analytic():
    # g = [[1,0,0],[0,1+x^2,-x],[0,-x,1]] depends on x alone
    cm = chart_metric("nil3")
    pts = np.array([[0.7, -1.2, 0.4]])
    g0, dg, d2g = metric_jets(cm, pts)
    x = 0.7
    assert np.allclose(g0[0], [[1, 0, 0], [0, 1 + x * x, -x], [0, -x, 1]],
                       atol=1e-13)
    want_dx = np.array([[0, 0, 0], [0, 2 * x, -1.0], [0, -1.0, 0]])
    assert np.allclose(dg[0, 0], want_dx, atol=1e-10)
    assert np.max(np.abs(dg[0, 1])) < 1e-10 and np.max(np.abs(dg[0, 2])) < 1e-10
    want_dxx = np.array([[0, 0, 0], [0, 2.0, 0], [0, 0, 0]])
    assert np.allclose(d2g[0, 0, 0], want_dxx, atol=1e-8)


def test_metric_jets_hyp3_exponential():
    cm = chart_metric("hyp3")
    pts = np.array([[0.0, 0.0, 0.5]])
    _, dg, d2g = metric_jets(cm, pts)
    e = np.exp(1.0)   # e^{2z} at z = 1/2
    assert abs(dg[0, 2, 0, 0] - 2 * e) < 1e-6
    assert abs(d2g[0, 2, 2, 0, 0] - 4 * e) < 1e-5


def _ref_metric_jets(name, p):
    """Analytic d_t g and d_t^2 g of `_ref_metric` in the chart coordinate."""
    x, z = p[..., 0], p[..., 2]
    dg, d2g = np.zeros(p.shape[:-1] + (3, 3)), np.zeros(p.shape[:-1] + (3, 3))
    if name == "nil3":
        dg[..., 1, 1] = 2.0 * x
        dg[..., 1, 2] = dg[..., 2, 1] = -1.0
        d2g[..., 1, 1] = 2.0
    else:
        s = -1.0 if name == "sol3" else 1.0
        dg[..., 0, 0], d2g[..., 0, 0] = 2.0 * s * np.exp(2.0 * s * z), 4.0 * np.exp(2.0 * s * z)
        dg[..., 1, 1], d2g[..., 1, 1] = 2.0 * np.exp(2.0 * z), 4.0 * np.exp(2.0 * z)
    return dg, d2g


@pytest.mark.parametrize("name", ["nil3", "sol3", "hyp3"])
def test_metric_jets_match_analytic_derivatives(name):
    """dg and d2g equal the derivatives of the closed-form metric to 1e-15
    relative, entry by entry (a zero entry exactly)."""
    cm = chart_metric(name)
    pts = np.random.default_rng(11).uniform(-4.0, 4.0, size=(500, 3))
    pts[:33, cm.axis] = GridSpec(radius=4.0, dx=0.25).axis()
    _, dg, d2g = metric_jets(cm, pts)
    ref_dg, ref_d2g = _ref_metric_jets(name, pts)
    np.testing.assert_allclose(dg[:, cm.axis], ref_dg, rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(d2g[:, cm.axis, cm.axis], ref_d2g, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("name, entry, sign", [("nil3", "nil3", -1.0),
                                               ("sol3", "sol3", -1.0),
                                               ("hyp3", "hyp_3", 1.0)])
def test_chart_generator_is_signed_ad_of_the_catalog_algebra(name, entry, sign):
    """A = sign * ad_{e_axis} of the catalog algebra (hyp3 is the z -> -z
    mirror of the other two conventions), held read-only, and C(0) = I."""
    cm = chart_metric(name)
    assert np.array_equal(cm.A, sign * catalog.get(entry).algebra.ad_stack[cm.axis])
    assert cm.A.dtype == np.float64 and not cm.A.flags.writeable
    assert np.array_equal(cm.coframe(0.0), np.eye(3))


@pytest.mark.parametrize("A, match", [
    # N = e_01 is nilpotent but does not commute with diag(1, 0, 0)
    (np.diag([1.0, 0.0, 0.0]) + np.eye(3, k=1), "off-diagonal part"),
    # N commutes with diag A = 0 but N^3 = N
    ([[0, 1, 0], [1, 0, 0], [0, 0, 0]], "off-diagonal part"),
    (np.diag([1.0, np.nan, 0.0]), "finite 3x3"),
    (np.eye(2), "finite 3x3"),
])
def test_chart_refuses_a_bad_generator(A, match):
    with pytest.raises(InvalidInput, match=match):
        ChartMetric("sol3", A, axis=2)


@pytest.mark.parametrize("axis", [3, -1, 1.5, None])
def test_chart_refuses_an_axis_outside_the_chart(axis):
    with pytest.raises(InvalidInput, match="chart axis must be 0, 1 or 2"):
        ChartMetric("sol3", np.diag([1.0, -1.0, 0.0]), axis=axis)


@pytest.mark.parametrize("dx", [0.5, 0.25])
@pytest.mark.parametrize("name", ["nil3", "sol3", "hyp3"])
def test_chart_curvature_pulls_back_to_the_left_invariant_one(name, dx):
    """At every line point of an R = 8 grid, ric, Rm and scal pulled back to
    the left-invariant frame with C^-1 = C(-t) equal `leftinv`'s for the
    catalog algebra at the identity metric, to 1e-13 of the largest entry."""
    cm = chart_metric(name)
    grid = GridSpec(radius=8.0, dx=dx)
    pts = np.zeros((grid.npts, 3))
    pts[:, cm.axis] = grid.axis()
    f = curvature_fields(cm, pts)
    Ci = cm.coframe(-grid.axis())
    L = catalog.get(name).algebra
    pkg = leftinv.curvature(L, np.eye(3))
    ric = np.einsum("...pq,...pi,...qj->...ij", f["ric"], Ci, Ci)
    Rm = np.einsum("...pqrs,...pi,...qj,...rk,...sl->...ijkl", f["Rm"], Ci, Ci, Ci, Ci)
    ref_ric = leftinv.ricci(L, np.eye(3))
    assert np.max(np.abs(ric - ref_ric)) <= 1e-13 * np.max(np.abs(ref_ric))
    assert np.max(np.abs(Rm - pkg.Rm)) <= 1e-13 * np.max(np.abs(pkg.Rm))
    assert np.max(np.abs(f["scal"] - pkg.scal)) <= 1e-13 * abs(pkg.scal)


@pytest.mark.parametrize("name, t, match", [
    ("sol3", 400.0, "sol3 chart metric is not finite and positive definite"),  # g overflows
    ("hyp3", -400.0, "hyp3 chart metric is not finite and positive definite"),  # diag(0, 0, 1)
    ("hyp3", 300.0, "curvature of the hyp3 chart metric overflows"),
])
def test_curvature_refuses_an_overflowing_metric(name, t, match):
    """A metric that leaves the range of a double, or a curvature field
    that does, is refused before numpy warns or fails to invert g."""
    cm = chart_metric(name)
    pts = np.zeros((1, 3))
    pts[0, cm.axis] = t
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInput, match=match):
            curvature_fields(cm, pts)


@pytest.mark.parametrize("name", ["nil3", "sol3", "hyp3"])
def test_metric_jets_vanish_off_the_chart_axis(name):
    """The metric reads only `cm.axis`, so every jet entry with a derivative
    along another axis is exactly 0, not rounding noise."""
    cm = chart_metric(name)
    pts = np.random.default_rng(4).uniform(-4.0, 4.0, size=(33, 3))
    pts[:, cm.axis] = GridSpec(radius=4.0, dx=0.25).axis()
    _, dg, d2g = metric_jets(cm, pts)
    off = [a for a in range(3) if a != cm.axis]
    assert not np.any(dg[:, off])
    mixed = np.ones((3, 3), dtype=bool)
    mixed[cm.axis, cm.axis] = False
    assert not np.any(d2g.reshape(len(pts), 9, 3, 3)[:, mixed.ravel()])


def test_sqrt_det_positive(nil3_fields):
    _, fields = nil3_fields
    assert np.all(fields["sqrt_det"] > 0)


# ------------------------------------------------------------- operator

def test_apply_L_fd_zero_field(nil3_fields):
    cm, fields = nil3_fields
    h = np.zeros(GRID.points().shape[:3] + (3, 3))
    out = apply_L_fd(cm, cm.lam, cm.d, h, GRID, _fields=fields)
    assert np.max(np.abs(out)) == 0.0


def test_apply_L_fd_line_fields_match_grid_fields(nil3_fields):
    # without fields the operator evaluates the chart axis only
    cm, fields = nil3_fields
    h = probe_tensor_suite(cm, GRID, count=8, seed=3)[7]
    assert np.array_equal(apply_L_fd(cm, cm.lam, cm.d, h, GRID),
                          apply_L_fd(cm, cm.lam, cm.d, h, GRID, _fields=fields))


def test_operator_rejects_mismatched_fields(nil3_fields):
    cm, fields = nil3_fields
    h = probe_tensor_suite(cm, GRID, count=1)[0]
    other = curvature_fields(cm, GridSpec(radius=2.0, dx=0.2).points())
    partial = {key: a for key, a in fields.items() if key != "Rm"}
    for bad in (other, partial):
        with pytest.raises(InvalidInput, match="fields"):
            apply_L_fd(cm, cm.lam, cm.d, h, GRID, _fields=bad)
        with pytest.raises(InvalidInput, match="fields"):
            rayleigh_quotient(cm, cm.lam, cm.d, h, GRID, _fields=bad)


def test_operator_refuses_a_field_of_the_wrong_shape(nil3_fields):
    cm, fields = nil3_fields
    h = probe_tensor_suite(cm, GRID, count=1)[0]
    for bad in (h[:-1], h[..., :2, :2], h[0]):
        with pytest.raises(InvalidInput, match="does not match grid"):
            apply_L_fd(cm, cm.lam, cm.d, bad, GRID, _fields=fields)


@pytest.mark.parametrize("r_inner, r_outer", [(1.0, 1.0), (1.5, 1.0), (0.0, 1.0)])
def test_radial_bump_refuses_radii_out_of_order(r_inner, r_outer):
    with pytest.raises(InvalidInput, match="0 < r_inner < r_outer"):
        radial_bump(GRID, r_inner, r_outer)


def test_operator_refuses_an_asymmetric_field(nil3_fields):
    """The operator acts on symmetric tensors only: an asymmetry above
    SYM_TOL relative to max|h| is refused, one near rounding level is not."""
    cm, fields = nil3_fields
    h = probe_tensor_suite(cm, GRID, count=8, seed=2)[7]
    scale = np.max(np.abs(h))
    for tilt, refused in ((1e-12, True), (1e-15, False)):
        bad = h.copy()
        bad[..., 0, 2] += tilt * scale * radial_bump(GRID, 0.5, 1.0)
        for op in (apply_L_fd, rayleigh_quotient):
            if refused:
                with pytest.raises(InvalidInput, match="not symmetric"):
                    op(cm, cm.lam, cm.d, bad, GRID, _fields=fields)
            else:
                op(cm, cm.lam, cm.d, bad, GRID, _fields=fields)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [((1, 1),), ((0, 2), (2, 0)), ((2, 0),)],
                         ids=["diagonal", "pair", "lower"])
def test_operator_refuses_a_non_finite_field(nil3_fields, value, where):
    # before, apply_L_fd returned a non-finite field (an inf also warned),
    # rayleigh_quotient called it degenerate, and a NaN below the diagonal
    # only passed both unseen
    cm, fields = nil3_fields
    h = probe_tensor_suite(cm, GRID, count=1)[0].copy()
    for ij in where:
        h[(5, 8, 11) + ij] = value
    for op in (apply_L_fd, rayleigh_quotient):
        with pytest.raises(InvalidInput, match="field has non-finite entries"):
            op(cm, cm.lam, cm.d, h, GRID, _fields=fields)


@pytest.mark.parametrize("name", ["nil3", "sol3", "hyp3"])
def test_apply_L_fd_output_is_exactly_symmetric(name):
    cm = chart_metric(name)
    h = probe_tensor_suite(cm, GRID, count=8, seed=6)[7]
    out = apply_L_fd(cm, cm.lam, cm.d, h, GRID)
    assert np.array_equal(out, out.swapaxes(-1, -2))


def test_apply_L_fd_peak_within_its_memory_figure():
    """One application on a 33^3 grid, next to the coordinates and the input
    field that its caller holds, stays within `_POINT_BYTES` per point."""
    grid = GridSpec(radius=2.0, dx=0.125)
    assert grid.npts == 33
    cm = chart_metric("hyp3")
    fields = curvature_fields(cm, grid.points())
    h = np.array(probe_tensor_suite(cm, grid, count=1)[0])
    held = 8 * (3 + 9)                    # the coordinates and h
    tracemalloc.start()
    try:
        apply_L_fd(cm, cm.lam, cm.d, h, grid, _fields=fields)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= grid.npts ** 3 * (coordfield._POINT_BYTES - held)


def test_rayleigh_quotient_peak_per_point():
    """On a 33^3 grid the operator holds h's slab and one block of its
    difference stack, not the stack over the whole grid."""
    grid = GridSpec(radius=2.0, dx=0.125)
    cm = chart_metric("hyp3")
    fields = curvature_fields(cm, grid.points())
    h = np.array(probe_tensor_suite(cm, grid, count=1)[0])
    rayleigh_quotient(cm, cm.lam, cm.d, h, grid, _fields=fields)   # the tables, once
    tracemalloc.start()
    try:
        rayleigh_quotient(cm, cm.lam, cm.d, h, grid, _fields=fields)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= grid.npts ** 3 * 8 * 14


@pytest.mark.parametrize("budget", [None, 0], ids=["default", "one-value"])
@pytest.mark.parametrize("name", ["nil3", "sol3", "hyp3"])
def test_operator_blocks_match_one_block(monkeypatch, name, budget):
    """The difference stack walked a block of line values at a time (3 per
    block at 33^3, or 1) gives the same floats as one block over the whole
    interior, on a field nonzero on and outside the boundary sphere."""
    cm, grid = chart_metric(name), GridSpec(radius=2.0, dx=0.125)
    pts = grid.points()
    fields = curvature_fields(cm, pts)
    A = np.random.default_rng(29).standard_normal(pts.shape[:3] + (3, 3))
    h = A + np.swapaxes(A, -1, -2)
    outside = np.einsum("...k,...k->...", pts, pts) >= grid.radius ** 2
    assert np.all(np.abs(h[outside]).max(axis=(-2, -1)) > 0)
    walk, blocks = coordfield._apply_L, []

    def counted(*args):
        for block in walk(*args):
            blocks[-1] += 1
            yield block

    monkeypatch.setattr(coordfield, "_apply_L", counted)
    runs = []
    for stack_bytes in (budget, 2 ** 40):
        if stack_bytes is not None:
            monkeypatch.setattr(coordfield, "_STACK_BYTES", stack_bytes)
        blocks.append(0)
        runs.append((apply_L_fd(cm, cm.lam, cm.d, h, grid, _fields=fields),
                     rayleigh_quotient(cm, cm.lam, cm.d, h, grid, _fields=fields),
                     rayleigh_span(cm, cm.lam, cm.d, grid, count=8, seed=4)))
    # 31 interior values, 3 per block by default, in 1 + 1 + 6 applications
    assert blocks == [8 * (11 if budget is None else 31), 8]
    (L, q, span), (L1, q1, span1) = runs
    assert np.array_equal(L, L1)
    assert q == q1 and span == span1


def _plan_builds(monkeypatch):
    """A list that counts the operator plans built from here on."""
    coordfield._operator_plan.cache_clear()
    build, builds = coordfield._line_coefficients, []

    def counted(*args):
        builds.append(args[:2])
        return build(*args)

    monkeypatch.setattr(coordfield, "_line_coefficients", counted)
    return builds


def test_operator_plan_is_built_once_per_grid(monkeypatch, nil3_fields):
    """22 quotients on one grid build one plan; a new lam, D, dx or chart
    builds a new one, and so does the first grid again after that."""
    cm, fields = nil3_fields
    suite = probe_tensor_suite(cm, GRID, count=22, seed=1)
    builds = _plan_builds(monkeypatch)
    for h in suite:
        rayleigh_quotient(cm, cm.lam, cm.d, h, GRID, _fields=fields)
    assert len(builds) == 1
    h, fine = suite[0], GridSpec(radius=2.0, dx=0.125)
    rayleigh_quotient(cm, cm.lam + 1.0, cm.d, h, GRID)
    rayleigh_quotient(cm, cm.lam, cm.d + 1.0, h, GRID)
    rayleigh_quotient(cm, cm.lam, cm.d, probe_tensor_suite(cm, fine, count=1)[0], fine)
    apply_L_fd(chart_metric("hyp3"), cm.lam, cm.d, h, GRID)
    rayleigh_span(cm, cm.lam, cm.d, GRID, count=2)
    assert len(builds) == 6
    assert coordfield._operator_plan.cache_info().currsize == 1


@pytest.mark.parametrize("dx", [0.25, 0.125], ids=["17^3", "33^3"])
@pytest.mark.parametrize("name", ["nil3", "sol3", "hyp3"])
def test_operator_plan_cold_matches_warm(name, dx):
    """A call that builds the plan gives the same floats as one that reuses it."""
    cm, grid = chart_metric(name), GridSpec(radius=2.0, dx=dx)
    h = probe_tensor_suite(cm, grid, count=8, seed=5)[7]

    def run():
        return (apply_L_fd(cm, cm.lam, cm.d, h, grid), rayleigh_quotient(cm, cm.lam, cm.d, h, grid),
                rayleigh_span(cm, cm.lam, cm.d, grid, count=8, seed=5))

    run()
    warm = run()
    coordfield._operator_plan.cache_clear()
    cold = run()
    assert np.array_equal(cold[0], warm[0])
    assert cold[1] == warm[1] and cold[2] == warm[2]


def test_operator_plan_is_read_only():
    cm = chart_metric("sol3")       # drift on both invariant axes
    plan = coordfield._operator_plan(cm, cm.lam, tuple(cm.d), GRID)
    arrays = [a for a in plan[:4] + plan[4] if a is not None]
    assert len(arrays) == 6
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 0


def test_operator_plan_keeps_one_grid():
    """Quotients at 20 radii keep one plan, and no more memory than it."""
    cm = chart_metric("hyp3")
    lam, d = cm.lam, cm.d
    coordfield._line_tables()                   # built on first use, then kept
    grids = [GridSpec(radius=R, dx=R / 8.0) for R in np.linspace(1.0, 3.0, 20)]
    probes = [probe_tensor_suite(cm, grid, count=1)[0] for grid in grids]
    tracemalloc.start()
    try:
        for grid, h in zip(grids, probes):
            rayleigh_quotient(cm, lam, d, h, grid)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert coordfield._operator_plan.cache_info().currsize == 1
    plan = coordfield._operator_plan(cm, lam, tuple(d), grids[-1])
    assert held <= sum(a.nbytes for a in plan[:4] + plan[4] if a is not None) + 2 ** 14


def test_operator_refusals_are_not_kept():
    """With a plan built on one grid, a coarse grid and an overflowing chart
    metric are still refused, on every call."""
    cm = chart_metric("nil3")
    rayleigh_quotient(cm, cm.lam, cm.d, probe_tensor_suite(cm, GRID, count=1)[0], GRID)
    coarse, far = GridSpec(radius=2.0, dx=0.5), GridSpec(radius=300.0, dx=37.5)
    sol3 = chart_metric("sol3")
    for _ in range(2):
        with pytest.raises(GridTooCoarse):
            apply_L_fd(cm, cm.lam, cm.d, np.zeros((coarse.npts,) * 3 + (3, 3)), coarse)
        with pytest.raises(InvalidInput, match="overflow"):
            rayleigh_quotient(sol3, sol3.lam, sol3.d, np.zeros((far.npts,) * 3 + (3, 3)), far)
        with pytest.raises(InvalidInput, match="overflow"):
            rayleigh_span(sol3, sol3.lam, sol3.d, far, count=2)


def test_apply_L_fd_rejects_coarse_grid():
    cm = chart_metric("nil3")
    grid = GridSpec(radius=2.0, dx=0.5)   # dx > R/8
    h = np.zeros(grid.points().shape[:3] + (3, 3))
    with pytest.raises(GridTooCoarse):
        apply_L_fd(cm, cm.lam, cm.d, h, grid)


def test_hyp3_plateau_identity_second_order():
    """L(chi g) = 2 lambda (chi g) where chi is locally constant; the grid
    operator reproduces it to second order.  The interior mask stays a full
    stencil width inside the bump plateau at both resolutions so the error
    measured is pure truncation."""
    cm = chart_metric("hyp3")
    errs = {}
    for dx in (0.25, 0.125):
        grid = GridSpec(radius=2.0, dx=dx)
        fields = curvature_fields(cm, grid.points())
        chi = radial_bump(grid, 1.2, 1.9)
        h = chi[..., None, None] * fields["g"]
        out = apply_L_fd(cm, cm.lam, cm.d, h, grid, _fields=fields)
        r = np.sqrt(np.sum(grid.points() ** 2, axis=-1))
        errs[dx] = np.max(np.abs(out - 2 * cm.lam * h)[r <= 0.5])
    assert errs[0.125] < 0.2
    assert 3.0 < errs[0.25] / errs[0.125] < 5.5


def test_nil3_operator_matches_algebraic_block(nil3_fields):
    """On the plateau, the grid operator applied to a left-invariant tensor
    must reproduce the algebraic stability operator; the nil3 chart metric
    has polynomial coefficients, so the difference stencils are exact and
    the two sides agree to roundoff."""
    cm, fields = nil3_fields
    e = catalog.get("nil3")
    cert = solve_soliton(e.algebra, e.metric)
    Lmat = assemble_operator(e.algebra, e.metric, cert)
    basis = sym_tensor_basis(3)
    chi = radial_bump(GRID, 0.9, 1.8)
    pts = GRID.points()
    plateau = np.sqrt(np.sum(pts ** 2, axis=-1)) <= 0.9 - 2 * GRID.dx
    rng = np.random.default_rng(11)
    for _ in range(2):
        A = rng.standard_normal((3, 3))
        S = 0.5 * (A + A.T)
        Sp = unvec_sym(Lmat @ vec_sym(S, basis), basis)
        h = chi[..., None, None] * frame_tensor_field(cm, GRID, S)
        out = apply_L_fd(cm, cm.lam, cm.d, h, GRID, _fields=fields)
        ref = frame_tensor_field(cm, GRID, Sp)
        assert np.max(np.abs(out - ref)[plateau]) < 1e-10


def test_rayleigh_scale_invariance(nil3_fields):
    cm, fields = nil3_fields
    chi = radial_bump(GRID, 0.9, 1.8)
    h = chi[..., None, None] * frame_tensor_field(cm, GRID, np.eye(3))
    q1 = rayleigh_quotient(cm, cm.lam, cm.d, h, GRID, _fields=fields)
    q2 = rayleigh_quotient(cm, cm.lam, cm.d, 5.0 * h, GRID, _fields=fields)
    assert abs(q1 - q2) < 1e-12


def test_rayleigh_rejects_zero_field(nil3_fields):
    cm, fields = nil3_fields
    h = np.zeros(GRID.points().shape[:3] + (3, 3))
    with pytest.raises(InvalidInput):
        rayleigh_quotient(cm, cm.lam, cm.d, h, GRID, _fields=fields)


def test_probe_suite_negative_quotients(nil3_fields):
    cm, fields = nil3_fields
    suite = probe_tensor_suite(cm, GRID, count=8, seed=0)
    assert len(suite) == 8
    for h in suite:
        q = rayleigh_quotient(cm, cm.lam, cm.d, h, GRID, _fields=fields)
        assert q < 0


@pytest.mark.parametrize("name", ["nil3", "sol3", "hyp3"])
@pytest.mark.parametrize("radius, dx", [(4.0, 0.5), (2.0, 0.25)])
def test_rayleigh_span_matches_each_probe_quotient(name, radius, dx):
    """Each quotient of the span is the probe suite's own `rayleigh_quotient`,
    in suite order, also for a count below the span's dimension."""
    cm, grid = chart_metric(name), GridSpec(radius, dx)
    fields = curvature_fields(cm, grid.points())
    for count, seed in ((20, 42), (3, 0)):
        quotients, span_max = rayleigh_span(cm, cm.lam, cm.d, grid, count=count, seed=seed)
        ref = [rayleigh_quotient(cm, cm.lam, cm.d, h, grid, _fields=fields)
               for h in probe_tensor_suite(cm, grid, count=count, seed=seed)]
        assert len(quotients) == count
        np.testing.assert_allclose(quotients, ref, rtol=1e-12, atol=0.0)
        assert span_max >= max(quotients) - 1e-12 * abs(max(quotients))


@pytest.mark.parametrize("name", ["nil3", "sol3", "hyp3"])
def test_rayleigh_span_max_is_the_pencil_maximum(name):
    """span_max is the largest generalized eigenvalue of the six unit probes'
    (L h_k, h_l) and (h_k, h_l), here from `apply_L_fd` and a pointwise
    einsum pairing, and bounds every sampled quotient from above."""
    from scipy.linalg import eigh
    cm = chart_metric(name)
    fields = curvature_fields(cm, GRID.points())
    units = probe_tensor_suite(cm, GRID, count=6)
    Lh = [apply_L_fd(cm, cm.lam, cm.d, h, GRID, _fields=fields) for h in units]
    # c09's pairing A_ij g^ik g^jl B_kl dmu, with g^-1 B g^-1 raised once per probe
    ginv, dmu = fields["ginv"], fields["sqrt_det"] * GRID.dx ** 3
    up = [np.einsum("...ik,...kl,...jl->...ij", ginv, h, ginv) for h in units]
    pair = lambda X, Y: np.sum(np.einsum("...ij,...ij->...", X, Y) * dmu)
    A = np.array([[pair(Lh[k], up[l]) for l in range(6)] for k in range(6)])
    B = np.array([[pair(units[k], up[l]) for l in range(6)] for k in range(6)])
    want = eigh(0.5 * (A + A.T), B, eigvals_only=True)[-1]
    quotients, span_max = rayleigh_span(cm, cm.lam, cm.d, GRID, count=60, seed=9)
    assert span_max == pytest.approx(want, rel=1e-12, abs=0.0)
    assert span_max >= max(quotients) - 1e-12 * abs(max(quotients))


def test_rayleigh_span_refusals(monkeypatch):
    """Bad counts and seeds, a coarse grid, probes beyond physical memory,
    and a grid whose coordinates and operator exceed it are refused, the
    last two before anything sizeable is allocated."""
    cm, grid = chart_metric("nil3"), GridSpec(radius=2.0, dx=0.25)
    with pytest.raises(InvalidInput, match="count must be positive"):
        rayleigh_span(cm, cm.lam, cm.d, grid, count=0)
    with pytest.raises(InvalidInput, match="seed must be a non-negative integer"):
        rayleigh_span(cm, cm.lam, cm.d, grid, seed=-1)
    with pytest.raises(GridTooCoarse):
        rayleigh_span(cm, cm.lam, cm.d, GridSpec(radius=2.0, dx=0.5))
    tracemalloc.start()
    try:
        with pytest.raises(InvalidInput, match="for its probes.*physical memory"):
            rayleigh_span(cm, cm.lam, cm.d, grid, count=10 ** 15)
        pages = {"SC_PHYS_PAGES": grid.npts ** 3 * coordfield._POINT_BYTES - 1,
                 "SC_PAGE_SIZE": 1}
        monkeypatch.setattr(coordfield, "os", SimpleNamespace(sysconf=pages.__getitem__))
        with pytest.raises(GridTooLarge, match="coordinates and operator"):
            rayleigh_span(cm, cm.lam, cm.d, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < grid.npts ** 3 * 8


def test_rayleigh_span_probe_guard_boundary(monkeypatch):
    """The probe guard refuses the first count whose `_PROBE_BYTES` per
    probe exceed physical memory, and lets the count below it through to the
    grid's own guard."""
    cm, grid = chart_metric("nil3"), GridSpec(radius=2.0, dx=0.25)
    monkeypatch.setattr(coordfield, "_physical_memory", lambda: 1000 * coordfield._PROBE_BYTES)
    with pytest.raises(InvalidInput, match="for its probes"):
        rayleigh_span(cm, cm.lam, cm.d, grid, count=1001)
    with pytest.raises(GridTooLarge, match="coordinates and operator"):
        rayleigh_span(cm, cm.lam, cm.d, grid, count=1000)


def test_radial_bump_shape():
    chi = radial_bump(GRID, 0.8, 1.6)
    pts = GRID.points()
    r = np.sqrt(np.sum(pts ** 2, axis=-1))
    assert np.all(chi[r <= 0.8] == 1.0)
    assert np.all(chi[r >= 1.6] == 0.0)
    assert np.all((chi >= 0.0) & (chi <= 1.0))


@pytest.mark.parametrize("name", ["nil3", "sol3", "hyp3"])
def test_frame_fields_and_probes_match_per_point_coframe(name):
    """The frame fields and the probe suite, built from the coframe on the
    chart axis, equal the per-point formulas bit for bit: C^T sym(S) C with
    C the closed-form coframe at every grid point, times the bump."""
    cm = chart_metric(name)
    C = _ref_coframe(name, GRID.points())

    def ref_field(S):
        return np.swapaxes(C, -1, -2) @ (0.5 * (S + S.T)) @ C

    S = np.random.default_rng(8).normal(size=(3, 3))
    assert np.array_equal(frame_tensor_field(cm, GRID, S), ref_field(S))
    mats = []
    for i in range(3):
        for j in range(i, 3):
            E = np.zeros((3, 3))
            E[i, j] = E[j, i] = 1.0
            mats.append(E)
    rng = np.random.default_rng(4)
    while len(mats) < 9:
        A = rng.uniform(-1.0, 1.0, size=(3, 3))
        mats.append(0.5 * (A + A.T) / np.linalg.norm(0.5 * (A + A.T)))
    chi = radial_bump(GRID, 0.45 * GRID.radius, 0.9 * GRID.radius)
    suite = probe_tensor_suite(cm, GRID, count=9, seed=4)
    for h, M in zip(suite, mats):
        assert np.array_equal(h, chi[..., None, None] * ref_field(M))


def test_frame_tensor_field_identity_gives_metric(nil3_fields):
    cm, fields = nil3_fields
    h = frame_tensor_field(cm, GRID, np.eye(3))
    assert np.allclose(h, fields["g"], atol=1e-13)


# ------------------------------------------------ einsum reference oracle
#
# The pointwise formulas transcribed as whole-array ellipsis einsums: an
# independent reference for the batched matmul kernels.  The kernels sum
# in another order, so agreement is to roundoff, not bitwise.

def _oracle_curvature_fields(cm, pts):
    g0, dg, d2g = metric_jets(cm, pts)
    ginv = np.linalg.inv(g0)
    low = dg + np.einsum("...jil->...ijl", dg) - np.einsum("...lij->...ijl", dg)
    Gamma = 0.5 * np.einsum("...kl,...ijl->...kij", ginv, low)
    dginv = -np.einsum("...kp,...apq,...ql->...akl", ginv, dg, ginv)
    dlow = (d2g + np.einsum("...ajil->...aijl", d2g)
            - np.einsum("...alij->...aijl", d2g))
    dGamma = (0.5 * np.einsum("...akl,...ijl->...akij", dginv, low)
              + 0.5 * np.einsum("...kl,...aijl->...akij", ginv, dlow))
    Rup = (np.einsum("...imjl->...mijl", dGamma)
           - np.einsum("...jmil->...mijl", dGamma)
           + np.einsum("...mip,...pjl->...mijl", Gamma, Gamma)
           - np.einsum("...mjp,...pil->...mijl", Gamma, Gamma))
    Rm = np.einsum("...km,...mijl->...ijkl", g0, Rup)
    ric = np.einsum("...ik,...ijkl->...jl", ginv, Rm)
    ric = 0.5 * (ric + np.swapaxes(ric, -1, -2))
    Rc = np.einsum("...ik,...kj->...ij", ginv, ric)
    return {"g": g0, "ginv": ginv, "Gamma": Gamma, "Rm": Rm, "ric": ric, "Rc": Rc,
            "scal": np.einsum("...ii->...", Rc), "sqrt_det": np.sqrt(np.linalg.det(g0))}


def _oracle_apply_L(cm, h, grid, f):
    pts = grid.points()
    ginv, Gamma, Rm, ric = f["ginv"], f["Gamma"], f["Rm"], f["ric"]
    dh = np.stack([_diff1(h, a, grid.dx) for a in range(3)], axis=0)
    T = np.empty((3,) + h.shape)
    for a in range(3):
        corr = np.einsum("...pi,...pj->...ij", Gamma[..., :, a, :], h)
        T[a] = dh[a] - corr - np.swapaxes(corr, -1, -2)
    trG = np.einsum("...ab,...pab->...p", ginv, Gamma)
    M = np.einsum("...ab,...pai->...bpi", ginv, Gamma)
    lap = np.zeros_like(h)
    for a in range(3):
        dTa = np.stack([_diff1(T[b], a, grid.dx) for b in range(3)], axis=0)
        lap = lap + np.einsum("...b,b...ij->...ij", ginv[..., a, :], dTa)
    lap = lap - np.einsum("...p,p...ij->...ij", trG, T)
    c3 = np.einsum("...bpi,b...pj->...ij", M, T)
    lap = lap - c3 - np.swapaxes(c3, -1, -2)
    hup = np.einsum("...ak,...kl,...lb->...ab", ginv, h, ginv)
    rst = 2.0 * np.einsum("...iajb,...ab->...ij", Rm, hup)
    rc_h = np.einsum("...ki,...kj->...ij", np.einsum("...kl,...li->...ki", ginv, ric), h)
    out = lap + rst - rc_h - np.swapaxes(rc_h, -1, -2) + 2.0 * cm.lam * h
    for k in range(3):
        out = out + cm.d[k] * pts[..., k, None, None] * _diff1(h, k, grid.dx)
    out = out + (cm.d[:, None] + cm.d[None, :]) * h
    out[np.einsum("...k,...k->...", pts, pts) >= grid.radius ** 2] = 0.0
    w = f["sqrt_det"] * grid.dx ** 3
    q = (np.sum(np.einsum("...ij,...ij->...", hup, out) * w)
         / np.sum(np.einsum("...ij,...ij->...", hup, h) * w))
    return out, q


def _rel_err(a, ref):
    return np.max(np.abs(a - ref)) / np.max(np.abs(ref))


@pytest.mark.parametrize("name", ["nil3", "sol3", "hyp3"])
def test_kernels_match_einsum_oracle(name):
    cm = chart_metric(name)
    pts = GRID.points()
    n = pts.size // 3
    assert n > _BLOCK and n % _BLOCK   # several blocks, the last one partial
    fields = curvature_fields(cm, pts)
    ref = _oracle_curvature_fields(cm, pts)
    assert list(fields) == list(ref)
    for key in ref:
        assert fields[key].shape == ref[key].shape, key
        assert _rel_err(fields[key], ref[key]) < 1e-12, key
    h = probe_tensor_suite(cm, GRID, count=8, seed=5)[7]
    ref_L, ref_q = _oracle_apply_L(cm, h, GRID, ref)
    assert _rel_err(apply_L_fd(cm, cm.lam, cm.d, h, GRID, _fields=fields), ref_L) < 1e-12
    q = rayleigh_quotient(cm, cm.lam, cm.d, h, GRID, _fields=fields)
    assert abs(q - ref_q) < 1e-12 * abs(ref_q)


@pytest.mark.parametrize("npts", [17, 33])
@pytest.mark.parametrize("name", ["nil3", "sol3", "hyp3"])
def test_operator_matches_oracle_on_a_field_nonzero_at_the_boundary(name, npts):
    """Every coefficient of the operator and its Dirichlet mask: a seeded
    random symmetric field, nonzero on and outside the boundary sphere, so
    that no term is hidden by a vanishing input."""
    cm = chart_metric(name)
    grid = GRID if npts == 17 else GridSpec(radius=2.0, dx=0.125)
    assert grid.npts == npts
    pts = grid.points()
    fields = curvature_fields(cm, pts)
    A = np.random.default_rng(17).standard_normal(pts.shape[:3] + (3, 3))
    h = A + np.swapaxes(A, -1, -2)
    outside = np.einsum("...k,...k->...", pts, pts) >= grid.radius ** 2
    assert np.all(np.abs(h[outside]).max(axis=(-2, -1)) > 0)
    ref_L, ref_q = _oracle_apply_L(cm, h, grid, _oracle_curvature_fields(cm, pts))
    out = apply_L_fd(cm, cm.lam, cm.d, h, grid, _fields=fields)
    assert np.all(out[outside] == 0.0)
    assert _rel_err(out, ref_L) < 1e-12
    q = rayleigh_quotient(cm, cm.lam, cm.d, h, grid, _fields=fields)
    assert abs(q - ref_q) < 1e-12 * abs(ref_q)


@pytest.mark.parametrize("where", ["grid", "transposed", "scattered", "constant"])
@pytest.mark.parametrize("name", ["nil3", "sol3", "hyp3"])
def test_line_fields_match_per_point_evaluation(name, where):
    """Evaluating the reduced points and broadcasting is bit-identical to
    running the pointwise kernel on every point."""
    cm = chart_metric(name)
    if where == "grid":
        pts = GRID.points()
    elif where == "transposed":
        pts = GRID.points().transpose(2, 1, 0, 3)
    elif where == "scattered":
        # more distinct line values than one block, and repeated ones too
        pts = np.random.default_rng(9).uniform(-2.0, 2.0, size=(2 * _BLOCK, 3))
        pts[::3, cm.axis] = pts[1::3, cm.axis]
    else:
        # the chart coordinate is constant along the first axis only
        pts = np.random.default_rng(10).uniform(-2.0, 2.0, size=(5, 7, 3))
        pts[..., cm.axis] = pts[:1, :, cm.axis]
    flat = pts.reshape(-1, 3)
    ref = {key: np.empty((len(flat),) + tail) for key, tail in _FIELD_SHAPES.items()}
    _curvature_block(cm, flat, ref)
    fields = curvature_fields(cm, pts)
    for key, a in ref.items():
        assert np.array_equal(fields[key], a.reshape(fields[key].shape)), key
    if where == "constant":
        assert fields["g"].strides[:2] == (0, 8 * 9)


@pytest.mark.parametrize("name", ["nil3", "sol3", "hyp3"])
def test_grid_fields_are_read_only_views_of_the_line(name):
    """On the 65^3 grid the fields cost one line of memory: stride 0 along
    the two invariant axes, read-only, and no grid-sized allocation."""
    cm = chart_metric(name)
    grid = GridSpec(radius=4.0, dx=0.125)
    assert grid.npts == 65
    pts = grid.points()
    tracemalloc.start()
    try:
        fields = curvature_fields(cm, pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20
    invariant = [a for a in range(3) if a != cm.axis]
    for key, tail in _FIELD_SHAPES.items():
        a = fields[key]
        assert a.shape == (65,) * 3 + tail and a.dtype == np.float64, key
        assert all(a.strides[b] == 0 for b in invariant), key
        assert a.strides[cm.axis] != 0, key
        assert not a.flags.writeable, key
    with pytest.raises(ValueError):
        fields["g"][0, 0, 0] = 0.0


@pytest.mark.parametrize("shape", [(1, 3), (5, 7, 3)])
def test_curvature_fields_point_shapes(shape):
    cm = chart_metric("sol3")
    pts = np.random.default_rng(3).uniform(-1.5, 1.5, size=shape)
    fields = curvature_fields(cm, pts)
    flat = curvature_fields(cm, pts.reshape(-1, 3))
    assert list(fields) == list(_FIELD_SHAPES)
    for key, tail in _FIELD_SHAPES.items():
        assert fields[key].shape == shape[:-1] + tail, key
        assert np.array_equal(fields[key].reshape(flat[key].shape), flat[key]), key


# ------------------------------------------------------ distances / norms

def test_distance_field_basics():
    cm = chart_metric("nil3")
    d = distance_field(cm, GRID)
    i, j, _ = GRID.origin_index
    assert d[GRID.origin_index] == 0.0
    d2 = d.copy()
    d2[GRID.origin_index] = np.inf
    assert d2.min() > 0
    # along the z-axis the nil3 chart metric restricts to the identity
    ax = GRID.axis()
    for k, z in enumerate(ax):
        assert d[i, j, k] <= abs(z) + 1e-9


def test_distance_field_cached():
    """Repeat calls agree exactly but share no array: the field is rebuilt
    from the grid, so a caller that edits one result leaves the next intact."""
    cm = chart_metric("nil3")
    d1 = distance_field(cm, GRID)
    ref = d1.copy()
    d1[...] = -1.0
    d2 = distance_field(cm, GRID)
    assert d2 is not d1
    np.testing.assert_array_equal(d2, ref)


def test_graph_cache_keeps_latest_grid_only():
    """A call on another grid in between leaves the field on GRID unchanged."""
    cm = chart_metric("nil3")
    d1 = distance_field(cm, GRID)
    other = GridSpec(radius=1.5, dx=0.25)
    d_other = distance_field(cm, other)
    assert d_other.shape == (other.npts,) * 3
    assert not hasattr(coordfield, "_GRAPH_CACHE")
    np.testing.assert_array_equal(distance_field(cm, GRID), d1)
    np.testing.assert_array_equal(distance_field(cm, other), d_other)


def test_cover_distances_agree_on_interleaved_grids():
    """The cover's own graph, its distance field and `distance_field` agree
    exactly on each grid, whichever grid was used last."""
    cm = chart_metric("nil3")
    grids = [GRID, GridSpec(radius=1.5, dx=0.25)]
    covers = [build_annulus_cover(cm, grid) for grid in grids]
    for grid, cover in 2 * list(zip(grids, covers)):
        origin = np.ravel_multi_index(grid.origin_index, (grid.npts,) * 3)
        assert (cover.graph != cover.graph.T).nnz == 0
        assert np.array_equal(cover.pair_distances([origin])[0], cover.dist)
        assert np.array_equal(distance_field(cm, grid), cover.dist)


@pytest.mark.parametrize("name", ["nil3", "sol3", "hyp3"])
def test_grid_graph_matches_full_midpoint_graph(name):
    """Edge lengths computed once per chart-coordinate value equal, exactly,
    those from the metric at each edge's midpoint on the whole 17^3 grid."""
    cm = chart_metric(name)
    grid = GridSpec(radius=2.0, dx=0.25)
    n, pts = grid.npts, grid.points()
    assert n == 17
    idx = np.arange(n ** 3).reshape((n,) * 3)
    rows, cols, weights = [], [], []
    for off in [(a, b, c) for a in (-1, 0, 1) for b in (-1, 0, 1) for c in (-1, 0, 1)
                if (a, b, c) > (0, 0, 0)]:
        src = tuple(slice(1, None) if o == -1 else slice(None, -1) if o == 1
                    else slice(None) for o in off)
        dst = tuple(slice(None, -1) if o == -1 else slice(1, None) if o == 1
                    else slice(None) for o in off)
        mid = 0.5 * (pts[src] + pts[dst])
        o = np.asarray(off, dtype=float)
        length = grid.dx * np.sqrt(np.einsum("i,...ij,j->...", o,
                                             cm.metric(mid[..., cm.axis]), o))
        rows.append(idx[src].ravel())
        cols.append(idx[dst].ravel())
        weights.append(length.ravel())
    upper = sparse.csr_matrix(
        (np.concatenate(weights), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n ** 3, n ** 3))
    ref = (upper + upper.T).sorted_indices()
    graph = _grid_graph(cm, grid).sorted_indices()
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(graph, part), getattr(ref, part)), part


def test_partials_are_composed_diff1():
    """Order q + 1 holds d_a of order-q component c at index 3 * c + a."""
    h = probe_tensor_suite(chart_metric("sol3"), GRID, count=8, seed=2)[7]
    orders = _partials_up_to(h, GRID, 2)
    assert [part.shape[-1] for part in orders] == [9, 27, 81]
    comps = h.reshape(h.shape[:3] + (9,))
    for m in range(9):
        for a in range(3):
            d_a = _diff1(comps[..., m], a, GRID.dx)
            assert np.array_equal(orders[1][..., 3 * m + a], d_a)
            for b in range(3):
                assert np.array_equal(orders[2][..., 3 * (3 * m + a) + b],
                                      _diff1(d_a, b, GRID.dx))


@pytest.mark.parametrize("name", ["nil3", "sol3", "hyp3"])
def test_annulus_cover_invariants(name):
    cm = chart_metric(name)
    cover = build_annulus_cover(cm, GRID)
    dist = cover.dist
    covered = np.zeros_like(dist, dtype=bool)
    for ann in cover.annuli:
        covered |= ann.mask
        if ann.N >= 2:
            assert np.all(ann.d_boundary[ann.mask] <= 2.0 + 1e-12)
            lo, hi = ann.N - 1, ann.N + 3
            assert np.all(dist[ann.mask] > lo - 1e-12)
            assert np.all(dist[ann.mask] < hi + 1e-12)
    assert np.all(covered[dist < GRID.radius])


@pytest.mark.parametrize("name", ["nil3", "sol3", "hyp3"])
def test_annulus_nodes_have_finite_distance(name):
    cover = build_annulus_cover(chart_metric(name), GRID)
    for ann in cover.annuli:
        assert np.all(np.isfinite(cover.dist[ann.mask])), ann.N


@pytest.mark.parametrize("name", ["nil3", "sol3", "hyp3"])
def test_origin_distances_bound_pair_distances(name):
    """|d0(x) - d0(y)| <= d(x, y) for every node y: the lower bound the
    weighted norm uses to skip searches."""
    cover = build_annulus_cover(chart_metric(name), GRID)
    d0 = cover.dist.ravel()
    sources = np.random.default_rng(5).choice(d0.size, size=4, replace=False)
    for s, d in zip(sources, cover.pair_distances(sources)):
        d = d.ravel()
        assert np.all(np.abs(d0 - d0[s]) <= d * (1.0 + 1e-12))


def test_weighted_holder_norm_properties():
    cm = chart_metric("nil3")
    cover = build_annulus_cover(cm, GRID)
    w1 = WeightSpec(a=0.0, n=3, tau=2.0)
    w2 = WeightSpec(a=0.0, n=3, tau=3.0)
    chi = radial_bump(GRID, 0.9, 1.8)
    h = chi[..., None, None] * frame_tensor_field(cm, GRID, np.eye(3))
    zero = np.zeros_like(h)
    assert weighted_holder_norm(cover, zero, 0, 0.5, w1) == 0.0
    n0 = weighted_holder_norm(cover, h, 0, 0.5, w1)
    assert np.isfinite(n0) and n0 > 0
    assert weighted_holder_norm(cover, h, 0, 0.5, w2) >= n0
    assert weighted_holder_norm(cover, h, 2, 0.5, w1) >= n0
    # homogeneity of degree 1
    n3 = weighted_holder_norm(cover, 3.0 * h, 0, 0.5, w1)
    assert abs(n3 - 3.0 * n0) < 1e-10 * max(1.0, n3)


@pytest.mark.parametrize("seed", [-1, 1.5, True])
def test_seeded_coordfield_functions_refuse_bad_seed(seed):
    # a negative seed reached numpy's ValueError, a float one its TypeError
    cm = chart_metric("nil3")
    with pytest.raises(InvalidInput, match="seed must be a non-negative integer"):
        probe_tensor_suite(cm, GRID, count=8, seed=seed)
    h = probe_tensor_suite(cm, GRID, count=1, seed=0)[0]
    with pytest.raises(InvalidInput, match="seed must be a non-negative integer"):
        weighted_holder_norm(build_annulus_cover(cm, GRID), h, 0, 0.5,
                             WeightSpec(a=0.0, n=3, tau=2.0), seed)


def _reference_norm(cover, h, k, alpha, w, seed, searches):
    """The exhaustive weighted norm: every sampled source is searched.
    `searches(sources)` is `cover.pair_distances`, cached by the caller."""
    h = np.asarray(h, dtype=float)
    grid = cover.grid
    orders = _partials_up_to(h, grid, k)
    abs_max = [np.max(np.abs(part), axis=-1) for part in orders]
    top = orders[k].reshape(-1, orders[k].shape[-1])
    rng = np.random.default_rng(seed)
    best = 0.0
    for ann in cover.annuli:
        if not np.any(ann.mask):
            continue
        sup_term = float(np.max(sum((ann.d_boundary[ann.mask] ** q) * abs_max[q][ann.mask]
                                    for q in range(k + 1))))
        sem = 0.0
        flat = np.flatnonzero(ann.mask.ravel())
        if len(flat) >= 2:
            n_src = min(4, len(flat))
            sources = rng.choice(flat, size=n_src, replace=False)
            dists = searches(sources)
            db = ann.d_boundary.ravel()
            per_src = max(1, coordfield._PAIRS // n_src)
            for s_i, s in enumerate(sources):
                targets = rng.choice(flat, size=min(per_src, len(flat)), replace=False)
                dxy = dists[s_i].ravel()[targets]
                ok = (dxy >= grid.dx) & np.isfinite(dxy)
                if not np.any(ok):
                    continue
                tgt = targets[ok]
                dxy = dxy[ok]
                diff = np.max(np.abs(top[tgt] - top[s]), axis=1)
                mind = np.minimum(db[tgt], db[s])
                sem = max(sem, float(np.max(mind ** (k + alpha) * diff / dxy ** alpha)))
        best = max(best, math.sqrt(float(w.f(ann.N))) * (sup_term + sem))
    return best


@pytest.fixture(scope="module")
def norm_case():
    """(cover, field suite) of a chart at R = 4, as in the benchmark, by
    (chart, steps across the diameter), built once per module."""
    cases = {}

    def get(name, steps):
        if (name, steps) not in cases:
            cm, grid = chart_metric(name), GridSpec(4.0, 8.0 / steps)
            cases[name, steps] = (build_annulus_cover(cm, grid),
                                  probe_tensor_suite(cm, grid, count=8, seed=3))
        return cases[name, steps]
    return get


@pytest.mark.parametrize("name, steps", [("nil3", 16), ("sol3", 16), ("hyp3", 16),
                                         ("hyp3", 24)])
def test_weighted_holder_norm_equals_exhaustive_search(norm_case, name, steps):
    """Skipping the sources whose bound cannot raise the max gives the same
    float as searching every sampled source."""
    cover, suite = norm_case(name, steps)
    cache = {}

    def searches(sources):
        key = tuple(sources)
        if key not in cache:
            cache[key] = cover.pair_distances(sources)
        return cache[key]

    weights = [WeightSpec(a=0.0, n=3, tau=2.0), WeightSpec(a=-1.0, n=3, tau=1.0)]
    cases = [(0, 0.5, suite[0]), (11, 0.3, suite[7]), (12, 0.8, suite[5])]
    for seed, alpha, h in cases[:1] if steps == 24 else cases:  # 25^3 searches are slow
        for k in (0, 1, 2):
            for w in weights:
                assert (weighted_holder_norm(cover, h, k, alpha, w, seed)
                        == _reference_norm(cover, h, k, alpha, w, seed, searches)), (seed, k, w)


def test_weighted_holder_norm_skips_most_searches(norm_case):
    """On benchmark-like 17^3 grids at R = 4 (k = 2) at most a third of the
    sampled sources need a search."""
    w = WeightSpec(a=0.0, n=3, tau=2.0)
    sampled = searched = 0
    for name in ("nil3", "sol3", "hyp3"):
        cover, suite = norm_case(name, 16)
        calls = []
        cover = SimpleNamespace(**vars(cover), pair_distances=lambda sources, full=(
            cover.pair_distances): calls.append(len(sources)) or full(sources))
        sizes = [int(ann.mask.sum()) for ann in cover.annuli]
        for seed in range(3):
            weighted_holder_norm(cover, suite[0], 2, 0.5, w, seed)
            sampled += sum(min(4, n) for n in sizes if n >= 2)
        searched += sum(calls)
    assert searched <= sampled / 3, (searched, sampled)


@pytest.mark.parametrize("bad, match", [
    ("nan", "non-finite"),
    ("inf", "non-finite"),
    ("vector", "does not match grid"),
    ("other grid", "does not match grid"),
])
def test_weighted_holder_norm_rejects_bad_fields(nil3_fields, bad, match):
    cm, _ = nil3_fields
    cover = build_annulus_cover(cm, GRID)
    h = probe_tensor_suite(cm, GRID, count=1, seed=0)[0]
    if bad in ("nan", "inf"):
        h[8, 8, 8, 0, 1] = h[8, 8, 8, 1, 0] = float(bad)
    elif bad == "vector":
        h = h[..., 0]
    else:
        h = probe_tensor_suite(cm, GridSpec(radius=2.0, dx=0.2), count=1, seed=0)[0]
    for k in (0, 2):
        with pytest.raises(InvalidInput, match=match):
            weighted_holder_norm(cover, h, k, 0.5, WeightSpec(a=0.0, n=3, tau=2.0))


@pytest.mark.parametrize("k, alpha, match", [
    (3, 0.5, "k must be 0, 1 or 2"),
    (-1, 0.5, "k must be 0, 1 or 2"),
    (1, 0.0, r"alpha must lie in \(0, 1\)"),
    (1, 1.0, r"alpha must lie in \(0, 1\)"),
])
def test_weighted_holder_norm_refuses_bad_order(nil3_fields, k, alpha, match):
    cm, _ = nil3_fields
    h = probe_tensor_suite(cm, GRID, count=1, seed=0)[0]
    with pytest.raises(InvalidInput, match=match):
        weighted_holder_norm(build_annulus_cover(cm, GRID), h, k, alpha,
                             WeightSpec(a=0.0, n=3, tau=2.0))


# functions NumPy 1.x lacks; pyproject.toml declares numpy>=1.23
_NUMPY2_ONLY = {
    "np": {"vecdot", "matvec", "vecmat", "matrix_transpose", "permute_dims", "concat",
           "astype", "unstack", "cumulative_sum", "cumulative_prod", "trapezoid",
           "isdtype", "unique_all", "unique_counts", "unique_inverse", "unique_values",
           "acos", "acosh", "asin", "asinh", "atan", "atan2", "atanh", "pow",
           "bitwise_invert", "bitwise_left_shift", "bitwise_right_shift"},
    "np.linalg": {"vecdot", "matrix_transpose", "matrix_norm", "vector_norm",
                  "svdvals", "diagonal", "trace", "outer", "cross", "tensordot",
                  "matmul"},
}


def test_package_uses_no_numpy2_only_api():
    pkg = Path(coordfield.__file__).parent
    used = []
    for path in sorted(pkg.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and (
                    node.attr in _NUMPY2_ONLY.get(ast.unparse(node.value), ())
                    or node.attr == "mT"):
                used.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert not used, used
