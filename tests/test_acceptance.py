"""Acceptance gate: ten end-to-end criteria, one test each, run in order.

Each test prints a PASS line through the terminal-summary hook in conftest.py
and asserts its stated tolerance and runtime budget.  Heavy grid fields for
the hyperbolic chart (R = 4, dx = 0.125) are shared between criteria 8 and 9
through a module-scoped fixture.
"""

import time

import numpy as np
import pytest

from solitonlab import catalog
from solitonlab.coordfield import (
    GridSpec,
    WeightSpec,
    apply_L_fd,
    chart_metric,
    curvature_fields,
    frame_tensor_field,
    probe_tensor_suite,
    radial_bump,
    rayleigh_quotient,
    summability_check,
)
from solitonlab.errors import InvalidWeight
from solitonlab.flow import (convergence_experiment, flow_field, integrate, perturb,
                             rhs_unnormalized)
from solitonlab.leftinv import curvature, lichnerowicz, orthonormal_frame
from solitonlab.soliton import solve_soliton
from solitonlab.stability import (
    assemble_operator,
    ode_jacobian,
    stability_operator,
    sym_tensor_basis,
    unvec_sym,
    vec_sym,
)


def entries():
    return [catalog.get(name) for name in catalog.names()]


@pytest.fixture(scope="module")
def hyp3_fine():
    """Hyperbolic chart fields on the stated criterion-8/9 grid."""
    cm = chart_metric("hyp3")
    grid = GridSpec(radius=4.0, dx=0.125)
    fields = curvature_fields(cm, grid.points())
    return cm, grid, fields


def test_c01_soliton_certificates():
    t0 = time.perf_counter()
    want = {
        "nil3": (-1.5, np.diag([1.0, 1.0, 2.0])),
        "sol3": (-2.0, np.diag([2.0, 2.0, 0.0])),
        "nil4": (-1.5, np.diag([0.5, 1.0, 1.5, 2.0])),
    }
    for n in range(2, 7):
        want[f"hyp_{n}"] = (-(n - 1.0), np.zeros((n, n)))
    for name, (lam, D) in want.items():
        e = catalog.get(name)
        cert = solve_soliton(e.algebra, np.asarray(e.metric))
        assert abs(cert.lam - lam) < 1e-10, name
        assert np.max(np.abs(cert.D - D)) < 1e-10, name
        assert cert.residual < 1e-10, name
    assert time.perf_counter() - t0 < 1.0


def test_c02_closed_form_flow_oracle():
    t0 = time.perf_counter()
    e = catalog.get("nil3")
    g0 = np.asarray(e.metric)
    rhs = lambda g: rhs_unnormalized(e.algebra, g)

    def rel_err_at_1(dt):
        traj = integrate(rhs, g0, 1.0, dt=dt, method="rk4")
        gt = traj.metrics[-1]
        s = (3.0 * 1.0 + 1.0)
        exact = np.diag([s ** (1 / 3), s ** (1 / 3), s ** (-1 / 3)])
        return np.linalg.norm(gt - exact) / np.linalg.norm(exact)

    err_fine = rel_err_at_1(1e-3)
    err_coarse = rel_err_at_1(2e-3)
    assert err_fine < 1e-6
    assert 12.0 < err_coarse / err_fine < 20.0   # 4th order: halving ~ 16x
    assert time.perf_counter() - t0 < 5.0


def test_c03_fixed_points():
    t0 = time.perf_counter()
    for e in entries():
        g0 = np.asarray(e.metric)
        cert = solve_soliton(e.algebra, g0)
        assert np.linalg.norm(flow_field(e.algebra, cert)(g0)) < 1e-12, e.name
    assert time.perf_counter() - t0 < 1.0


def test_c04_linearization_consistency():
    t0 = time.perf_counter()
    for e in entries():
        n = e.algebra.n
        g0 = np.asarray(e.metric)
        cert = solve_soliton(e.algebra, g0)
        J = ode_jacobian(e.algebra, g0, cert)
        basis = sym_tensor_basis(n)
        F, _ = orthonormal_frame(e.algebra, g0)
        rng = np.random.default_rng(2024)

        def defect(s, h):
            q = flow_field(e.algebra, cert)(g0 + s * h)
            jh = unvec_sym(J @ vec_sym(F.T @ h @ F, basis), basis)
            Finv = np.linalg.inv(F)
            return np.linalg.norm(q - s * (Finv.T @ jh @ Finv))

        for _ in range(20):
            A = rng.standard_normal((n, n))
            h = 0.5 * (A + A.T)
            h /= np.linalg.norm(h)
            d1, d2 = defect(1e-3, h), defect(5e-4, h)
            if d1 < 1e-14 and d2 < 1e-14:
                continue          # abelian: the flow is exactly linear (zero)
            assert 3.5 < d1 / d2 < 4.5, e.name
    assert time.perf_counter() - t0 < 5.0


def test_c05_left_invariant_stability():
    t0 = time.perf_counter()
    strict_names = ["nil3", "sol3", "nil4", "heis5",
                    "hyp_2", "hyp_3", "hyp_4", "hyp_5", "hyp_6"]
    for name in strict_names:
        e = catalog.get(name)
        g0 = np.asarray(e.metric)
        cert = solve_soliton(e.algebra, g0)
        rep = stability_operator(e.algebra, g0, cert)
        assert rep.classification == "strict", name
        assert rep.quad_bound < 0 and rep.epsilon > 0, name
    for name in ("abelian_2", "abelian_3"):
        e = catalog.get(name)
        cert = solve_soliton(e.algebra, np.asarray(e.metric))
        rep = stability_operator(e.algebra, np.asarray(e.metric), cert)
        assert rep.classification == "weak", name
    assert time.perf_counter() - t0 < 2.0


def test_c06_dynamical_convergence():
    t0 = time.perf_counter()
    for e in entries():
        g0 = np.asarray(e.metric)
        cert = solve_soliton(e.algebra, g0)
        rep = stability_operator(e.algebra, g0, cert)
        if rep.classification != "strict":
            continue
        for seed in range(10):
            exp = convergence_experiment(e.algebra, g0, cert, eps=0.01,
                                         seed=seed)
            rel = abs(exp.fit.omega - exp.predicted_rate) / exp.predicted_rate
            assert rel <= 0.20, (e.name, seed, rel)
            assert exp.fit.r_squared >= 0.98, (e.name, seed)
    assert time.perf_counter() - t0 < 60.0


def test_c07_lichnerowicz_identity():
    for e in entries():
        n = e.algebra.n
        g0 = np.asarray(e.metric)
        assert np.max(np.abs(lichnerowicz(e.algebra, g0, np.eye(n)))) < 1e-10
        rng = np.random.default_rng(hash(e.name) % 2 ** 32)
        for _ in range(100):
            A = rng.standard_normal((n, n))
            g = np.eye(n) + 0.4 * (A @ A.T) / n
            assert np.max(np.abs(lichnerowicz(e.algebra, g, np.eye(n)))) < 1e-10
    # Einstein entries: the metric direction is an eigenvector with value 2*lambda
    for e in entries():
        if e.expected.classification != "Einstein":
            continue
        g0 = np.asarray(e.metric)
        cert = solve_soliton(e.algebra, g0)
        rep = stability_operator(e.algebra, g0, cert)
        assert np.min(np.abs(rep.spectrum - 2.0 * cert.lam)) < 1e-9, e.name


def test_c08_coordinate_algebraic_consistency(hyp3_fine):
    t0 = time.perf_counter()
    cm_h, grid_fine, fields_h_fine = hyp3_fine
    origin = np.zeros((1, 3))

    # chart Ricci at the origin vs the algebraic Ricci tensor
    for chart, ref in (("nil3", "nil3"), ("sol3", "sol3"), ("hyp3", "hyp_3")):
        cm = chart_metric(chart)
        e = catalog.get(ref)
        ric0 = curvature_fields(cm, origin)["ric"][0]
        assert np.max(np.abs(ric0 - curvature(e.algebra, np.asarray(e.metric)).ric)) < 1e-6

    # grid operator vs algebraic operator on bump plateaus, second order in dx.
    # The error is measured over a mask fixed across resolutions and well
    # inside the plateau, so both grids sample only the chi == 1 region.
    def plateau_errors(chart, ref, S):
        cm = chart_metric(chart)
        e = catalog.get(ref)
        g0 = np.asarray(e.metric)
        cert = solve_soliton(e.algebra, g0)
        Lmat = assemble_operator(e.algebra, g0, cert)
        basis = sym_tensor_basis(3)
        Sp = unvec_sym(Lmat @ vec_sym(S, basis), basis)
        errs = {}
        for dx in (0.25, 0.125):
            grid = grid_fine if (chart, dx) == ("hyp3", 0.125) else GridSpec(4.0, dx)
            fields = (fields_h_fine if grid is grid_fine
                      else curvature_fields(cm, grid.points()))
            chi = radial_bump(grid, 1.8, 3.6)
            h = chi[..., None, None] * frame_tensor_field(cm, grid, S)
            out = apply_L_fd(cm, cm.lam, cm.d, h, grid, _fields=fields)
            ref_field = frame_tensor_field(cm, grid, Sp)
            mask = np.sqrt(np.sum(grid.points() ** 2, axis=-1)) <= 1.3
            errs[dx] = float(np.max(np.abs(out - ref_field)[mask]))
            del fields, h, out, ref_field
        return errs

    rng = np.random.default_rng(8)
    A = rng.standard_normal((3, 3))
    S_rand = 0.5 * (A + A.T)
    S_rand /= np.linalg.norm(S_rand)

    errs = plateau_errors("hyp3", "hyp_3", np.diag([1.0, -0.5, 0.25]))
    assert errs[0.125] < 1.0
    assert 3.0 < errs[0.25] / errs[0.125] < 5.0

    errs = plateau_errors("sol3", "sol3", S_rand)
    assert errs[0.125] < 1e-2
    assert errs[0.25] / errs[0.125] > 3.0   # superconverges: z-only plateau data

    errs = plateau_errors("nil3", "nil3", S_rand)
    assert errs[0.25] < 1e-9 and errs[0.125] < 1e-9   # polynomial: stencil-exact

    assert time.perf_counter() - t0 < 120.0


def test_c09_rayleigh_probes(hyp3_fine):
    cm, grid, fields = hyp3_fine

    # plateau quotient: restrict the L2 pairing to the region where the bump
    # is constant; there L(chi g) = 2 lambda (chi g) up to truncation error.
    chi = radial_bump(grid, 1.8, 3.6)
    h = chi[..., None, None] * fields["g"]
    Lh = apply_L_fd(cm, cm.lam, cm.d, h, grid, _fields=fields)
    ginv = fields["ginv"]
    pair = lambda A, B: np.einsum("...ij,...ik,...jl,...kl->...", A, ginv, ginv, B)
    dmu = fields["sqrt_det"] * grid.dx ** 3
    mask = np.sqrt(np.sum(grid.points() ** 2, axis=-1)) <= 1.8 - 2 * grid.dx
    q = float(np.sum((pair(Lh, h) * dmu)[mask]) / np.sum((pair(h, h) * dmu)[mask]))
    assert abs(q - (-4.0)) <= 0.4          # within 10% of 2*lambda = -4

    # all 20 nil3 probe-tensor quotients negative
    cm_n = chart_metric("nil3")
    grid_n = GridSpec(4.0, 0.25)
    fields_n = curvature_fields(cm_n, grid_n.points())
    suite = probe_tensor_suite(cm_n, grid_n, count=20, seed=0)
    quots = [rayleigh_quotient(cm_n, cm_n.lam, cm_n.d, hh, grid_n, _fields=fields_n)
             for hh in suite]
    assert len(quots) == 20 and max(quots) < 0

    # scale invariance
    q1 = rayleigh_quotient(cm_n, cm_n.lam, cm_n.d, suite[0], grid_n, _fields=fields_n)
    q2 = rayleigh_quotient(cm_n, cm_n.lam, cm_n.d, 7.3 * suite[0], grid_n,
                           _fields=fields_n)
    assert abs(q1 - q2) < 1e-12


def test_c10_weight_machinery():
    t0 = time.perf_counter()
    for a, tau in ((-1.0, 1.0), (0.0, 2.0)):
        for n in range(2, 9):
            res = summability_check(WeightSpec(a=a, n=n, tau=tau))
            assert res["converged"], (a, n, tau)
            assert res["tail_bound"] < 1e-6 * (res["bound"] - res["tail_bound"]), (a, n, tau)
    with pytest.raises(InvalidWeight):
        WeightSpec(a=0.0, n=3, tau=1.0)
    with pytest.raises(InvalidWeight):
        WeightSpec(a=-1.0, n=3, tau=0.0)
    assert time.perf_counter() - t0 < 1.0
