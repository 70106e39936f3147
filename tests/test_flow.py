import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from solitonlab import catalog
from solitonlab.errors import (
    InvalidInput,
    InvalidMetric,
    InvalidPerturbation,
    SingularityReached,
    StiffnessError,
)
from solitonlab.flow import (
    RELAX_TOL,
    FlowTrajectory,
    convergence_experiment,
    fit_decay_rate,
    flow_field,
    integrate,
    perturb,
    predicted_rate,
    relax_fit,
    rhs_normalized,
    rhs_unnormalized,
)
from solitonlab.leftinv import curvature, ricci
from solitonlab.liealg import LieAlgebra, change_basis
from solitonlab.soliton import (SolitonCertificate, exact_unnormalized_solution,
                                solve_soliton)

NIL3 = catalog.get("nil3")
SU2 = LieAlgebra(3, ((0, 1, 2, 1.0), (1, 2, 0, 1.0), (0, 2, 1, -1.0)))


def nil3_exact(t):
    s = 3.0 * t + 1.0
    return np.diag([s ** (1 / 3), s ** (1 / 3), s ** (-1 / 3)])


def test_rhs_unnormalized_is_minus_two_ric():
    g = np.diag([1.0, 2.0, 3.0])
    assert np.allclose(rhs_unnormalized(NIL3.algebra, g),
                       -2.0 * curvature(NIL3.algebra, g).ric, atol=1e-14)


def test_rhs_normalized_vanishes_at_solitons(soliton_entries):
    for e in soliton_entries:
        cert = solve_soliton(e.algebra, e.metric)
        res = np.linalg.norm(rhs_normalized(e.algebra, np.asarray(e.metric),
                                            cert))
        assert res < 1e-12, e.name


@pytest.mark.parametrize("name", catalog.names())
def test_rhs_normalized_matches_definition_and_is_symmetric(name):
    """-2 ric + 2 lambda g + D^T g + g D, ric from the full-Rm curvature."""
    e = catalog.get(name)
    rng = np.random.default_rng(sum(map(ord, name)))
    Q, _ = np.linalg.qr(rng.standard_normal((e.algebra.n, e.algebra.n)))
    g0 = np.asarray(e.metric, dtype=float)
    # a non-symmetric D as well, which tells D^T g + g D from g D^T + D g
    D_asym = rng.standard_normal((e.algebra.n, e.algebra.n))
    for L, gb in ((e.algebra, g0), (change_basis(e.algebra, Q), Q @ g0 @ Q.T)):
        sol = solve_soliton(L, gb)
        for cert in (sol, SolitonCertificate(sol.lam, D_asym, 0.0, "none")):
            for g in (gb, perturb(gb, 0.05, seed=1)):
                out = rhs_normalized(L, g, cert)
                assert np.array_equal(out, out.T)
                terms = (-2.0 * curvature(L, g).ric, 2.0 * cert.lam * g,
                         cert.D.T @ g + g @ cert.D)
                err = np.linalg.norm(out - sum(terms))
                assert err <= 1e-13 * sum(np.linalg.norm(t) for t in terms), name


@pytest.mark.parametrize("g, msg", [
    (np.eye(4), "must be 3x3"),
    (np.ones((3, 4)), "must be square"),
    (np.ones(3), "must be square"),
    (np.diag([1.0, np.nan, 1.0]), "non-finite"),
])
def test_rhs_normalized_validates_before_arithmetic(g, msg):
    # unvalidated, these would reach g D: numpy's ValueError, a wrong shape or NaN
    cert = solve_soliton(NIL3.algebra, NIL3.metric)
    with pytest.raises(InvalidMetric, match=msg):
        rhs_normalized(NIL3.algebra, g, cert)


@pytest.mark.parametrize("name", ["nil3", "sol3", "heis5", "hyp_4", "heis3_ext"])
def test_flow_field_is_the_rhs_bit_for_bit(name):
    """The field built once per integration gives the one-call forms' bits."""
    e = catalog.get(name)
    rng = np.random.default_rng(sum(map(ord, name)))
    Q, _ = np.linalg.qr(rng.standard_normal((e.algebra.n, e.algebra.n)))
    g0 = np.asarray(e.metric, dtype=float)
    for L, gb in ((e.algebra, g0), (change_basis(e.algebra, Q), Q @ g0 @ Q.T)):
        cert = solve_soliton(L, gb)
        normalized, unnormalized = flow_field(L, cert), flow_field(L)
        for g in (gb, perturb(gb, 0.05, seed=2), 1e150 * gb):
            assert np.array_equal(normalized(g), rhs_normalized(L, g, cert))
            assert np.array_equal(unnormalized(g), rhs_unnormalized(L, g))
            assert np.array_equal(unnormalized(g), -2.0 * ricci(L, g))


@pytest.mark.parametrize("lam, D, msg", [
    (-1.0, np.eye(4), "finite 3x3 matrix"),
    (-1.0, np.diag([1.0, np.nan, 1.0]), "finite 3x3 matrix"),
    (-1.0, np.diag([1.0, np.inf, 1.0]), "finite 3x3 matrix"),
    (np.nan, np.eye(3), "lambda must be finite"),
    (-np.inf, np.eye(3), "lambda must be finite"),
])
def test_flow_field_refuses_bad_certificate(lam, D, msg):
    # unchecked, a 4x4 D reached g M as numpy's ValueError and a NaN lambda
    # gave a NaN field; a non-finite lambda or D is refused where the
    # certificate is made, a 4x4 D where it meets nil3
    with pytest.raises(InvalidInput, match=msg):
        flow_field(NIL3.algebra, SolitonCertificate(lam, D, 0.0, "none"))
    with pytest.raises(InvalidInput, match=msg):
        rhs_normalized(NIL3.algebra, np.eye(3), SolitonCertificate(lam, D, 0.0, "none"))


@pytest.mark.parametrize("shape", [(0, 0), (2, 0, 0)])
def test_integrate_and_perturb_reject_empty_metric(shape):
    with pytest.raises(InvalidMetric):
        integrate(lambda g: -g, np.zeros(shape), 1.0)
    with pytest.raises(InvalidMetric):
        perturb(np.zeros(shape), 0.01, seed=0)


def test_rk4_tracks_closed_form():
    rhs = lambda g: rhs_unnormalized(NIL3.algebra, g)
    traj = integrate(rhs, np.eye(3), 1.0, dt=1e-3, method="rk4")
    assert abs(traj.times[-1] - 1.0) < 1e-12
    rel = (np.linalg.norm(traj.metrics[-1] - nil3_exact(1.0))
           / np.linalg.norm(nil3_exact(1.0)))
    assert rel < 1e-6


def test_rk4_fourth_order_convergence():
    # measured on steps where truncation still dominates roundoff
    rhs = lambda g: rhs_unnormalized(NIL3.algebra, g)
    errs = []
    for dt in (8e-3, 4e-3, 2e-3):
        traj = integrate(rhs, np.eye(3), 1.0, dt=dt, method="rk4")
        errs.append(np.linalg.norm(traj.metrics[-1] - nil3_exact(1.0)))
    assert 12.0 <= errs[0] / errs[1] <= 20.0
    assert 12.0 <= errs[1] / errs[2] <= 20.0


def test_dop853_adaptive_accuracy():
    rhs = lambda g: rhs_unnormalized(NIL3.algebra, g)
    traj = integrate(rhs, np.eye(3), 1.0, dt=1e-2, method="dop853", tol=1e-12)
    rel = (np.linalg.norm(traj.metrics[-1] - nil3_exact(1.0))
           / np.linalg.norm(nil3_exact(1.0)))
    assert rel < 1e-9
    # adaptive stepping should need far fewer steps than fixed dt=1e-3
    assert len(traj.times) < 500


def test_integrate_records_deviations():
    e = catalog.get("sol3")
    cert = solve_soliton(e.algebra, e.metric)
    rhs = lambda g: rhs_normalized(e.algebra, g, cert)
    traj = integrate(rhs, np.asarray(e.metric), 2.0)
    devs = np.linalg.norm(traj.metrics - np.asarray(e.metric), axis=(1, 2))
    assert devs.shape == (len(traj.times),)
    assert np.max(devs) < 1e-12   # stationary point stays put


def test_integrate_rejects_bad_input():
    rhs = lambda g: -g
    with pytest.raises(InvalidInput):
        integrate(rhs, np.diag([1.0, -1.0]), 1.0)
    with pytest.raises(InvalidInput):
        integrate(rhs, np.eye(2), -1.0)
    with pytest.raises(InvalidInput):
        integrate(rhs, np.eye(2), 1.0, method="euler")
    for max_step in (0.0, -1.0, np.nan):
        with pytest.raises(InvalidInput, match="max_step must be positive"):
            integrate(rhs, np.eye(2), 1.0, max_step=max_step)


def test_integrate_zero_horizon_returns_initial_point():
    for method in ("rk4", "dop853"):
        traj = integrate(lambda g: -g, np.diag([1.0, 2.0]), 0.0, method=method)
        assert traj.times.tolist() == [0.0], method
        assert np.array_equal(traj.metrics[0], np.diag([1.0, 2.0])), method


@pytest.mark.parametrize("name", ["atol", "rtol"])
@pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf])
def test_integrate_rejects_bad_tolerance(name, value):
    # at 0 or nan the error ratio is NaN and no step was ever accepted
    with pytest.raises(InvalidInput, match="tolerance must be positive"):
        integrate(lambda g: -g, np.eye(2), 1.0, tol=value)
    # tol is DOP853's atol and rtol alike; neither is a parameter of its own
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
        integrate(lambda g: -g, np.eye(2), 1.0, **{name: value})


def test_integrate_refuses_rtol_below_scipy_floor():
    # scipy would raise such an rtol to 100 eps with only a warning
    eps = np.finfo(float).eps
    with pytest.raises(InvalidInput, match="tolerance must be at least 100 machine"):
        integrate(lambda g: -g, np.eye(2), 1.0, tol=1e-15)
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # the floor itself passes scipy unwarned
        traj = integrate(lambda g: -g, np.eye(2), 1.0, tol=100 * eps)
    assert traj.times[-1] == 1.0
    # the fixed-step method has no error control, so any positive tol is fine
    integrate(lambda g: -g, np.eye(2), 0.01, method="rk4", tol=1e-15)


def test_integration_stops_at_singularity():
    # drive the metric through the SPD boundary in finite time
    rhs = lambda g: -2.0 * g - 3.0 * np.eye(2)
    for method in ("rk4", "dop853"):
        with pytest.raises(SingularityReached) as exc:
            integrate(rhs, np.eye(2), 5.0, dt=1e-3, method=method)
        assert 0.0 < exc.value.t < 5.0, method


def test_stage_point_outside_the_cone_is_a_singularity():
    # su(2) at the identity flows as g(t) = (1 - t) I; a stage point past
    # t = 1 was refused by the Ricci kernel and escaped as InvalidMetric
    for method in ("dop853", "rk4"):
        with pytest.raises(SingularityReached) as exc:
            integrate(flow_field(SU2), np.eye(3), 10.0, method=method)
        assert 0.9 < exc.value.t < 1.0, method
    with pytest.raises(InvalidMetric):       # the start is still checked as input
        integrate(flow_field(SU2), -np.eye(3), 10.0)
    with pytest.raises(InvalidMetric, match="must be 3x3"):   # and so is its size
        integrate(flow_field(SU2), np.eye(4), 10.0)


@pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-10, 1e-11])
def test_adaptive_flow_is_stepped_up_to_its_exit_from_the_cone(tol):
    # a step whose stage point crosses t = 1 is retried smaller, not given up:
    # the last accepted step used to stop at 0.666 (tol 1e-10) or 0.11 (1e-6)
    with pytest.raises(SingularityReached) as exc:
        integrate(flow_field(SU2), np.eye(3), 10.0, tol=tol)
    assert 1.0 - 1e-9 < exc.value.t < 1.0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_integration_stops_at_non_finite_iterate(bad):
    # a non-finite matrix is not a metric, whatever its Cholesky factor says
    with pytest.raises(SingularityReached) as exc:
        integrate(lambda g: np.full_like(g, bad), np.eye(2), 0.01, method="rk4")
    assert exc.value.t == pytest.approx(1e-3)


def test_adaptive_step_underflow_at_blow_up():
    # dg/dt = g g from I is g = I / (1 - t), which blows up at t = 1
    with pytest.raises(StiffnessError) as exc:
        integrate(lambda g: g @ g, np.eye(2), 2.0, method="dop853")
    t = float(re.search(r"at t=(\S+)\)", str(exc.value)).group(1))
    assert abs(t - 1.0) < 1e-3


def test_adaptive_nan_rhs_raises_promptly():
    # run in a subprocess: a NaN error ratio that never shrinks the step
    # must fail this test by timeout rather than hang the suite
    code = ("import numpy as np\n"
            "from solitonlab.flow import integrate\n"
            "from solitonlab.errors import StiffnessError\n"
            "try:\n"
            "    integrate(lambda g: np.full_like(g, np.nan), np.eye(2), 1.0)\n"
            "except StiffnessError as e:\n"
            "    print('StiffnessError', e)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    try:
        r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, env=env, timeout=30)
    except subprocess.TimeoutExpired:
        pytest.fail("integrate on a NaN rhs did not return within 30 s")
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("StiffnessError"), r.stdout
    assert "at t=0)" in r.stdout, r.stdout


def scipy_dop853(rhs, g0, t_max, dt=1e-3, tol=1e-9, max_step=np.inf):
    """``integrate``'s adaptive loop on ``scipy.integrate.DOP853``: times,
    metrics and scipy's count of rhs calls."""
    from scipy.integrate import DOP853
    n = g0.shape[0]
    solver = DOP853(lambda t, y: rhs(y.reshape(n, n)).ravel(), 0.0,
                    g0.ravel().copy(), t_max, first_step=min(dt, t_max),
                    max_step=max_step, rtol=tol, atol=tol)
    times, mets = [0.0], [g0.copy()]
    while solver.status == "running":
        message = solver.step()
        if solver.status == "failed":
            raise StiffnessError(f"{message} (at t={solver.t:.6g})")
        g = solver.y.reshape(n, n)
        g[...] = 0.5 * (g + g.T)      # in the solver's state, as integrate does
        times.append(solver.t)
        mets.append(g.copy())
    return np.array(times), np.array(mets), solver.nfev


def assert_steps_like_scipy(rhs, g0, t_max, **kw):
    """Same step times, metrics to the bit and rhs count as scipy's DOP853;
    returns the count of rejected steps."""
    calls = []
    def counted(g):
        calls.append(None)
        return rhs(g)
    traj = integrate(counted, g0, t_max, method="dop853", **kw)
    times, mets, nfev = scipy_dop853(rhs, g0, t_max, **kw)
    assert np.array_equal(traj.times, times)
    assert np.array_equal(traj.metrics, mets)
    assert len(calls) == nfev and (nfev - 1) % 12 == 0   # 12 per attempt, 1 at start
    return (nfev - 1) // 12 - (len(times) - 1)


@pytest.mark.parametrize("name", [n for n in catalog.names()
                                  if catalog.get(n).expected.classification != "flat"])
def test_dop853_steps_like_scipy_on_relax(name):
    # the relax experiment's integration, in the entry's basis and a rotated one
    e = catalog.get(name)
    Q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((e.algebra.n,) * 2))
    g0 = np.asarray(e.metric, dtype=float)
    for L, g0 in ((e.algebra, g0), (change_basis(e.algebra, Q), Q @ g0 @ Q.T)):
        cert = solve_soliton(L, g0)
        omega = predicted_rate(L, g0, cert)
        assert_steps_like_scipy(flow_field(L, cert), perturb(g0, 0.01, seed=3),
                                24.0 / omega, dt=min(1e-3, 0.01 / omega),
                                tol=RELAX_TOL, max_step=1.0 / omega)


def test_dop853_steps_like_scipy_unnormalized_rejected_and_capped():
    e = catalog.get("heis5")
    rhs, g0 = flow_field(e.algebra), perturb(np.asarray(e.metric), 0.05, seed=4)
    assert_steps_like_scipy(rhs, g0, 2.0, tol=1e-10)
    # a first step of the whole horizon is rejected before any is accepted,
    # and the retry that is accepted may not grow the step
    assert assert_steps_like_scipy(lambda g: -g, np.diag([1.0, 2.0]), 3.0,
                                   dt=3.0) > 0
    # a step cap below the steps the controller would take
    assert_steps_like_scipy(rhs, g0, 2.0, tol=1e-10, max_step=0.05)


def test_dop853_step_underflow_reads_like_scipy():
    # the g g blow-up at t = 1 fails with scipy's message and time
    with pytest.raises(StiffnessError) as ours:
        integrate(lambda g: g @ g, np.eye(2), 2.0, method="dop853")
    with pytest.raises(StiffnessError) as theirs:
        scipy_dop853(lambda g: g @ g, np.eye(2), 2.0)
    assert str(ours.value) == str(theirs.value)


def test_perturb_properties():
    rng_metric = np.diag([1.0, 2.0, 0.5])
    p1 = perturb(rng_metric, 0.05, seed=3)
    p2 = perturb(rng_metric, 0.05, seed=3)
    p3 = perturb(rng_metric, 0.05, seed=4)
    assert np.array_equal(p1, p2)
    assert not np.array_equal(p1, p3)
    assert np.allclose(p1, p1.T)
    assert np.linalg.eigvalsh(p1).min() > 0
    dev = np.linalg.norm(p1 - rng_metric) / np.linalg.norm(rng_metric)
    assert 0 < dev <= 0.05 + 1e-12
    with pytest.raises(InvalidInput):
        perturb(rng_metric, 0.7, seed=0)


@pytest.mark.parametrize("eps", [np.nan, -np.inf, np.inf, -0.01, 0.5])
def test_perturb_refuses_eps_outside_range(eps):
    # a NaN eps used to draw 100 times and then give up
    with pytest.raises(InvalidInput, match=r"eps must lie in \[0, 0.5\)"):
        perturb(np.eye(3), eps, seed=0)


@pytest.mark.parametrize("seed", [-1, 1.5, 2.0, True, "3", None])
def test_perturb_refuses_bad_seed(seed):
    # a float seed used to be truncated, a negative one reached numpy's ValueError
    with pytest.raises(InvalidInput, match="seed must be a non-negative integer"):
        perturb(np.eye(3), 0.01, seed=seed)
    assert np.array_equal(perturb(np.eye(3), 0.01, seed=np.int64(3)),
                          perturb(np.eye(3), 0.01, seed=3))


def test_fit_decay_rate_on_synthetic_data():
    times = np.linspace(0.0, 12.0, 241)
    g_inf = np.diag([2.0, 1.0, 1.0])
    h = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    metrics = np.array([g_inf + 0.02 * np.exp(-0.75 * t) * h for t in times])
    devs = np.linalg.norm(metrics - g_inf, axis=(1, 2))
    fit = fit_decay_rate(times, devs, window=(6.0, 12.0))
    assert fit.ok
    assert abs(fit.omega - 0.75) < 1e-10
    assert fit.r_squared > 0.999999


def test_fit_decay_rate_window_and_floor():
    times = np.linspace(0.0, 10.0, 101)
    g_inf = np.eye(2)
    h = np.array([[1.0, 0.0], [0.0, -1.0]])
    metrics = np.array([g_inf + 1e-3 * np.exp(-2.0 * t) * h for t in times])
    devs = np.linalg.norm(metrics - g_inf, axis=(1, 2))
    fit = fit_decay_rate(times, devs, window=(1.0, 4.0))
    assert fit.ok and abs(fit.omega - 2.0) < 1e-9
    assert fit.window[0] >= 1.0 and fit.window[1] <= 4.0


def test_relax_fit_places_window_by_predicted_rate():
    # deviations from the last metric decay at 0.75 until the end nears
    times = np.linspace(0.0, 30.0, 601)
    g_inf = np.diag([2.0, 1.0, 1.0])
    h = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    metrics = np.array([g_inf + 0.02 * np.exp(-0.75 * t) * h for t in times])
    traj = FlowTrajectory(times=times, metrics=metrics)
    fit = relax_fit(traj, 0.75, 1e-12)
    assert fit.ok and abs(fit.omega - 0.75) < 1e-2
    # t2 is capped 4 e-folds before the end; the window holds 5 e-folds
    assert fit.window == pytest.approx((30.0 - 9.0 / 0.75, 30.0 - 4.0 / 0.75))
    # a clean fit at the wrong rate is not ok
    assert relax_fit(traj, 0.5, 1e-12).ok is False
    # the floor ends the window early when the signal reaches it first
    fit = relax_fit(traj, 0.75, 1e-4)
    assert fit.window[1] < 8.0 and fit.ok
    for omega, floor in ((None, 1e-12), (0.75, 1.0)):
        fit = relax_fit(traj, omega, floor)
        assert fit.window is None and fit.n_points == 0 and not fit.ok
    # a zero rate used to divide by zero, and a NaN one still placed a window
    for omega in (0.0, -0.75, np.nan, np.inf):
        with pytest.raises(InvalidInput, match="omega must be finite and positive"):
            relax_fit(traj, omega, 1e-12)


def test_unnormalized_flow_matches_exact_solution_sol3():
    e = catalog.get("sol3")
    cert = solve_soliton(e.algebra, e.metric)
    rhs = lambda g: rhs_unnormalized(e.algebra, g)
    traj = integrate(rhs, np.asarray(e.metric), 0.5, method="dop853", tol=1e-12)
    want = exact_unnormalized_solution(np.asarray(e.metric), cert, 0.5)
    assert np.linalg.norm(traj.metrics[-1] - want) < 1e-9


def test_convergence_experiment_nil3():
    cert = solve_soliton(NIL3.algebra, NIL3.metric)
    exp = convergence_experiment(NIL3.algebra, NIL3.metric, cert,
                                 eps=0.01, seed=7)
    assert exp.fit.ok
    assert exp.fit.r_squared >= 0.98
    # the decaying spectral abscissa of the jacobian is -1 here
    assert abs(exp.predicted_rate - 1.0) < 1e-6
    assert abs(exp.fit.omega - 1.0) < 0.05
    # the limit is a gauge-shifted soliton, not g0 itself in general
    assert np.linalg.eigvalsh(exp.g_limit).min() > 0


@pytest.mark.parametrize("name, seed", [("nil4", 1105563488),
                                        ("heis3_ext", 13),
                                        ("heis3_ext", 2085047379)])
def test_convergence_experiment_fit_window_reaches_slowest_mode(name, seed):
    # the slowest mode starts small at these seeds, so a fit window that
    # ends well above integration noise still lies in the transient and
    # fits a faster rate
    e = catalog.get(name)
    cert = solve_soliton(e.algebra, e.metric)
    exp = convergence_experiment(e.algebra, e.metric, cert, eps=0.01, seed=seed)
    rel = abs(exp.fit.omega - exp.predicted_rate) / exp.predicted_rate
    assert rel <= 0.20, rel
    assert exp.fit.r_squared >= 0.98


def test_convergence_experiment_fit_window_holds_five_steps(soliton_entries):
    # the step cap of 1/omega keeps at least 5 accepted steps in the
    # 5-e-fold window; uncapped, high-order steps can leave it with 3.
    # Every non-flat catalog soliton is strictly stable (criterion 5).
    for e in soliton_entries:
        g0 = np.asarray(e.metric)
        cert = solve_soliton(e.algebra, g0)
        for seed in range(10):
            exp = convergence_experiment(e.algebra, g0, cert, eps=0.01,
                                         seed=seed)
            assert exp.fit.n_points >= 5, (e.name, seed, exp.fit.n_points)


def test_convergence_experiment_refuses_unplaceable_window():
    flat = catalog.get("abelian_3")
    cert = solve_soliton(flat.algebra, flat.metric)
    with pytest.raises(InvalidInput, match="no decaying modes"):
        convergence_experiment(flat.algebra, flat.metric, cert)
    # unperturbed, the soliton never leaves its fixed point
    cert = solve_soliton(NIL3.algebra, NIL3.metric)
    with pytest.raises(InvalidInput, match="fit floor"):
        convergence_experiment(NIL3.algebra, NIL3.metric, cert, eps=0.0)


def test_convergence_experiment_rejects_bad_eps():
    cert = solve_soliton(NIL3.algebra, NIL3.metric)
    with pytest.raises((InvalidInput, InvalidPerturbation)):
        convergence_experiment(NIL3.algebra, NIL3.metric, cert, eps=0.9)
