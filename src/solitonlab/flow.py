"""ODE integration of the Ricci flows on left-invariant metrics.

The unnormalized flow is dg/dt = -2 ric(g); the curvature-normalized flow
adds the soliton terms with (lambda, D) frozen from the background
certificate:

    dg/dt = -2 ric(g) + 2 lambda g + D^T g + g D.

``flow_field`` builds either vector field once per integration; each call
is one ``leftinv.ricci_kernel`` evaluation and one symmetrization.

Integrators: classic fixed-step RK4 (used for convergence-order tests) and
adaptive Dormand-Prince 8(5,3) (Hairer-Norsett-Wanner, *Solving ODEs I*,
II.5 and II.10), stepped here one accepted step at a time with the steps of
``scipy.integrate.DOP853``, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.lapack import dpotrf

from .errors import (InvalidInput, InvalidMetric, InvalidPerturbation,
                     SingularityReached, StiffnessError)
from .liealg import LieAlgebra, check_seed, check_tol
from .leftinv import check_metric, ricci_kernel
from .soliton import SolitonCertificate, _check_cert
from .stability import decay_abscissa, ode_jacobian


#: error tolerance (``integrate``'s ``tol``) of the relax experiment's integration
RELAX_TOL = 1e-11


@dataclass
class FitResult:
    """Log-linear decay fit: deviations ~ C * exp(-omega * t)."""

    C: float
    omega: float
    r_squared: float
    window: tuple | None
    n_points: int
    ok: bool


@dataclass
class FlowTrajectory:
    """Sampled flow: accepted step times and the metrics at them."""

    times: np.ndarray
    metrics: np.ndarray


def rhs_unnormalized(L: LieAlgebra, g) -> np.ndarray:
    """-2 ric(g) = -(r + r^T) as a bilinear form in the defining basis."""
    r = ricci_kernel(L, g)[1]
    return -(r + r.T)


def flow_field(L: LieAlgebra, cert: SolitonCertificate | None = None):
    """The flow's vector field g -> dg/dt, built once per integration.

    Without a certificate it is ``rhs_unnormalized``.  With one, D is checked
    against L here, once, and M = lambda I + D is formed once; each call
    is then S + S^T with S = g M - r (``ricci_kernel``'s g and r), which is
    -2 ric(g) + 2 lambda g + D^T g + g D in one exactly symmetric sum.
    """
    if cert is None:
        return lambda g: rhs_unnormalized(L, g)
    _check_cert(cert, L.n)
    M = cert.lam * np.eye(L.n) + cert.D

    def field(g):
        g, r = ricci_kernel(L, g)      # validates g before any arithmetic
        S = g.dot(M)
        S -= r
        return S + S.T
    return field


def _is_spd(g) -> bool:
    """True iff g is finite and positive definite (one LAPACK ``dpotrf``)."""
    return bool(np.isfinite(g).all()) and dpotrf(g, lower=1)[1] == 0


def integrate(rhs, g_init, t_max, dt=1e-3, method="dop853", tol=1e-9,
              max_step=np.inf) -> FlowTrajectory:
    """Integrate dg/dt = rhs(g) from g_init up to t_max.

    Parameters
    ----------
    rhs : callable
        Maps a metric matrix to a symmetric matrix.
    method : {'rk4', 'dop853'}
        Fixed-step classic RK4 with step ``dt``, or adaptive Dormand-Prince
        8(5,3) (``_dop853_steps``: the steps of ``scipy.integrate.DOP853``,
        without importing it) with ``dt`` as the first step (clipped to
        ``t_max``) and ``tol`` as both its absolute and its relative
        tolerance, at least 100 machine epsilons (scipy would raise a smaller
        one to that with only a warning).  Each entry's error is scaled by
        tol (1 + max(|g|, |g_new|)), and a step is accepted when DOP853's
        error measure over the n^2 scaled entries is below 1.
    tol : float
        Finite and positive; RK4 has no error control and ignores it.
    max_step : float, optional
        Largest step of the adaptive method (default unbounded); RK4
        ignores it.

    The iterate is symmetrized after every accepted step and checked to be
    finite and positive definite; failures raise ``SingularityReached``.
    So does ``rhs`` refusing a point (``InvalidMetric``), with ``t`` the last
    accepted time: RK4 stops at the first refused stage point, while the
    adaptive method rejects the step and retries smaller ones until the step
    size underflows, which places t at the exit from the cone.
    Any other failed adaptive step (step size underflow, e.g. at a blow-up
    or on a non-finite ``rhs``) raises ``StiffnessError``.
    """
    g = check_metric(g_init)
    if not (np.isfinite(dt) and dt > 0):
        raise InvalidInput(f"dt must be finite and positive, got {dt}")
    if not (np.isfinite(t_max) and t_max >= 0):
        raise InvalidInput(f"t_max must be finite and non-negative, got {t_max}")
    if not max_step > 0:
        raise InvalidInput(f"max_step must be positive, got {max_step}")
    if method not in ("rk4", "dop853"):
        raise InvalidInput(f"unknown method {method!r}")
    # a zero or NaN tolerance rejects every step until the step size
    # underflows, and an infinite one accepts every step
    check_tol(tol)
    if method == "dop853" and tol < 100 * np.finfo(float).eps:
        raise InvalidInput(f"tolerance must be at least 100 machine epsilons "
                           f"({100 * np.finfo(float).eps:.3g}), got {tol}")

    times, mets = [0.0], [g.copy()]
    steps = (_rk4_steps(rhs, g, t_max, dt) if method == "rk4"
             else _dop853_steps(rhs, g, t_max, dt, tol, max_step))
    try:
        for t, g in steps:
            # symmetrized in place: the next step starts from it, so asymmetric
            # rounding does not accumulate from step to step
            g[...] = 0.5 * (g + g.T)
            if not _is_spd(g):
                raise SingularityReached(t)
            times.append(t)
            mets.append(g.copy())
    except InvalidMetric as e:      # a stage point left the metric cone
        rhs(mets[0])                # unless rhs refuses the start: the caller's error
        raise SingularityReached(times[-1]) from e
    return FlowTrajectory(times=np.array(times), metrics=np.array(mets))


def _rk4_steps(rhs, g, t_max, dt):
    """(t, g) after each classic RK4 step of ``dt``, then one shorter step
    to ``t_max`` if ``dt`` does not divide it; each step starts from the
    array the previous one yielded."""
    def step(y, h):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    n_full = int(np.floor(t_max / dt + 1e-12))
    for i in range(n_full):
        g = step(g, dt)
        yield (i + 1) * dt, g
    rem = t_max - n_full * dt
    if rem > 1e-12 * max(dt, 1.0):
        yield t_max, step(g, rem)


# The Dormand-Prince 8(5,3) tableau of Hairer's dop853.f, as the doubles that
# scipy.integrate.DOP853 holds: A's rows below the diagonal (12 stages), the
# weights B of the eighth-order step, and the weights E5, E3 of the fifth- and
# third-order error estimates over the 12 stages and f at the new point.  The
# flows are autonomous, so the stage times (the nodes C) are not needed.
_A = np.zeros((12, 12))
_A[np.tril_indices(12, -1)] = (
    0.05260015195876773,
    0.0197250569845379, 0.0591751709536137,
    0.02958758547680685, 0.0, 0.08876275643042054,
    0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792,
    0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242,
    0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596,
    -0.017578125,
    0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
    -0.015319437748624402, 0.008273789163814023,
    0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
    27.59209969944671, 20.154067550477894, -43.48988418106996,
    0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
    21.230051448181193, 15.279233632882423, -33.28821096898486,
    -0.020331201708508627,
    -0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
    -8.149787010746927, -18.52006565999696, 22.739487099350505,
    2.4936055526796523, -3.0467644718982196,
    2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
    -17.9589318631188, 27.94888452941996, -2.8589982771350235,
    -8.87285693353063, 12.360567175794303, 0.6433927460157636)
_B = np.array([
    0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
    1.8915178993145003, -5.801203960010585, 0.3111643669578199,
    -0.1521609496625161, 0.20136540080403034, 0.04471061572777259])
_E5 = np.array([
    0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
    -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
    0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0.0])
_E3 = np.array([
    -0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
    1.8915178993145003, -5.801203960010585, -0.4226823213237919,
    -0.1521609496625161, 0.20136540080403034, 0.02265179219836082, 0.0])


def _error_norm(K, h, scale):
    """DOP853's error measure of a step h with stages K (Hairer's ERR):
    |h| |e5|^2 / sqrt((|e5|^2 + 0.01 |e3|^2) N), e5 and e3 the two error
    estimates over ``scale`` and N their length."""
    err5 = np.dot(K.T, _E5) / scale
    err3 = np.dot(K.T, _E3) / scale
    err5_norm_2 = np.linalg.norm(err5) ** 2
    err3_norm_2 = np.linalg.norm(err3) ** 2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    return np.abs(h) * err5_norm_2 / np.sqrt((err5_norm_2 + 0.01 * err3_norm_2)
                                             * len(scale))


def _dop853_steps(rhs, g, t_max, dt, tol, max_step):
    """(t, g) after each accepted Dormand-Prince 8(5,3) step, g a view of the
    stepper's own state (so changing it in place changes the next step's start).

    The steps are ``scipy.integrate.DOP853``'s (``first_step=min(dt, t_max)``,
    ``rtol=atol=tol``), bit for bit: the same BLAS products on a (13, n^2)
    stage array, and its controller, which tries h clipped to [10 ulp(t),
    ``max_step``] and to ``t_max``, accepts an error measure below 1, scales h
    by 0.9 err^(-1/8) kept in [0.2, 10] (at most 1 after a rejection), and
    carries f at the new point over to the next step.  An attempt that ``rhs``
    refuses at a stage point or at the new point (``InvalidMetric``) is
    rejected as if its error were infinite, so a flow that leaves the cone is
    stepped up to its exit.  A step that shrinks below 10 ulp(t) raises
    ``SingularityReached`` at t after such a refusal, ``StiffnessError``
    otherwise.
    """
    if t_max == 0:
        return
    n = g.shape[0]
    field = lambda y: rhs(y.reshape(n, n)).ravel()
    y, K = g.ravel(), np.empty((13, n * n))
    f = field(y)
    t, h_abs = 0.0, min(dt, t_max)
    while t < t_max:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = max_step if h_abs > max_step else max(h_abs, min_step)
        rejected = left_cone = False
        while True:
            if h_abs < min_step:
                if left_cone:
                    raise SingularityReached(t)
                raise StiffnessError("Required step size is less than spacing "
                                     f"between numbers. (at t={t:.6g})")
            t_new = min(t + h_abs, t_max)
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = f
            try:
                for s in range(1, 12):
                    K[s] = field(y + np.dot(K[:s].T, _A[s, :s]) * h)
                y_new = y + h * np.dot(K[:12].T, _B)
                K[12] = f_new = field(y_new)
            except InvalidMetric:
                error_norm, left_cone = np.inf, True
            else:
                error_norm = _error_norm(
                    K, h, tol + np.maximum(np.abs(y), np.abs(y_new)) * tol)
            if error_norm < 1:
                break
            h_abs *= max(0.2, 0.9 * error_norm ** -0.125)
            rejected = True
        factor = 10 if error_norm == 0 else min(10, 0.9 * error_norm ** -0.125)
        h_abs *= min(1, factor) if rejected else factor
        t, y, f = t_new, y_new, f_new
        yield t, y.reshape(n, n)


def perturb(g0, eps, seed) -> np.ndarray:
    """g0 + eps * |g0|_F * S with S a random unit-norm symmetric direction.

    S has independent uniform(-1, 1) entries on and above the diagonal
    (mirrored below) from the seeded generator, normalized to Frobenius
    norm 1; resampled up to 100 times until the result is SPD.
    """
    g0 = check_metric(g0)
    eps = float(eps)
    if not 0 <= eps < 0.5:
        raise InvalidInput(f"eps must lie in [0, 0.5), got {eps}")
    check_seed(seed)
    if eps == 0.0:
        return g0.copy()
    n = g0.shape[0]
    rng = np.random.default_rng(seed)
    iu = np.triu_indices(n)
    scale = eps * float(np.linalg.norm(g0))
    for _ in range(100):
        S = np.zeros((n, n))
        vals = rng.uniform(-1.0, 1.0, size=len(iu[0]))
        S[iu] = vals
        S.T[iu] = vals
        S /= np.linalg.norm(S)
        g = g0 + scale * S
        if _is_spd(g):
            return g
    raise InvalidPerturbation(
        f"no SPD perturbation of size eps={eps} found in 100 draws")


def fit_decay_rate(times, deviations, window) -> FitResult:
    """Least-squares line through (t, log deviation) on the window (lo, hi).

    Samples with deviation <= 1e-14 (machine-converged) are dropped.  The
    fit is rejected (``ok=False``) when fewer than 3 usable samples remain
    or R^2 < 0.98.
    """
    t, devs = np.asarray(times), np.asarray(deviations)
    lo, hi = float(window[0]), float(window[1])
    mask = (t >= lo) & (t <= hi) & (devs > 1e-14)
    fit = FitResult(C=np.nan, omega=np.nan, r_squared=np.nan,
                    window=(lo, hi), n_points=int(mask.sum()), ok=False)
    if mask.sum() < 3:
        return fit
    x = t[mask]
    y = np.log(devs[mask])
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return FitResult(C=float(np.exp(intercept)), omega=float(-slope),
                     r_squared=float(r2), window=(lo, hi),
                     n_points=int(mask.sum()), ok=bool(r2 >= 0.98))


def predicted_rate(L: LieAlgebra, g0, cert: SolitonCertificate) -> float | None:
    """Minus the decaying spectral abscissa of ``ode_jacobian`` (None if no mode decays)."""
    absc = decay_abscissa(np.linalg.eigvals(ode_jacobian(L, g0, cert)))
    return None if absc is None else -absc


def relax_fit(traj: FlowTrajectory, omega, floor) -> FitResult:
    """Decay fit of a perturbed soliton's relaxation at predicted rate ``omega``.

    Deviations are measured from the last metric (the trajectory relaxes to
    a nearby soliton of the gauge orbit, not to its start), on a window of
    5 e-folds of ``omega`` that ends at t2 = min(last time at or above
    ``floor``, t_end - 4/omega): nearer the end the reference makes the
    decay read too steep.  ``ok`` is the c06 verdict: R^2 >= 0.98 and the
    fitted rate within 20 % of ``omega``.  With ``omega`` None (no decaying
    mode) or fewer than 3 samples at or above ``floor`` no window is placed
    (``window`` None, ``ok`` False).  Any other ``omega`` must be finite
    and positive.
    """
    if omega is not None and not (np.isfinite(omega) and omega > 0):
        raise InvalidInput(f"omega must be finite and positive, got {omega}")
    devs = np.linalg.norm(traj.metrics - traj.metrics[-1], axis=(1, 2))
    above = np.flatnonzero(devs >= floor)
    if omega is None or above.size < 3:
        return FitResult(C=np.nan, omega=np.nan, r_squared=np.nan, window=None,
                         n_points=0, ok=False)
    t2 = min(float(traj.times[above[-1]]), float(traj.times[-1]) - 4.0 / omega)
    fit = fit_decay_rate(traj.times, devs, (max(0.0, t2 - 5.0 / omega), t2))
    return replace(fit, ok=fit.ok and abs(fit.omega - omega) <= 0.2 * omega)


@dataclass
class ConvergenceExperiment:
    """Perturb-and-relax experiment against the trajectory's own limit."""

    traj: FlowTrajectory
    g_limit: np.ndarray
    fit: FitResult
    predicted_rate: float
    seed: int
    eps: float


def convergence_experiment(L: LieAlgebra, g0, cert: SolitonCertificate,
                           eps=0.01, seed=0) -> ConvergenceExperiment:
    """Perturb a soliton, integrate the normalized flow, fit the decay rate.

    The flow runs for 24 e-folds of the ``predicted_rate`` at ``RELAX_TOL``,
    with steps capped at 1/omega so that the fit window holds at least 5 of
    them, and ``relax_fit`` fits it down to ``10 * RELAX_TOL * |g0|_F``: a
    window that ends near integration noise reaches the slowest mode even
    when it starts small, where a floor set by the signal size would end
    inside the transient.  ``solitonlab flow`` keeps max(1e-6 |g0|_F, 50 tol):
    it caps no step, and this floor's window, pushed to t_end - 4/omega, holds
    too few of them (at its defaults 2 of sol3's seeds 0-5 fail, 1 of hyp_2's).
    """
    omega = predicted_rate(L, g0, cert)
    if omega is None:
        raise InvalidInput("no decaying modes: cannot set an experiment window")
    g_start = perturb(g0, eps, seed)
    traj = integrate(flow_field(L, cert), g_start, 24.0 / omega,
                     dt=min(1e-3, 0.01 / omega), method="dop853",
                     tol=RELAX_TOL, max_step=1.0 / omega)
    fit = relax_fit(traj, omega, 10.0 * RELAX_TOL * float(np.linalg.norm(g0)))
    if fit.window is None:
        raise InvalidInput("trajectory never rose above the fit floor; "
                           "increase eps or tighten tolerances")
    return ConvergenceExperiment(traj=traj, g_limit=traj.metrics[-1], fit=fit,
                                 predicted_rate=omega, seed=int(seed),
                                 eps=float(eps))
