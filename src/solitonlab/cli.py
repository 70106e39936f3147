"""Command-line front end and serialization formats.

Subcommands: validate, soliton, spectrum, flow, rayleigh, weights,
catalog.  Algebras come either from the built-in catalog (by name) or
from JSON files with the schema

    {"dim": n, "brackets": [{"i": 1, "j": 2, "k": 3, "c": 1.0}, ...],
     "metric": [[...], ...]}        # metric optional, defaults to identity

with 1-based bracket indices, i < j.  Reports are JSON on stdout;
trajectories are CSV.  Files are written atomically (temp file +
rename).  Exit codes: 0 success, 1 checked failure (validation or
verification failed, flow hit a singularity, series did not converge),
2 usage or parse error.  Any other exception is a bug and propagates.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import sys
import tempfile

import numpy as np

from .errors import (InvalidInput, InvalidPerturbation, NotInCatalog,
                     SingularityReached, StiffnessError, UnsupportedDerivation)
from .liealg import LieAlgebra, check_seed, check_tol, validate

# each subcommand imports the layers it runs, so that a fresh process loads
# scipy only for the subcommands that need it

# InvalidInput covers its subclasses (InvalidMetric, InvalidWeight, DomainError,
# GridTooCoarse, GridTooLarge); any other exception is a bug, not a usage error
_USAGE_ERRORS = (InvalidInput, NotInCatalog, InvalidPerturbation,
                 UnsupportedDerivation, json.JSONDecodeError, OSError)


def _jsonable(obj):
    """`obj` as plain JSON types; a non-finite float becomes None (`null`),
    since JSON (RFC 8259) has no NaN or Infinity."""
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):   # before int: bool is an int subclass
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj) if np.isfinite(obj) else None
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, complex):
        return [_jsonable(obj.real), _jsonable(obj.imag)]
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _write_atomic(path: str, text: str):
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".solitonlab-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _emit(report: dict, out: str = None):
    text = json.dumps(_jsonable(report), sort_keys=True, indent=2, allow_nan=False)
    if out:
        _write_atomic(out, text + "\n")
    print(text)


# ---------------------------------------------------------------------------
# algebra input
# ---------------------------------------------------------------------------

def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def parse_algebra_file(path: str):
    """Load an AlgebraFile; returns (LieAlgebra, checked metric, name)."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except UnicodeDecodeError as e:
        raise InvalidInput(f"{path}: not a UTF-8 text file ({e.reason})") from None
    if not isinstance(raw, dict) or "dim" not in raw:
        raise InvalidInput(f"{path}: expected an object with a 'dim' field")
    n = raw["dim"]
    if not _is_int(n) or n < 1:
        raise InvalidInput(f"{path}: dim must be a positive integer")
    brackets = raw.get("brackets", [])
    if not isinstance(brackets, list):
        raise InvalidInput(f"{path}: brackets must be a list")
    entries = []
    for b in brackets:
        try:
            i, j, k, c = b["i"], b["j"], b["k"], b["c"]
        except (TypeError, KeyError):
            raise InvalidInput(f"{path}: bracket entries need i, j, k, c") from None
        for label, v in (("i", i), ("j", j), ("k", k)):
            if not _is_int(v) or not 1 <= v <= n:
                raise InvalidInput(f"{path}: bracket index {label}={v} out of range 1..{n}")
        if not i < j:
            raise InvalidInput(f"{path}: bracket indices must satisfy i < j, got ({i}, {j})")
        if not isinstance(c, (int, float)) or isinstance(c, bool):
            raise InvalidInput(f"{path}: structure constant c={c!r} is not a number")
        entries.append((i - 1, j - 1, k - 1, float(c)))
    L = LieAlgebra(n, entries)
    metric = raw.get("metric")
    if metric is None:
        g = np.eye(n)
    else:
        try:
            g = np.asarray(metric, dtype=float)
        except (TypeError, ValueError):
            raise InvalidInput(f"{path}: metric must be a matrix of numbers") from None
        if g.shape != (n, n):
            raise InvalidInput(f"{path}: metric must be {n}x{n}")
        from .leftinv import check_metric
        g = check_metric(g)
    name = os.path.splitext(os.path.basename(path))[0]
    return L, g, name


def resolve_target(target: str):
    """A positional argument is a file path if it exists, else a catalog name."""
    if os.path.exists(target):
        return parse_algebra_file(target)
    from . import catalog
    entry = catalog.get(target)
    return entry.algebra, np.asarray(entry.metric), entry.name


def export_algebra(entry) -> dict:
    """A catalog entry as an AlgebraFile object."""
    brackets = [{"i": int(i) + 1, "j": int(j) + 1, "k": int(k) + 1, "c": float(c)}
                for i, j, k, c in entry.algebra.entries]
    return {"dim": entry.algebra.n, "brackets": brackets,
            "metric": _jsonable(np.asarray(entry.metric))}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_validate(args) -> int:
    L, g, name = resolve_target(args.target)
    report = validate(L, tol=args.tol)
    _emit({"name": name, "dim": L.n,
           "jacobi_residual": report.jacobi_residual,
           "antisymmetry_residual": report.antisymmetry_residual,
           "tol": report.tol, "passed": report.passed}, args.out)
    return 0 if report.passed else 1


def cmd_soliton(args) -> int:
    from .soliton import solve_soliton, verify_soliton
    check_tol(args.tol)
    L, g, name = resolve_target(args.target)
    cert = solve_soliton(L, g)
    ver = verify_soliton(L, g, cert.lam, cert.D, tol=max(args.tol, 1e-12))
    _emit({"name": name, "dim": L.n, "lambda": cert.lam,
           "derivation": cert.D, "residual": cert.residual,
           "class": cert.classification,
           "soliton_residual": ver.soliton_residual,
           "derivation_residual": ver.derivation_residual,
           "tol": ver.tol, "verified": ver.passed}, args.out)
    return 0 if cert.classification != "none" and ver.passed else 1


def cmd_spectrum(args) -> int:
    from .soliton import solve_soliton
    from .stability import stability_operator
    L, g, name = resolve_target(args.target)
    cert = solve_soliton(L, g)
    if cert.classification == "none":
        print(f"error: {name} is not an algebraic soliton; no linearization point",
              file=sys.stderr)
        return 1
    rep = stability_operator(L, g, cert)
    _emit({"name": name, "dim": L.n, "lambda": cert.lam,
           "class": cert.classification,
           "classification": rep.classification,
           "epsilon": rep.epsilon,
           "quad_bound": rep.quad_bound,
           "quad_bound_raw": rep.quad_bound_raw,
           "spectrum": rep.spectrum,
           "gauge_dim": rep.gauge_dim,
           "neutral_dim": rep.neutral_dim,
           "neutral_gauge_residual": rep.neutral_gauge_residual,
           "complement_bound": rep.complement_bound,
           "jac_spectrum": [[z.real, z.imag] for z in rep.jac_spectrum],
           "jac_decay_abscissa": rep.jac_decay_abscissa,
           "jac_neutral_dim": rep.jac_neutral_dim}, args.out)
    return 0


def cmd_flow(args) -> int:
    from .flow import flow_field, integrate, perturb, predicted_rate, relax_fit
    from .soliton import exact_unnormalized_solution, solve_soliton
    check_seed(args.seed)              # echoed in the report even when unused
    L, g0, name = resolve_target(args.target)
    cert = solve_soliton(L, g0)
    is_soliton = cert.classification != "none"
    if args.mode == "normalized" and not is_soliton:
        print(f"error: {name} is not an algebraic soliton; the normalized flow "
              "has no stationary point here", file=sys.stderr)
        return 1

    g_init = perturb(g0, args.perturb, args.seed) if args.perturb else g0.copy()
    rhs = flow_field(L, cert if args.mode == "normalized" else None)
    traj = integrate(rhs, g_init, args.t_max, dt=args.dt, method=args.method,
                     tol=args.tol)
    devs = np.linalg.norm(traj.metrics - g0, axis=(1, 2))
    # the CSV: one row per accepted step, every value to 17 significant digits
    cols = ["t"] + [f"g{i + 1}{j + 1}" for i in range(L.n) for j in range(L.n)] + ["dev"]
    table = [traj.times, traj.metrics.reshape(len(devs), -1), devs]
    if args.mode == "unnormalized" and is_soliton and args.perturb == 0:
        exact = exact_unnormalized_solution(g0, cert, traj.times)
        d = (traj.metrics - exact).reshape(len(devs), 1, -1)
        cols.append("exact_dev")    # row dot products: np.linalg.norm's sum for one matrix
        table.append(np.sqrt(d @ d.swapaxes(1, 2)).ravel())

    fit = None
    if args.mode == "normalized" and args.perturb:
        omega = predicted_rate(L, g0, cert)
        # higher than convergence_experiment's floor: near the noise the window ends at
        # t_end - 4/omega, where the uncapped steps up to --t-max leave too few points
        res = relax_fit(traj, omega, max(1e-6 * float(np.linalg.norm(g0)), 50.0 * args.tol))
        fit = {"C": res.C, "omega": res.omega, "r_squared": res.r_squared,
               "window": res.window, "n_points": res.n_points, "ok": res.ok,
               "predicted_rate": omega, "reference": "trajectory limit"}

    csv_path = args.out or f"{name}_{args.mode}.csv"
    buf = io.StringIO()
    np.savetxt(buf, np.column_stack(table), fmt="%.17g", delimiter=",",
               header=",".join(cols), comments="")
    _write_atomic(csv_path, buf.getvalue())
    _emit({"name": name, "dim": L.n, "mode": args.mode,
           "method": args.method, "dt": args.dt, "t_max": args.t_max,
           "eps": args.perturb, "seed": args.seed,
           "lambda": cert.lam if is_soliton else None,
           "class": cert.classification, "steps": len(traj.times),
           "final_dev": devs[-1], "fit": fit, "csv": csv_path},
          os.path.splitext(csv_path)[0] + ".json")
    return 0


def cmd_rayleigh(args) -> int:
    from .coordfield import GridSpec, chart_metric, rayleigh_span
    cm = chart_metric(args.target)
    grid = GridSpec(args.radius, args.dx)
    quotients, span_max = rayleigh_span(cm, cm.lam, cm.d, grid, count=args.count,
                                        seed=args.seed)
    _emit({"chart": cm.name, "lambda": cm.lam, "count": args.count,
           "seed": args.seed,
           "grid": {"radius": grid.radius, "dx": grid.dx, "npts": grid.npts},
           "quotients": quotients, "max": max(quotients), "span_max": span_max},
          args.out)
    return 0 if max(quotients) < 0 else 1


def cmd_weights(args) -> int:
    from .coordfield import WeightSpec, summability_check
    w = WeightSpec(a=args.a, n=args.dim, tau=args.tau)
    res = summability_check(w, N_max=args.nmax)
    ps = res["partial_sums"]
    idx = np.unique(np.clip(
        np.round(np.geomspace(1, len(ps), num=min(40, len(ps)))).astype(int) - 1,
        0, len(ps) - 1))
    checkpoints = [[int(i + 2), float(ps[i])] for i in idx]
    _emit({k: res[k] for k in ("a", "n", "tau", "N_max", "tail_bound", "bound", "log_sum",
                               "log_tail_bound", "converged", "tau_critical", "margin")}
          | {"partial_sums": checkpoints, "sum": float(ps[-1])}, args.out)
    return 0 if res["converged"] else 1


def cmd_catalog(args) -> int:
    from . import catalog
    if args.target:
        _emit(export_algebra(catalog.get(args.target)), args.out)
        return 0
    rows = []
    for entry in catalog.entries():
        rows.append({"name": entry.name, "dim": entry.algebra.n,
                     "lambda": entry.expected.lam,
                     "class": entry.expected.classification,
                     "chart": entry.chart, "note": entry.note})
    _emit({"entries": rows}, args.out)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="solitonlab",
        description="numerical laboratory for algebraic Ricci solitons on "
                    "solvable Lie groups")
    sub = p.add_subparsers(dest="command", required=True)

    options = {"out": {}, "tol": dict(type=float, default=1e-10),
               "seed": dict(type=int, default=42),
               "radius": dict(type=float, default=4.0), "dx": dict(type=float, default=0.125)}

    def common(sp, *names):
        # every subcommand writes --out; the others only where they are read
        for name in ("out",) + names:
            sp.add_argument("--" + name, **options[name])

    sp = sub.add_parser("validate", help="check antisymmetry and Jacobi")
    sp.add_argument("target")
    common(sp, "tol")
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("soliton", help="solve and verify the soliton equation")
    sp.add_argument("target")
    common(sp, "tol")
    sp.set_defaults(func=cmd_soliton)

    sp = sub.add_parser("spectrum", help="linear stability spectra at a soliton")
    sp.add_argument("target")
    common(sp)
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("flow", help="integrate the flow; CSV + fit report")
    sp.add_argument("target")
    sp.add_argument("--mode", choices=("normalized", "unnormalized"),
                    default="normalized")
    sp.add_argument("--dt", type=float, default=1e-3)
    sp.add_argument("--t-max", type=float, default=10.0)
    sp.add_argument("--method", choices=("rk4", "dop853"), default="dop853")
    sp.add_argument("--perturb", type=float, default=0.0)
    common(sp, "tol", "seed")
    sp.set_defaults(func=cmd_flow)

    sp = sub.add_parser("rayleigh", help="grid Rayleigh quotients of L")
    sp.add_argument("target", help="chart model: nil3, sol3 or hyp3")
    sp.add_argument("--count", type=int, default=20)
    common(sp, "seed", "radius", "dx")
    sp.set_defaults(func=cmd_rayleigh)

    sp = sub.add_parser("weights", help="weight summability check")
    sp.add_argument("--a", type=float, default=0.0)
    sp.add_argument("--tau", type=float, default=2.0)
    sp.add_argument("--dim", type=int, default=3)
    sp.add_argument("--nmax", type=int, default=250_000)
    common(sp)
    sp.set_defaults(func=cmd_weights)

    sp = sub.add_parser("catalog", help="list entries or export one as JSON")
    sp.add_argument("target", nargs="?", default=None)
    common(sp)
    sp.set_defaults(func=cmd_catalog)

    return p


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built once per process (parsing leaves it unchanged)."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except (SingularityReached, StiffnessError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except _USAGE_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
