"""The package namespace and what a fresh process loads.

`solitonlab` resolves its exports on first access (PEP 562), so these tests
run in fresh interpreters: in this one every layer is already imported.
"""

import json
import subprocess
import sys

import pytest

import solitonlab

from conftest import checkout_env

#: the package's exports before it loaded lazily: its eight layers and the
#: names it re-exports from them
EXPORTS = [
    "AnnulusCover", "CatalogEntry", "ChartMetric", "ConvergenceExperiment",
    "CurvaturePackage", "DomainError", "FitResult", "FlowTrajectory", "GridSpec",
    "GridTooCoarse", "GridTooLarge", "InvalidInput", "InvalidMetric",
    "InvalidPerturbation", "InvalidWeight", "LieAlgebra", "NotInCatalog",
    "SingularityReached", "SolitonCertificate", "StabilityReport", "StiffnessError",
    "UnsupportedDerivation", "ValidationReport", "VerificationReport", "WeightSpec",
    "ad", "apply_L_fd", "bracket", "build_annulus_cover", "catalog", "change_basis",
    "chart_metric", "check_metric", "classify", "convergence_experiment",
    "coordfield", "curvature", "curvature_action", "decay_abscissa",
    "derivation_space", "distance_field", "errors", "exact_unnormalized_solution",
    "fit_decay_rate", "flow", "flow_field", "get", "integrate", "is_derivation",
    "leftinv", "lichnerowicz", "lie_derivative_term", "liealg", "ode_jacobian",
    "orthonormal_frame", "perturb", "predicted_rate", "probe_tensor_suite",
    "radial_bump", "rayleigh_quotient", "relax_fit", "rhs_normalized",
    "rhs_unnormalized", "ricci", "series_flags", "soliton", "solve_soliton",
    "stability", "stability_operator", "summability_check", "validate",
    "verify_soliton", "weighted_holder_norm",
]

LAYERS = ["catalog", "coordfield", "errors", "flow", "leftinv", "liealg",
          "soliton", "stability"]


def fresh(code: str):
    """Run `code` in a fresh interpreter; the JSON it prints last."""
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, env=checkout_env(), timeout=60)
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout.splitlines()[-1])


LOADED = "sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'solitonlab'))"


def test_chart_setup_loads_no_scipy():
    # the benchmark's set-up sequence: the three chart models need only numpy
    loaded = fresh(f"""
import json, sys
import solitonlab
from solitonlab import coordfield
for name in ("nil3", "sol3", "hyp3"):
    coordfield.chart_metric(name)
print(json.dumps({LOADED}))
""")
    # exactly these: no scipy module, and no layer (not even `catalog`) beyond them
    assert loaded == ["solitonlab", "solitonlab.coordfield", "solitonlab.errors",
                      "solitonlab.liealg"], loaded


def test_light_subcommands_load_no_scipy():
    loaded = fresh(f"""
import io, json, sys
from contextlib import redirect_stdout
from solitonlab.cli import main
codes = []
for argv in (["catalog"], ["validate", "nil3"],
             ["weights", "--a", "0", "--tau", "2", "--dim", "3"],
             ["weights", "--a", "-1", "--tau", "2", "--dim", "4"],
             ["rayleigh", "nil3", "--radius", "2", "--dx", "0.25", "--count", "3"]):
    with redirect_stdout(io.StringIO()):
        codes.append(main(argv))
print(json.dumps([codes, {LOADED}]))
""")
    codes, modules = loaded
    assert codes == [0, 0, 0, 0, 0]
    assert not [m for m in modules if m.startswith("scipy")], modules


def test_flow_loads_no_scipy_integrate(tmp_path):
    # the flow steps DOP853 itself: a relax experiment and a CLI flow need
    # scipy.linalg only, not scipy.integrate and what it pulls in
    loaded = fresh(f"""
import io, json, sys
from contextlib import redirect_stdout
from solitonlab import catalog
from solitonlab.cli import main
from solitonlab.flow import convergence_experiment
from solitonlab.soliton import solve_soliton
e = catalog.get("nil3")
convergence_experiment(e.algebra, e.metric, solve_soliton(e.algebra, e.metric))
with redirect_stdout(io.StringIO()):
    code = main(["flow", "nil4", "--mode", "unnormalized", "--t-max", "1",
                 "--out", {str(tmp_path / "x.csv")!r}])
print(json.dumps([code, {LOADED}]))
""")
    code, modules = loaded
    assert code == 0
    heavy = ("scipy.integrate", "scipy.optimize", "scipy.sparse", "scipy.special")
    assert not [m for m in modules if m.startswith(heavy)], modules
    assert "scipy.linalg" in modules


def test_import_loads_no_layer():
    assert fresh(f"import json, sys; import solitonlab; print(json.dumps({LOADED}))") \
        == ["solitonlab"]


def test_all_keeps_its_names():
    assert sorted(solitonlab.__all__) == EXPORTS
    assert set(solitonlab.__all__) <= set(dir(solitonlab))
    assert solitonlab.__version__ == "0.1.0"


def test_layers_resolve_without_their_own_import():
    # `import solitonlab; solitonlab.flow` worked when every layer loaded eagerly
    assert fresh(f"""
import json, solitonlab
print(json.dumps([getattr(solitonlab, name).__name__ for name in {LAYERS!r}]))
""") == ["solitonlab." + name for name in LAYERS]


def test_exports_are_the_objects_of_their_layers():
    # each export is the object its own layer defines: the class or function
    # (looked up through its __module__) or the layer module itself
    bad = fresh(f"""
import importlib, json, sys, types
import solitonlab
bad = []
for name in {EXPORTS!r}:
    obj = getattr(solitonlab, name)
    if isinstance(obj, types.ModuleType):
        ok = obj is importlib.import_module("solitonlab." + name)
    else:
        home = sys.modules[obj.__module__]
        ok = obj.__module__.startswith("solitonlab.") and getattr(home, name) is obj
    if not ok:
        bad.append(name)
print(json.dumps(bad))
""")
    assert bad == []


def test_star_import_binds_every_export():
    missing = fresh(f"""
import json
from solitonlab import *
print(json.dumps([n for n in {EXPORTS!r} if n not in globals()]))
""")
    assert missing == []


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nosuch'"):
        solitonlab.nosuch
    assert not hasattr(solitonlab, "nosuch_layer")
    with pytest.raises(ImportError):
        from solitonlab import nosuch  # noqa: F401
