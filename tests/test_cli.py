import csv
import json
import math
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from solitonlab import catalog
from solitonlab.cli import _jsonable, export_algebra, main, parse_algebra_file
from solitonlab.errors import InvalidInput

from conftest import checkout_env

HEIS3 = {
    "dim": 3,
    "brackets": [{"i": 1, "j": 2, "k": 3, "c": 1.0}],
}

#: [e1, e2] = e3, [e2, e3] = e1, [e3, e1] = e2
SU2 = {
    "dim": 3,
    "brackets": [{"i": 1, "j": 2, "k": 3, "c": 1.0}, {"i": 2, "j": 3, "k": 1, "c": 1.0},
                 {"i": 1, "j": 3, "k": 2, "c": -1.0}],
}

#: su(2) + R with the round metric: Rc = 1/2 id + D with the derivation
#: D = diag(0, 0, 0, -1/2), a soliton that is not expanding
SU2_R = {"dim": 4, "brackets": SU2["brackets"]}


def write_json(tmp_path, doc, name="algebra.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------ file parsing

def test_parse_algebra_file_roundtrip(tmp_path):
    doc = dict(HEIS3)
    doc["metric"] = [[2.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    L, g, name = parse_algebra_file(write_json(tmp_path, doc, "heis.json"))
    assert name == "heis"
    assert L.n == 3
    assert L.c[2, 0, 1] == 1.0
    assert np.allclose(g, np.diag([2.0, 1.0, 1.0]))


def test_parse_algebra_file_defaults_identity_metric(tmp_path):
    _, g, _ = parse_algebra_file(write_json(tmp_path, HEIS3))
    assert np.array_equal(g, np.eye(3))


@pytest.mark.parametrize("doc", [
    {"brackets": []},                                           # missing dim
    {"dim": 0},
    {"dim": 3, "brackets": [{"i": 2, "j": 1, "k": 3, "c": 1.0}]},   # i >= j
    {"dim": 3, "brackets": [{"i": 1, "j": 2, "k": 4, "c": 1.0}]},   # k range
    {"dim": 3, "brackets": [{"i": 1, "j": 2, "c": 1.0}]},           # missing k
    {"dim": 3, "metric": [[1.0, 0.0], [0.0, 1.0]]},                 # shape
    {"dim": 3, "metric": [[-1, 0, 0], [0, 1, 0], [0, 0, 1]]},       # not SPD
])
def test_parse_algebra_file_rejects(tmp_path, doc):
    with pytest.raises(InvalidInput):
        parse_algebra_file(write_json(tmp_path, doc))


def test_malformed_json_is_usage_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_main(capsys, "validate", str(path))
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("doc", [
    {"dim": 3, "brackets": 5},
    {"dim": 3, "brackets": [{"i": 1, "j": 2, "k": 3, "c": "one"}]},
    {"dim": 3, "brackets": [{"i": 1, "j": 2, "k": 3, "c": None}]},
    {"dim": True},
    {"dim": 2, "metric": [[1.0, 0.0], [0.0]]},
    {"dim": 2, "metric": "identity"},
])
def test_malformed_algebra_file_is_usage_error(tmp_path, capsys, doc):
    code, _, err = run_main(capsys, "validate", write_json(tmp_path, doc))
    assert code == 2
    assert "error:" in err


def test_algebra_file_that_is_not_utf8_is_usage_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"dim": 3, "note": "\u00e9"}'.encode("latin-1"))
    code, out, err = run_main(capsys, "validate", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "not a UTF-8 text file" in err


def test_write_atomic_removes_its_temp_file_when_the_rename_fails(tmp_path, monkeypatch):
    from solitonlab import cli

    def refuse(src, dst):
        raise PermissionError("rename refused")

    monkeypatch.setattr(cli.os, "replace", refuse)
    with pytest.raises(PermissionError, match="rename refused"):
        cli._write_atomic(str(tmp_path / "report.json"), "{}\n")
    assert not list(tmp_path.iterdir())


#: extreme but finite arguments, each with the exit code it must give; later
#: refusals add rows here
EXTREME_ARGS = [
    (("weights", "--tau", "4e9", "--dim", "3"), 0),
    (("weights", "--dim", "200000000"), 0),
    (("weights", "--a=-1", "--tau", "1e305", "--dim", "3"), 2),
    (("weights", "--a=-1", "--tau", "1e308", "--dim", "3"), 2),
    (("weights", "--tau", "1e300", "--dim", "3"), 2),
    (("weights", "--a=-1e300", "--dim", "3"), 1),
    (("rayleigh", "nil3", "--radius", "1e308", "--dx", "1e307"), 2),
    (("rayleigh", "nil3", "--radius", "4", "--dx", "1e-300"), 2),
    (("rayleigh", "nil3", "--radius", "4", "--dx", "1e-320"), 2),
    (("rayleigh", "nil3", "--count", "100000000000"), 2),
    (("rayleigh", "nil3", "--radius", "1e200", "--dx", "1e199"), 2),
    (("rayleigh", "sol3", "--radius", "200", "--dx", "25"), 2),
    (("flow", "nil3", "--tol", "1e-300"), 2),
]


@pytest.mark.parametrize("argv, code", EXTREME_ARGS, ids=[" ".join(a) for a, _ in EXTREME_ARGS])
def test_extreme_arguments_keep_the_exit_code_contract(tmp_path, capsys, argv, code):
    """Exit 0, 1 or 2 and no exception, whatever the arguments; a refusal
    (2) prints one `error:` line and no report."""
    got, out, err = run_main(capsys, *argv, "--out", str(tmp_path / "report.json"))
    assert got == code
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_internal_error_is_not_a_usage_error(monkeypatch):
    from solitonlab import coordfield

    def broken(*args, **kwargs):
        raise ValueError("internal bug")

    monkeypatch.setattr(coordfield, "rayleigh_span", broken)
    with pytest.raises(ValueError, match="internal bug"):
        main(["rayleigh", "nil3", "--radius", "2", "--dx", "0.25", "--count", "1"])


@pytest.mark.parametrize("flag, value", [("--dt", "nan"), ("--t-max", "inf")])
def test_non_finite_flow_times_are_usage_errors(tmp_path, capsys, flag, value):
    code, _, err = run_main(capsys, "flow", "nil3", "--method", "rk4", flag, value,
                            "--out", str(tmp_path / "run.csv"))
    assert code == 2
    assert "finite" in err


def test_oversize_grid_is_usage_error(capsys):
    code, _, err = run_main(capsys, "rayleigh", "nil3", "--dx", "1e-4")
    assert code == 2
    assert "physical memory" in err


@pytest.mark.parametrize("chart, radius, dx", [("sol3", "400", "50"), ("sol3", "300", "37.5"),
                                               ("hyp3", "300", "37.5")])
def test_overflowing_chart_metric_is_usage_error(capsys, chart, radius, dx):
    # g = C^T C overflows at 400, the operator's coefficients (sol3) or the
    # curvature (hyp3) at 300: each is refused before numpy warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_main(capsys, "rayleigh", chart, "--radius", radius, "--dx", dx,
                                  "--count", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "overflow" in err or "not finite and positive definite" in err


def test_oversize_weight_sum_is_usage_error(capsys):
    code, out, err = run_main(capsys, "weights", "--a", "-1", "--nmax", str(10 ** 15))
    assert code == 2
    assert out == ""
    assert "physical memory" in err


def test_empty_probe_suite_is_usage_error(capsys):
    code, out, err = run_main(capsys, "rayleigh", "nil3", "--count", "0")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "count must be positive" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, msg", [
    (("flow", "nil3", "--perturb", "0.01", "--seed", "-1"), "seed must be a non-negative integer"),
    (("flow", "nil3", "--seed", "-1"), "seed must be a non-negative integer"),
    (("rayleigh", "nil3", "--seed", "-1", "--radius", "2", "--dx", "0.25"),
     "seed must be a non-negative integer"),
    (("flow", "nil3", "--perturb", "nan"), r"eps must lie in \[0, 0.5\), got nan"),
])
def test_bad_seed_or_perturbation_is_usage_error(tmp_path, capsys, argv, msg):
    code, out, err = run_main(capsys, *argv, "--out", str(tmp_path / "run.csv"))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and re.search(msg, err), err
    assert "Traceback" not in err
    assert not list(tmp_path.iterdir())


# -------------------------------------------------------------- validate

def test_validate_catalog_entry(capsys):
    code, out, _ = run_main(capsys, "validate", "sol3")
    doc = json.loads(out)
    assert code == 0
    assert doc["passed"] is True
    assert doc["jacobi_residual"] < 1e-12


def test_validate_jacobi_violation(tmp_path, capsys):
    doc = {"dim": 3, "brackets": [
        {"i": 1, "j": 2, "k": 3, "c": 1.0},
        {"i": 1, "j": 3, "k": 1, "c": 1.0},
    ]}
    code, out, _ = run_main(capsys, "validate", write_json(tmp_path, doc))
    report = json.loads(out)
    assert code == 1
    assert report["passed"] is False
    assert report["jacobi_residual"] > 1e-6


# ---------------------------------------------------------------- soliton

def test_soliton_catalog_name(capsys):
    code, out, _ = run_main(capsys, "soliton", "nil3")
    doc = json.loads(out)
    assert code == 0
    assert doc["class"] == "nilsoliton"
    assert doc["verified"] is True
    assert doc["lambda"] == pytest.approx(catalog.get("nil3").expected.lam)


def test_soliton_from_file_with_custom_metric(tmp_path, capsys):
    doc = dict(HEIS3)
    rng = np.random.default_rng(3)
    A = rng.standard_normal((3, 3))
    g = np.eye(3) + 0.3 * (A @ A.T)
    doc["metric"] = g.tolist()
    code, out, _ = run_main(capsys, "soliton", write_json(tmp_path, doc))
    report = json.loads(out)
    assert code == 0
    assert report["class"] == "nilsoliton"     # holds for every metric here
    assert report["soliton_residual"] < 1e-10


def test_soliton_reports_tolerance_used(capsys):
    code, out, _ = run_main(capsys, "soliton", "nil3", "--tol", "1e-15")
    doc = json.loads(out)
    assert code == 0
    assert doc["tol"] == 1e-12      # the verification floor
    code, out, _ = run_main(capsys, "soliton", "nil3")
    assert json.loads(out)["tol"] == 1e-10


@pytest.mark.parametrize("value", ["-1", "nan", "0", "inf"])
def test_soliton_bad_tolerance_is_usage_error(capsys, value):
    # refused as validate refuses it, not reported as a failed verification
    code, out, err = run_main(capsys, "soliton", "nil3", "--tol", value)
    assert code == 2
    assert out == ""
    assert "tolerance must be positive" in err


# --------------------------------------------------------------- spectrum

def test_spectrum_strictly_stable(capsys):
    code, out, _ = run_main(capsys, "spectrum", "sol3")
    doc = json.loads(out)
    assert code == 0
    assert doc["classification"] == "strict"
    assert len(doc["spectrum"]) == 6
    assert doc["quad_bound"] < 0


def test_complex_spectra_are_written_as_pairs(capsys):
    """A complex spectrum is written as [re, im] pairs, a non-finite part as
    null; `spectrum` writes jac_spectrum as pairs even when it is real."""
    z = np.array([1.0 + 2.0j, -3.0 - 0.5j, complex(math.inf, 1.0)])
    assert _jsonable({"s": z}) == {"s": [[1.0, 2.0], [-3.0, -0.5], [None, 1.0]]}
    _, out, _ = run_main(capsys, "spectrum", "sol3")
    doc = json.loads(out)
    assert all(len(z) == 2 and z[1] == 0.0 for z in doc["jac_spectrum"])
    assert "lmat" not in doc and "jac" not in doc


def test_non_expanding_soliton_exits_1(tmp_path, capsys):
    path = write_json(tmp_path, SU2_R)
    code, out, _ = run_main(capsys, "soliton", path)
    doc = json.loads(out)
    assert code == 1
    assert doc["verified"] is True and doc["class"] == "none"
    assert doc["lambda"] == pytest.approx(0.5, rel=0, abs=1e-12)
    code, out, err = run_main(capsys, "spectrum", path)
    assert code == 1 and out == ""
    assert "not an algebraic soliton" in err


def test_spectrum_refuses_non_soliton(tmp_path, capsys):
    doc = export_algebra(catalog.get("nil4"))
    rng = np.random.default_rng(5)
    A = rng.standard_normal((4, 4))
    doc["metric"] = (np.eye(4) + 0.4 * (A @ A.T)).tolist()
    code, out, err = run_main(capsys, "spectrum", write_json(tmp_path, doc))
    assert code == 1
    assert "not an algebraic soliton" in err


# ------------------------------------------------------------------- flow

def test_flow_unnormalized_csv(tmp_path, capsys):
    out_path = tmp_path / "nil3_run.csv"
    code, out, _ = run_main(capsys, "flow", "nil3", "--mode", "unnormalized",
                            "--t-max", "0.5", "--out", str(out_path))
    assert code == 0
    report = json.loads(out)
    assert report["csv"] == str(out_path)
    assert (tmp_path / "nil3_run.json").exists()

    with open(out_path) as fh:
        rows = list(csv.reader(fh))
    want = ["t"] + [f"g{i}{j}" for i in range(1, 4) for j in range(1, 4)]
    assert rows[0] == want + ["dev", "exact_dev"]
    first = [float(v) for v in rows[1]]
    assert first[0] == 0.0
    g0 = np.asarray(catalog.get("nil3").metric)
    assert np.allclose(first[1:10], g0.ravel())
    # round-trip precision: enough digits to reconstruct the binary value
    last = rows[-1]
    assert float(last[-1]) < 1e-8            # tracks the closed-form solution
    assert float(last[0]) == pytest.approx(0.5)
    assert report["final_dev"] == float(last[-2])


def test_flow_normalized_fit(tmp_path, capsys):
    out_path = tmp_path / "fit.csv"
    code, out, _ = run_main(capsys, "flow", "nil3", "--perturb", "0.05",
                            "--t-max", "8", "--out", str(out_path))
    assert code == 0
    fit = json.loads(out)["fit"]
    assert fit["ok"] is True
    assert fit["r_squared"] > 0.98
    assert fit["omega"] > 0.5


def test_flow_fit_needs_horizon_for_slow_mode(tmp_path, capsys):
    # nil4's slowest mode decays at 0.5: at t-max 10 the trajectory's end
    # is not yet its limit and the fitted rate misses the prediction
    out_path = str(tmp_path / "nil4.csv")
    code, out, _ = run_main(capsys, "flow", "nil4", "--perturb", "0.05",
                            "--t-max", "10", "--out", out_path)
    fit = json.loads(out)["fit"]
    assert code == 0
    assert abs(fit["predicted_rate"] - 0.5) <= 1e-9
    assert fit["ok"] is False
    code, out, _ = run_main(capsys, "flow", "nil4", "--perturb", "0.05",
                            "--t-max", "30", "--out", out_path)
    fit = json.loads(out)["fit"]
    assert code == 0
    assert fit["ok"] is True
    assert abs(fit["omega"] - 0.5) <= 0.01


def test_flow_predicted_rate_is_spectrum_decay_abscissa(tmp_path, capsys):
    for e in catalog.entries():
        if e.expected.classification == "flat":
            continue
        _, out, _ = run_main(capsys, "spectrum", e.name)
        absc = json.loads(out)["jac_decay_abscissa"]
        code, out, _ = run_main(capsys, "flow", e.name, "--perturb", "0.05",
                                "--t-max", "1", "--out", str(tmp_path / "run.csv"))
        assert code == 0
        assert json.loads(out)["fit"]["predicted_rate"] == -absc, e.name


def test_flow_fit_without_decaying_mode(tmp_path, capsys):
    code, out, _ = run_main(capsys, "flow", "abelian_3", "--perturb", "0.05",
                            "--t-max", "1", "--out", str(tmp_path / "ab.csv"))
    fit = json.loads(out)["fit"]
    assert code == 0
    assert fit["predicted_rate"] is None
    assert fit["window"] is None
    assert fit["ok"] is False


def test_flow_normalized_rejects_non_soliton(tmp_path, capsys):
    doc = export_algebra(catalog.get("nil4"))
    rng = np.random.default_rng(7)
    A = rng.standard_normal((4, 4))
    doc["metric"] = (np.eye(4) + 0.4 * (A @ A.T)).tolist()
    code, _, err = run_main(capsys, "flow", write_json(tmp_path, doc),
                            "--t-max", "0.1")
    assert code == 1
    assert "no stationary point" in err


def test_flow_leaving_the_metric_cone_is_a_singularity(tmp_path, capsys):
    # su(2) at the identity flows as (1 - t) I; a stage point past t = 1
    # used to end the run as a usage error (exit 2)
    path = write_json(tmp_path, SU2, "su2.json")
    for method in ("dop853", "rk4"):
        code, _, err = run_main(capsys, "flow", path, "--mode", "unnormalized",
                                "--t-max", "10", "--method", method,
                                "--out", str(tmp_path / "su2.csv"))
        assert code == 1, method
        assert err.startswith("error: metric lost positive definiteness"), method


@pytest.mark.parametrize("command", ["soliton", "spectrum", "validate"])
def test_bracket_entries_summing_to_infinity_are_usage_errors(tmp_path, capsys, command):
    # soliton and spectrum used to crash in the SVD (exit 1), validate exit 2
    entry = {"i": 1, "j": 2, "k": 3, "c": 1e308}
    doc = {"dim": 3, "brackets": [entry, entry]}
    code, _, err = run_main(capsys, command, write_json(tmp_path, doc))
    assert code == 2
    assert "non-finite structure constant in entry" in err


# ---------------------------------------------------------------- weights

def test_weights_convergent(capsys):
    code, out, _ = run_main(capsys, "weights", "--a", "0", "--tau", "2",
                            "--dim", "3")
    doc = json.loads(out)
    assert code == 0
    assert doc["converged"] is True
    assert doc["bound"] > doc["sum"] > 0
    assert doc["tau_critical"] == 1.0 and doc["margin"] == 1.0


def test_weights_reports_the_critical_tau(capsys):
    # kappa = 3: tau* = 3 (4 - 1) - 4 = 5, so tau = 0.5 falls 4.5 short
    code, out, _ = run_main(capsys, "weights", "--a", "-9", "--dim", "4",
                            "--tau", "0.5", "--nmax", "400")
    doc = _strict_json(out)
    assert code == 1
    assert doc["tau_critical"] == 5.0 and doc["margin"] == -4.5


def _strict_json(text):
    """Parse as RFC 8259 JSON: a bare NaN or Infinity fails."""
    def refuse(name):
        raise ValueError(f"non-finite constant {name} in JSON output")
    return json.loads(text, parse_constant=refuse)


def test_weights_divergent_report_writes_null(capsys):
    code, out, _ = run_main(capsys, "weights", "--a", "-9", "--dim", "4",
                            "--tau", "0.5", "--nmax", "400")
    doc = _strict_json(out)
    assert code == 1
    assert doc["converged"] is False
    assert doc["sum"] is None and doc["bound"] is None and doc["tail_bound"] is None
    assert None in [value for _, value in doc["partial_sums"]]


@pytest.mark.parametrize("dim, tau", [("3", "0.5"), ("5", "2")])
def test_weights_overflowing_partial_sums_raise_no_warning(capsys, dim, tau):
    # finite terms whose partial sums overflow: the report says so, numpy stays quiet
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run_main(capsys, "weights", "--a", "-4", "--dim", dim, "--tau", tau)
    doc = _strict_json(out)
    assert code == 1
    assert doc["converged"] is False
    assert doc["sum"] is None and doc["bound"] is None and doc["tail_bound"] is None
    assert None in [value for _, value in doc["partial_sums"]]


@pytest.mark.parametrize("dim", ["400", "2000"])
@pytest.mark.parametrize("a", ["0", "-1"])
def test_weights_in_high_dimension_report(capsys, dim, a):
    # gamma(n/2 + 1) overflows from n = 342 on; with the unit-ball volume in
    # log form the report stands, and numpy stays quiet
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_main(capsys, "weights", "--a", a, "--dim", dim)
    doc = _strict_json(out)
    assert code in (0, 1)
    assert doc["n"] == int(dim) and doc["converged"] is (code == 0)
    assert err == ""
    if dim == "2000":
        # every term lies below e^-745, so `sum` reads 0.0; the scaled log-sum
        # decides, and the margin is positive
        assert code == 0 and doc["converged"] is True and doc["sum"] == 0.0
        assert math.isfinite(doc["log_sum"]) and doc["log_tail_bound"] < doc["log_sum"]


@pytest.mark.parametrize("args, code, tail", [
    # the bound on the tail is about e^2590 (C grows as kappa^-(n-1)): honestly
    # unconverged, with a finite sum
    (["--a=-1e-300", "--dim", "8", "--tau", "0.5"], 1, None),
    # log-tail about -424231 against a log-sum about -364445: converged, though
    # (M/(M-1))^n alone overflows and every term underflows
    (["--a", "0", "--dim", "100000"], 0, 0.0),
], ids=["a<0", "a=0"])
def test_weights_tail_out_of_float_range_is_reported(capsys, args, code, tail):
    # each tail once ended in an OverflowError traceback from `math`; in log
    # form it is inf (null) past the float range, and the report stands
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, out, err = run_main(capsys, "weights", *args, "--nmax", "10")
    doc = _strict_json(out)
    assert got == code and err == ""
    assert doc["converged"] is (code == 0) and doc["tail_bound"] == tail
    assert math.isfinite(doc["sum"]) and math.isfinite(doc["log_sum"])
    if tail is None:
        assert doc["bound"] is None and doc["sum"] > 0.0
        assert doc["log_tail_bound"] > math.log(sys.float_info.max)
    else:
        assert doc["log_tail_bound"] < math.log(1e-6) + doc["log_sum"]


def test_flow_empty_fit_writes_null(tmp_path, capsys):
    code, out, _ = run_main(capsys, "flow", "abelian_3", "--perturb", "0.05",
                            "--t-max", "1", "--out", str(tmp_path / "ab.csv"))
    fit = _strict_json(out)["fit"]
    assert code == 0
    assert fit["C"] is None and fit["omega"] is None and fit["r_squared"] is None


def test_weights_illegal_exponent(capsys):
    code, _, err = run_main(capsys, "weights", "--a", "0", "--tau", "1")
    assert code == 2
    assert "error:" in err


# ---------------------------------------------------------------- catalog

def test_catalog_list(capsys):
    code, out, _ = run_main(capsys, "catalog")
    doc = json.loads(out)
    assert code == 0
    names = [row["name"] for row in doc["entries"]]
    assert len(names) == len(set(names)) == len(catalog.names())
    assert "nil3" in names and "hyp_3" in names


@pytest.mark.parametrize("name", ["nil3", "sol3", "heis5", "hyp_4"])
def test_catalog_export_roundtrip(tmp_path, capsys, name):
    path = tmp_path / f"{name}.json"
    code, out, _ = run_main(capsys, "catalog", name, "--out", str(path))
    assert code == 0
    L, g, _ = parse_algebra_file(str(path))
    entry = catalog.get(name)
    assert np.allclose(L.c, entry.algebra.c, atol=0)
    assert np.allclose(g, entry.metric, atol=0)
    code2, out2, _ = run_main(capsys, "soliton", str(path))
    assert code2 == 0
    assert json.loads(out2)["lambda"] == pytest.approx(entry.expected.lam)


# ------------------------------------------------------- errors / plumbing

def test_unknown_catalog_name_is_usage_error(capsys):
    code, _, err = run_main(capsys, "soliton", "nosuch")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("argv, what", [
    (("catalog", "nosuch"), "catalog entry 'nosuch'"),
    (("soliton", "nosuch"), "catalog entry 'nosuch'"),
    (("rayleigh", "foo", "--radius", "4", "--dx", "0.5"), "chart model 'foo'"),
])
def test_unknown_name_prints_the_message_unquoted(capsys, argv, what):
    # NotInCatalog is a KeyError, whose str() would wrap the message in quotes
    code, out, err = run_main(capsys, *argv)
    assert code == 2 and out == ""
    assert re.fullmatch(f"error: unknown {what}; known: [^'\"]+\n", err), err


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2


def test_rayleigh_deterministic(capsys):
    argv = ["rayleigh", "nil3", "--radius", "2", "--dx", "0.25",
            "--count", "3", "--seed", "42"]
    code1, out1, _ = run_main(capsys, *argv)
    code2, out2, _ = run_main(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert len(doc["quotients"]) == 3
    assert doc["max"] < 0
    assert doc["max"] <= doc["span_max"] < 0


def test_rayleigh_probes_cost_at_most_the_guarded_bytes():
    """What `rayleigh` holds per probe at its peak (the span's arrays, the
    quotient list, the JSON text) stays within the `_PROBE_BYTES` that its
    memory guard counts."""
    import contextlib
    import os
    import tracemalloc

    from solitonlab import coordfield

    def peak(count):
        tracemalloc.start()
        try:
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                main(["rayleigh", "nil3", "--radius", "2", "--dx", "0.25",
                      "--count", str(count)])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(10)
    per_probe = (peak(42_000) - peak(2_000)) / 40_000
    assert 0 < per_probe <= coordfield._PROBE_BYTES


def _declared_script_target():
    """The ``module:function`` that ``[project.scripts]`` declares."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["solitonlab"]


def _run_script_target(target, *argv):
    """Run ``module:function`` through the wrapper pip installs for it."""
    module, _, func = target.partition(":")
    wrapper = f"import sys; from {module} import {func}; sys.exit({func}())"
    return subprocess.run([sys.executable, "-c", wrapper, *argv],
                          capture_output=True, text=True, env=checkout_env())


def test_flow_zero_tolerance_exits_promptly():
    # run in a subprocess: a tolerance that stalls the step control must
    # fail this test by timeout rather than hang the suite
    try:
        r = subprocess.run([sys.executable, "-m", "solitonlab", "flow", "nil3",
                            "--perturb", "0.05", "--t-max", "1", "--tol", "0"],
                           capture_output=True, text=True, env=checkout_env(),
                           timeout=30)
    except subprocess.TimeoutExpired:
        pytest.fail("solitonlab flow --tol 0 did not return within 30 s")
    assert r.returncode == 2, r.stderr
    assert "tolerance must be positive" in r.stderr


def test_flow_tolerance_below_rtol_floor_exits_2(tmp_path):
    r = subprocess.run([sys.executable, "-m", "solitonlab", "flow", "nil3",
                        "--t-max", "0.1", "--tol", "1e-15",
                        "--out", str(tmp_path / "run.csv")],
                       capture_output=True, text=True, env=checkout_env(),
                       timeout=60)
    assert r.returncode == 2, r.stderr
    assert "tolerance must be at least 100 machine epsilons" in r.stderr
    assert "UserWarning" not in r.stderr
    assert not (tmp_path / "run.csv").exists()


def test_console_entry_points():
    r = subprocess.run([sys.executable, "-m", "solitonlab", "validate", "nil3"],
                       capture_output=True, text=True, env=checkout_env())
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["passed"] is True

    target = _declared_script_target()
    r2 = _run_script_target(target, "catalog")
    assert r2.returncode == 0, r2.stderr
    assert json.loads(r2.stdout)["entries"]
    # the wrapper must pass main's exit code through (2 = usage error)
    r3 = _run_script_target(target, "frobnicate")
    assert r3.returncode == 2, r3.stderr


@pytest.mark.skipif(shutil.which("solitonlab") is None,
                    reason="solitonlab console script not on PATH")
def test_installed_console_script():
    exe = shutil.which("solitonlab")
    r = subprocess.run([exe, "catalog"], capture_output=True, text=True,
                       env=checkout_env())
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["entries"]
