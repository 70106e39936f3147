import os
import re
from pathlib import Path

import numpy as np
import pytest

import solitonlab
from solitonlab import catalog

_acceptance = {}


def pytest_runtest_logreport(report):
    if "test_acceptance.py" in report.nodeid and report.when == "call":
        _acceptance[report.nodeid] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL line per acceptance criterion."""
    if not _acceptance:
        return
    terminalreporter.section("acceptance criteria")
    for nodeid in sorted(_acceptance):
        m = re.search(r"test_c(\d+)_(\w+)", nodeid)
        if not m:
            continue
        verdict = "PASS" if _acceptance[nodeid] == "passed" else "FAIL"
        title = m.group(2).replace("_", " ")
        terminalreporter.write_line(
            f"criterion {int(m.group(1)):2d} ({title}): {verdict}")


@pytest.fixture(scope="session")
def all_entries():
    return [catalog.get(name) for name in catalog.names()]


@pytest.fixture(scope="session")
def soliton_entries(all_entries):
    """Catalog entries that are genuine (non-flat) algebraic solitons."""
    return [e for e in all_entries if e.expected.classification != "flat"]


def random_spd(n, rng, scale=0.4):
    A = rng.standard_normal((n, n))
    return np.eye(n) + scale * (A @ A.T) / n


def checkout_env():
    """Environment that makes subprocesses import this same solitonlab.

    The directory holding the imported package goes first on PYTHONPATH,
    however it reached ``sys.path`` here (PYTHONPATH, pytest's
    ``pythonpath`` option or an install).
    """
    env = dict(os.environ)
    root = str(Path(solitonlab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, env.get("PYTHONPATH")) if p)
    return env
