#!/usr/bin/env python3
"""Run the tier-1 command of ROADMAP.md, exit with pytest's exit code, and
append the Python, numpy and scipy versions it ran on, pytest's count line,
its wall time, peak RSS, five slowest tests, the line counts of
src/solitonlab/*.py (tracked in ROADMAP.md like a benchmark) and the
fresh-process start-up time of `import solitonlab`, `solitonlab catalog`, a
short `solitonlab flow`, two `solitonlab weights` with a < 0 (one near its
critical tau) and a 17^3 `solitonlab rayleigh`, the time of the first
`rayleigh_quotient` on the 17^3 and 33^3 hyp3 grids (it builds the grid's
operator plan) and the median of the next 9 (they reuse it), the tracemalloc
peak of a cold and a warm call on the 33^3 grid in doubles per grid point,
the median time of one pass of `summability_check` over the benchmark's 7
weights with a = 0 and over its 7 with a = -1 (n = 2..8, tau = 2), and the
median time of criterion 8 in 3 fresh processes with BLAS threads
unpinned and in 3 with OPENBLAS_NUM_THREADS=1, to $GITHUB_STEP_SUMMARY
(stderr if unset).  Nothing here is a gate.

    python .github/tier1.py
"""

import os
import re
import resource
import subprocess
import sys
import tempfile
import time
from importlib.metadata import version
from pathlib import Path

env = dict(os.environ)
env["PYTHONPATH"] = os.pathsep.join(p for p in ("src", env.get("PYTHONPATH")) if p)
t0 = time.perf_counter()
proc = subprocess.Popen([sys.executable, "-m", "pytest", "-q",
                         "--continue-on-collection-errors", "--durations=5"],
                        env=env, stdout=subprocess.PIPE, text=True)
output = []
for out_line in proc.stdout:        # echo pytest's output as it comes
    sys.stdout.write(out_line)
    output.append(out_line)
code = proc.wait()
wall = time.perf_counter() - t0
# ru_maxrss is in KiB on Linux; for children it is the largest one's peak
peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
# pytest's durations section: "1.23s call     tests/test_x.py::test_y"
slowest = [m.groups() for m in map(re.compile(r"(\d+\.\d+)s (\w+) +(\S+)").match, output) if m]
# pytest's final count line: "400 passed, 1 skipped in 18.73s" (maybe "="-framed)
counts = [m.group(1) for m in map(re.compile(r"[= ]*(\d+ \w+.*) in [\d.]+s").match, output) if m]
# the stack pytest ran on (the same interpreter), read from package metadata
# so that numpy and scipy are not imported here
stack = (f"Python {sys.version.split()[0]}, numpy {version('numpy')}, "
         f"scipy {version('scipy')}")
lines = [f"tier-1 on {stack}: exit code {code}, "
         f"{counts[-1] if counts else 'no count line'}, "
         f"{wall:.1f} s wall, peak RSS {peak_mb:.0f} MB\n"]
lines += [f"- {sec} s ({phase}): `{test}`\n" for sec, phase, test in slowest[:5]]
# source size as `wc -l src/solitonlab/*.py` prints it, in a code block so the
# lines stay apart
sizes = {str(p): p.read_bytes().count(b"\n") for p in sorted(Path("src/solitonlab").glob("*.py"))}
lines += ["```\n"] + [f"{n:6d} {path}\n" for path, n in sizes.items()]
lines += [f"{sum(sizes.values()):6d} total\n", "```\n"]


def fresh(*args, runs=3, value=None, fmt="{:.3f} s", env=env, timeout=120):
    """The median over `runs` fresh `python <args>` processes of their wall
    time, or of `value(stdout)` where given, formatted by `fmt`, as text; a
    run that fails, or whose `value` is None, is reported here and leaves the
    exit code alone."""
    values = []
    for _ in range(runs):
        t = time.perf_counter()
        try:
            run = subprocess.run([sys.executable, *args], env=env, timeout=timeout,
                                 capture_output=True, text=True)
        except (OSError, subprocess.SubprocessError) as e:
            return f"not run ({type(e).__name__})"
        v = time.perf_counter() - t if value is None else value(run.stdout)
        if run.returncode or v is None:
            return f"failed (exit code {run.returncode})"
        values.append(v)
    return fmt.format(sorted(values)[runs // 2])


# the flow writes its CSV and JSON outside the checkout, which must stay clean
with tempfile.TemporaryDirectory() as tmp:
    flow = fresh('-m', 'solitonlab', 'flow', 'nil4', '--mode', 'unnormalized',
                 '--t-max', '1', '--out', os.path.join(tmp, 'x.csv'))
weights = fresh('-m', 'solitonlab', 'weights', '--a', '-1', '--tau', '2', '--dim', '4')
near = fresh('-m', 'solitonlab', 'weights', '--a', '-4', '--tau', '2.001', '--dim', '4')
rayleigh = fresh('-m', 'solitonlab', 'rayleigh', 'nil3', '--radius', '4', '--dx', '0.5')
lines.append(f"start-up, median of 3 fresh processes: `import solitonlab` "
             f"{fresh('-c', 'import solitonlab')}, `solitonlab catalog` "
             f"{fresh('-m', 'solitonlab', 'catalog')}, `solitonlab flow nil4 "
             f"--mode unnormalized --t-max 1` {flow}, `solitonlab weights --a -1 --tau 2 "
             f"--dim 4` {weights}, `solitonlab weights --a -4 --tau 2.001 --dim 4` "
             f"{near}, `solitonlab rayleigh nil3 --radius 4 --dx 0.5` "
             f"{rayleigh}\n")
# the chart operator's quotient: 10 calls per grid with the curvature fields
# and the probe computed first, the first of which builds the grid's operator
# plan, then a traced call on the last grid with the plan dropped (cold) and
# one with it kept (warm), in a fresh process so numpy stays out of this one
RAYLEIGH = """
import time
import tracemalloc
from solitonlab import coordfield
cm = coordfield.chart_metric("hyp3")
for dx in (0.25, 0.125):
    grid = coordfield.GridSpec(2.0, dx)
    fields = coordfield.curvature_fields(cm, grid.points())
    h = coordfield.probe_tensor_suite(cm, grid, count=1)[0]
    times = []
    for _ in range(10):
        t = time.perf_counter()
        coordfield.rayleigh_quotient(cm, cm.lam, cm.d, h, grid, _fields=fields)
        times.append(time.perf_counter() - t)
    print(f"{grid.npts}^3 first {times[0] * 1e3:.2f} ms, then {sorted(times[1:])[4] * 1e3:.2f} ms")
peaks = []
for cold in (True, False):
    if cold:
        coordfield._operator_plan.cache_clear()
    tracemalloc.start()
    coordfield.rayleigh_quotient(cm, cm.lam, cm.d, h, grid, _fields=fields)
    peaks.append(tracemalloc.get_traced_memory()[1] / 8 / grid.npts ** 3)
    tracemalloc.stop()
print(f"{grid.npts}^3 peak {peaks[0]:.1f} cold, {peaks[1]:.1f} warm doubles per point")
"""
# the weight sums of the benchmark's chart workload, 7 passes per sign of a
WEIGHTS = """
import time
from solitonlab import coordfield
for a in (0.0, -1.0):
    specs = [coordfield.WeightSpec(a=a, n=n, tau=2.0) for n in range(2, 9)]
    passes = []
    for _ in range(7):
        t = time.perf_counter()
        for w in specs:
            coordfield.summability_check(w)
        passes.append(time.perf_counter() - t)
    print(f"a = {a:g} {sorted(passes)[3] * 1e3:.1f} ms")
"""


def output(script):
    """The output lines of `python -c script` in a fresh process, joined, as text."""
    return fresh("-c", script, runs=1, value=lambda out: ", ".join(out.splitlines()),
                 fmt="{}")


lines.append(f"`rayleigh_quotient` on hyp3, the first call and the median of the next "
             f"9, and the peaks of a cold and a warm call, in a fresh process: "
             f"{output(RAYLEIGH)}\n")
lines.append(f"`summability_check`, median of 7 passes over n = 2..8 at tau = 2, "
             f"in a fresh process: {output(WEIGHTS)}\n")


def c08(env):
    """Median call time of criterion 8 in 3 fresh pytest processes, as text."""
    def call_time(out):
        call = re.search(r"(\d+\.\d+)s call ", out)
        return float(call.group(1)) if call else None
    return fresh("-m", "pytest", "-q", "-p", "no:cacheprovider", "--durations=0",
                 "--durations-min=0",
                 "tests/test_acceptance.py::test_c08_coordinate_algebraic_consistency",
                 value=call_time, fmt="{:.2f} s", env=env, timeout=300)


# the first 6x72 by 72xN^2 products on 65^3 grids can stall with a second BLAS
# thread; the workflow pins one, so the unpinned run is the only one to see it
unpinned = {k: v for k, v in env.items() if k != "OPENBLAS_NUM_THREADS"}
lines.append(f"criterion 8, median call time of 3 fresh processes: "
             f"{c08(unpinned)} with OPENBLAS_NUM_THREADS unset, "
             f"{c08(dict(env, OPENBLAS_NUM_THREADS='1'))} with it set to 1\n")
summary = os.environ.get("GITHUB_STEP_SUMMARY")
if summary:
    with open(summary, "a") as fh:
        fh.writelines(lines)
else:
    sys.stderr.writelines(lines)
sys.exit(code)
