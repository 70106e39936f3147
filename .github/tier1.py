#!/usr/bin/env python3
"""Run the tier-1 command of ROADMAP.md, exit with pytest's exit code, and
append pytest's count line, its wall time, peak RSS, five slowest tests and
the line counts of src/solitonlab/*.py (tracked in ROADMAP.md like a
benchmark) to $GITHUB_STEP_SUMMARY (stderr if unset).

    python .github/tier1.py
"""

import os
import re
import resource
import subprocess
import sys
import time
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
lines = [f"tier-1: exit code {code}, {counts[-1] if counts else 'no count line'}, "
         f"{wall:.1f} s wall, peak RSS {peak_mb:.0f} MB\n"]
lines += [f"- {sec} s ({phase}): `{test}`\n" for sec, phase, test in slowest[:5]]
# source size as `wc -l src/solitonlab/*.py` prints it, in a code block so the
# lines stay apart
sizes = {str(p): p.read_bytes().count(b"\n") for p in sorted(Path("src/solitonlab").glob("*.py"))}
lines += ["```\n"] + [f"{n:6d} {path}\n" for path, n in sizes.items()]
lines += [f"{sum(sizes.values()):6d} total\n", "```\n"]
summary = os.environ.get("GITHUB_STEP_SUMMARY")
if summary:
    with open(summary, "a") as fh:
        fh.writelines(lines)
else:
    sys.stderr.writelines(lines)
sys.exit(code)
