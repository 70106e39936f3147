#!/usr/bin/env python3
"""Run the tier-1 command of ROADMAP.md, exit with pytest's exit code, and
append its wall time and peak RSS to $GITHUB_STEP_SUMMARY (stderr if unset).

    python .github/tier1.py
"""

import os
import resource
import subprocess
import sys
import time

env = dict(os.environ)
env["PYTHONPATH"] = os.pathsep.join(p for p in ("src", env.get("PYTHONPATH")) if p)
t0 = time.perf_counter()
code = subprocess.call([sys.executable, "-m", "pytest", "-q",
                        "--continue-on-collection-errors"], env=env)
wall = time.perf_counter() - t0
# ru_maxrss is in KiB on Linux; for children it is the largest one's peak
peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
line = f"tier-1: exit code {code}, {wall:.1f} s wall, peak RSS {peak_mb:.0f} MB\n"
summary = os.environ.get("GITHUB_STEP_SUMMARY")
if summary:
    with open(summary, "a") as fh:
        fh.write(line)
else:
    sys.stderr.write(line)
sys.exit(code)
