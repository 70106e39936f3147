#!/usr/bin/env python3
"""Self-check of the benchmark on a tiny version of each workload.

    python3 perfbench/selfcheck.py

Asserts that every metric named in BENCHMARK.json prints, with its unit,
in both the report lines and the result object (end-to-end metrics
untraced, per-layer metrics traced), and that a wrong expectation injected
into the catalog and CLI workloads is counted as a failed op.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import tempfile

import run


def check_metrics(bench: dict):
    for workload in run.WORKLOAD_NAMES:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            lines, result = run.run(workload, seed=0, seconds=0, trace=trace, tiny=True)
            text = "\n".join(lines)
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, f"{workload} trace={trace}: metrics {got} != {want}"
            for name, unit in want.items():
                assert any(line.startswith(name + " ") and line.split()[2] == unit
                           for line in lines), f"{workload}: {name} [{unit}] not printed\n{text}"
            assert result["attempted"] >= 1 and result["correct"], text
            print(f"ok  {workload} trace={int(trace)}: {len(want)} metrics, "
                  f"{result['attempted']} ops, {result['failed']} failed")


def check_injected_failure():
    import numpy as np

    from tracer import Tracer
    from workloads import CatalogVerdicts, CliSession

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as tmp:
        for cls, kinds in ((CatalogVerdicts, {"certify"}), (CliSession, {"cli_soliton"})):
            wl = cls(Tracer(enabled=False), tmp, tiny=True)
            wl.expected["nil3"] = dataclasses.replace(wl.expected["nil3"], lam=-1.25)
            ops = wl.round(np.random.default_rng(0))
            records = run.execute([(op, False) for op in ops], wl.tr)
            failures, wrong = run.tally(records)
            assert kinds <= {kind for kind, _desc, _reason in failures}, failures
            assert wrong == len(failures) and all("lambda" in f[2] for f in failures), failures
            print(f"ok  {cls.__name__}: injected lambda counted as failed "
                  f"({wrong} of {len(records)} ops)")


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    check_metrics(bench)
    check_injected_failure()
    return 0


if __name__ == "__main__":
    sys.exit(main())
