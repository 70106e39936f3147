#!/usr/bin/env python3
"""solitonlab benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload catalog_verdicts --seed 1 --seconds 20 --trace 0

Run from anywhere; the package is imported from `src/` next to this
directory.  The workload runs whole rounds, back to back, until the round
boundary nearest to `--seconds` of round time, and at least MIN_OPS ops.
Untraced, each round runs PASSES times and every op keeps the median of
its times: other tenants of a shared machine make single timings swing
both ways by tens of percent, and the median of three discards a burst
either way.  Set-up is timed in fresh processes between the passes, so
its median also spans the run.  Traced, every op runs untraced and traced
back to back, and the spans are written to `.perfbench-out/` under the
checkout.  The last stdout line is the result object; failed ops are
printed before it with kind, input and reason.  Exit code 0 means the run
completed, whatever the checks found; a run that cannot start exits 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

from tracer import Tracer, p50

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

#: BLAS threads, pinned for every process the benchmark starts
BLAS_THREADS = 1
MIN_OPS = 100
PASSES = 3
SETUP_PROBES = 5
SETUP_CODE = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import solitonlab
t1 = time.perf_counter()
from solitonlab import coordfield
for name in ("nil3", "sol3", "hyp3"):
    coordfield.chart_metric(name)
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "chart_validation_s": t2 - t1}))
"""

#: the keys of workloads.WORKLOADS, known here before numpy is imported
WORKLOAD_NAMES = ("catalog_verdicts", "chart_probes", "cli_session")
END_TO_END = {"setup_s": "s", "ops_per_s": "ops/s", "op_p50_s": "s", "op_p90_s": "s",
              "peak_rss_mb": "MB", "pass_ratio": "ratio"}


class StartError(Exception):
    """The benchmark cannot run here (no package source, broken set-up)."""


def pin_blas():
    """Pin BLAS threads; must run before numpy is first imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def setup_probe() -> dict:
    """Import and chart-validation time of solitonlab in a fresh process."""
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, SRC], capture_output=True,
                          text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise StartError(f"set-up probe failed:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def blas_threads_in_use() -> int:
    """Thread count reported by the OpenBLAS numpy loaded, else the pinned value."""
    import ctypes
    import glob

    import numpy as np
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return BLAS_THREADS


class Record(NamedTuple):
    op: object
    traced: bool
    seconds: float
    error: Exception | None  # None when the op's output passed its check


def execute(seq, tr) -> list:
    """Run (op, traced) pairs back to back, timing `run` only, then checking."""
    records = []
    for op, traced in seq:
        tr.enabled = traced
        tr.op += 1
        t0 = time.perf_counter()
        try:
            out, err = op.run(), None
        except Exception as e:  # an op that raises is a failed op; the run goes on
            out, err = None, e
        seconds = time.perf_counter() - t0
        if err is None:
            try:
                op.check(out)
            except Exception as e:  # a check that cannot even read the output fails too
                err = e
        tr.enabled = False
        records.append(Record(op, traced, seconds, err))
    return records


def tally(records) -> tuple:
    """Failed ops as (kind, input, reason), and how many were wrong outputs."""
    from workloads import FitMiss
    failed = [(r.op, r.error) for r in records if r.error is not None]
    return ([(op.kind, op.desc, f"{type(err).__name__}: {err}") for op, err in failed],
            sum(not isinstance(err, FitMiss) for _op, err in failed))


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """One benchmark run; returns (report lines, result object)."""
    pin_blas()
    if not os.path.isfile(os.path.join(SRC, "solitonlab", "__init__.py")):
        raise StartError(f"no package source at {SRC}")
    n_probes = 1 if tiny else SETUP_PROBES
    if not tiny:
        setup_probe()  # warm-up: the first import in a checkout compiles bytecode
    probes = [setup_probe()]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import numpy as np
    import scipy

    from workloads import WORKLOADS

    rng = np.random.default_rng(seed)
    tr = Tracer(enabled=False)
    n_passes = 1 if tiny or trace else PASSES
    kinds, op_s, failures = [], [], []
    wrong = attempted = rounds = 0
    plain_s = traced_s = elapsed = 0.0
    min_ops = 1 if tiny else MIN_OPS
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        wl = WORKLOADS[workload](tr, tmp, tiny)
        # whole rounds keep the op mix fixed; stop at the round boundary
        # nearest to `seconds`
        while (rounds == 0 or len(kinds) < min_ops
               or elapsed + 0.5 * elapsed / rounds < seconds):
            reruns = [wl.round(rng)]
            reruns += [wl.round(rng) if wl.rerun_hits_cache else reruns[0]
                       for _ in range(n_passes - 1 + trace)]
            if trace:
                # each op runs untraced and traced back to back, alternating
                # which goes first so that warm caches favour neither
                seq = []
                for i, pair in enumerate(zip([(op, False) for op in reruns[0]],
                                             [(op, True) for op in reruns[1]])):
                    seq += pair if i % 2 == 0 else pair[::-1]
                seqs = [seq]
            else:
                seqs = [[(op, False) for op in ops] for ops in reruns]
            passes = []
            for seq in seqs:
                t0 = time.perf_counter()
                records = execute(seq, tr)
                elapsed += time.perf_counter() - t0
                if len(probes) < n_probes:
                    probes.append(setup_probe())
                plain_s += sum(r.seconds for r in records if not r.traced)
                traced_s += sum(r.seconds for r in records if r.traced)
                passes.append([r for r in records if r.traced == trace])
            rounds += 1
            round_kinds = [r.op.kind for r in passes[0]]
            if any([r.op.kind for r in p] != round_kinds for p in passes):
                raise RuntimeError(f"{workload}: reruns of a round differ in op kinds")
            kinds += round_kinds
            op_s += [statistics.median(r.seconds for r in same) for same in zip(*passes)]
            records = [r for p in passes for r in p]
            round_failures, round_wrong = tally(records)
            failures += round_failures
            wrong += round_wrong
            attempted += len(records)
    while len(probes) < n_probes:
        probes.append(setup_probe())

    n, failed = len(kinds), len(failures)
    env = {"workload": workload, "seed": seed, "trace": int(trace), "rounds": rounds,
           "passes": n_passes, "blas_threads": blas_threads_in_use(),
           "blas_threads_pinned": BLAS_THREADS, "nproc": os.cpu_count(),
           "python": platform.python_version(), "numpy": np.__version__,
           "scipy": scipy.__version__, "ops_per_kind": {k: kinds.count(k) for k in wl.kinds},
           "samples": {"setup_s": len(probes), "op_p50_s": n, "op_p90_s": n}}
    lines = [f"env {json.dumps(env, sort_keys=True)}"]
    lines += [f"FAILED {kind} [{desc}]: {reason}" for kind, desc, reason in failures]
    lines.append(f"fail_ratio {failed / attempted:.6f} ratio ({failed} of {attempted} op runs; "
                 f"{wrong} wrong outputs, {failed - wrong} decay-fit misses)")
    if trace:
        failed_kind = {k: sum(1 for f in failures if f[0] == k) for k in wl.kinds}
        metrics = layer_metrics(tr, failed_kind, probes, traced_s - plain_s)
        notes = {}
        write_trace(tr, env, workload, seed)
    else:
        p90 = statistics.quantiles(op_s, n=10)[-1] if n >= 2 else op_s[0]
        values = {"setup_s": statistics.median(p["import_s"] + p["chart_validation_s"]
                                               for p in probes),
                  "ops_per_s": n / sum(op_s),
                  "op_p50_s": statistics.median(op_s),
                  "op_p90_s": p90,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                  "pass_ratio": 1.0 - failed / attempted}
        each = f"median of {n_passes} runs each"
        notes = {"setup_s": f"median of {len(probes)} fresh processes",
                 "ops_per_s": f"{n} ops, {each}",
                 "op_p50_s": f"{n} samples, {each}",
                 "op_p90_s": f"{n} samples, {sum(x > p90 for x in op_s)} above, {each}"}
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    for name, m in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        lines.append(f"{name:<48} {m['value']:>14.6g} {m['unit']}{note}")
    result = {"correct": wrong == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return lines, result


def layer_metrics(tr, failed_kind, probes, overhead_s) -> dict:
    """The per-layer table, from traced spans, counters and set-up probes."""
    from workloads import WORKLOADS
    red = tr.reduce()
    busy, by_tag = red["busy"], red["by_tag"]

    def tagged(name, tag):
        return by_tag.get((name, tag), [])

    def per_call_us(name, tag):
        d = tagged(name, tag)
        return 1e6 * sum(d) / len(d) if d else 0.0

    m = {}
    for name in ("liealg.validate", "soliton.solve_soliton", "soliton.verify_soliton",
                 "soliton.exact_unnormalized_solution", "stability.stability_operator",
                 "flow.convergence_experiment", "flow.integrate", "flow.rhs_unnormalized",
                 "coordfield.chart_metric", "coordfield.curvature_fields",
                 "coordfield.probe_tensor_suite", "coordfield.rayleigh_quotient",
                 "coordfield.build_annulus_cover", "coordfield.weighted_holder_norm",
                 "coordfield.summability_check"):
        m[f"{name}.busy_s"] = (busy[name], "s")
    for tag in ("small_n", "large_n"):
        m[f"stability.stability_operator.{tag}.p50_s"] = (
            p50(tagged("stability.stability_operator", tag)), "s")
    m["flow.convergence_experiment.p50_s"] = (p50(tagged("flow.convergence_experiment", None)), "s")
    m["flow.convergence_experiment.accepted_steps"] = (
        tr.counts["flow.convergence_experiment.accepted_steps"], "count")
    m["flow.integrate.self_s"] = (red["self"]["flow.integrate"], "s")
    m["flow.rhs_unnormalized.calls"] = (red["calls"]["flow.rhs_unnormalized"], "count")
    for tag in ("small_n", "large_n"):
        m[f"flow.rhs_unnormalized.{tag}.per_call_us"] = (
            per_call_us("flow.rhs_unnormalized", tag), "us")
    for name in ("coordfield.curvature_fields", "coordfield.rayleigh_quotient"):
        for tag in ("coarse", "fine"):
            m[f"{name}.{tag}.p50_s"] = (p50(tagged(name, tag)), "s")
    m["coordfield.curvature_fields.computed_mb"] = (
        tr.counts["coordfield.curvature_fields.computed_mb"], "MB")
    m["coordfield.build_annulus_cover.annuli"] = (
        tr.counts["coordfield.build_annulus_cover.annuli"], "count")
    m["coordfield.grid_points"] = (tr.counts["coordfield.grid_points"], "count")
    for sub in ("catalog", "validate", "soliton", "spectrum", "flow", "rayleigh", "weights"):
        m[f"cli.{sub}.busy_s"] = (busy[f"cli.{sub}"], "s")
    m["cli.bytes_written"] = (tr.counts["cli.bytes_written"], "B")
    m["cli.flow.csv_rows"] = (tr.counts["cli.flow.csv_rows"], "count")
    m["setup.import_s"] = (statistics.median(p["import_s"] for p in probes), "s")
    m["setup.chart_validation_s"] = (
        statistics.median(p["chart_validation_s"] for p in probes), "s")
    for kind in (k for w in WORKLOADS.values() for k in w.kinds):
        m[f"ops.{kind}.failed"] = (failed_kind.get(kind, 0), "count")
    m["trace.overhead_s"] = (overhead_s, "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def write_trace(tr, env, workload, seed):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.json")
    doc = {"env": env, "fields": ["name", "tag", "start", "end", "parent", "op"],
           "spans": tr.spans, "counts": dict(tr.counts)}
    with open(path, "w") as fh:
        json.dump(doc, fh)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        lines, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except StartError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
