"""adsmax benchmark: one workload per process, metrics as JSON.

    python3 adsbench/run.py --workload solve-corpus --seed 0 --seconds 25 --trace 0
    python3 adsbench/run.py --workload all --seed 0

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a run with span timers installed.
Earlier lines are JSON records: one per case, one per pass, and the run
context.  `--workload all` runs every workload untraced and traced, each in
its own process one after the other, and prints a table.

The run is single-threaded in Python and BLAS is held to one thread, so a
run competes for one core only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("solve-corpus", "width-sweep", "fine-mesh")
SETUP_PROBES = 3


def _import_benchmark():
    """Put src/ and this directory on the path and import the workloads."""
    if not (SRC / "adsmax" / "__init__.py").is_file():
        sys.exit(f"adsbench: no adsmax package under {SRC}; "
                 "run from the root of a repository checkout")
    for p in (str(SRC), str(HERE)):
        if p not in sys.path:
            sys.path.insert(0, p)
    import workloads

    return workloads


def _emit(obj):
    print(json.dumps(obj, default=float), flush=True)


def measure_setup(args):
    """Median wall time of fresh processes that start the interpreter,
    import adsmax and build the workload inputs, then exit."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), times


def run_passes(run_pass, inputs, seconds):
    """Whole passes until the next one would end after `seconds`; at least
    one.  Returns [(wall seconds, records), ...]."""
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        records = run_pass(inputs)
        wall = time.perf_counter() - t0
        passes.append((wall, records))
        if time.perf_counter() - start + wall > seconds:
            return passes


def pass_time(passes):
    """Wall time of a typical pass: per case, the median of its times over
    the run's passes, summed, plus the median of the time a pass spends
    outside its cases (mesh building, checks).  A slow spell of the host
    that hits one case in one pass then does not move the figure."""
    per_case = zip(*[[r["case_s"] for r in recs] for _, recs in passes])
    outside = [wall - sum(r["case_s"] for r in recs) for wall, recs in passes]
    return (sum(statistics.median(t) for t in per_case)
            + statistics.median(outside))


def peak_rss_mb():
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_context(args, n_passes, extra):
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": args.trace, "passes": n_passes,
        "src_lines": src_lines, "python": sys.version.split()[0],
        "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(), **extra,
    }


def run_workload(args):
    wl = _import_benchmark()
    build, run_pass = wl.WORKLOADS[args.workload]
    if args.probe:
        build(args.seed, args.size)
        return 0
    extra = {}
    if args.trace:
        import spans

        rec = spans.Recorder()
        spans.install(rec, extra_namespaces=(wl,))
        inputs = build(args.seed, args.size)
        setup_self = dict(rec.aggregate()[1])
        run_pass(wl.warm_up_inputs(inputs))
        rec.reset()
        passes = run_passes(run_pass, inputs, args.seconds)
        rec.restore()
    else:
        setup_s, setup_samples = measure_setup(args)
        inputs = build(args.seed, args.size)
        run_pass(wl.warm_up_inputs(inputs))
        passes = run_passes(run_pass, inputs, args.seconds)

    outcomes = [[(r["name"], r["outcome"]) for r in recs]
                for _, recs in passes]
    attempted = sum(len(recs) for _, recs in passes)
    ok = sum(sum(r["ok"] for r in recs) for _, recs in passes)
    for r in passes[0][1]:
        _emit({"case": r})
    for i, (wall, recs) in enumerate(passes):
        _emit({"pass": {"index": i, "wall_s": wall, "attempted": len(recs),
                        "ok": sum(r["ok"] for r in recs)}})
    if args.trace:
        metrics = spans.layer_metrics(rec, [w for w, _ in passes], setup_self)
        extra["trace_overhead_frac"] = metrics["trace.overhead_frac"][0]
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "ok_per_s": (ok / len(passes) / pass_time(passes), "1/s"),
            "ok_frac": (ok / attempted, "frac"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        extra["setup_samples_s"] = setup_samples
        extra["fail_frac"] = 1.0 - ok / attempted
    _emit({"context": run_context(args, len(passes), extra)})
    _emit({
        # every case reached a recorded outcome, the same one in every pass
        "correct": all(o == outcomes[0] for o in outcomes),
        "attempted": attempted,
        "failed": attempted - ok,
        "metrics": {k: {"value": float(v), "unit": u}
                    for k, (v, u) in metrics.items()},
    })
    return 0


def _parse_run(stdout):
    """(pass records, result line) of one run's output."""
    lines = [json.loads(x) for x in stdout.splitlines() if x.startswith("{")]
    return [x["pass"] for x in lines if "pass" in x], lines[-1]


def run_all(args):
    """Every workload in its own process, untraced then traced."""
    rows = []
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        walls = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace),
                   "--size", args.size]
            out = subprocess.run(cmd, check=True, cwd=ROOT,
                                 capture_output=True, text=True).stdout
            passes, last = _parse_run(out)
            walls[trace] = statistics.median(p["wall_s"] for p in passes)
            for metric, mv in last["metrics"].items():
                rows.append((name, metric, mv["value"], mv["unit"]))
                summary["metrics"][f"{name}.{metric}"] = mv
            if trace == 0:
                summary["correct"] &= last["correct"]
                summary["attempted"] += last["attempted"]
                summary["failed"] += last["failed"]
                rows.append((name, "fail_frac",
                             last["failed"] / last["attempted"], "frac"))
        overhead = walls[1] / walls[0] - 1.0
        rows.append((name, "trace.measured_overhead_frac", overhead, "frac"))
        summary["metrics"][f"{name}.trace.measured_overhead_frac"] = {
            "value": overhead, "unit": "frac"}
    width = max(len(r[1]) for r in rows)
    for name, metric, value, unit in rows:
        print(f"{name:13s} {metric:{width}s} {value:14.6g} {unit}")
    _emit(summary)
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=(*WORKLOAD_NAMES, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="input size; smoke is the self-check's smallest size")
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload == "all":
        _import_benchmark()  # fail early outside a checkout
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
