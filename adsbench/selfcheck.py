"""Quick self-check of the benchmark at its smallest size.

    python3 adsbench/selfcheck.py

1. Runs every workload at --size smoke, untraced and traced, and checks that
   the last line carries exactly the metric names and units that
   BENCHMARK.json declares.
2. Runs the smoke solve-corpus and width-sweep passes with deliberately wrong
   expected outcomes and checks that exactly those cases are flagged failed.

Exits 0 when every check holds and prints what failed otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (spec,
            {m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def check_emitted(spec, e2e, layers, problems):
    for name in (w["name"] for w in spec["workloads"]):
        for trace, want in ((0, e2e), (1, layers)):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", "0", "--seconds", "1", "--trace", str(trace),
                   "--size", "smoke"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                 text=True, check=True).stdout
            last = json.loads(out.splitlines()[-1])
            got = {k: v["unit"] for k, v in last["metrics"].items()}
            if set(last) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{name} trace={trace}: keys {sorted(last)}")
            if got != want:
                diff = set(got.items()) ^ set(want.items())
                problems.append(f"{name} trace={trace}: metric mismatch {diff}")
            if not (last["correct"] and last["attempted"] >= 1):
                problems.append(f"{name} trace={trace}: {last}")


def check_flags_wrong_expectation(problems):
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads as W

    flips = {
        "solve-corpus": {"identity": "rejected", "two_step": "solution"},
        "width-sweep": {"step_0.5": "planar", "mobius_r0": "positive"},
    }
    for name, flip in flips.items():
        build, run_pass = W.WORKLOADS[name]
        inputs = build(0, "smoke")
        honest = {r["name"]: r["ok"] for r in run_pass(inputs)}
        for case in inputs["cases"]:
            case["expect"] = flip.get(case["name"], case["expect"])
        flipped = {r["name"]: r["ok"] for r in run_pass(inputs)}
        for case, ok in flipped.items():
            want = False if case in flip else honest[case]
            if ok != want:
                problems.append(f"{name}/{case}: ok={ok} with expectation "
                                f"{flip.get(case, 'unchanged')}")


def main():
    spec, e2e, layers = declared()
    problems = []
    check_emitted(spec, e2e, layers, problems)
    check_flags_wrong_expectation(problems)
    for p in problems:
        print("FAIL", p)
    print("selfcheck:", "ok" if not problems else f"{len(problems)} failed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
