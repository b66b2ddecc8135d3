#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/selftest.py [--seed N] [--seconds S] [workload ...]

Takes about 8 x run_seconds per workload.

Run from the root of a checkout.  For each workload (default: every one
BENCHMARK.json lists) it runs the benchmark twice untraced and twice
traced with one seed, and checks that:

- each result line carries exactly the metrics BENCHMARK.json lists for
  its mode, with their units, and every run is correct with no failed
  operation;
- count metrics are identical between the two runs of a mode (for
  serve-mix, the ones that do not depend on how the two client
  connections interleave);
- every end-to-end time of the two untraced runs but setup_s agrees
  within its bound;
- in each traced run, the layers plus unattributed_s sum to verdict_s.

Exits 1 if any check fails.
"""

import argparse
import json
import os
import subprocess
import sys

COUNT_UNITS = ("count", "cycles")
# serve-mix counts that do not depend on request interleaving: which
# requests execute, what they verify and what the compiler emits
SERVE_EXACT = {"code_size", "run_cycles", "serve.executed", "serve.dedup_hits",
               "symex.paths", "opt.size_out", "minic.calls"}


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="measuring time per run (default: BENCHMARK.json's "
                    "run_seconds; shorter runs only suit the exact checks)")
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    specs = {0: bench["end_to_end"], 1: bench["per_layer"]}
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for w in workloads:
        for trace in (0, 1):
            want = {m["name"]: m for m in specs[trace]}
            results = []
            for attempt in (1, 2):
                code, res = run(w, args.seed, args.seconds, trace)
                tag = f"{w} trace={trace} run {attempt}"
                check(code == 0 and res is not None, f"{tag}: exit 0 with a result")
                if res is None:
                    continue
                check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                      f"{tag}: correct, {res['failed']} failed of {res['attempted']}")
                got = res["metrics"]
                check(set(got) == set(want)
                      and all(got[k]["unit"] == want[k]["unit"] for k in got),
                      f"{tag}: metric names and units match BENCHMARK.json")
                results.append(got)
                if trace:
                    with open(os.path.join(".perfbench_out", w + ".layers.json")) as f:
                        layers = json.load(f)
                    total = sum(layers["layers"].values())
                    check(abs(total - layers["verdict_s"]) <= 1e-6 * max(1.0, total),
                          f"{tag}: layers sum {total:.6f} = verdict_s "
                          f"{layers['verdict_s']:.6f}")
            if len(results) < 2:
                continue
            a, b = results
            for name, spec in want.items():
                if name not in a or name not in b:
                    continue
                x, y = a[name]["value"], b[name]["value"]
                if spec["unit"] in COUNT_UNITS:
                    if w == "serve-mix" and name not in SERVE_EXACT:
                        continue
                    check(x == y, f"{w} trace={trace}: {name} identical ({x} vs {y})")
                elif trace == 0 and spec["unit"] in ("s", "ms") and name != "setup_s":
                    # setup_s's bound limits how far a median over many runs
                    # may move; two single set-ups of ~1-50 ms differ more
                    spread = abs(x - y) / max(min(x, y), 1e-12)
                    check(spread <= spec["bound"],
                          f"{w}: {name} agrees within {spec['bound']} "
                          f"({x:.6g} vs {y:.6g}, {spread:.3f})")
    print(f"{len(failures)} failed check(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
