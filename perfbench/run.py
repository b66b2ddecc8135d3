#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds perfbench/perfbench.exe with
dune (only that target and the libraries it links), then runs it with
the same arguments.  The last line of stdout is the benchmark's JSON
result; the exit code is the benchmark's (1 on a wrong verdict).  A
checkout without the sources fails the build and exits 2 without a
result line.  See perfbench/perfbench.ml for what each workload does.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")


def main() -> int:
    # the engine and the daemon read OVERIFY_* switches from the
    # environment; the benchmark pins them by clearing every one
    env = {k: v for k, v in os.environ.items() if not k.startswith("OVERIFY_")}
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled",
         "--display=quiet", "./perfbench/perfbench.exe"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if build.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write("perfbench: build failed\n" + build.stderr)
        return 2
    return subprocess.run([EXE] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
