#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the root of the repository:

    python3 perfbench/run.py --workload cosim_spec --seed 1 --seconds 20 --trace 0

Every argument is passed to the benchmark executable (see README.md in
this directory).  The last line of standard output is the result as
one JSON object.  The exit code is not 0 when the build fails.
"""

import os
import subprocess
import sys

TARGET = "./perfbench/perfbench.exe"


def main():
    # The library reads MINJIE_* variables (REF backend, phase order,
    # worker count, chaos injection); the benchmark fixes all of them.
    env = {k: v for k, v in os.environ.items() if not k.startswith("MINJIE_")}
    build = subprocess.run(
        ["dune", "build", "--root", ".", TARGET],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join("_build", "default", "perfbench", "perfbench.exe")
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
