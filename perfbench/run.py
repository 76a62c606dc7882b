#!/usr/bin/env python3
"""Build the program from source, then run the benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every argument is handed to perfbench/perf.exe (see perfbench/README.md);
its last line of standard output is the result object.  The build runs with
dune's shared cache off, so nothing is written outside the checkout.
"""

import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
TARGETS = ["bin/vcilk.exe", "perfbench/perf.exe"]


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write("run.py: not the root of a vectorcilk checkout\n")
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", "."] + TARGETS,
            stdout=sys.stderr,
            env=env,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.stderr.write("run.py: build failed: %s\n" % e)
        return 2
    if build.returncode != 0:
        return 2
    perf = subprocess.Popen([os.path.join("_build", "default", "perfbench", "perf.exe")] + sys.argv[1:])
    try:
        return perf.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # perf.exe stops the daemons it started on SIGTERM
        perf.send_signal(signal.SIGTERM)
        try:
            perf.wait(timeout=10)
        except subprocess.TimeoutExpired:
            perf.kill()
            perf.wait()
        sys.stderr.write("run.py: benchmark exceeded %d s\n" % RUN_TIMEOUT_S)
        return 2


if __name__ == "__main__":
    sys.exit(main())
