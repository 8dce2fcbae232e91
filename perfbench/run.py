#!/usr/bin/env python3
"""Build the fixedlen benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep-engine --seed 1 --seconds 30 --trace 0

Builds the `fixedlen` CLI and the benchmark program with dune (output
under `_build/`), then runs the benchmark program, which writes its
scratch files under `.bench_build/perfbench/`. The last line of standard
output is the JSON result. Exits non-zero, printing no result, when the
checkout cannot be built.
"""

import os
import shutil
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
SOURCES = ["dune-project", "lib", "bin", "perfbench/dune", "perfbench/perfbench.ml"]


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    return None


def run_group(argv, timeout, **kwargs):
    """Run argv in its own process group; on timeout kill the whole group
    (the benchmark program and any daemon it started) and wait for it."""
    proc = subprocess.Popen(argv, start_new_session=True, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: {argv[0]} timed out after {timeout} s", file=sys.stderr)
        return 124


def main():
    missing = [p for p in SOURCES if not os.path.exists(p)]
    if missing:
        print("perfbench: not a fixedlen checkout, missing: " + ", ".join(missing), file=sys.stderr)
        return 2
    dune = dune_command()
    if dune is None:
        print("perfbench: dune not found", file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = run_group(
        dune + ["build", "--root", ".", "--display", "quiet",
                "perfbench/perfbench.exe", "bin/main.exe"],
        BUILD_TIMEOUT_S, stdout=sys.stderr, env=env)
    if build != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build
    bench = ["_build/default/perfbench/perfbench.exe",
             "--fixedlen", "_build/default/bin/main.exe",
             "--dir", ".bench_build/perfbench"] + sys.argv[1:]
    return run_group(bench, RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
