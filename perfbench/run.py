#!/usr/bin/env python3
"""Builds and runs the fmtk benchmark for one workload.

    python3 perfbench/run.py --workload warm_mix --seed 1 --seconds 20 --trace 0

Run from the repository root. The first call configures and builds the
library, the shipped server (fmtk_serve) and the benchmark binary in
Release under .bench_build/perfbench; later calls rebuild incrementally.
The benchmark binary's last line of standard output is the result object.
"""

import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    """Configures and builds; returns False (after printing why) on failure."""
    jobs = str(os.cpu_count() or 1)
    steps = []
    configured = any(os.path.exists(os.path.join(BUILD, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        generator = ["-G", "Ninja"] if _have("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "fmtk_perfbench", "fmtk_serve"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
            return False
    return True


def _have(program):
    return any(os.access(os.path.join(d, program), os.X_OK)
               for d in os.environ.get("PATH", "").split(os.pathsep))


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    if not build():
        return 1
    os.makedirs(os.path.join(ROOT, ".bench_build", "traces"), exist_ok=True)
    env = dict(os.environ, FMTK_BENCH_COMMIT=commit())
    binary = os.path.join(BUILD, "fmtk_perfbench")
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
