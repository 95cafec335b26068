#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload radix-pipeline --seed 1 \
        --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR, or .bench_build when that is
unset (a Release CMake build of perfbench/, which compiles ../src).
All other arguments pass through to qr_perfbench, whose last line of
standard output is the result JSON. Artifacts the run writes live in
<build>/work-<pid> and are removed at exit; a traced run leaves its Perfetto
trace in <build>/out.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configure (once) and build qr_perfbench; output goes to stderr."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "qr_perfbench", "-j", "4"],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "qr_perfbench")


def main():
    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        exe = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    cmd = [exe, *sys.argv[1:],
           "--work-dir", os.path.join(build_dir, f"work-{os.getpid()}"),
           "--out-dir", os.path.join(build_dir, "out")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
