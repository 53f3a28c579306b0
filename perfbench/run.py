#!/usr/bin/env python3
"""Build and run the nocsynth end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds perfbench/main.exe with dune (the
first build of a fresh checkout compiles the libraries too), then runs it
with the same arguments.  Its report lines start with '#'; the last line
of standard output is the JSON result.  Exits non-zero when the build
fails, an output check fails or the run overruns its time limit.
"""

import hashlib
import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
RUN_TIMEOUT_S = 170


def dune():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    sys.exit("perfbench: dune not found on PATH")


def revision():
    """The commit when run from a git work tree, else a digest of the
    library and benchmark sources, so every result names the code it ran."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.md5()
    for top in ("lib", "perfbench"):
        for base, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".ml", ".mli", "dune")):
                    path = os.path.join(base, name)
                    digest.update(path.encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return "src-" + digest.hexdigest()[:16]


def main():
    build = subprocess.run(dune() + ["build", "--root", ".", "./perfbench/main.exe"],
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0 or not os.path.exists(EXE):
        sys.exit("perfbench: build failed")
    cmd = [EXE] + sys.argv[1:] + ["--commit", revision()]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
