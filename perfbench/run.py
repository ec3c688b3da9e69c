#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Every argument is passed on to perfbench/main.exe (see README.md). The
last line of standard output is the benchmark's JSON result; build
output goes to standard error. Everything the run writes stays inside
the repository: dune's _build/ and .bench_build/perfbench/ (caches,
Chrome traces, the cross-run ledger).
"""

import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(".bench_build", "perfbench")
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def source_id():
    """Hash of the sources the benchmark measures: the cross-run ledger
    only compares runs of identical sources."""
    h = hashlib.sha256()
    for top in ("dune-project", "lib", "perfbench"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            if p.endswith((".ml", ".mli", "dune", "dune-project")):
                h.update(p.encode() + b"\0")
                with open(p, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def confined_env():
    """Keep the compiler's and dune's scratch files inside the checkout."""
    tmp = os.path.join(ROOT, STATE, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp, DUNE_CACHE="disabled",
                XDG_CACHE_HOME=os.path.join(ROOT, STATE, "xdg-cache"))


def build(env):
    subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled", "--display=quiet",
         "./perfbench/main.exe"],
        stdout=sys.stderr, env=env, check=True, timeout=BUILD_TIMEOUT_S)


def main():
    os.chdir(ROOT)
    if not os.path.isfile("dune-project") or not os.path.isdir("lib"):
        sys.exit("perfbench: the repository sources (dune-project, lib/) are not here")
    env = confined_env()
    try:
        build(env)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        sys.exit(f"perfbench: build failed: {e}")
    # own process group, so stopping it also stops the batch children
    proc = subprocess.Popen(
        [EXE] + sys.argv[1:] + ["--source-id", source_id()],
        env=env, start_new_session=True)

    def stop(*_):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        sys.exit("perfbench: run stopped")

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        stop()
    sys.exit(code)


if __name__ == "__main__":
    main()
