#!/usr/bin/env python3
"""Self-test of the benchmark on its tiny `smoke` workload (gsum, both
flavors, 50 B&B nodes). Run from the repository root:

    python3 perfbench/test_smoke.py

Checks that every metric BENCHMARK.json names is printed with its unit
(end-to-end ones with --trace 0, per-layer ones with --trace 1), and
that a planted wrong reference value is counted as failed flows and
makes the command exit non-zero. Exits non-zero on the first failure.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(*extra):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", "smoke",
         "--seed", "7", "--seconds", "1", *extra],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    assert lines, f"no output (exit {proc.returncode})"
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    return proc.returncode, result


def check_metrics(result, declared):
    printed = result["metrics"]
    for m in declared:
        assert m["name"] in printed, f"metric {m['name']} not printed"
        got = printed[m["name"]]
        assert got["unit"] == m["unit"], f"{m['name']}: unit {got['unit']}, declared {m['unit']}"
        assert isinstance(got["value"], (int, float)), f"{m['name']}: value {got['value']!r}"
    extra = set(printed) - {m["name"] for m in declared}
    assert not extra, f"undeclared metrics printed: {sorted(extra)}"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)

    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        code, result = run("--trace", trace)
        assert code == 0 and result["correct"], f"--trace {trace}: {result}"
        assert result["attempted"] >= 2 and result["failed"] == 0, result
        check_metrics(result, bench[key])
        print(f"ok: --trace {trace} prints all {len(bench[key])} {key} metrics with units")

    code, result = run("--trace", "0", "--plant-wrong-reference")
    assert code != 0, "a planted wrong reference must fail the run"
    assert not result["correct"], result
    # both gsum flows of every batch compare against the planted value
    assert result["failed"] == result["attempted"] >= 2, result
    print(f"ok: planted wrong reference counted: failed {result['failed']} of "
          f"{result['attempted']}, exit code {code}")


if __name__ == "__main__":
    try:
        main()
    except AssertionError as e:
        sys.exit(f"FAILED: {e}")
