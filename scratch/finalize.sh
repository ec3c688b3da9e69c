#!/bin/sh
cd /root/repo
dune exec bin/regulate.exe -- bench > bench_output.txt 2>&1
echo BENCH_DONE
dune exec bin/regulate.exe -- bench sweep >> bench_output.txt 2>&1
echo SWEEP_DONE
dune runtest --force --no-buffer > test_output.txt 2>&1
echo TESTS_DONE
