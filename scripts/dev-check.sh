#!/bin/sh
# Pre-commit gate: build everything, run the full test suite, and check
# formatting when ocamlformat is available (the reference container does
# not ship it, so the fmt step degrades to a notice rather than a
# failure).
set -eu

cd "$(dirname "$0")/.."

echo "== dune build @all =="
dune build @all

echo "== dune runtest =="
dune runtest

echo "== dune build @conform (differential smoke run) =="
dune build @conform

echo "== dune build @conform-faults (crash, failover, degraded oracle drills) =="
dune build @conform-faults

echo "== dune build @ctrl-drills (crash, failover, chaos, dead-row, parallel-flush drills) =="
dune build @ctrl-drills

echo "== dune build @cache (cache-tier oracle smoke run, --domains 4 oracle leg) =="
dune build @cache

echo "== dune build @net (fleet transient-path oracle smoke run) =="
dune build @net

echo "== dune build @net-drills (oracle at 1 and 4 domains, journal diff, chaos fingerprint, abort drill, usage errors) =="
dune build @net-drills

echo "== dune build @plane (lookup-under-update smoke run, storm and TCAM-vs-software drills) =="
dune build @plane

echo "== dune build @scale (overlap-index candidates within 10x overlaps at 64k rules) =="
dune build @scale

echo "== dune build @paper (bench --quick table2 and fig8 stdout = committed files) =="
dune build @paper

echo "== perfbench smoke (serve; its backend check fails any wrong lookup) =="
python3 perfbench/run.py --workload serve --seed 1 --seconds 3 --trace 0 >/dev/null

if command -v ocamlformat >/dev/null 2>&1; then
  echo "== dune build @fmt =="
  dune build @fmt
else
  echo "== fmt skipped (ocamlformat not installed) =="
fi

echo "dev-check: OK"
