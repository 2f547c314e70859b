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

echo "== dune build @cache (cache-tier oracle smoke run) =="
dune build @cache

echo "== dune build @net (fleet transient-path oracle smoke run) =="
dune build @net

echo "== dune build @net-drills (transient-path oracle at 1 and 4 domains, fleet journal diff) =="
dune build @net-drills

echo "== dune build @plane (lookup-under-update smoke run) =="
dune build @plane

CLI=_build/default/bin/fastrule_cli.exe
dune build bin/fastrule_cli.exe

echo "== cache oracle under parallel drains (five schedulers, domains=4) =="
out=$("$CLI" cache --oracle -k fw5 -n 250 --flows 15000 --skew 1.1 \
  -a 1200 --slots 40 -s 2 -b 32 --domains 4)
echo "$out" | grep -q 'all conformant' || { echo "cache oracle: divergence under domains=4"; exit 1; }

echo "== net chaos certification (random switch faults, domains 1 = 4 fingerprint) =="
C1=$(mktemp); C4=$(mktemp)
"$CLI" net --chaos --cases 25 --seed 2026 --json "$C1" >/dev/null
FASTRULE_DOMAINS=4 "$CLI" net --chaos --cases 25 --seed 2026 --json "$C4" >/dev/null
f1=$(sed 's/.*"fingerprint":"\([^"]*\)".*/\1/' "$C1")
f4=$(sed 's/.*"fingerprint":"\([^"]*\)".*/\1/' "$C4")
[ -n "$f1" ] && [ "$f1" = "$f4" ] || { echo "net chaos: fingerprints diverged between domains 1 and 4"; exit 1; }
rm -f "$C1" "$C4"

echo "== abort drill (rollback checkpoint = pre-rollout checkpoint, same bytes) =="
A0=$(mktemp -d)/fleet
A1=$(mktemp -d)/fleet
"$CLI" net --shape ring --nodes 5 --seed 7 --batch 2 \
  --journal "$A0" --abort-at 0 >/dev/null
"$CLI" net --shape ring --nodes 5 --seed 7 --batch 2 \
  --journal "$A1" --abort-at 2 >/dev/null
"$CLI" journal stat --journal "$A1" | grep -q 'rolled-back' \
  || { echo "abort drill: journal does not record the rollback"; exit 1; }
cat "$A0"/node-*/shard-*-ckpt-*.rules | sort > "$A0.pre"
cat "$A1"/node-*/shard-*-ckpt-*.rules | sort > "$A1.post"
cmp "$A0.pre" "$A1.post" || { echo "abort drill: post-rollback checkpoint differs from pre-rollout"; exit 1; }
rm -rf "$(dirname "$A0")" "$(dirname "$A1")" "$A0.pre" "$A1.post"

echo "== lookup-under-update storm (p99 gate + snapshot oracle, domains 1 and 4) =="
FASTRULE_DOMAINS=1 "$CLI" plane -k acl4 -n 300 --seed 13 --ops 1200 \
  --flows 10000 --min-lookups 1000 --sweep --events 100 \
  --max-p99-ms 500 >/dev/null
FASTRULE_DOMAINS=4 "$CLI" plane -k acl4 -n 300 --seed 13 --ops 1200 \
  --flows 10000 --min-lookups 1000 --readers 2 --sweep --events 100 \
  --max-p99-ms 500 >/dev/null

echo "== tcam-vs-software lookup agreement (every packet cross-validated) =="
out=$("$CLI" plane -k fw5 -n 250 --seed 17 --ops 900 --flows 8000 \
  --min-lookups 800 --rebuild-every 64 --no-oracle)
echo "$out" | grep -q 'disagree 0' || { echo "plane: software backend disagreed with the TCAM emulation"; exit 1; }
echo "$out" | grep -q 'all conformant' || { echo "plane: storm leg not conformant"; exit 1; }

echo "== perfbench smoke (serve; its backend check fails any wrong lookup) =="
python3 perfbench/run.py --workload serve --seed 1 --seconds 3 --trace 0 >/dev/null

if command -v ocamlformat >/dev/null 2>&1; then
  echo "== dune build @fmt =="
  dune build @fmt
else
  echo "== fmt skipped (ocamlformat not installed) =="
fi

echo "dev-check: OK"
