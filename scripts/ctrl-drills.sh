#!/bin/sh
# The ctrl drills: end-to-end runs of the sharded control plane's drain
# path under crashes, slow shards, chaos plans and dead TCAM rows, each
# with the exit code and summary lines it must produce.  Run through the
# alias, which builds the CLI first:
#
#   dune build @ctrl-drills
#
# or directly as `scripts/ctrl-drills.sh PATH/TO/fastrule_cli.exe`.
set -eu

CLI=${1:?usage: ctrl-drills.sh FASTRULE_CLI}
case $CLI in */*) ;; *) CLI=./$CLI ;; esac
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

fail() { echo "ctrl-drills: $*" >&2; exit 1; }

echo "== crash mid-drain, then recover from the journal alone =="
status=0
"$CLI" ctrl -k acl4 -s 4 -n 400 -u 2000 -b 32 \
  --journal "$TMP/crash" --crash-after 5 --crash-mid-drain \
  >/dev/null || status=$?
[ "$status" -eq 42 ] || fail "crash drill: expected exit 42, got $status"
[ -s "$TMP/crash/meta" ] || fail "crash drill: no journal meta written"
"$CLI" ctrl --journal "$TMP/crash" --recover >/dev/null \
  || fail "crash drill: recovery did not exit 0"

# One persistently slow shard degrades latency, never correctness:
# nothing shed, nothing failed, and some ids must actually divert.
failover() {
  what="failover drill${*:+ ($*)}"
  out=$("$CLI" ctrl -k acl4 -s 4 -n 400 -c 2000 -u 2000 -b 32 \
    --failover --slow-call 2 --fault 0:slow=8 "$@")
  echo "$out" | grep -q 'shed 0' || fail "$what: submits were shed"
  echo "$out" | grep -q 'failed 0  flushes' || fail "$what: ops failed"
  echo "$out" | grep -Eq 'diverted [1-9]' \
    || fail "$what: nothing diverted, the fault never engaged"
}
echo "== failover under a persistent slow fault (default domains) =="
failover
echo "== failover under a persistent slow fault (4 domains) =="
(export FASTRULE_DOMAINS=4; failover --domains 4)

echo "== chaos churn, crash mid-drain, journal stat, recover =="
status=0
"$CLI" ctrl -k acl4 -s 4 -n 400 -u 2000 -b 32 --failover --slow-call 2 \
  --journal "$TMP/chaos" --chaos 6 --crash-after 8 --crash-mid-drain \
  >/dev/null || status=$?
[ "$status" -eq 42 ] || fail "chaos crash drill: expected exit 42, got $status"
"$CLI" journal stat --journal "$TMP/chaos" >/dev/null \
  || fail "chaos crash drill: journal stat failed"
"$CLI" ctrl --journal "$TMP/chaos" --recover >/dev/null \
  || fail "chaos crash drill: recovery did not exit 0"

echo "== a meta whose shard count disagrees with the WALs is refused promptly =="
cp -r "$TMP/chaos" "$TMP/badmeta"
sed 's/^shards .*/shards 100000000/' "$TMP/chaos/meta" > "$TMP/badmeta/meta"
status=0
timeout 20 "$CLI" journal stat --journal "$TMP/badmeta" >"$TMP/badmeta.out" \
  || status=$?
[ "$status" -eq 1 ] || fail "bad meta: journal stat expected exit 1, got $status"
grep -q 'disagrees with the 4 shard WAL' "$TMP/badmeta.out" \
  || fail "bad meta: journal stat did not name the mismatch"
status=0
timeout 20 "$CLI" ctrl --journal "$TMP/badmeta" --recover >/dev/null 2>&1 \
  || status=$?
[ "$status" -eq 2 ] || fail "bad meta: recovery expected exit 2, got $status"

echo "== ctrl usage errors exit 2 (exit 1 means the run had failures) =="
for args in "-s 0" "-c 0" "-b 0" "--domains 0" "--dead-frac 1" \
  "--fault 0:slow=inf" "-k nope"; do
  status=0
  # shellcheck disable=SC2086
  "$CLI" ctrl $args >/dev/null 2>&1 || status=$?
  [ "$status" -eq 2 ] || fail "ctrl $args: expected exit 2, got $status"
done

echo "== a preload that does not fit the TCAM is a usage error (exit 2) =="
for args in "ctrl -k fw5 -s 1 -n 1000 -c 100 -u 10" \
  "conform -n 200 --capacity 50" "plane -n 2000 --capacity 100"; do
  status=0
  # shellcheck disable=SC2086
  "$CLI" $args >/dev/null 2>"$TMP/preload.err" || status=$?
  [ "$status" -eq 2 ] || fail "$args: expected exit 2, got $status"
  grep -q 'rules do not load into' "$TMP/preload.err" \
    || fail "$args: the message does not name the rules and the TCAM"
done

echo "== degraded TCAM (10% dead rows: discovered, nothing shed) =="
out=$("$CLI" ctrl -k acl4 -s 3 -n 300 -c 200 -u 1200 -b 32 \
  --failover --dead-frac 0.10 --seed 7)
echo "$out" | grep -q 'degraded:' || fail "degraded drill: no summary line"
echo "$out" | grep -Eq 'dead discovered, degraded-diverted [0-9]+, shed 0' \
  || fail "degraded drill: submits were shed"
echo "$out" | grep -Eq '[1-9][0-9]* dead discovered' \
  || fail "degraded drill: stuck bank never discovered"

echo "== parallel flush equivalence (1 vs 4 domains, same journal bytes) =="
for d in 1 4; do
  "$CLI" ctrl -k fw5 -s 4 -n 300 -u 1500 -b 32 --failover --slow-call 2 \
    --chaos 4 --allow-failures --journal "$TMP/par-$d" --domains "$d" \
    >/dev/null
done
diff -r "$TMP/par-1" "$TMP/par-4" \
  || fail "parallel flush: journals diverged between --domains 1 and 4"

echo "ctrl-drills: OK"
