#!/bin/sh
# The net drills: the fleet rollout's transient-path oracle under one and
# four drain domains; a journaled rollout whose journal tree must be
# byte-identical under --domains 1 and 4; the seeded chaos certification,
# whose fingerprint must not depend on the domain count; the abort drill,
# whose post-rollback checkpoints must equal the pre-rollout ones; the
# oracle under a wedging fault (exit 1); the usage errors (exit 2),
# among them stuck faults on a shard or row the switch does not have;
# and every command's --help rendering.  Run through the alias, which
# builds the CLI first:
#
#   dune build @net-drills
#
# or directly as `scripts/net-drills.sh PATH/TO/fastrule_cli.exe`.
set -eu

CLI=${1:?usage: net-drills.sh FASTRULE_CLI}
case $CLI in */*) ;; *) CLI=./$CLI ;; esac
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

fail() { echo "net-drills: $*" >&2; exit 1; }

# Every scheduler, every round boundary and mid-flush probe point: no
# packet may see a mixed path or bypass a waypoint (exit 1 otherwise).
oracle() {
  "$CLI" net --oracle --shape ring --nodes 6 --flows 7 --seed 13 --batch 3 \
    "$@" >/dev/null
}
echo "== transient-path oracle (FASTRULE_DOMAINS=1) =="
FASTRULE_DOMAINS=1 oracle || fail "oracle diverged under FASTRULE_DOMAINS=1"
echo "== transient-path oracle (FASTRULE_DOMAINS=4) =="
FASTRULE_DOMAINS=4 oracle || fail "oracle diverged under FASTRULE_DOMAINS=4"
echo "== transient-path oracle (--domains 4) =="
oracle --domains 4 || fail "oracle diverged under --domains 4"

echo "== fleet journal equivalence (same rollout, 1 vs 4 domains, same bytes) =="
for d in 1 4; do
  "$CLI" net --shape tree --nodes 7 --seed 11 --batch 2 \
    --journal "$TMP/fleet-$d" --domains "$d" >/dev/null \
    || fail "journaled rollout failed under --domains $d"
done
diff -r "$TMP/fleet-1" "$TMP/fleet-4" \
  || fail "fleet rollout: journals diverged between --domains 1 and 4"

# 100 seeded random rollouts under random switch faults, every
# scheduler per case: the wall-clock-free fingerprint of all verdicts
# must be the same whatever the domain count.
echo "== chaos certification (100 cases, FASTRULE_DOMAINS 1 = 4 fingerprint) =="
for d in 1 4; do
  FASTRULE_DOMAINS=$d "$CLI" net --chaos --cases 100 --seed 2026 \
    --json "$TMP/chaos-$d.json" >/dev/null \
    || fail "chaos certification diverged under FASTRULE_DOMAINS=$d"
done
f1=$(sed 's/.*"fingerprint":"\([^"]*\)".*/\1/' "$TMP/chaos-1.json")
f4=$(sed 's/.*"fingerprint":"\([^"]*\)".*/\1/' "$TMP/chaos-4.json")
echo "fingerprint: domains 1 $f1, domains 4 $f4"
[ -n "$f1" ] && [ "$f1" = "$f4" ] \
  || fail "chaos fingerprints diverged between domains 1 and 4"

# --abort-at 0 rolls back an empty prefix, so its checkpoints are the
# untouched pre-rollout policy; the rollback from round 2 must land on
# the same bytes.
echo "== abort drill (rollback checkpoint = pre-rollout checkpoint) =="
for k in 0 2; do
  "$CLI" net --shape ring --nodes 5 --seed 7 --batch 2 \
    --journal "$TMP/abort-$k" --abort-at "$k" >/dev/null \
    || fail "abort drill: --abort-at $k did not exit 0"
done
"$CLI" journal stat --journal "$TMP/abort-2" | grep -q 'rolled-back' \
  || fail "abort drill: journal does not record the rollback"
cat "$TMP"/abort-0/node-*/shard-*-ckpt-*.rules | sort > "$TMP/pre.rules"
cat "$TMP"/abort-2/node-*/shard-*-ckpt-*.rules | sort > "$TMP/post.rules"
cmp "$TMP/pre.rules" "$TMP/post.rules" \
  || fail "abort drill: post-rollback checkpoint differs from pre-rollout"

expect_exit() {
  want=$1
  shift
  status=0
  "$CLI" net "$@" >/dev/null 2>&1 || status=$?
  [ "$status" -eq "$want" ] || fail "net $*: expected exit $want, got $status"
}

# The oracle honours the run's faults and supervision: a node that never
# stops acking late wedges the rollout under --hold wait, with and
# without --oracle.
echo "== wedged rollout exits 1 (with and without --oracle) =="
for mode in "" --oracle; do
  expect_exit 1 $mode --shape ring --nodes 5 --seed 7 --batch 2 \
    --node-fault 1:slow@0=500x1000000 --hold wait
done

# A policy the switches cannot hold is a usage error, in every mode; so
# is a stuck fault that can never engage (shard 9 of 2, row 999999 of 64),
# and so is a flag value the parser rejects (an unknown shape).
echo "== usage errors exit 2 =="
expect_exit 2 --shape blob
expect_exit 2 --flows 40 --nodes 3 --capacity 4
expect_exit 2 --flows 40 --nodes 3 --capacity 4 --oracle
expect_exit 2 --chaos --cases 3 --capacity 2
for mode in "" --oracle; do
  expect_exit 2 $mode --nodes 3 --flows 3 --node-fault 0:stuck@1=9:1+2
  expect_exit 2 $mode --nodes 3 --flows 3 --node-fault 0:stuck@0=0:1+999999
done

# Every command's help must render without a cmdliner markup error (an
# unknown escape is reported on stderr and drops the character), and the
# fault syntax in net's help must come out whole.
echo "== --help=plain renders cleanly =="
for sub in "" stats generate run ctrl "journal stat" conform cache plane net; do
  # shellcheck disable=SC2086
  "$CLI" $sub --help=plain >"$TMP/help.out" 2>"$TMP/help.err" \
    || fail "${sub:-top-level} --help=plain did not exit 0"
  [ ! -s "$TMP/help.err" ] \
    || fail "${sub:-top-level} --help=plain wrote to stderr: $(head -c 200 "$TMP/help.err")"
done
"$CLI" net --help=plain | grep -qF 'NODE:crash@ROUND' \
  || fail "net --help=plain does not show NODE:crash@ROUND"

echo "net-drills: OK"
