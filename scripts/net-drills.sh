#!/bin/sh
# The net drills: the fleet rollout's transient-path oracle under one and
# four drain domains, and a journaled rollout whose journal tree must be
# byte-identical under --domains 1 and 4.  Run through the alias, which
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

echo "net-drills: OK"
