#!/bin/sh
# The plane drills: an update storm over all five schedulers while
# reader domains measure snapshot lookups (p99 sanity gate, snapshot
# oracle on), with one flush executor and with four racing the readers;
# then a run whose software backend must agree with the TCAM emulation
# on every packet.  Run through the alias, which builds the CLI first:
#
#   dune build @plane
#
# or directly as `scripts/plane-drills.sh PATH/TO/fastrule_cli.exe`.
set -eu

CLI=${1:?usage: plane-drills.sh FASTRULE_CLI}
case $CLI in */*) ;; *) CLI=./$CLI ;; esac

fail() { echo "plane-drills: $*" >&2; exit 1; }

storm() {
  "$CLI" plane -k acl4 -n 300 --seed 13 --ops 1200 --flows 10000 \
    --min-lookups 1000 --sweep --events 100 --max-p99-ms 500 "$@" >/dev/null
}
echo "== lookup-under-update storm (FASTRULE_DOMAINS=1) =="
FASTRULE_DOMAINS=1 storm || fail "storm failed under FASTRULE_DOMAINS=1"
echo "== lookup-under-update storm (FASTRULE_DOMAINS=4, 2 readers) =="
FASTRULE_DOMAINS=4 storm --readers 2 \
  || fail "storm failed under FASTRULE_DOMAINS=4"

echo "== TCAM-vs-software lookup agreement (every packet) =="
out=$("$CLI" plane -k fw5 -n 250 --seed 17 --ops 900 --flows 8000 \
  --min-lookups 800 --rebuild-every 64 --no-oracle) \
  || fail "agreement run did not exit 0"
echo "$out" | grep -q 'disagree 0' \
  || fail "software backend disagreed with the TCAM emulation"
echo "$out" | grep -q 'all conformant' || fail "storm leg not conformant"

echo "plane-drills: OK"
