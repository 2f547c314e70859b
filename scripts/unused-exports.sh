#!/bin/sh
# Unused-export gate: fails on any `val` in lib/**/*.mli whose name, as
# a whole word, appears in no tracked .ml file other than its own
# module's implementation.  Such a value is either dead (delete it) or
# internal (drop it from the .mli).
#
#   scripts/unused-exports.sh    # exit 0 when every export has a user
set -eu

cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# "word file" for every identifier-shaped word of every tracked .ml.
git ls-files '*.ml' | while read -r f; do
  grep -oE "[A-Za-z_][A-Za-z0-9_']*" "$f" | sort -u | sed "s|\$| $f|"
done >"$tmp/words"

# "own.ml name" for every val of every library interface.
git ls-files 'lib/*.mli' | while read -r m; do
  sed -nE "s/^[[:space:]]*val[[:space:]]+([a-z_][A-Za-z0-9_']*).*/\1/p" "$m" |
    sed "s|^|${m%.mli}.ml |"
done >"$tmp/vals"

awk '
  NR == FNR { users[$1] = users[$1] " " $2; next }
  {
    n = split(users[$2], fs, " ")
    used = 0
    for (i = 1; i <= n; i++) if (fs[i] != $1) used = 1
    if (!used) { sub(/\.ml$/, ".mli", $1); print $1 ": val " $2; bad++ }
  }
  END {
    if (bad) {
      print bad " export(s) named by no other module: delete them, or drop them from the .mli"
      exit 1
    }
  }
' "$tmp/words" "$tmp/vals"

echo "unused-exports: OK"
