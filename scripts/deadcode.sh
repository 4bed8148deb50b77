#!/usr/bin/env bash
# Zero-reference scan: lists every `pub` fn (including `pub const fn`),
# struct, enum, trait, const, type or static defined under crates/*/src
# or src/ whose name occurs exactly once in the code — its definition —
# and exits non-zero if it lists anything. There is no allowlist.
#
# "The code" is every .rs line under crates, src, tests, examples and
# servebench/src, minus comment lines and `pub use` statements (so a
# re-export is not a caller). A name counts once per occurrence as a
# whole identifier, including inside string literals and trailing
# comments.
#
# Blind spot: an item called only by its own unit tests has two or more
# occurrences and is not listed. Finding those takes a hand check of
# each item's callers.
#
# Usage: scripts/deadcode.sh   (from anywhere; runs in ~0.1 s)
set -euo pipefail

cd "$(dirname "$0")/.."

code_files() {
  find crates src tests examples servebench/src -name '*.rs' -type f | sort
}

# Identifier counts over the code, one "count name" line per identifier.
counts=$(code_files | xargs awk '
  FNR == 1 { in_use = 0 }
  in_use { if ($0 ~ /;/) in_use = 0; next }
  /^[[:space:]]*\/\// { next }
  /^[[:space:]]*pub use / { if ($0 !~ /;/) in_use = 1; next }
  { print }
' | grep -oE '[A-Za-z_][A-Za-z0-9_]*' | sort | uniq -c)

# Public definitions as "file:line name".
defs=$(find crates/*/src src -name '*.rs' -type f | sort | xargs awk '
  /^[[:space:]]*\/\// { next }
  match($0, /^[[:space:]]*pub (const fn|fn|struct|enum|trait|const|type|static) [A-Za-z_][A-Za-z0-9_]*/) {
    n = split(substr($0, RSTART, RLENGTH), w, " ")
    print FILENAME ":" FNR " " w[n]
  }
')

unused=$(awk '
  NR == FNR { count[$2] = $1; next }
  count[$2] == 1 { print $1 ": " $2 }
' <(printf '%s\n' "$counts") <(printf '%s\n' "$defs"))

if [ -n "$unused" ]; then
  printf '%s\n' "$unused"
  echo "deadcode: the items above are defined but never referenced" >&2
  exit 1
fi
