#!/usr/bin/env bash
# Zero-reference scan: lists every `pub` fn (including `pub const fn`),
# struct, enum, trait, const, type or static defined under crates/*/src
# or src/ that nothing references, and exits non-zero if it lists
# anything. There is no allowlist.
#
# "The code" is every .rs line under crates, src, tests, examples and
# servebench/src, minus comment lines, `pub use` statements (so a
# re-export is not a caller) and, under crates/*/src and src/, every
# `#[cfg(test)]` item: the attribute line plus the item after it, up to
# its matching closing brace (or its `;` if it has no body).
#
# A `pub fn` counts as referenced only where its name sits in call or
# path position outside a definition: `f(` (so also `.f(`), `f::<`, or
# `::f` not followed by `::` (a `use` path or a `Type::f` fn pointer).
# Every `fn f` (a definition) is dropped first, so a method is not
# kept alive by another type's method of the same name being defined.
# Every other item kind counts once per occurrence of its name as a
# whole identifier. Names inside string literals and trailing comments
# count too.
#
# So an item that only its own unit tests call is listed too. Items
# under `#[cfg(test)]` are test code and are not scanned as
# definitions; a read-back that only tests use belongs there.
#
# Blind spots:
# - Same-named methods of different types: the scan knows names, not
#   types, so `A::len` stays referenced while anything calls `b.len()`.
#   Finding those takes a hand check of each name's callers.
# - A struct, enum or trait named only by its own code: its name recurs
#   in its own `impl` headers and in the `T { .. }` its `new` writes
#   out, so it counts as referenced although nothing else names it (a
#   cost model that only its own unit test built survived this way).
#   Grep a suspect type's name outside its own `impl` blocks.
# - Callers in integration tests (crates/*/tests, tests/) still count,
#   since those test the public surface, so an item that only an
#   integration test calls is not listed. Doctests do not count as
#   callers (they are comment lines).
# - A free fn passed by bare name (`map(f)`) after a braced import
#   (`use m::{f, g};`) is neither a call nor a path, so it is listed.
#
# With `--count` it lists nothing and instead prints the non-test lines
# (every line under crates/*/src and src/ outside `#[cfg(test)]` items,
# comments and blank lines included) per crate and in total.
#
# Usage: scripts/deadcode.sh [--count]   (from anywhere; runs in ~0.1 s)
set -euo pipefail

cd "$(dirname "$0")/.."

code_files() {
  find crates src tests examples servebench/src -name '*.rs' -type f | sort
}

# Shared awk prelude: drops `#[cfg(test)]` items under crates/*/src and
# src/. Braces inside string and char literals and `//` comments do not
# count towards the match.
skip_tests='
  function bare(s) {
    gsub(/"([^"\\]|\\.)*"/, "\"\"", s)
    gsub(/'"'"'([^'"'"'\\]|\\.)'"'"'/, "x", s)
    sub(/\/\/.*/, "", s)
    return s
  }
  FNR == 1 {
    in_use = 0; skip = 0
    unit = FILENAME ~ /^(crates\/[^\/]+\/)?src\//
  }
  skip {
    s = bare($0)
    opens = gsub(/\{/, "{", s)
    depth += opens - gsub(/\}/, "}", s)
    if (opens > 0) opened = 1
    if (opened ? depth <= 0 : s ~ /;/) skip = 0
    next
  }
  unit && /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { skip = 1; depth = 0; opened = 0; next }
'

if [ "${1:-}" = "--count" ]; then
  find crates/*/src src -name '*.rs' -type f | sort | xargs awk "$skip_tests"'
    { split(FILENAME, part, "/"); n[part[1] == "crates" ? "crates/" part[2] : part[1]]++ }
    END { for (c in n) { printf "%7d %s\n", n[c], c; total += n[c] } printf "%7d total\n", total }
  ' | sort -k2
  exit 0
fi

# The counted code, one line per source line.
code=$(code_files | xargs awk "$skip_tests"'
  in_use { if ($0 ~ /;/) in_use = 0; next }
  /^[[:space:]]*\/\// { next }
  /^[[:space:]]*pub use / { if ($0 !~ /;/) in_use = 1; next }
  { print }
')

# Identifier counts over the code, one "count name" line per identifier.
counts=$(printf '%s\n' "$code" | grep -oE '[A-Za-z_][A-Za-z0-9_]*' | sort | uniq -c)

# Names in call or path position, one "count name" line per name, with
# every `fn name` definition dropped first.
calls=$(printf '%s\n' "$code" | awk '
  {
    line = $0
    gsub(/(^|[^A-Za-z0-9_])fn[[:space:]]+[A-Za-z_][A-Za-z0-9_]*/, " fn ", line)
    s = line
    while (match(s, /[A-Za-z_][A-Za-z0-9_]*(\(|::<)/)) {
      name = substr(s, RSTART, RLENGTH)
      sub(/(\(|::<)$/, "", name)
      print name
      s = substr(s, RSTART + RLENGTH)
    }
    s = line
    while (match(s, /::[A-Za-z_][A-Za-z0-9_]*/)) {
      rest = substr(s, RSTART + RLENGTH)
      if (substr(rest, 1, 2) != "::") print substr(s, RSTART + 2, RLENGTH - 2)
      s = rest
    }
  }
' | sort | uniq -c)

# Public definitions outside test code, as "file:line kind name".
defs=$(find crates/*/src src -name '*.rs' -type f | sort | xargs awk "$skip_tests"'
  /^[[:space:]]*\/\// { next }
  match($0, /^[[:space:]]*pub (const fn|fn|struct|enum|trait|const|type|static) [A-Za-z_][A-Za-z0-9_]*/) {
    n = split(substr($0, RSTART, RLENGTH), w, " ")
    print FILENAME ":" FNR " " w[n - 1] " " w[n]
  }
')

unused=$(awk '
  FILENAME == ARGV[1] { count[$2] = $1; next }
  FILENAME == ARGV[2] { called[$2] = $1; next }
  $2 == "fn" ? !called[$3] : count[$3] == 1 { print $1 ": " $3 }
' <(printf '%s\n' "$counts") <(printf '%s\n' "$calls") <(printf '%s\n' "$defs"))

if [ -n "$unused" ]; then
  printf '%s\n' "$unused"
  echo "deadcode: the items above are defined but never referenced" >&2
  exit 1
fi
