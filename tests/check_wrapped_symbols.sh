#!/bin/sh
# Checks that every entry point the benchmark's traced binary wraps (each
# quoted mangled name in perfbench/wraps.cc, matched as perfbench's own CMake
# project matches it) is still defined out of line in the simulator's static
# libraries, as a text (T) or weak (W) symbol; template instantiations are W.
# A refactor that renames, inlines or deletes a wrapped entry point then fails
# here instead of breaking the benchmark's link.
#
# Usage: check_wrapped_symbols.sh <perfbench/wraps.cc> <libhypertp_*.a>...
set -eu
wraps=$1
shift
{
  grep -o '"_Z[A-Za-z0-9_]*"' "$wraps" | tr -d '"' | sort -u
  echo "--"
  nm --defined-only "$@"
} | awk '
  !listed && $0 == "--" { listed = 1; next }
  !listed { want[++n] = $0; next }
  $2 == "T" || $2 == "W" { have[$3] = 1 }
  END {
    missing = 0
    for (i = 1; i <= n; i++) {
      if (!(want[i] in have)) {
        print "not defined out of line: " want[i]
        missing++
      }
    }
    printf "%d wrapped entry points, %d missing\n", n, missing
    exit (n == 0 || missing > 0)
  }'
