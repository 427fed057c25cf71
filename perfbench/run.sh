#!/usr/bin/env bash
# Builds the benchmark from source in this checkout, then runs it with the
# given arguments (see perfbench/README.md).  Build output goes to stderr,
# so the last line on stdout is the benchmark's JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)"
DUNE_CACHE=disabled dune build --root . ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
