#!/usr/bin/env bash
# The benchmark's single command: builds the benchmark program from the
# sources of this checkout, then measures one workload in a process of
# its own.
#
#   bash perfbench/run.sh --workload grid-mechanism --seed 1 --seconds 50 --trace 0
#
# Workloads, metrics and the output format are described in
# perfbench/README.md.  The last line of standard output is the JSON
# result; everything else is the human-readable report.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)"
dune build --root . perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
