#!/usr/bin/env bash
# Build tmld and the benchmark from this checkout's sources, then run it:
#   bash bench/spine/run.sh --workload read-point --seed 1 --seconds 15 --trace 0
# Everything it writes stays inside the checkout: dune's shared cache is
# off and temporary files go under .bench_build/.
set -euo pipefail
cd "$(dirname "$0")/../.."
command -v dune >/dev/null || eval "$(opam env 2>/dev/null)"
export DUNE_CACHE=disabled
mkdir -p .bench_build/tmp
export TMPDIR="$PWD/.bench_build/tmp"
dune build --root . bin/tmld.exe bench/spine/spine.exe 1>&2
exec ./_build/default/bench/spine/spine.exe "$@"
