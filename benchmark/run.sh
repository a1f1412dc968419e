#!/usr/bin/env bash
# Builds the benchmark from source and runs it; arguments go to the binary.
# The driver starts this from the root of a checkout. Everything the build
# writes (binary and Go build cache) stays in .bench_build inside that
# checkout. Run `bash benchmark/run.sh -h` for the flags.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$out/nwids-bench" .) >&2
cd "$root"
exec "$out/nwids-bench" "$@"
