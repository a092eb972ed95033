#!/usr/bin/env bash
# Builds the wavebench harness from source and runs it with the given
# arguments, e.g.
#
#   bash wavebench/run.sh --workload eco-mix --seed 3 --seconds 12 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, temp files, the binary, span files, durable-tier data
# directories) stays under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/wavebench"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOENV=off
export GOFLAGS=
export GOWORK=off

(cd "$root/wavebench" && go build -o "$out/wavebench" .) >&2
exec "$out/wavebench" "$@"
