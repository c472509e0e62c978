#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every build artefact stays under .bench_build/:
#
#   bash perfbench/run.sh --workload train --seed 1 --seconds 20 --trace 0
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
