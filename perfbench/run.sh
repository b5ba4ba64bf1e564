#!/usr/bin/env bash
# Builds the keying benchmark from the sources of the checkout it is run
# from, then runs it with the given arguments. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload tcp-small-groups --seed 1 --seconds 10 --trace 0
#
# Everything the build and the runs leave behind (the Go build cache, the
# binary, reports, traces and meter records) goes under .bench_build/ in
# the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out/results" "$@"
