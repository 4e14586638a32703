#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload fabric --seed 1 --seconds 15 --trace 0
#
# Run it from the root of the repository. Everything it writes (the Go
# build cache, the binary, spill files, span dumps) stays under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

# The go command keeps its telemetry counters under the user config
# directory; XDG_CONFIG_HOME moves that into .bench_build/ too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)

# Spill partition files go to os.TempDir, which honours TMPDIR.
export TMPDIR="$out/tmp"
exec "$out/perfbench" "$@"
