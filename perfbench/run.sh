#!/usr/bin/env bash
# Builds the standing-query benchmark from the sources of the checkout it
# sits in and runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload stream --seed 1 --seconds 25 --trace 0
#
# Every build artefact (Go build cache, temporary files, the binary) and
# every trace or recording the run writes stays under the build directory
# of the checkout: $CARGO_TARGET_DIR when set, .bench_build otherwise.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
# The toolchain's own state (build cache, module cache, temporary files,
# telemetry counters under the user config directory) goes there too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" TMPDIR="$out/gotmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" -root "$root" "$@"
