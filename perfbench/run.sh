#!/usr/bin/env bash
# Builds the serving benchmark from the checkout that holds this script and
# runs it with the given arguments, e.g.
#   bash perfbench/run.sh --workload chat-decode --seed 1 --seconds 30 --trace 0
# Every build and cache file goes under .bench_build at the checkout root.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
