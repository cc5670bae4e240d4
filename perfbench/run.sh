#!/usr/bin/env bash
# Builds the benchmark and ltspd from this checkout, then runs one
# workload. From the root of the repository:
#
#   bash perfbench/run.sh --workload compile-suite --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build at the
# root of the checkout: binaries, the Go build cache and ltspd's data.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/home"

build() {
	(cd "$root/perfbench" &&
		HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
		GOCACHE="$out/gocache" GOPATH="$out/gopath" \
		GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off \
		go build -o "$out/$1" "$2")
}
build perfbench . >&2
build ltspd ltsp/cmd/ltspd >&2

exec "$out/perfbench" --ltspd "$out/ltspd" --workdir "$out/work" "$@"
