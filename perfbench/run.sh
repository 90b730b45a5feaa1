#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs one
# workload. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload stencil-mem --seed 1 --seconds 25 --trace 0
#
# Build products, the Go build cache, the go command's own state (HOME)
# and trace files stay under .bench_build/ in the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
(
	export HOME="$out/home" XDG_CONFIG_HOME="$out/home" GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" \
		GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
	cd "$root/perfbench" && go build -o "$out/perfbench" .
) >&2
cd "$root"
exec "$out/perfbench" "$@"
