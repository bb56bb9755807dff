#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs one
# workload. Run it from the root of the checkout:
#
#   bash perfbench/run.sh --workload tpch-sd --seed 1 --seconds 30 --trace 0
#
# The Go build cache, the binary and the span files of traced runs stay
# in .bench_build/ under the checkout root; the module has no external
# dependencies, so nothing is downloaded.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/serve" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a pref checkout (go.mod, internal/serve and perfbench/ are required)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export GOFLAGS=
export CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
