#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments, from the root of the checkout:
#
#   bash e2ebench/run.sh --workload serve-cold --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build at the
# checkout root: the binary, Go's build cache and temporary files, and the
# traced run's spans. The build needs only the Go toolchain and the
# standard library; it never fetches anything.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config"
export GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly CGO_ENABLED=0 GOTELEMETRY=off
(cd "$here" && go build -buildvcs=false -trimpath -o "$out/e2ebench" .) >&2
cd "$root"
exec "$out/e2ebench" "$@"
