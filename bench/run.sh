#!/usr/bin/env bash
# Builds the harness from source into .bench_build/ at the root of the
# checkout and runs it from there. The Go build cache and GOPATH live in the
# same directory, so a run reads and writes nothing outside the checkout and
# needs neither $HOME nor the network.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C "$here" build -o "$build/tablebench" .
cd "$root"
exec "$build/tablebench" "$@"
