#!/usr/bin/env bash
# Builds the benchmark driver from this checkout's sources and runs it with
# the given arguments (bench/README.md lists them). The Go build cache, the
# built binaries and every scratch file stay under .bench_build/ at the
# repository root, so a run reads and writes nothing outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
go build -C bench -o "$out/smtbench" .
exec "$out/smtbench" "$@"
