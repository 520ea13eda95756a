#!/usr/bin/env bash
# The benchmark's one command: build bench/ into .bench_build/ at the root
# of the checkout, then run it with the arguments given. The Go build and
# module caches live in .bench_build/ too, so nothing outside the checkout
# is read or written; the program needs no module beyond the repository's.
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off GOPROXY=off
(cd "$bench" && go build -o "$build/mbird-bench" .)
cd "$root"
exec "$build/mbird-bench" "$@"
