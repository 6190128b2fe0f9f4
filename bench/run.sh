#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the checkout root
# (build cache, module cache and temporary files included, so nothing is
# written outside the checkout) and runs it with the given arguments.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOWORK=off GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-modcacherw
(cd "$here" && go build -o "$build/p2pbench" .)
exec "$build/p2pbench" "$@"
