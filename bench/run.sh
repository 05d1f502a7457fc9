#!/usr/bin/env bash
# Builds the benchmark driver from source into .bench_build/ at the
# root of the checkout and runs it from there. The go tool's build
# cache, module cache, temporary files and configuration are all pointed
# inside .bench_build/, so nothing is read or written outside the
# checkout, and no module is downloaded.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/bench" && go build -o "$out/bench" .)
cd "$root"
exec "$out/bench" "$@"
