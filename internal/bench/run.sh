#!/usr/bin/env bash
# Builds fpdm-bench from the checkout this script sits in and runs it with
# the given flags. Everything it writes -- the Go build cache, the binary,
# the WAL scratch files -- stays under .bench_build/ at the checkout root,
# and the user's Go environment file is not consulted.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
(cd "$here" && go build -o "$out/fpdm-bench" ./cmd/fpdm-bench)
cd "$root"
exec "$out/fpdm-bench" -tmp "$out/tmp" "$@"
