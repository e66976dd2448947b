#!/usr/bin/env bash
# Builds perfbench from the sources of the checkout this script sits in and
# runs it from the checkout root with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload fleet-static --seed 3 --seconds 15 --trace 0
#
# The Go build cache, the binary and every scratch file stay under
# .bench_build in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
