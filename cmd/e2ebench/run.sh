#!/usr/bin/env bash
# Builds e2ebench from the sources of the checkout it is run from and runs
# it with the given arguments. Run it from the repository root:
#
#   bash cmd/e2ebench/run.sh --workload encode-64m --seed 1 --seconds 15 --trace 0
#
# The binary, the Go build cache and the go command's user configuration
# (including its telemetry counters) go to .bench_build/ under the current
# directory; nothing is downloaded. Without the repository's sources next
# to this directory the build fails and the script exits non-zero.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$here" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
