#!/usr/bin/env bash
# Builds the semacycd end-to-end benchmark from source and runs it with
# the given arguments (see perfbench/README.md). Run from the repository
# root:
#
#   bash perfbench/run.sh --workload decide-cold --seed 1 --seconds 10 --trace 0
#
# Every build and run artifact stays under the build directory inside
# the working directory ($CARGO_TARGET_DIR when set, else .bench_build).
set -euo pipefail

root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/gocache" "$build/gopath" "$build/config" "$build/tmp"

# Keep the go command's caches, its telemetry counters (under the user
# config directory) and its temporary files inside the build directory.
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false
export GOPROXY=off

go -C "$root/perfbench" build -o "$build/perfbench" .

commit=unknown
if command -v git >/dev/null 2>&1; then
	commit=$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
fi
exec "$build/perfbench" --commit "$commit" --out-dir "$build/perfbench-out" "$@"
