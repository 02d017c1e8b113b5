#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark binary from this
# directory's own module (which reaches the repository through its `replace
# terids => ../` line) and runs it from the repository root. Every byte the
# toolchain writes — build cache, link scratch, binaries — stays under
# .bench_build/ in the checkout; nothing lands in $HOME or /tmp.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/terids-benchmark" .)
# The repository's `go test ./...` and terids-lint do not descend into a
# nested module, so every new build of the benchmark is linted and unit-tested
# here, once, before it measures anything: a core.Step or internal API change
# that breaks pass B or the contract table stops the benchmark, loudly.
sum=$(sha256sum "$build/terids-benchmark")
if [ "$(cat "$build/checked" 2>/dev/null)" != "$sum" ]; then
	(cd "$here" && go run terids/cmd/terids-lint ./... && go test -count=1 ./...) >&2
	echo "$sum" >"$build/checked"
fi
cd "$root"
exec "$build/terids-benchmark" -build-dir "$build" "$@"
