#!/usr/bin/env sh
# Regenerate BENCH_baseline.json, the committed floor for the CI benchmark
# regression gate (cmd/benchgate). Run this — and commit the result — when a
# PR intentionally shifts engine latency OR the cost of the operator core, so
# the gate tracks the new floor instead of failing every subsequent build.
#
# The gate divides every engine metric by ProcessorBaseline from the same
# run, so the baseline does not need to be produced on CI-class hardware —
# any quiet machine works. That division is also why an operator speed-up
# needs a refresh: it shrinks the denominator, and the pipeline's fixed
# per-arrival overhead then reads as a normalized regression.
set -eu
cd "$(dirname "$0")/.."
go test -run xxx -bench 'ProcessorBaseline|EngineShards|SubmitBatch' \
	-benchtime 3x -count 3 -timeout 30m . | tee "${TMPDIR:-/tmp}/bench_baseline.txt"
go run ./cmd/benchjson < "${TMPDIR:-/tmp}/bench_baseline.txt" > BENCH_baseline.json
echo "wrote BENCH_baseline.json"
