#!/usr/bin/env bash
# Builds the end-to-end serving benchmark from source and runs it with the
# given arguments, from the repository root:
#
#   bash perfbench/run.sh --workload ea-anti-d4 --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and the run outputs stay inside the
# checkout (.bench_build and .bench_out), so nothing outside it is written.
set -euo pipefail
cd "$(dirname "$0")/.."
root="$(pwd)"
build="${root}/.bench_build"
mkdir -p "${build}"
export GOCACHE="${build}/gocache" GOPATH="${build}/gopath" \
	GOFLAGS=-mod=readonly GOENV=off GOPROXY=off GOWORK=off GOTOOLCHAIN=local CGO_ENABLED=0
(cd perfbench && go build -trimpath -o "${build}/perfbench" .)
exec "${build}/perfbench" "$@"
