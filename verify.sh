#!/bin/sh
# Tier-1 verification gate: everything must be gofmt-clean, build, vet
# clean, and pass the full test suite under the race detector, plus a
# double-run chaos pass over the fault-injection and noisy-oracle suites.
# CI and pre-merge checks run this exact script; keep it dependency-free
# (sh + the go toolchain).
set -eux

test -z "$(gofmt -l .)"
go build ./...
go vet ./...
go test -race ./...
go test -race -run 'Fault|Noisy|Chaos|Recover|Journal|Proxy|Client|Repl|Failover|Scrub|Repair' -count=2 ./...

# Fuzz smoke: the WAL frame parser must survive a short fuzzing burst (the
# seed corpus plus a few seconds of mutation) — it guards both the on-disk
# journal and the replication wire.
go test -fuzz '^FuzzReadFrame$' -fuzztime=5s -run '^FuzzReadFrame$' ./internal/wal/

# Benchmark smoke + regression gate: the hot-path harness must run end to
# end, emit well-formed JSON (checked with grep to stay dependency-free),
# and not regress against the committed baseline — speedups the baseline
# reports as real wins (>=1.1x) must not flip into slowdowns, and
# fixed-workload allocation counts must stay within 25% + 2 allocs of the
# baseline. The gate skips itself when the baseline was recorded on
# different hardware. The trace_disabled_span row doubles as the
# tracing-overhead gate — the harness itself fails if the disabled path
# costs any allocations.
go run ./cmd/isrl-bench -hotpaths -quick -out /tmp/isrl_hotpaths_smoke.json -compare BENCH_hotpaths.json
grep -q '"speedup"' /tmp/isrl_hotpaths_smoke.json
grep -q '"dqn_candidate_scoring"' /tmp/isrl_hotpaths_smoke.json
grep -q '"trace_disabled_span"' /tmp/isrl_hotpaths_smoke.json
grep -q '"round_geometry_incremental"' /tmp/isrl_hotpaths_smoke.json
grep -q '"rounds_per_sec"' /tmp/isrl_hotpaths_smoke.json
grep -q '"aa_select_actions_d4"' /tmp/isrl_hotpaths_smoke.json
rm -f /tmp/isrl_hotpaths_smoke.json

# The end-to-end benchmark is its own Go module, so the test run above does
# not reach it. Its tests pin per-seed repeatability and the in-process
# replay check, which catch a change in algorithm behaviour before a
# benchmark run does.
(cd perfbench && go vet . && go test .)
