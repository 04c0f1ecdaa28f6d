GO ?= go

# Seeds for the full torture tier; the smoke tier is what CI runs per push.
TORTURE_SEEDS ?= 100
TORTURE_SMOKE_SEEDS ?= 25

.PHONY: all verify race vet fmt staticcheck lint torture torture-smoke bench-smoke bench-selftest baseline metrics-smoke

all: verify

# Tier-1: must stay green on every commit.
verify:
	$(GO) build ./...
	$(GO) test ./...

# Race tier: the short test set under the race detector.
race:
	$(GO) test -race -short ./...

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# staticcheck is optional locally (skipped when not on PATH); CI installs it
# so the lint job always runs the full set.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; fi

lint: vet fmt staticcheck

# Crash-torture tier: seeded fault-injection episodes through crash,
# recovery, and the recompute-from-base consistency check.
torture:
	$(GO) run ./cmd/vtxntorture -seeds $(TORTURE_SEEDS)

torture-smoke:
	$(GO) run ./cmd/vtxntorture -seeds $(TORTURE_SMOKE_SEEDS)

# Bench-smoke tier: run the headline experiments (F2 writes, T5R snapshot
# reads, F9D deferred applier, DAG rollup chain) at smoke scale and gate their
# throughput (>30% regression fails), allocs/op (>20% growth fails), and p99
# commit-to-visible (>5x growth fails, where the baseline records it — the
# wide ceiling absorbs scheduler jitter on µs-scale latencies while still
# catching an applier that stalls into milliseconds) against the committed
# baseline; -require pins all four so a dropped experiment fails loudly.
# Fresh results go to untracked BENCH_fresh*.json so the run never dirties
# the committed baseline; CI uploads them as artifacts.
# The scrubber runs live (-scrub 25ms, engine-default tick and pace) so the
# gate also proves continuous verification stays inside the regression
# thresholds.
bench-smoke:
	$(GO) run ./cmd/viewbench -exp F2,T5R,F9D,DAG -smoke -freshness -scrub 25ms -json BENCH_fresh.json -metrics BENCH_fresh_metrics.json -flight-sink BENCH_fresh_flight.jsonl
	$(GO) run ./cmd/benchgate -baseline BENCH_baseline.json -fresh BENCH_fresh.json -require F2,T5R,F9D,DAG -freshness-threshold 4

# Benchmark self-test: vtxnbench is its own module, so root ./... skips it.
# A tiny run of every workload must pass its checks and print every metric
# BENCHMARK.json names, and each injected fault must fail the checks.
bench-selftest:
	cd vtxnbench && $(GO) test .

# Observability smoke: run the headline experiment with metrics + tracing on
# and pretty-print the snapshot — a quick eyeball check that every series is
# populated.
metrics-smoke:
	$(GO) run ./cmd/viewbench -exp F2 -smoke -json '' -metrics BENCH_fresh_metrics.json -trace-slow 50ms
	@cat BENCH_fresh_metrics.json

# Refresh the committed bench-smoke baseline (run on an idle machine).
baseline:
	$(GO) run ./cmd/viewbench -exp F2,T5R,F9D,DAG -smoke -freshness -json BENCH_baseline.json
