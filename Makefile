GO ?= go

# Seeds for the full torture tier; the smoke tier is what CI runs per push.
TORTURE_SEEDS ?= 100
TORTURE_SMOKE_SEEDS ?= 25

.PHONY: all verify race vet fmt staticcheck lint torture torture-smoke bench-smoke bench-selftest baseline metrics-smoke flightrec-smoke hotspots-smoke mvcc-smoke deferred-smoke viewdag-smoke freshness-smoke scrub-smoke scrub-long

all: verify

# Tier-1: must stay green on every commit.
verify:
	$(GO) build ./...
	$(GO) test ./...
	$(MAKE) flightrec-smoke
	$(MAKE) hotspots-smoke
	$(MAKE) mvcc-smoke
	$(MAKE) deferred-smoke
	$(MAKE) viewdag-smoke
	$(MAKE) freshness-smoke
	$(MAKE) scrub-smoke

# Forensics smoke: induce a real deadlock and assert the flight recorder's
# automatic dump fires and its JSONL output parses with both transactions'
# causal spans present.
flightrec-smoke:
	$(GO) run ./cmd/flightrecsmoke

# Attribution smoke: drive a Zipf-skewed escrow workload and assert the true
# hottest group is named consistently by DB.Metrics() and the Prometheus
# endpoint, with the Space-Saving error bound held.
hotspots-smoke:
	$(GO) run ./cmd/hotspotsmoke

# MVCC smoke: truth-check the snapshot read path — sum-preserving escrow
# writers vs read-only snapshot readers, snapshot stability across commits,
# and the pruner draining every version chain once readers retire.
mvcc-smoke:
	$(GO) run ./cmd/mvccsmoke

# Deferred smoke: truth-check the deferred view-maintenance tier — the
# watermark barrier gives read-your-writes, watermarks only move forward,
# snapshot reads of the deferred view are never torn, and the applier drains
# to zero lag at quiesce with the view equal to a recompute from base.
deferred-smoke:
	$(GO) run ./cmd/deferredsmoke

# View-DAG smoke: truth-check stacked views — concurrent sum-preserving
# writers against snapshot readers over the 3-level rollup chain, asserting
# cross-level agreement on every scan (no torn cascades), coalesced folds in
# topological order, and a no-op cascading refresh at quiesce; runs the chain
# once escrow-maintained and once fully deferred.
viewdag-smoke:
	$(GO) run ./cmd/viewdagsmoke

# Freshness smoke: truth-check the observability plane — one marked commit's
# causal span crosses the deferred boundary into every level of the rollup
# chain (publish → fold → watermark advance, over the JSONL flight record),
# the per-view commit-to-visible accounting nests inside a client-measured
# window with staleness gauges at zero when drained, and an injected applier
# delay trips the freshness-SLO watchdog naming the lagging view.
freshness-smoke:
	$(GO) run ./cmd/freshnesssmoke

# Scrub smoke: truth-check the online consistency scrubber in both
# directions — silence on a healthy engine (zero divergences with full
# coverage under concurrent tilt writers over an immediate view plus the
# 3-level deferred chain), and guaranteed detection of an injected one-row
# view corruption with exact (view, group) attribution, the divergence trace
# event, a flight-record dump, and the watchdog's scrub-divergence signature.
scrub-smoke:
	$(GO) run ./cmd/scrubsmoke

# Nightly soak: the same truth check with a 40x larger write storm and a
# longer live-scrub window.
scrub-long:
	$(GO) run ./cmd/scrubsmoke -long

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
