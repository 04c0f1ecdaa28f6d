package main

import (
	"runtime"

	vtxn "repro"
	"repro/internal/metrics"
)

// perLayer is the traced report: the benchmark's spans around its vtxn
// calls (traced rounds), deltas of the engine's own DB.Metrics() counters
// over each timed phase (all rounds), process-wide Go runtime counters, the
// single-goroutine layer replay, and the ledger that sets the replayed costs
// against the measured transaction. Counts without a _per_tx suffix are
// means per round.
func (rep *report) perLayer() []metric {
	rs := rep.sel(all)
	nr := float64(len(rs))
	var commits float64
	for _, r := range rs {
		commits += float64(r.commits)
	}
	perTx := func(x float64) float64 { return ratio(x, commits) }
	perRound := func(x float64) float64 { return x / nr }

	// delta sums f(m1) - f(m0) over the rounds' timed phases.
	delta := func(f func(m *vtxn.MetricsSnapshot) int64) float64 {
		var d int64
		for _, r := range rs {
			d += f(&r.m1) - f(&r.m0)
		}
		return float64(d)
	}
	// highest is the largest end-of-phase value of a gauge or high-water mark.
	highest := func(f func(m *vtxn.MetricsSnapshot) int64) float64 {
		var h int64
		for _, r := range rs {
			h = max(h, f(&r.m1))
		}
		return float64(h)
	}
	// histMean is the mean of a latency histogram's observations over the
	// timed phases.
	histMean := func(f func(m *vtxn.MetricsSnapshot) metrics.HistSnapshot) float64 {
		var sum, n int64
		for _, r := range rs {
			a, b := f(&r.m0), f(&r.m1)
			sum += b.SumNs - a.SumNs
			n += b.Count - a.Count
		}
		return ratio(float64(sum), float64(n))
	}
	med := func(f func(r *round) float64) float64 {
		var xs []float64
		for _, r := range rs {
			xs = append(xs, f(r))
		}
		return median(xs)
	}

	var out []metric
	add := func(name string, v float64, unit string) { out = append(out, metric{name, v, unit}) }

	// core: the benchmark's spans, mean per call, from the traced rounds.
	sp := spanStats(rep.sel(traced))
	for _, n := range []spanName{spBegin, spGet, spUpdate, spInsert, spCommit, spRollback,
		spGetViewRow, spScanViewRange, spWaitWatermark} {
		add("core."+spanNames[n]+"_ns", sp.mean(n), "ns")
	}
	add("core.op_self_ns", ratio(sp.opSelf, float64(sp.count[spOp])), "ns")
	add("core.load_s", med(func(r *round) float64 { return r.loadS }), "s")
	add("core.check_consistency_s", med(func(r *round) float64 { return r.checkS }), "s")

	// txn: the engine's per-phase histograms.
	add("txn.begin_ns", histMean(func(m *vtxn.MetricsSnapshot) metrics.HistSnapshot { return m.Txn.Begin }), "ns")
	add("txn.lock_wait_ns", histMean(func(m *vtxn.MetricsSnapshot) metrics.HistSnapshot { return m.Txn.LockWait }), "ns")
	add("txn.apply_ns", histMean(func(m *vtxn.MetricsSnapshot) metrics.HistSnapshot { return m.Txn.Apply }), "ns")
	add("txn.fold_ns", histMean(func(m *vtxn.MetricsSnapshot) metrics.HistSnapshot { return m.Txn.Fold }), "ns")
	add("txn.commit_wait_ns", histMean(func(m *vtxn.MetricsSnapshot) metrics.HistSnapshot { return m.Txn.CommitWait }), "ns")

	lockRequests := perTx(delta(func(m *vtxn.MetricsSnapshot) int64 { return m.Lock.Requests }))
	add("lock.requests_per_tx", lockRequests, "count")
	add("lock.waits_per_tx", perTx(delta(func(m *vtxn.MetricsSnapshot) int64 { return m.Lock.Waits })), "count")
	add("lock.wait_ns_per_tx", perTx(delta(func(m *vtxn.MetricsSnapshot) int64 { return m.Lock.Wait.SumNs })), "ns")
	add("lock.collisions", perRound(delta(func(m *vtxn.MetricsSnapshot) int64 { return m.Lock.Collisions })), "count")
	add("lock.max_queue_depth", highest(func(m *vtxn.MetricsSnapshot) int64 { return m.Lock.MaxQueueDepth }), "count")
	add("lock.deadlocks", perRound(delta(func(m *vtxn.MetricsSnapshot) int64 { return m.Lock.Deadlocks })), "count")
	add("lock.timeouts", perRound(delta(func(m *vtxn.MetricsSnapshot) int64 { return m.Lock.Timeouts })), "count")

	foldRows := perTx(delta(func(m *vtxn.MetricsSnapshot) int64 { return m.Escrow.FoldRows }))
	add("escrow.fold_rows_per_tx", foldRows, "count")
	add("escrow.fold_batch_max", highest(func(m *vtxn.MetricsSnapshot) int64 { return m.Escrow.FoldBatchMax }), "count")
	add("escrow.fold_aborts", perRound(delta(func(m *vtxn.MetricsSnapshot) int64 { return m.Escrow.FoldAborts })), "count")
	add("escrow.pending_txns_high_water", highest(func(m *vtxn.MetricsSnapshot) int64 { return m.Escrow.PendingTxnsHighWater }), "count")

	enq := delta(func(m *vtxn.MetricsSnapshot) int64 { return m.Cascade.Enqueued })
	add("cascade.enqueued_per_tx", perTx(enq), "count")
	add("cascade.coalesced_ratio", ratio(delta(func(m *vtxn.MetricsSnapshot) int64 { return m.Cascade.Coalesced }), enq), "ratio")
	add("cascade.folds_per_tx", perTx(delta(func(m *vtxn.MetricsSnapshot) int64 { return m.Cascade.Folds })), "count")

	appends := perTx(delta(func(m *vtxn.MetricsSnapshot) int64 { return m.WAL.Appends }))
	add("wal.appends_per_tx", appends, "count")
	add("wal.records_per_flush", ratio(delta(func(m *vtxn.MetricsSnapshot) int64 { return m.WAL.BatchRecords }),
		delta(func(m *vtxn.MetricsSnapshot) int64 { return m.WAL.Flushes })), "ratio")
	// Time the log spent flushing, from the flush histogram's sum (the
	// engine's flush_active_ns is a gauge of the flush in progress).
	add("wal.flush_active_ns_per_tx", perTx(delta(func(m *vtxn.MetricsSnapshot) int64 { return m.WAL.Flush.SumNs })), "ns")
	add("wal.flush_p99_ns", med(func(r *round) float64 { return float64(r.m1.WAL.Flush.P99Ns) }), "ns")

	add("mvcc.versions_stamped_per_tx", perTx(delta(func(m *vtxn.MetricsSnapshot) int64 { return m.MVCC.VersionsStamped })), "count")
	add("mvcc.versions_pruned", perRound(delta(func(m *vtxn.MetricsSnapshot) int64 { return m.MVCC.VersionsPruned })), "count")
	add("mvcc.prune_passes", perRound(delta(func(m *vtxn.MetricsSnapshot) int64 { return m.MVCC.PrunePasses })), "count")
	add("mvcc.chain_len_high_water", highest(func(m *vtxn.MetricsSnapshot) int64 { return m.MVCC.ChainLenHighWater }), "count")
	add("mvcc.chains_end", med(func(r *round) float64 { return float64(r.m1.MVCC.Chains) }), "count")

	in := delta(func(m *vtxn.MetricsSnapshot) int64 { return m.Deferred.DeltasIn })
	rounds := delta(func(m *vtxn.MetricsSnapshot) int64 { return m.Deferred.ApplyRounds })
	add("applier.deltas_in_per_tx", perTx(in), "count")
	add("applier.coalesced_ratio", ratio(delta(func(m *vtxn.MetricsSnapshot) int64 { return m.Deferred.DeltasCoalesced }), in), "ratio")
	add("applier.groups_per_round", ratio(delta(func(m *vtxn.MetricsSnapshot) int64 { return m.Deferred.GroupsApplied }), rounds), "count")
	add("applier.apply_rounds", perRound(rounds), "count")
	add("applier.retry_rounds", perRound(delta(func(m *vtxn.MetricsSnapshot) int64 { return m.Deferred.RetryRounds })), "count")
	add("applier.apply_ns", histMean(func(m *vtxn.MetricsSnapshot) metrics.HistSnapshot { return m.Deferred.Apply }), "ns")
	add("applier.queue_high_water", highest(func(m *vtxn.MetricsSnapshot) int64 { return m.Deferred.QueueHighWater }), "count")

	add("scrub.rows_verified", perRound(delta(func(m *vtxn.MetricsSnapshot) int64 { return m.Scrub.RowsVerified })), "count")
	add("scrub.slices", perRound(delta(func(m *vtxn.MetricsSnapshot) int64 { return m.Scrub.Slices })), "count")
	add("scrub.conflicts", perRound(delta(func(m *vtxn.MetricsSnapshot) int64 { return m.Scrub.Conflicts })), "count")

	// ghost: group creation happens during the load, so these are set-up counts.
	add("ghost.created", med(func(r *round) float64 { return float64(r.setupM.Ghost.Created) }), "count")
	add("ghost.erased", med(func(r *round) float64 { return float64(r.setupM.Ghost.Erased) }), "count")

	add("recovery.replayed", med(func(r *round) float64 { return float64(r.recovery.Recovery.Replayed) }), "count")
	add("recovery.analysis_ns", med(func(r *round) float64 { return float64(r.recovery.Recovery.AnalysisNs) }), "ns")
	add("recovery.redo_ns", med(func(r *round) float64 { return float64(r.recovery.Recovery.RedoNs) }), "ns")
	add("recovery.undo_ns", med(func(r *round) float64 { return float64(r.recovery.Recovery.UndoNs) }), "ns")

	// go: process-wide runtime counters over the timed phases — they include
	// every engine goroutine, not only the committing ones.
	mem := func(f func(m *runtime.MemStats) uint64) float64 {
		var d uint64
		for _, r := range rs {
			d += f(&r.mem1) - f(&r.mem0)
		}
		return float64(d)
	}
	add("go.allocs_per_tx", perTx(mem(func(m *runtime.MemStats) uint64 { return m.Mallocs })), "count")
	add("go.alloc_bytes_per_tx", perTx(mem(func(m *runtime.MemStats) uint64 { return m.TotalAlloc })), "B")
	add("go.gc_cycles", perRound(mem(func(m *runtime.MemStats) uint64 { return uint64(m.NumGC) })), "count")
	add("go.gc_pause_ns", perRound(mem(func(m *runtime.MemStats) uint64 { return m.PauseTotalNs })), "ns")
	add("go.live_heap_mb", med(func(r *round) float64 { return r.liveHeapMB }), "MB")

	cost := map[string]float64{}
	for _, x := range rep.replay {
		add(x.name+"_ns", x.ns, "ns")
		add(x.name+"_allocs", x.allocs, "count")
		cost[x.name] = x.ns
	}

	// ledger: the replayed cost of the calls one write transaction makes,
	// against its measured BeginTx-to-Commit time. Calls per transaction come
	// from the engine's counters where it keeps them and from the workload's
	// shape otherwise; the remainder has no owner among the replayed layers.
	d := rep.cfg.def
	owned := (d.rowsPerTx+d.getsPerTx+foldRows)*cost["record.encode_key"] +
		(d.rowsPerTx+foldRows)*cost["record.encode_row"] +
		d.getsPerTx*cost["btree.get"] +
		(d.rowsPerTx+foldRows)*cost["btree.put"] +
		lockRequests*cost["lock.acquire_release_x"] +
		foldRows*cost["escrow.add"] +
		appends*cost["wal.append"]
	unt := endToEndOf(rep.sel(untraced))
	txnNs := meanNs(&unt.commit)
	add("ledger.txn_ns", txnNs, "ns")
	add("ledger.owned_ns", owned, "ns")
	add("ledger.commit_unowned_ns", txnNs-owned, "ns")

	// trace: what the spans cost, traced minus untraced rounds.
	tr := endToEndOf(rep.sel(traced))
	add("trace.commit_p50_overhead_us", tr.commit.quantile(0.5)-unt.commit.quantile(0.5), "us")
	add("trace.read_p50_overhead_us", tr.read.quantile(0.5)-unt.read.quantile(0.5), "us")
	return out
}

func ratio(x, y float64) float64 {
	if y == 0 {
		return 0
	}
	return x / y
}

func meanNs(l *lat) float64 {
	var s float64
	for _, ns := range l.ns {
		s += float64(ns)
	}
	return ratio(s, float64(len(l.ns)))
}

// spanSummary aggregates spans by name: calls, total duration, and the
// self time of op spans (duration minus the part their calls cover).
type spanSummary struct {
	count  [numSpanNames]int64
	total  [numSpanNames]float64
	opSelf float64
}

func (s *spanSummary) mean(n spanName) float64 { return ratio(s.total[n], float64(s.count[n])) }

func spanStats(rs []*round) spanSummary {
	var s spanSummary
	for _, r := range rs {
		for _, c := range r.clients() {
			covered := make([]float64, len(c.spans))
			for _, sp := range c.spans {
				d := float64(sp.end - sp.start)
				s.count[sp.name]++
				s.total[sp.name] += d
				if sp.parent >= 0 {
					covered[sp.parent] += d // a client's calls never overlap
				}
			}
			for i, sp := range c.spans {
				if sp.name == spOp {
					s.opSelf += float64(sp.end-sp.start) - covered[i]
				}
			}
		}
	}
	return s
}
