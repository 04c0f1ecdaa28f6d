// Package core implements the database kernel: it glues the B-tree storage,
// write-ahead log, lock manager, escrow ledger, transaction manager, and the
// compiled view-maintenance plans into a transactional engine with
// immediately maintained indexed views (DESIGN.md §3).
package core

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/apply"
	"repro/internal/btree"
	"repro/internal/catalog"
	"repro/internal/escrow"
	"repro/internal/fault"
	"repro/internal/flightrec"
	"repro/internal/id"
	"repro/internal/lock"
	"repro/internal/metrics"
	"repro/internal/mvcc"
	"repro/internal/record"
	"repro/internal/recovery"
	"repro/internal/scrub"
	"repro/internal/txn"
	"repro/internal/wal"
)

// Options configure a database instance.
type Options struct {
	// SyncMode selects commit durability (default SyncNone; see wal docs).
	SyncMode wal.SyncMode
	// LockTimeout bounds lock waits (default 10s).
	LockTimeout time.Duration
	// EscalationThreshold escalates a transaction's key locks on one tree
	// to a single tree lock once it holds more than this many. 0 disables.
	EscalationThreshold int
	// GhostCleanInterval runs the background ghost cleaner this often.
	// 0 disables the background cleaner (CleanGhosts still works).
	GhostCleanInterval time.Duration
	// MVCCPruneInterval runs the background version-chain pruner this often
	// (DESIGN.md §8). 0 selects the default (25ms); negative disables the
	// background pruner (PruneVersions still works).
	MVCCPruneInterval time.Duration
	// DeferredApplyInterval is the deferred-view applier's idle tick: how
	// often watermarks advance when no commits publish deltas, and the retry
	// delay after a failed fold round (DESIGN.md §9). 0 selects the default
	// (5ms). The applier itself always runs — it wakes immediately on every
	// publish regardless of this interval.
	DeferredApplyInterval time.Duration
	// FoldLatchStripes sets the number of stripes for the commit-fold /
	// ghost-structure latches (default 128). 1 reproduces a single global
	// fold latch — the T10 ablation showing why striping matters.
	FoldLatchStripes int
	// LockShards sets the lock-manager stripe count (rounded up to a power
	// of two; 0 scales with GOMAXPROCS). 1 reproduces the global-mutex
	// manager for ablations.
	LockShards int
	// DeadlockSweepInterval throttles the background deadlock detector (at
	// most one sweep per interval while lock waiters exist; default 1ms).
	DeadlockSweepInterval time.Duration
	// EscrowShards sets the escrow-ledger stripe count (rounded up to a
	// power of two; 0 selects the default).
	EscrowShards int
	// FS is the filesystem under the WAL, snapshot, and manifest I/O.
	// nil selects the real filesystem; the crash-torture harness passes a
	// fault.Injector to exercise torn writes, failed fsyncs, and crashes.
	FS fault.FS
	// Hooks receives the engine's named crash points (fault.Point) when
	// non-nil. Torture/testing only; a returned error aborts the operation
	// that hit the point.
	Hooks fault.Hooks
	// Tracer, when non-nil, receives engine trace events: transaction
	// begin/end, resolved lock waits, commit folds, group commits, ghost
	// sweeps, and recovery phases. Implementations must be concurrency-safe
	// and fast — events fire inline on engine paths. Events arrive already
	// stamped with sequence/timestamp/span by the flight recorder (unless it
	// is disabled).
	Tracer metrics.Tracer
	// FlightRecorderSize sets the flight recorder's ring capacity in events.
	// 0 selects the default (flightrec.DefaultSize); negative disables the
	// recorder entirely (events skip straight to Tracer, unstamped).
	FlightRecorderSize int
	// FlightSink, when non-nil, receives an automatic human-readable
	// flight-record dump the moment the engine hits a failure trigger: a
	// deadlock, a lock timeout, or a watchdog stall detection. Dumps are
	// rate-limited. Explicit dumps via DB.DumpFlightRecord work regardless.
	FlightSink io.Writer
	// Watchdog starts the background stall watchdog: it diffs metrics
	// snapshots every WatchdogInterval and reports stall signatures (WAL
	// flush not advancing, lock-shard convoy, escrow fold backlog, ghost-
	// cleaner starvation) as EventStall trace events, watchdog_detections
	// metrics, and flight-record dumps to FlightSink.
	Watchdog bool
	// WatchdogInterval is the watchdog poll interval (default 500ms).
	WatchdogInterval time.Duration
	// WatchdogStallThreshold is the age past which an in-progress condition
	// counts as a stall (default 2s).
	WatchdogStallThreshold time.Duration
	// FreshnessSLO, when positive, is the per-view staleness bound the
	// watchdog enforces: a view whose commit-to-visible lag exceeds it fires
	// the freshness-slo stall signature naming the lagging view (and
	// auto-dumps the linked flight record to FlightSink). It also annotates
	// the metrics snapshot's freshness section. Requires Watchdog for
	// enforcement; without it the SLO is report-only.
	FreshnessSLO time.Duration
	// ProfileLabels tags the commit hot path with runtime/pprof labels
	// (vtxn_phase, vtxn_txn) so CPU profiles attribute time to transactions.
	// Off by default: the labels allocate per commit.
	ProfileLabels bool
	// ScrubInterval runs the online consistency scrubber: a background
	// goroutine verifying one (view, group-range) slice per tick against a
	// recompute at an MVCC snapshot timestamp (DESIGN.md §7.4). 0 selects the
	// default (25ms); negative disables the background loop (ScrubNow still
	// works).
	ScrubInterval time.Duration
	// ScrubRowBudget paces the scrubber in verified rows per second — source
	// rows recomputed plus view rows compared. 0 selects the default
	// (200k rows/s); negative removes the pacing entirely.
	ScrubRowBudget int
}

// Stats are cumulative engine counters.
type Stats struct {
	Commits       int64
	Aborts        int64
	SysTxns       int64
	Folds         int64 // escrow folds applied at commit
	GhostsCreated int64
	GhostsErased  int64
	Escalations   int64
	Lock          lock.Stats
}

// DB is a database instance.
type DB struct {
	path    string
	opts    Options
	started time.Time

	reg     *apply.Registry
	treesMu sync.RWMutex
	trees   map[id.Tree]*btree.Tree

	log *wal.Writer
	gen uint64

	lm     *lock.Manager
	ledger *escrow.Ledger
	tm     *txn.Manager

	// oracle allocates commit timestamps and tracks active snapshots; mvcc is
	// the sidecar version store snapshot readers resolve against (DESIGN.md §8).
	oracle *txn.Oracle
	mvcc   *mvcc.Store

	// gate admits user-level actors (transactions, DDL, the cleaner) as
	// readers; Checkpoint takes it exclusively to quiesce the database.
	gate sync.RWMutex
	// structMu stripes the short system-duration latches serializing
	// structure changes to each aggregate view row: ghost creation, commit
	// folds, and ghost erase (DESIGN.md §5). Striping by row keeps folds on
	// different groups concurrent.
	structMu []sync.Mutex
	// ddlMu serializes DDL statements.
	ddlMu sync.Mutex

	commits       atomic.Int64
	aborts        atomic.Int64
	sysTxns       atomic.Int64
	folds         atomic.Int64
	ghostsCreated atomic.Int64
	ghostsErased  atomic.Int64
	escalations   atomic.Int64

	// met is the engine metrics registry (always non-nil); tracer is the
	// head of the tracer chain: the flight recorder (which forwards to
	// Options.Tracer), or Options.Tracer directly when the recorder is
	// disabled.
	met    *metrics.Registry
	tracer metrics.Tracer
	// flight is the always-on flight recorder (nil when disabled); watchdog
	// the optional stall watchdog.
	flight   *flightrec.Recorder
	watchdog *flightrec.Watchdog

	closed      atomic.Bool
	cleanerStop chan struct{}
	cleanerDone chan struct{}
	prunerStop  chan struct{}
	prunerDone  chan struct{}
	recovered   recovery.Summary

	// applierQ feeds the deferred-view applier goroutine (deferred.go);
	// applierDrainOnStop asks it to run one final round before exiting (clean
	// Close, not Crash). deferredPending/deferredOldestNs are the applier's
	// backlog gauges for Metrics.
	applierQ           *deferredQueue
	applierStop        chan struct{}
	applierDone        chan struct{}
	applierDrainOnStop atomic.Bool
	deferredPending    atomic.Int64
	deferredOldestNs   atomic.Int64
	// deferredStale is the applier-maintained per-view oldest-unapplied-
	// publish table (wall ns); Metrics merges it with a queue scan into each
	// view's staleness gauge (deferred.go).
	deferredStaleMu sync.Mutex
	deferredStale   map[id.Tree]int64

	// scrub is the online consistency scrubber (always constructed, so
	// ScrubNow works even when the background loop is disabled); scrubStop/
	// scrubDone bracket the background goroutine when ScrubInterval enables it.
	scrub     *scrub.Scrubber
	scrubStop chan struct{}
	scrubDone chan struct{}
}

// defaultFoldStripes is the default number of row-structure latch stripes.
const defaultFoldStripes = 128

// structLatch returns the structure latch stripe for one view row.
func (db *DB) structLatch(tree id.Tree, key []byte) *sync.Mutex {
	h := uint32(2166136261)
	h = (h ^ uint32(tree)) * 16777619
	for _, b := range key {
		h = (h ^ uint32(b)) * 16777619
	}
	return &db.structMu[h%uint32(len(db.structMu))]
}

// Errors returned by the engine.
var (
	// ErrClosed reports use after Close.
	ErrClosed = errors.New("core: database closed")
	// ErrTxnDone reports use of a finished transaction.
	ErrTxnDone = errors.New("core: transaction already finished")
	// ErrDuplicateKey reports a primary-key or unique-index violation.
	ErrDuplicateKey = errors.New("core: duplicate key")
	// ErrNotFound reports a missing row.
	ErrNotFound = errors.New("core: row not found")
	// ErrSchema reports a row/DDL that does not fit the schema.
	ErrSchema = errors.New("core: schema violation")
	// ErrReadOnly reports a write attempted in a read-only transaction.
	ErrReadOnly = errors.New("core: read-only transaction")
	// ErrSnapshotOnly reports TxOptions.ReadOnly combined with an isolation
	// level other than Snapshot: the read-only fast path skips logging and
	// locking entirely, which only multi-version reads make safe.
	ErrSnapshotOnly = errors.New("core: ReadOnly requires Snapshot isolation")
	// ErrDeadlock aborts the transaction chosen as a deadlock victim. Lock
	// errors carry the requesting transaction, mode, and resource as context
	// and wrap this sentinel, so errors.Is works through the whole chain.
	ErrDeadlock = lock.ErrDeadlock
	// ErrLockTimeout reports a lock wait that exceeded its timeout.
	ErrLockTimeout = lock.ErrTimeout
	// ErrInvalidView is the root sentinel every CreateIndexedView/DropView/
	// RefreshView validation failure wraps; the chain names the offending view
	// (and column) by name. errors.Is(err, ErrInvalidView) matches them all.
	ErrInvalidView = errors.New("core: invalid view operation")
	// ErrViewInUse (which also wraps ErrInvalidView at the call sites) rejects
	// dropping a view while other views are defined over it.
	ErrViewInUse = errors.New("core: view has dependent views")
	// ErrViewWatermarkDropped reports a WaitForViewWatermark whose view was
	// dropped while the waiter blocked (or before it waited): the watermark
	// can never reach the target, so the wait fails instead of hanging.
	ErrViewWatermarkDropped = txn.ErrViewWatermarkDropped
)

// Open recovers (or creates) the database at path.
func Open(path string, opts Options) (*DB, error) {
	if opts.LockTimeout <= 0 {
		opts.LockTimeout = 10 * time.Second
	}
	if opts.FoldLatchStripes <= 0 {
		opts.FoldLatchStripes = defaultFoldStripes
	}
	if opts.FS == nil {
		opts.FS = fault.OS{}
	}
	st, err := recovery.RunFS(opts.FS, path, opts.SyncMode)
	if err != nil {
		return nil, err
	}
	met := metrics.NewRegistry()
	// The flight recorder heads the tracer chain: every event is stamped and
	// recorded before being forwarded to the user's tracer.
	var flight *flightrec.Recorder
	tracer := opts.Tracer
	if opts.FlightRecorderSize >= 0 {
		flight = flightrec.New(flightrec.Config{
			Size: opts.FlightRecorderSize,
			Next: opts.Tracer,
			Sink: opts.FlightSink,
		})
		tracer = flight
	}
	db := &DB{
		path:    path,
		opts:    opts,
		started: time.Now(),
		reg:     st.Reg,
		trees:   st.Trees,
		log:     st.Log,
		gen:     st.Gen,
		lm: lock.NewManagerOpts(lock.Options{
			Shards:         opts.LockShards,
			DefaultTimeout: opts.LockTimeout,
			SweepInterval:  opts.DeadlockSweepInterval,
			Metrics:        &met.Lock,
			Tracer:         tracer,
		}),
		ledger:    escrow.NewLedgerShards(opts.EscrowShards),
		tm:        txn.NewManager(st.NextTxn),
		oracle:    txn.NewOracle(),
		mvcc:      mvcc.NewStore(&met.MVCC),
		structMu:  make([]sync.Mutex, opts.FoldLatchStripes),
		recovered: st.Summary,
		met:       met,
		tracer:    tracer,
		flight:    flight,
	}
	db.ledger.Metrics = &met.Escrow
	db.ledger.Hot = met.Hot.EscrowDeltas
	db.log.SetObserver(&met.WAL, tracer)
	if tr := tracer; tr != nil && !st.Summary.Fresh {
		tr.TraceEvent(metrics.Event{Type: metrics.EventRecovery, Phase: "analysis", Dur: st.Summary.Analysis})
		tr.TraceEvent(metrics.Event{Type: metrics.EventRecovery, Phase: "redo", Dur: st.Summary.Redo, Rows: st.Summary.Replayed})
		tr.TraceEvent(metrics.Event{Type: metrics.EventRecovery, Phase: "undo", Dur: st.Summary.Undo, Rows: st.Summary.UndoneOps})
	}
	if opts.GhostCleanInterval > 0 {
		db.cleanerStop = make(chan struct{})
		db.cleanerDone = make(chan struct{})
		go db.cleanerLoop(opts.GhostCleanInterval)
	}
	if opts.MVCCPruneInterval >= 0 {
		interval := opts.MVCCPruneInterval
		if interval == 0 {
			interval = defaultMVCCPruneInterval
		}
		db.prunerStop = make(chan struct{})
		db.prunerDone = make(chan struct{})
		go db.prunerLoop(interval)
	}
	// The deferred-view applier always runs: with no deferred views it only
	// fires an idle tick. Start it before the recovery refresh below so the
	// refresh barriers have a consumer.
	applyInterval := opts.DeferredApplyInterval
	if applyInterval <= 0 {
		applyInterval = defaultDeferredApplyInterval
	}
	db.applierQ = newDeferredQueue()
	db.applierStop = make(chan struct{})
	db.applierDone = make(chan struct{})
	go db.applierLoop(applyInterval)
	// Deferred deltas pending in the applier queue at a crash were never
	// logged, so a recovered deferred view may be stale relative to its
	// (fully recovered) base tables. Recompute each one in tree-ID (topological)
	// order so parents converge before their dependents; RefreshView cascades
	// to the dependent subtree, so a view whose source view is itself deferred
	// is covered by the source's refresh and skipped here.
	if !st.Summary.Fresh {
		views := db.deferredViews()
		sort.Slice(views, func(i, j int) bool { return views[i].ID < views[j].ID })
		cat := db.Catalog()
		for _, v := range views {
			if p, err := cat.View(v.Left); err == nil && p.Strategy == catalog.StrategyDeferred {
				continue
			}
			if _, err := db.RefreshView(v.Name); err != nil {
				db.Close()
				return nil, fmt.Errorf("core: recovery refresh of deferred view %q: %w", v.Name, err)
			}
		}
	}
	// The online consistency scrubber (DESIGN.md §7.4). The Scrubber itself
	// always exists so ScrubNow works; the background loop runs unless
	// ScrubInterval is negative.
	scrubInterval := opts.ScrubInterval
	if scrubInterval == 0 {
		scrubInterval = defaultScrubInterval
	}
	scrubBudget := opts.ScrubRowBudget
	if scrubBudget == 0 {
		scrubBudget = defaultScrubRowBudget
	}
	db.scrub = scrub.New(scrubEngine{db}, scrub.Config{
		Interval:  scrubInterval,
		RowBudget: scrubBudget,
		Metrics:   &met.Scrub,
	})
	if opts.ScrubInterval >= 0 {
		db.scrubStop = make(chan struct{})
		db.scrubDone = make(chan struct{})
		go func() {
			defer close(db.scrubDone)
			db.scrub.Run(db.scrubStop)
		}()
	}
	if opts.Watchdog {
		db.watchdog = flightrec.StartWatchdog(flightrec.WatchdogConfig{
			Interval:       opts.WatchdogInterval,
			StallThreshold: opts.WatchdogStallThreshold,
			FreshnessSLO:   opts.FreshnessSLO,
			Snap:           db.Metrics,
			Tracer:         tracer,
			Recorder:       flight,
			Metrics:        &met.Watchdog,
		})
	}
	return db, nil
}

// Close flushes the log and shuts the database down. It does not checkpoint;
// restart recovers from the log.
func (db *DB) Close() error {
	if db.closed.Swap(true) {
		return ErrClosed
	}
	db.watchdog.Close()
	// Stop the scrubber before anything it reads through (and before the
	// gate is taken exclusively — each scrub slice is a gate reader).
	if db.scrubStop != nil {
		close(db.scrubStop)
		<-db.scrubDone
	}
	if db.cleanerStop != nil {
		close(db.cleanerStop)
		<-db.cleanerDone
	}
	if db.prunerStop != nil {
		close(db.prunerStop)
		<-db.prunerDone
	}
	// Stop the applier with a final drain round so a cleanly closed database
	// reopens with converged views. This must happen before the gate is taken
	// exclusively: the drain round's system transactions need gate admission
	// to stay possible (they don't take the gate, but folds contend with any
	// straggling committer's latches).
	if db.applierStop != nil {
		db.applierDrainOnStop.Store(true)
		close(db.applierStop)
		<-db.applierDone
	}
	// Wait for in-flight transactions to drain.
	db.gate.Lock()
	defer db.gate.Unlock()
	db.lm.Close()
	return db.log.Close()
}

// Crash simulates a process crash for tests and the recovery experiments:
// the instance stops without a clean shutdown. With flush set, buffered log
// records reach the OS first (they would survive a process crash); without
// it they are lost (a machine-crash upper bound under SyncNone).
func (db *DB) Crash(flush bool) {
	if db.closed.Swap(true) {
		return
	}
	db.watchdog.Close()
	// Stop the scrubber before anything it reads through (and before the
	// gate is taken exclusively — each scrub slice is a gate reader).
	if db.scrubStop != nil {
		close(db.scrubStop)
		<-db.scrubDone
	}
	if db.cleanerStop != nil {
		close(db.cleanerStop)
		<-db.cleanerDone
	}
	if db.prunerStop != nil {
		close(db.prunerStop)
		<-db.prunerDone
	}
	// A crash loses the applier queue: pending deferred deltas were never
	// logged, which is exactly the staleness Open's recovery refresh repairs.
	if db.applierStop != nil {
		close(db.applierStop)
		<-db.applierDone
	}
	if flush {
		db.log.Sync(0)
	}
	db.lm.Close()
}

// Catalog returns the current catalog.
func (db *DB) Catalog() *catalog.Catalog { return db.reg.Catalog() }

// RecoverySummary reports what restart did when this instance opened.
func (db *DB) RecoverySummary() recovery.Summary { return db.recovered }

// Stats returns a snapshot of the cumulative counters.
func (db *DB) Stats() Stats {
	return Stats{
		Commits:       db.commits.Load(),
		Aborts:        db.aborts.Load(),
		SysTxns:       db.sysTxns.Load(),
		Folds:         db.folds.Load(),
		GhostsCreated: db.ghostsCreated.Load(),
		GhostsErased:  db.ghostsErased.Load(),
		Escalations:   db.escalations.Load(),
		Lock:          db.lm.Snapshot(),
	}
}

// Metrics returns the full structured observability snapshot: engine
// counters, per-phase transaction timing, lock wait attribution, escrow
// contention, WAL group-commit behavior, ghost-cleaner backlog, and the
// restart's recovery phases. Its JSON encoding is a stable schema.
func (db *DB) Metrics() metrics.Snapshot {
	now := time.Now()
	// Snap reads the per-shard lock waits and hotspots() the per-key ones;
	// Attr keeps a wait from landing between the two reads.
	db.met.Lock.Attr.Lock()
	s := db.met.Snap()
	s.Hotspots = db.hotspots()
	db.met.Lock.Attr.Unlock()
	s.Engine = metrics.EngineSnapshot{
		Commits:        db.commits.Load(),
		Aborts:         db.aborts.Load(),
		SysTxns:        db.sysTxns.Load(),
		Escalations:    db.escalations.Load(),
		UptimeNs:       now.Sub(db.started).Nanoseconds(),
		SnapshotUnixNs: now.UnixNano(),
	}
	s.MVCC.Snapshots = db.oracle.SnapshotsBegun()
	s.MVCC.ActiveSnapshots = db.oracle.ActiveSnapshots()
	s.MVCC.OldestSnapshotAgeNs = db.oracle.OldestSnapshotAge(now).Nanoseconds()
	s.MVCC.Watermark = db.oracle.ReadTS()
	ls := db.lm.Snapshot()
	s.Lock.Shards = ls.Shards
	s.Lock.Requests = ls.Requests
	s.Lock.Waits = ls.Waits
	s.Lock.Deadlocks = ls.Deadlocks
	s.Lock.Timeouts = ls.Timeouts
	s.Lock.Collisions = ls.Collisions
	s.Lock.MaxQueueDepth = ls.MaxQueueDepth
	s.Lock.Sweeps = ls.Sweeps
	s.Lock.LastSweepNs = ls.LastSweep.Nanoseconds()
	s.Lock.MaxSweepNs = ls.MaxSweep.Nanoseconds()
	for i := range s.Lock.PerShard {
		if i < len(ls.PerShard) {
			s.Lock.PerShard[i].Collisions = ls.PerShard[i].Collisions
			s.Lock.PerShard[i].MaxQueueDepth = ls.PerShard[i].MaxQueueDepth
			s.Lock.PerShard[i].Resources = ls.PerShard[i].Resources
		}
	}
	s.Deferred.PendingGroups = db.deferredPending.Load()
	if views := db.deferredViews(); len(views) > 0 {
		readTS := db.oracle.ReadTS()
		var minWM uint64
		for i, v := range views {
			wm := db.oracle.ViewWatermark(v.ID)
			s.Deferred.Views = append(s.Deferred.Views, metrics.DeferredViewSnapshot{
				Tree:      uint32(v.ID),
				View:      v.Name,
				Watermark: wm,
			})
			if i == 0 || wm < minWM {
				minWM = wm
			}
		}
		s.Deferred.Watermark = minWM
		if readTS > minWM {
			s.Deferred.LagTS = readTS - minWM
		}
	}
	if oldest := db.deferredOldestNs.Load(); oldest > 0 && now.UnixNano() > oldest {
		s.Deferred.StalenessNs = now.UnixNano() - oldest
	}
	// Per-view freshness: the commit-to-visible distribution each maintenance
	// path observed, plus the current staleness gauge. Escrow/immediate views
	// are never stale (their lag IS the commit path); deferred views age by
	// their oldest unapplied publish (applier table merged with the undrained
	// queue).
	s.Freshness.SLONs = int64(db.opts.FreshnessSLO)
	if views := db.Catalog().Views(); len(views) > 0 {
		staleOldest := db.deferredStaleOldest()
		sort.Slice(views, func(i, j int) bool { return views[i].ID < views[j].ID })
		for _, v := range views {
			f := db.met.Freshness.Get(v.ID)
			var staleNs int64
			if v.Strategy == catalog.StrategyDeferred {
				if w, ok := staleOldest[v.ID]; ok && now.UnixNano() > w {
					staleNs = now.UnixNano() - w
				}
			}
			f.StalenessNs.Store(staleNs)
			s.Freshness.Views = append(s.Freshness.Views, metrics.ViewFreshnessSnapshot{
				Tree:            uint32(v.ID),
				View:            v.Name,
				Strategy:        v.Strategy.String(),
				StalenessNs:     staleNs,
				CommitToVisible: f.CommitToVisible.Snap(),
			})
		}
	}
	// Scrub coverage: the registry filled the counters; resolve per-view
	// names here (sorted by tree ID, bounded by the catalog).
	s.Scrub.Enabled = db.scrubStop != nil && !db.closed.Load()
	if views := db.Catalog().Views(); len(views) > 0 {
		sort.Slice(views, func(i, j int) bool { return views[i].ID < views[j].ID })
		for _, v := range views {
			vs := db.met.Scrub.Views.Get(v.ID)
			s.Scrub.Views = append(s.Scrub.Views, metrics.ViewScrubSnapshot{
				Tree:           uint32(v.ID),
				View:           v.Name,
				Passes:         vs.Passes.Load(),
				RowsVerified:   vs.RowsVerified.Load(),
				Divergences:    vs.Divergences.Load(),
				CoverageTS:     vs.CoverageTS.Load(),
				LastPassUnixNs: vs.LastPassUnixNs.Load(),
			})
		}
	}
	s.Escrow.Shards = db.ledger.Shards()
	s.Ghost.Created = db.ghostsCreated.Load()
	s.Ghost.Erased = db.ghostsErased.Load()
	s.Recovery = metrics.RecoverySnapshot{
		Gen:        db.recovered.Gen,
		Replayed:   db.recovered.Replayed,
		Losers:     db.recovered.Losers,
		UndoneOps:  db.recovered.UndoneOps,
		Torn:       db.recovered.Torn,
		Fresh:      db.recovered.Fresh,
		AnalysisNs: db.recovered.Analysis.Nanoseconds(),
		RedoNs:     db.recovered.Redo.Nanoseconds(),
		UndoNs:     db.recovered.Undo.Nanoseconds(),
	}
	if db.flight != nil {
		s.Flight = metrics.FlightSnapshot{
			Enabled:  true,
			Capacity: db.flight.Capacity(),
			Recorded: db.flight.Recorded(),
			Dumps:    db.flight.Dumps(),
		}
	}
	return s
}

// ErrFlightDisabled reports a dump request against a database opened with the
// flight recorder disabled (FlightRecorderSize < 0).
var ErrFlightDisabled = errors.New("core: flight recorder disabled")

// DumpFlightRecord writes the flight recorder's history to w as a
// human-readable causal timeline: one line per event (sequence, relative
// time, span, description) followed by a per-transaction span summary.
func (db *DB) DumpFlightRecord(w io.Writer) error {
	if db.flight == nil {
		return ErrFlightDisabled
	}
	return db.flight.WriteTimeline(w)
}

// WriteFlightRecordJSONL writes the flight recorder's history to w as JSON
// Lines, one event per line in sequence order — the machine-readable twin of
// DumpFlightRecord with a stable, golden-tested schema.
func (db *DB) WriteFlightRecordJSONL(w io.Writer) error {
	if db.flight == nil {
		return ErrFlightDisabled
	}
	return db.flight.WriteJSONL(w)
}

// tree returns the tree for tid, creating it on demand.
func (db *DB) tree(tid id.Tree) *btree.Tree {
	db.treesMu.RLock()
	t := db.trees[tid]
	db.treesMu.RUnlock()
	if t != nil {
		return t
	}
	db.treesMu.Lock()
	defer db.treesMu.Unlock()
	if t = db.trees[tid]; t == nil {
		t = btree.New()
		db.trees[tid] = t
	}
	return t
}

// hit notifies the fault hooks (when armed) that the engine reached a named
// crash point; a non-nil error must abort the surrounding operation.
func (db *DB) hit(p fault.Point) error {
	if db.opts.Hooks == nil {
		return nil
	}
	return db.opts.Hooks.Hit(p)
}

// logOp logs a record for t and applies it to the trees (write-ahead
// discipline: the record reaches the log buffer before the trees change).
func (db *DB) logOp(t *txn.Txn, rec *wal.Record) error {
	if err := db.hit(fault.PointWALAppend); err != nil {
		return err
	}
	start := time.Now()
	rec.Txn = t.ID
	rec.Sys = t.Sys
	_, walBytes, err := db.log.AppendSized(rec)
	if err != nil {
		return err
	}
	db.met.Hot.Views.Get(rec.Tree).WALBytes.Add(int64(walBytes))
	if isRowOp(rec.Type) {
		// Pin the operation's provisional version before the tree changes, so
		// the chain seed (when this is the row's first tracked mutation) is the
		// committed pre-image. The caller's write lock — or the structure latch,
		// for view rows — still serializes the row here.
		tree := db.tree(rec.Tree)
		db.mvcc.Pin(rec.Tree, rec.Key, rec, t.ID, func() ([]byte, bool, bool) {
			return tree.Get(rec.Key)
		})
	}
	if err := apply.Apply(db.reg, db.tree, rec); err != nil {
		db.mvcc.Unpin(rec.Tree, rec.Key, rec)
		return err
	}
	if err := t.RecordOp(rec); err != nil {
		db.mvcc.Unpin(rec.Tree, rec.Key, rec)
		return err
	}
	db.met.Txn.Apply.Observe(time.Since(start))
	return nil
}

// isRowOp reports whether a record type mutates one keyed row (and therefore
// carries a version chain entry).
func isRowOp(t wal.Type) bool {
	switch t {
	case wal.TInsert, wal.TDelete, wal.TUpdate, wal.TSetGhost, wal.TEscrowFold:
		return true
	default:
		return false
	}
}

// stampOps promotes every pinned operation of t to a committed version at ts.
// It must run before the transaction manager wipes t's undo chain.
func (db *DB) stampOps(t *txn.Txn, ts uint64) {
	for _, op := range t.Ops() {
		if isRowOp(op.Type) {
			db.mvcc.Stamp(op.Tree, op.Key, op, ts)
		}
	}
}

// unpinOps discards every pinned operation of t (abort without rollback —
// e.g. a failed commit-record append, where rollbackOps is not run).
func (db *DB) unpinOps(t *txn.Txn) {
	for _, op := range t.Ops() {
		if isRowOp(op.Type) {
			db.mvcc.Unpin(op.Tree, op.Key, op)
		}
	}
}

// defaultMVCCPruneInterval is the default background pruner period: short
// enough that chains stay near-empty under a read-mostly load, long enough
// that an idle engine burns nothing measurable.
const defaultMVCCPruneInterval = 25 * time.Millisecond

// prunerLoop incrementally folds version chains up to the snapshot horizon:
// one store shard per tick, a full rotation per interval. Spreading the pass
// keeps the per-tick pause and allocation burst at 1/shards of a full prune —
// a monolithic pass folds every hot chain and then the write set rebuilds
// them all at once, a visible throughput sawtooth on small machines.
func (db *DB) prunerLoop(interval time.Duration) {
	defer close(db.prunerDone)
	shards := db.mvcc.NumShards()
	step := interval / time.Duration(shards)
	if step <= 0 {
		step = interval
	}
	tick := time.NewTicker(step)
	defer tick.Stop()
	for cursor := 0; ; cursor++ {
		select {
		case <-db.prunerStop:
			return
		case <-tick.C:
			start := time.Now()
			pruned := db.mvcc.PruneShard(cursor, db.oracle.PruneHorizon(), db.foldVersionDeltas)
			if pruned > 0 && db.tracer != nil {
				db.tracer.TraceEvent(metrics.Event{Type: metrics.EventMVCCPrune, Rows: pruned, Dur: time.Since(start)})
			}
		}
	}
}

// PruneVersions folds every version at or below the snapshot horizon (the
// oldest active read timestamp, or the watermark when no snapshot is active)
// into its chain's base and drops quiescent chains. The background pruner
// calls it periodically; tests and operators may call it directly. It returns
// the number of versions pruned.
func (db *DB) PruneVersions() int {
	start := time.Now()
	pruned := db.mvcc.Prune(db.oracle.PruneHorizon(), db.foldVersionDeltas)
	if pruned > 0 && db.tracer != nil {
		db.tracer.TraceEvent(metrics.Event{Type: metrics.EventMVCCPrune, Rows: pruned, Dur: time.Since(start)})
	}
	return pruned
}

// foldVersionDeltas is the pruner's delta folder: it applies committed escrow
// deltas to an encoded view row using the view's compiled maintainer.
func (db *DB) foldVersionDeltas(tree id.Tree, val []byte, deltas []wal.ColDelta) ([]byte, bool, error) {
	m := db.reg.Maintainer(tree)
	if m == nil {
		return nil, false, fmt.Errorf("core: version fold against unknown view %s", tree)
	}
	stored, err := record.DecodeRow(val)
	if err != nil {
		return nil, false, err
	}
	next, err := m.ApplyFold(stored, deltas)
	if err != nil {
		return nil, false, err
	}
	empty, err := m.GroupEmpty(next)
	if err != nil {
		return nil, false, err
	}
	return record.EncodeRow(next), empty, nil
}

// Checkpoint quiesces the database, writes a snapshot generation, and
// truncates the log. Concurrent transactions finish first; new ones wait.
func (db *DB) Checkpoint() error {
	if db.closed.Load() {
		return ErrClosed
	}
	db.gate.Lock()
	defer db.gate.Unlock()
	if err := db.hit(fault.PointCheckpoint); err != nil {
		return err
	}
	db.treesMu.RLock()
	trees := make(map[id.Tree]*btree.Tree, len(db.trees))
	for k, v := range db.trees {
		trees[k] = v
	}
	db.treesMu.RUnlock()
	writer, gen, err := recovery.CheckpointFS(db.opts.FS, db.path, db.gen, db.log, db.Catalog(), trees, db.tm.NextID(), db.opts.SyncMode)
	if err != nil {
		return err
	}
	writer.SetObserver(&db.met.WAL, db.tracer)
	db.log = writer
	db.gen = gen
	return nil
}

// runSysTxn executes fn as a system transaction: begun, logged, and
// committed (or rolled back on error) independently of any user
// transaction, with its locks released at its own end (DESIGN.md §5).
// The caller must already be admitted through the gate.
func (db *DB) runSysTxn(fn func(st *txn.Txn) error) error {
	return db.runSysTxnHook(fn, nil)
}

// runSysTxnHook is runSysTxn with a pre-finish hook: preFinish (when non-nil)
// runs after the commit timestamp is allocated and every version stamped, but
// before FinishCommit publishes it and the locks release. A refresh barrier
// published here is ordered before any later commit's batch — the deferred
// tier's correctness hinge (deferred.go).
func (db *DB) runSysTxnHook(fn func(st *txn.Txn) error, preFinish func(ts uint64)) error {
	st := db.tm.Begin(true, txn.ReadCommitted)
	db.sysTxns.Add(1)
	if _, err := db.log.Append(&wal.Record{Type: wal.TBegin, Txn: st.ID, Sys: true}); err != nil {
		db.tm.Abort(st)
		return err
	}
	if err := fn(st); err != nil {
		db.rollbackOps(st)
		db.log.Append(&wal.Record{Type: wal.TAbortEnd, Txn: st.ID, Sys: true})
		db.tm.Abort(st)
		db.lm.ReleaseAll(st.ID)
		return err
	}
	if err := db.hit(fault.PointSysCommit); err != nil {
		db.rollbackOps(st)
		db.log.Append(&wal.Record{Type: wal.TAbortEnd, Txn: st.ID, Sys: true})
		db.tm.Abort(st)
		db.lm.ReleaseAll(st.ID)
		return err
	}
	if _, err := db.log.Append(&wal.Record{Type: wal.TCommit, Txn: st.ID, Sys: true}); err != nil {
		db.unpinOps(st)
		db.tm.Abort(st)
		db.lm.ReleaseAll(st.ID)
		return err
	}
	// Stamp the system transaction's versions before the manager wipes its
	// undo chain and before its locks release (so the next writer of any of
	// its rows allocates a later timestamp).
	ts := db.oracle.AllocateCommitTS()
	db.stampOps(st, ts)
	if preFinish != nil {
		preFinish(ts)
	}
	db.oracle.FinishCommit(ts)
	db.tm.Commit(st)
	db.lm.ReleaseAll(st.ID)
	return nil
}

// rollbackOps applies and logs compensation records for every operation of
// t, newest first.
func (db *DB) rollbackOps(t *txn.Txn) {
	for _, op := range t.OpsSince(0) {
		clr, err := apply.Invert(db.reg, db.tree, op)
		if err != nil {
			// Inversion of a logged operation cannot legitimately fail; a
			// failure here means corrupted state, so surface it loudly.
			panic(fmt.Sprintf("core: rollback of %s failed: %v", op, err))
		}
		db.log.Append(clr)
		if isRowOp(op.Type) {
			db.mvcc.Unpin(op.Tree, op.Key, op)
		}
	}
}
