package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	vtxn "repro"
	"repro/internal/applier"
	"repro/internal/btree"
	"repro/internal/escrow"
	"repro/internal/id"
	"repro/internal/lock"
	"repro/internal/mvcc"
	"repro/internal/record"
	"repro/internal/wal"
)

// replayResult is one layer entry point's cost, replayed on one goroutine.
type replayResult struct {
	name   string
	ns     float64 // per call, median over the repeats
	allocs float64 // per call
}

const (
	replayCalls   = 16384
	replayBatch   = 1024 // calls between untimed housekeeping steps
	replayRepeats = 5
	replayTree    = id.Tree(7)
)

// replaySink keeps the encoders' results live so the calls are not elided.
var replaySink []byte

// replayStream is the workload's key stream: base-row keys and rows and the
// view group keys they fold into, in the order the workload generates them.
type replayStream struct {
	keys, rows, groups []vtxn.Row
}

func streamFor(name string, seed int64, n int) replayStream {
	rng := rand.New(rand.NewSource(seed))
	var s replayStream
	for i := 0; i < n; i++ {
		switch name {
		case "escrow-hot":
			a := rng.Intn(100_000)
			s.keys = append(s.keys, vtxn.Row{vtxn.Int(int64(a))})
			s.rows = append(s.rows, vtxn.Row{vtxn.Int(int64(a)), vtxn.Int(ehBranch(a)), vtxn.Int(ehRegion(a)), vtxn.Int(1000 + rng.Int63n(1000))})
			s.groups = append(s.groups, vtxn.Row{vtxn.Int(ehBranch(a)), vtxn.Int(ehRegion(a))})
		case "snapshot-read":
			u := rng.Intn(50_000)
			s.keys = append(s.keys, vtxn.Row{vtxn.Int(int64(100_000 + i))})
			s.rows = append(s.rows, vtxn.Row{vtxn.Int(int64(100_000 + i)), vtxn.Int(int64(u)), vtxn.Int(srWriteAmount)})
			s.groups = append(s.groups, vtxn.Row{vtxn.Int(int64(u))})
		default: // deferred-rollup
			cust := rng.Int63n(4096)
			item := int64(30_000 + i)
			s.keys = append(s.keys, vtxn.Row{vtxn.Int(item)})
			s.rows = append(s.rows, (&deferredRollup{}).itemRow(item, cust, 10+rng.Int63n(90)))
			s.groups = append(s.groups, vtxn.Row{vtxn.Int(item / drItems), vtxn.Int(cust), vtxn.Str(drRegion(cust))})
		}
	}
	return s
}

// replayLayers times each internal layer's exported entry point on the
// workload's key stream, with allocations counted the way
// testing.AllocsPerRun counts them: GOMAXPROCS 1, after the databases are
// closed, so the process's malloc count is the replaying goroutine's.
func replayLayers(cfg config, dir string) ([]replayResult, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	s := streamFor(cfg.def.name, cfg.seed, replayCalls)
	keys := make([][]byte, replayCalls)
	vals := make([][]byte, replayCalls)
	groups := make([][]byte, replayCalls)
	for i := range keys {
		keys[i] = record.EncodeKey(s.keys[i])
		vals[i] = record.EncodeRow(s.rows[i])
		groups[i] = record.EncodeKey(s.groups[i])
	}
	var out []replayResult
	add := func(name string, op func(i int), between func(end int)) {
		out = append(out, replayOne(name, op, between))
	}
	add("record.encode_key", func(i int) { replaySink = record.EncodeKey(s.keys[i]) }, nil)
	add("record.encode_row", func(i int) { replaySink = record.EncodeRow(s.rows[i]) }, nil)

	var tree *btree.Tree
	add("btree.put", func(i int) {
		if i == 0 {
			tree = btree.New()
		}
		tree.Put(keys[i], vals[i], false)
	}, nil)
	add("btree.get", func(i int) { tree.Get(keys[i]) }, nil)

	lm := lock.NewManager()
	defer lm.Close()
	lockOne := func(mode lock.Mode, key [][]byte) func(i int) {
		return func(i int) {
			txn := id.Txn(i + 1)
			res := lock.KeyResource(replayTree, key[i])
			if err := lm.Lock(txn, res, mode, time.Second); err != nil {
				panic(fmt.Sprintf("replay lock: %v", err)) // uncontended: cannot wait
			}
			lm.Unlock(txn, res)
		}
	}
	add("lock.acquire_release_e", lockOne(lock.ModeE, groups), nil)
	add("lock.acquire_release_x", lockOne(lock.ModeX, keys), nil)

	// Four escrow cells per transaction, as a two-aggregate fold of a
	// transfer's two rows; finished transactions are discarded untimed.
	ledger := escrow.NewLedger()
	add("escrow.add", func(i int) {
		cell := escrow.CellID{Row: escrow.RowID{Tree: replayTree, Key: string(groups[i])}, Col: uint32(i % 2)}
		ledger.Add(id.Txn(i/4+1), cell, escrow.Delta{Int: int64(i%100 + 1)})
	}, func(end int) {
		for t := (end-replayBatch)/4 + 1; t <= end/4; t++ {
			ledger.Discard(id.Txn(t))
		}
	})

	w, err := wal.Create(filepath.Join(dir, "replay.wal"), 1, wal.SyncNone)
	if err != nil {
		return nil, err
	}
	recs := make([]wal.Record, replayCalls)
	for i := range recs {
		recs[i] = wal.Record{Type: wal.TInsert, Txn: id.Txn(i + 1), Tree: replayTree, Key: keys[i], NewVal: vals[i]}
	}
	var walErr error
	add("wal.append", func(i int) {
		if _, err := w.Append(&recs[i]); err != nil && walErr == nil {
			walErr = err
		}
	}, func(int) {
		if err := w.Sync(0); err != nil && walErr == nil {
			walErr = err
		}
	})
	if err := w.Close(); err != nil && walErr == nil {
		walErr = err
	}
	if walErr != nil {
		return nil, fmt.Errorf("replay wal: %w", walErr)
	}

	// Each distinct group's chain holds a committed base and one stamped
	// delta version, as a hot escrow row between prunes does.
	store := mvcc.NewStore(nil)
	base := record.EncodeRow(vtxn.Row{vtxn.Int(1), vtxn.Int(100)})
	seen := map[string]bool{}
	for i, g := range groups {
		if seen[string(g)] {
			continue
		}
		seen[string(g)] = true
		rec := &wal.Record{Type: wal.TEscrowFold, Txn: id.Txn(i + 1), Tree: replayTree, Key: g,
			Deltas: []wal.ColDelta{{Col: 0, Int: 1}, {Col: 1, Int: 5}}}
		store.Pin(replayTree, g, rec, rec.Txn, func() ([]byte, bool, bool) { return base, false, true })
		store.Stamp(replayTree, g, rec, uint64(i+1))
	}
	add("mvcc.read", func(i int) { store.Read(replayTree, groups[i], replayCalls+1, 0) }, nil)

	co := applier.NewCoalescer()
	batches := make([]applier.Batch, replayCalls)
	for i := range batches {
		batches[i] = applier.Batch{TS: uint64(i + 1), Groups: []applier.GroupDelta{{
			Tree: replayTree, Key: string(groups[i]), Deltas: []wal.ColDelta{{Col: 0, Int: 1}, {Col: 1, Int: 5}},
		}}}
	}
	add("applier.coalescer_add", func(i int) { co.Add(&batches[i]) }, func(int) { co.Take() })
	return out, nil
}

// replayOne runs op over the stream replayRepeats times, timing batches of
// replayBatch calls with between (when set) run untimed after each batch.
func replayOne(name string, op func(i int), between func(end int)) replayResult {
	var nsRuns []float64
	var mallocs uint64
	var ms runtime.MemStats
	for rep := 0; rep < replayRepeats; rep++ {
		var elapsed time.Duration
		for lo := 0; lo < replayCalls; lo += replayBatch {
			runtime.ReadMemStats(&ms)
			m0 := ms.Mallocs
			t0 := time.Now()
			for i := lo; i < lo+replayBatch; i++ {
				op(i)
			}
			elapsed += time.Since(t0)
			runtime.ReadMemStats(&ms)
			mallocs += ms.Mallocs - m0
			if between != nil {
				between(lo + replayBatch)
			}
		}
		nsRuns = append(nsRuns, float64(elapsed.Nanoseconds())/replayCalls)
	}
	sort.Float64s(nsRuns)
	return replayResult{name: name, ns: nsRuns[len(nsRuns)/2], allocs: float64(mallocs) / (replayRepeats * replayCalls)}
}
