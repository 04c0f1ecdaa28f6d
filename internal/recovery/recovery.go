// Package recovery implements restart: load the current generation's
// snapshot, redo the log (including CLRs), determine loser transactions, and
// undo them with fresh compensation records — ARIES specialized to
// memory-resident trees rebuilt from a quiesced snapshot (DESIGN.md §2).
// It also implements the checkpoint that creates a new generation.
package recovery

import (
	"errors"
	"fmt"
	"os"
	"time"

	"repro/internal/apply"
	"repro/internal/btree"
	"repro/internal/catalog"
	"repro/internal/fault"
	"repro/internal/id"
	"repro/internal/snapshot"
	"repro/internal/wal"
)

// Summary reports what restart did.
type Summary struct {
	Gen       uint64 // generation recovered
	Replayed  int    // records redone from the log
	Losers    int    // transactions rolled back
	UndoneOps int    // operations compensated during undo
	Torn      bool   // the log had a torn tail that was truncated
	Fresh     bool   // no prior state existed

	// Phase durations: analysis = snapshot load, redo = the one pass that
	// replays the log and truncates its torn tail, undo = loser rollback
	// (all zero for a fresh database).
	Analysis time.Duration
	Redo     time.Duration
	Undo     time.Duration
}

// State is a recovered, ready-to-run database image.
type State struct {
	Gen     uint64
	Reg     *apply.Registry
	Trees   map[id.Tree]*btree.Tree
	Log     *wal.Writer
	NextTxn id.Txn
	Summary Summary
}

// Catalog returns the recovered catalog.
func (s *State) Catalog() *catalog.Catalog { return s.Reg.Catalog() }

// txnInfo tracks one unfinished transaction seen in the log: only what undo
// needs if it turns out to be a loser.
type txnInfo struct {
	began  bool
	sys    bool
	ops    []*wal.Record
	undone map[uint64]bool // LSNs already compensated by CLRs; nil until the first
}

// Run recovers the database in dirPath, creating it if absent.
func Run(dirPath string, mode wal.SyncMode) (*State, error) {
	return RunFS(fault.OS{}, dirPath, mode)
}

// RunFS is Run on an injectable filesystem.
func RunFS(fsys fault.FS, dirPath string, mode wal.SyncMode) (*State, error) {
	if err := fsys.MkdirAll(dirPath, 0o755); err != nil {
		return nil, fmt.Errorf("recovery: mkdir: %w", err)
	}
	dir := wal.Dir{Path: dirPath, FS: fsys}
	gen, fresh, err := dir.Current()
	if err != nil {
		return nil, err
	}
	if fresh {
		return bootstrap(fsys, dir, mode)
	}

	phaseStart := time.Now()
	cat := catalog.New()
	trees := make(map[id.Tree]*btree.Tree)
	var nextTxn id.Txn = 1
	if _, err := fsys.Stat(dir.SnapPath(gen)); err == nil {
		cat, trees, nextTxn, err = snapshot.ReadFS(fsys, dir.SnapPath(gen))
		if err != nil {
			return nil, err
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("recovery: stat snapshot: %w", err)
	}
	analysisDur := time.Since(phaseStart)
	reg, err := apply.NewRegistry(cat)
	if err != nil {
		return nil, err
	}
	source := func(t id.Tree) *btree.Tree {
		tr := trees[t]
		if tr == nil {
			tr = btree.New()
			trees[t] = tr
		}
		return tr
	}

	// Redo pass: one scan replays every intact record in order, then
	// truncates the torn tail. A transaction leaves txns when its commit or
	// abort-end is replayed, so only losers' ops are retained for undo.
	phaseStart = time.Now()
	txns := make(map[id.Txn]*txnInfo)
	sum := Summary{Gen: gen}
	maxTxn := id.Txn(0)
	scanRes, err := wal.RepairFS(fsys, dir.LogPath(gen), func(rec *wal.Record) error {
		if rec.Txn > maxTxn {
			maxTxn = rec.Txn
		}
		sum.Replayed++
		if rec.Type == wal.TCommit || rec.Type == wal.TAbortEnd {
			delete(txns, rec.Txn)
			return apply.Apply(reg, source, rec)
		}
		ti := txns[rec.Txn]
		if ti == nil {
			ti = &txnInfo{}
			txns[rec.Txn] = ti
		}
		switch rec.Type {
		case wal.TBegin:
			ti.began = true
			ti.sys = rec.Sys
		case wal.TCLR:
			if ti.undone == nil {
				ti.undone = make(map[uint64]bool)
			}
			ti.undone[rec.UndoneLSN] = true
		default:
			ti.ops = append(ti.ops, rec)
		}
		return apply.Apply(reg, source, rec)
	})
	if err != nil {
		return nil, err
	}
	sum.Torn = scanRes.Torn
	sum.Redo = time.Since(phaseStart)

	// Open the log for appending undo records and new work.
	writer, err := wal.OpenAppendFS(fsys, dir.LogPath(gen), scanRes.LastLSN+1, mode)
	if err != nil {
		return nil, err
	}

	// Undo pass: roll back losers, newest operations first, skipping
	// operations already compensated before the crash.
	phaseStart = time.Now()
	for tid, ti := range txns {
		if !ti.began {
			continue
		}
		sum.Losers++
		for i := len(ti.ops) - 1; i >= 0; i-- {
			op := ti.ops[i]
			if ti.undone[op.LSN] {
				continue
			}
			clr, err := apply.Invert(reg, source, op)
			if err != nil {
				return nil, fmt.Errorf("recovery: undo %s: %w", op, err)
			}
			if _, err := writer.Append(clr); err != nil {
				return nil, err
			}
			sum.UndoneOps++
		}
		end := &wal.Record{Type: wal.TAbortEnd, Txn: tid, Sys: ti.sys}
		if _, err := writer.Append(end); err != nil {
			return nil, err
		}
	}
	if err := writer.Sync(0); err != nil {
		return nil, err
	}
	sum.Undo = time.Since(phaseStart)
	sum.Analysis = analysisDur

	// Every catalog object must have a tree even if never touched.
	for _, tid := range reg.Catalog().AllTreeIDs() {
		source(tid)
	}
	if maxTxn >= nextTxn {
		nextTxn = maxTxn + 1
	}
	return &State{
		Gen:     gen,
		Reg:     reg,
		Trees:   trees,
		Log:     writer,
		NextTxn: nextTxn,
		Summary: sum,
	}, nil
}

func bootstrap(fsys fault.FS, dir wal.Dir, mode wal.SyncMode) (*State, error) {
	reg, err := apply.NewRegistry(catalog.New())
	if err != nil {
		return nil, err
	}
	writer, err := wal.CreateFS(fsys, dir.LogPath(1), 1, mode)
	if err != nil {
		return nil, err
	}
	if err := dir.Commit(1); err != nil {
		writer.Close()
		return nil, err
	}
	return &State{
		Gen:     1,
		Reg:     reg,
		Trees:   make(map[id.Tree]*btree.Tree),
		Log:     writer,
		NextTxn: 1,
		Summary: Summary{Gen: 1, Fresh: true},
	}, nil
}

// Checkpoint writes a new generation: a snapshot of the quiesced state, a
// fresh empty log, and an atomically installed manifest. The caller must
// guarantee quiescence (no active transactions) and must stop using the old
// writer. It returns the new generation's writer.
func Checkpoint(dirPath string, oldGen uint64, oldLog *wal.Writer,
	cat *catalog.Catalog, trees map[id.Tree]*btree.Tree, nextTxn id.Txn,
	mode wal.SyncMode) (*wal.Writer, uint64, error) {
	return CheckpointFS(fault.OS{}, dirPath, oldGen, oldLog, cat, trees, nextTxn, mode)
}

// CheckpointFS is Checkpoint on an injectable filesystem.
func CheckpointFS(fsys fault.FS, dirPath string, oldGen uint64, oldLog *wal.Writer,
	cat *catalog.Catalog, trees map[id.Tree]*btree.Tree, nextTxn id.Txn,
	mode wal.SyncMode) (*wal.Writer, uint64, error) {
	dir := wal.Dir{Path: dirPath, FS: fsys}
	if err := oldLog.Close(); err != nil {
		return nil, 0, err
	}
	gen := oldGen + 1
	if err := snapshot.WriteFS(fsys, dir.SnapPath(gen), cat, trees, nextTxn); err != nil {
		return nil, 0, err
	}
	writer, err := wal.CreateFS(fsys, dir.LogPath(gen), 1, mode)
	if err != nil {
		return nil, 0, err
	}
	if err := dir.Commit(gen); err != nil {
		writer.Close()
		return nil, 0, err
	}
	return writer, gen, nil
}
