package core

import (
	"bytes"
	"sync"

	"repro/internal/btree"
	"repro/internal/id"
	"repro/internal/mvcc"
)

// scanBatchRows is how many tree entries a snapshot range scan copies per
// hold of the tree latch: about one leaf.
const scanBatchRows = 64

// scanBatches recycles the scan copy buffers across scans.
var scanBatches = sync.Pool{New: func() any { return new(btree.Batch) }}

// readPoint names a step of the snapshot read protocol where DB.readHook
// runs.
type readPoint uint8

const (
	// readRowUntracked: snapshotRow found the row untracked, before it
	// reads the tree.
	readRowUntracked readPoint = iota + 1
	// readRowTreeRead: snapshotRow read the tree, before it re-checks the
	// version store.
	readRowTreeRead
	// readScanCopied: snapshotScanAt copied a batch and released the tree
	// latch, before it looks up the batch's removed keys.
	readScanCopied
)

func (db *DB) atReadPoint(p readPoint) {
	if db.readHook != nil {
		db.readHook(p)
	}
}

// snapshotRow resolves one row of tree at the transaction's read timestamp:
// version-chain state when the row is tracked, the btree value otherwise (an
// untracked row is committed at or below every live read timestamp). The
// btree fallback re-checks the chain afterwards: a writer may have seeded a
// chain — and dirtied the tree — between the first check and the read, in
// which case the chain's committed pre-image wins. The store's drop
// generation closes the remaining window: a writer that pinned the row, was
// read dirty, rolled back, and had its chain pruned, all between the two
// checks, leaves the row untracked at both — so a moved generation retries
// the read. self overlays the transaction's own pending row operations
// (read-your-own-writes).
func (db *DB) snapshotRow(tree id.Tree, key []byte, ts uint64, self id.Txn) ([]byte, bool, bool, error) {
	for {
		gen := db.mvcc.DropGen()
		res, tracked := db.mvcc.Read(tree, key, ts, self)
		if !tracked {
			db.atReadPoint(readRowUntracked)
			val, ghost, ok := db.tree(tree).Get(key)
			db.atReadPoint(readRowTreeRead)
			if res, tracked = db.mvcc.Read(tree, key, ts, self); !tracked {
				if db.mvcc.DropGen() != gen {
					continue
				}
				return val, ghost, ok, nil
			}
		}
		return db.resolveVersion(tree, res)
	}
}

// resolveVersion turns a version-store resolution into the row's stored
// value and ghost bit, folding any escrow deltas into the full image.
func (db *DB) resolveVersion(tree id.Tree, res mvcc.Resolved) ([]byte, bool, bool, error) {
	if !res.Present {
		return nil, false, false, nil
	}
	val, ghost := res.Val, res.Ghost
	if len(res.Deltas) > 0 {
		nv, g, err := db.foldVersionDeltas(tree, val, res.Deltas)
		if err != nil {
			return nil, false, false, err
		}
		val, ghost = nv, g
	}
	return val, ghost, true, nil
}

// snapshotScan visits the live rows of tree in [lo, hi) as of the
// transaction's read timestamp, overlaying the transaction's own pending
// writes. fn returning false stops the scan.
func (db *DB) snapshotScan(tx *Tx, tree id.Tree, lo, hi []byte, fn func(key, val []byte) (bool, error)) error {
	return db.snapshotScanAt(tree, lo, hi, tx.readTS, tx.t.ID, fn)
}

// snapshotScanAt visits the live rows of tree in [lo, hi) as of timestamp ts,
// with zero lock-manager traffic and work proportional to the range
// (DESIGN.md §8). It walks the range in batches of about one leaf:
//
//  1. Read the store's drop generation, then copy the next batch of tree
//     entries — ghosts included, since a ghost now may have been live at ts
//     — and release the tree latch. The version store is never entered under
//     the latch (see mvcc.Store.Pin for the deadlock that would risk).
//  2. Look up the batch's range in the store's removed-key index: tracked
//     keys already deleted from the tree but possibly visible at ts.
//  3. Merge the two and resolve each key. A tracked key resolves through its
//     chain; an untracked batch key uses the copied value as long as the
//     drop generation has not moved since step 1 (no chain that covered the
//     copy can have vanished), and otherwise falls back to snapshotRow.
//
// self overlays that transaction's pending operations; the scrubber passes
// the zero Txn (no transaction ever carries ID 0, so nothing overlays). fn
// returning false stops the scan. key and val are only valid during the call.
func (db *DB) snapshotScanAt(tree id.Tree, lo, hi []byte, ts uint64, self id.Txn, fn func(key, val []byte) (bool, error)) error {
	t := db.tree(tree)
	b := scanBatches.Get().(*btree.Batch)
	defer scanBatches.Put(b)
	cur := lo
	var resume []byte
	for {
		gen := db.mvcc.DropGen()
		t.ScanBatch(b, cur, hi, scanBatchRows)
		db.atReadPoint(readScanCopied)
		end := b.Next()
		if end == nil {
			end = hi
		}
		removed := db.mvcc.TrackedKeys(tree, cur, end)
		for i, j := 0, 0; i < b.Len() || j < len(removed); {
			var (
				key, val  []byte
				ghost, ok bool
				err       error
			)
			fromBatch := j == len(removed)
			if !fromBatch && i < b.Len() {
				c := bytes.Compare(b.Key(i), removed[j])
				fromBatch = c <= 0
				if c == 0 {
					j++
				}
			}
			if fromBatch {
				key = b.Key(i)
				val, ghost, ok, err = db.batchRow(tree, key, b.Val(i), b.Ghost(i), gen, ts, self)
				i++
			} else {
				key = removed[j]
				val, ghost, ok, err = db.snapshotRow(tree, key, ts, self)
				j++
			}
			if err != nil {
				return err
			}
			if !ok || ghost {
				continue
			}
			cont, err := fn(key, val)
			if err != nil || !cont {
				return err
			}
		}
		if b.Next() == nil {
			return nil
		}
		resume = append(resume[:0], b.Next()...)
		cur = resume
	}
}

// batchRow resolves one key of a scan batch whose tree entry (val, ghost)
// was copied after the scan read drop generation gen.
func (db *DB) batchRow(tree id.Tree, key, val []byte, ghost bool, gen, ts uint64, self id.Txn) ([]byte, bool, bool, error) {
	res, tracked := db.mvcc.Read(tree, key, ts, self)
	if tracked {
		return db.resolveVersion(tree, res)
	}
	if db.mvcc.DropGen() != gen {
		return db.snapshotRow(tree, key, ts, self)
	}
	return val, ghost, true, nil
}
