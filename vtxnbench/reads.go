package main

import (
	"context"
	"fmt"
	"time"

	vtxn "repro"
)

// loadBatches inserts n rows, 500 to a transaction, through insertRow, and
// returns the last batch's commit timestamp.
func loadBatches(db *vtxn.DB, n int, insertRow func(tx *vtxn.Tx, i int) error) (uint64, error) {
	const batch = 500
	var ts uint64
	for lo := 0; lo < n; lo += batch {
		tx, err := db.BeginTx(context.Background(), writeTx)
		if err != nil {
			return 0, err
		}
		for i := lo; i < lo+batch && i < n; i++ {
			if err := insertRow(tx, i); err != nil {
				_ = tx.Rollback() // the insert's error is the one to report
				return 0, err
			}
		}
		if err := tx.Commit(); err != nil {
			return 0, err
		}
		ts = tx.CommitTS()
	}
	return ts, nil
}

// drain waits until view has folded every commit up to ts.
func drain(db *vtxn.DB, view string, ts uint64) error {
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := db.WaitForViewWatermark(ctx, view, ts); err != nil {
		return fmt.Errorf("drain %s to ts %d: %w", view, ts, err)
	}
	return nil
}

// readPoint runs one read-only Snapshot transaction around read, times it
// as a read, and hands the result to check.
func readPoint(c *client, read func(tx *vtxn.Tx) (vtxn.Row, bool, error), check func(vtxn.Row, bool)) {
	c.opStart()
	defer c.opEnd()
	t0 := time.Now()
	tx, err := c.begin(readOnly)
	if err != nil {
		c.fail("begin read: %v", err)
		return
	}
	row, ok, err := read(tx)
	if err != nil {
		c.abort(tx)
		c.fail("read: %v", err)
		return
	}
	if err := c.commitTx(tx); err != nil {
		c.fail("end read: %v", err)
		return
	}
	c.read.add(time.Since(t0))
	check(row, ok)
}

// readScan runs one read-only Snapshot transaction scanning [lo, hi) of a
// view, times it as a scan, and hands the rows to check.
func readScan(c *client, view string, lo, hi vtxn.Row, check func([]vtxn.ViewRow)) {
	c.opStart()
	defer c.opEnd()
	t0 := time.Now()
	tx, err := c.begin(readOnly)
	if err != nil {
		c.fail("begin scan: %v", err)
		return
	}
	rows, err := c.scanViewRange(tx, view, lo, hi)
	if err != nil {
		c.abort(tx)
		c.fail("scan %s: %v", view, err)
		return
	}
	if err := c.commitTx(tx); err != nil {
		c.fail("end scan: %v", err)
		return
	}
	c.scan.add(time.Since(t0))
	check(rows)
}

// checkViewRow reads one view row in its own snapshot and compares its
// integer results with want; a nil want expects the row to be absent.
func checkViewRow(c *client, view string, key vtxn.Row, want []int64) {
	readPoint(c, func(tx *vtxn.Tx) (vtxn.Row, bool, error) {
		return c.getViewRow(tx, view, key)
	}, func(row vtxn.Row, ok bool) {
		if !rowIs(row, ok, want) {
			c.fail("%s%v = %v (found %v), want %v", view, key, row, ok, want)
		}
	})
}

func rowIs(row vtxn.Row, ok bool, want []int64) bool {
	if want == nil || !ok {
		return want == nil && !ok
	}
	if len(row) != len(want) {
		return false
	}
	for i, w := range want {
		if row[i].AsInt() != w {
			return false
		}
	}
	return true
}
