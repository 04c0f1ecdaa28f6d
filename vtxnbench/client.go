package main

import (
	"context"
	"fmt"
	"time"

	vtxn "repro"
)

// spanName identifies one traced call: a vtxn API call made by the
// benchmark, or the benchmark operation that encloses a transaction's calls.
type spanName uint8

const (
	spBegin spanName = iota
	spGet
	spUpdate
	spInsert
	spCommit
	spRollback
	spGetViewRow
	spScanViewRange
	spWaitWatermark
	spOp // a whole benchmark operation: the parent of its calls
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"begin", "get", "update", "insert", "commit", "rollback",
	"get_view_row", "scan_view_range", "wait_watermark", "op",
}

// span is one timed interval. Times are nanoseconds since the trace's base.
// parent indexes the enclosing op span in the same client's log (-1 for an
// op span); all spans of one transaction share txn.
type span struct {
	start, end int64
	parent     int32
	txn        int64
	name       spanName
}

// client is one load goroutine's handle on the database: it wraps the vtxn
// calls the benchmark makes, records a span around each when tracing, and
// keeps the client's own latency samples and failure counts. A client is
// used by one goroutine at a time, so nothing in it is synchronized.
type client struct {
	db  *vtxn.DB
	ctx context.Context

	traced bool
	base   time.Time
	spans  []span
	op     int32 // index of the open op span, -1 when none
	txn    int64 // id shared by the spans of the current operation

	commit, read, scan, visible lat

	attempted, failed int64
	firstErr          string
	lastTS            uint64
}

func newClient(ctx context.Context, db *vtxn.DB, traced bool, base time.Time) *client {
	return &client{db: db, ctx: ctx, traced: traced, base: base, op: -1}
}

// fail counts one failed operation and keeps the first error for the report.
func (c *client) fail(format string, args ...any) {
	c.failed++
	if c.firstErr == "" {
		c.firstErr = fmt.Sprintf(format, args...)
	}
}

func (c *client) now() int64 { return int64(time.Since(c.base)) }

func (c *client) record(name spanName, start int64) {
	c.spans = append(c.spans, span{start: start, end: c.now(), parent: c.op, txn: c.txn, name: name})
}

// opStart opens the span of one benchmark operation.
func (c *client) opStart() {
	c.attempted++
	if !c.traced {
		return
	}
	c.txn++
	c.spans = append(c.spans, span{start: c.now(), parent: -1, txn: c.txn, name: spOp})
	c.op = int32(len(c.spans) - 1)
}

func (c *client) opEnd() {
	if !c.traced {
		return
	}
	c.spans[c.op].end = c.now()
	c.op = -1
}

func (c *client) begin(opts vtxn.TxOptions) (*vtxn.Tx, error) {
	if !c.traced {
		return c.db.BeginTx(c.ctx, opts)
	}
	t := c.now()
	tx, err := c.db.BeginTx(c.ctx, opts)
	c.record(spBegin, t)
	return tx, err
}

func (c *client) get(tx *vtxn.Tx, table string, pk vtxn.Row) (vtxn.Row, bool, error) {
	if !c.traced {
		return tx.Get(table, pk)
	}
	t := c.now()
	row, ok, err := tx.Get(table, pk)
	c.record(spGet, t)
	return row, ok, err
}

func (c *client) update(tx *vtxn.Tx, table string, pk vtxn.Row, set map[int]vtxn.Value) error {
	if !c.traced {
		return tx.Update(table, pk, set)
	}
	t := c.now()
	err := tx.Update(table, pk, set)
	c.record(spUpdate, t)
	return err
}

func (c *client) insert(tx *vtxn.Tx, table string, row vtxn.Row) error {
	if !c.traced {
		return tx.Insert(table, row)
	}
	t := c.now()
	err := tx.Insert(table, row)
	c.record(spInsert, t)
	return err
}

func (c *client) commitTx(tx *vtxn.Tx) error {
	if !c.traced {
		err := tx.Commit()
		c.noteTS(tx)
		return err
	}
	t := c.now()
	err := tx.Commit()
	c.record(spCommit, t)
	c.noteTS(tx)
	return err
}

// noteTS keeps the highest commit timestamp the client was acknowledged.
func (c *client) noteTS(tx *vtxn.Tx) {
	if ts := tx.CommitTS(); ts > c.lastTS {
		c.lastTS = ts
	}
}

func (c *client) rollback(tx *vtxn.Tx) error {
	if !c.traced {
		return tx.Rollback()
	}
	t := c.now()
	err := tx.Rollback()
	c.record(spRollback, t)
	return err
}

// abort rolls back a transaction abandoned after an error. The rollback's
// own error adds nothing: the operation is already counted as failed.
func (c *client) abort(tx *vtxn.Tx) { _ = c.rollback(tx) }

func (c *client) getViewRow(tx *vtxn.Tx, view string, key vtxn.Row) (vtxn.Row, bool, error) {
	if !c.traced {
		return tx.GetViewRow(view, key)
	}
	t := c.now()
	row, ok, err := tx.GetViewRow(view, key)
	c.record(spGetViewRow, t)
	return row, ok, err
}

func (c *client) scanViewRange(tx *vtxn.Tx, view string, lo, hi vtxn.Row) ([]vtxn.ViewRow, error) {
	if !c.traced {
		return tx.ScanViewRange(view, lo, hi)
	}
	t := c.now()
	rows, err := tx.ScanViewRange(view, lo, hi)
	c.record(spScanViewRange, t)
	return rows, err
}

func (c *client) waitWatermark(view string, ts uint64) error {
	if !c.traced {
		return c.db.WaitForViewWatermark(c.ctx, view, ts)
	}
	t := c.now()
	err := c.db.WaitForViewWatermark(c.ctx, view, ts)
	c.record(spWaitWatermark, t)
	return err
}

// readOnly is the options of every benchmark read: a read-only Snapshot
// transaction, the engine's lock-free and log-free read path.
var readOnly = vtxn.TxOptions{Isolation: vtxn.Snapshot, ReadOnly: true}

// writeTx is the options of every benchmark write transaction.
var writeTx = vtxn.TxOptions{Isolation: vtxn.ReadCommitted}
