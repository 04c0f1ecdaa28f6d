package vtxn_test

import (
	"context"
	"fmt"
	"testing"

	vtxn "repro"
)

// TestViewDAGCascade truth-checks stacked views end to end over the 3-level
// rollup chain, once escrow-maintained and once fully deferred. Writers shift
// amounts between customers in different regions, so every commit moves
// totals across the whole chain while preserving the grand total and every
// row count:
//
//	(a) every snapshot read of the chain is cross-level consistent — the
//	    grand total agrees at all three levels and the row counts nest
//	    (orders per customer, customers per region), never a torn cascade;
//	(b) folds coalesce and stack: the cascade.* metrics show enqueued and
//	    coalesced contributions and folds at levels 1 and 2;
//	(c) at quiesce every level equals a recompute from its source, and a
//	    cascading refresh of the root changes nothing.
func TestViewDAGCascade(t *testing.T) {
	const (
		writers = orderItems / 2 // each writer tilts a disjoint pair
		readers = 4
	)
	scans := 150
	if testing.Short() {
		scans = 40
	}
	for _, mode := range []vtxn.Strategy{vtxn.StrategyEscrow, vtxn.StrategyDeferred} {
		t.Run(fmt.Sprint(mode), func(t *testing.T) {
			db, err := vtxn.Open(t.TempDir(), vtxn.Options{Watchdog: true})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			setupOrders(t, db, mode)
			if err := checkChain(db); err != nil {
				t.Fatalf("after load: %v", err)
			}

			storm := startTilts(t, db, "order_items", 4, perItem, writers, 0)
			parallel(readers, func(r int) {
				for i := 0; i < scans; i++ {
					if err := checkChain(db); err != nil {
						t.Errorf("reader %d scan %d: %v", r, i, err)
						return
					}
				}
			})
			storm.halt()
			if t.Failed() {
				t.FailNow()
			}

			if err := db.CheckConsistency(); err != nil {
				t.Fatalf("consistency at quiesce: %v", err)
			}
			if n, err := db.RefreshView("order_totals"); err != nil || n != 0 {
				t.Fatalf("cascading refresh of a consistent chain changed %d rows, err %v", n, err)
			}
			c := db.Metrics().Cascade
			if c.Enqueued == 0 || c.Coalesced == 0 {
				t.Fatalf("cascade flow enqueued=%d coalesced=%d", c.Enqueued, c.Coalesced)
			}
			if c.Folds == 0 || len(c.LevelFolds) < 3 || c.LevelFolds[1] == 0 || c.LevelFolds[2] == 0 {
				t.Fatalf("stacked folds never happened: folds=%d levels=%v", c.Folds, c.LevelFolds)
			}
		})
	}
}

// checkChain reads all three rollup levels in one snapshot and checks
// cross-level agreement: a torn cascade (a parent folded but its dependent
// not, or levels at different timestamps) breaks one of these equalities.
func checkChain(db *vtxn.DB) error {
	snap, err := db.BeginTx(context.Background(), vtxn.TxOptions{ReadOnly: true})
	if err != nil {
		return err
	}
	defer snap.Commit()
	var levels [3][]vtxn.ViewRow
	for i, v := range rollupChain {
		if levels[i], err = snap.ScanView(v); err != nil {
			return err
		}
	}
	var sum0, sum1, sum2, orders1, customers2 int64
	for _, r := range levels[0] {
		sum0 += r.Result[0].AsInt()
	}
	for _, r := range levels[1] {
		orders1 += r.Result[0].AsInt()
		sum1 += r.Result[1].AsInt()
	}
	for _, r := range levels[2] {
		customers2 += r.Result[0].AsInt()
		sum2 += r.Result[1].AsInt()
	}
	const grand = orderItems * perItem
	if sum0 != grand || sum1 != grand || sum2 != grand {
		return fmt.Errorf("torn cascade: totals L0=%d L1=%d L2=%d, want %d", sum0, sum1, sum2, grand)
	}
	if len(levels[0]) != orderItems || orders1 != orderItems || len(levels[1]) != orderItems || customers2 != orderItems {
		return fmt.Errorf("row counts do not nest: |L0|=%d orders=%d |L1|=%d customers=%d, want %d",
			len(levels[0]), orders1, len(levels[1]), customers2, orderItems)
	}
	if len(levels[2]) != orderRegions {
		return fmt.Errorf("|L2|=%d, want %d", len(levels[2]), orderRegions)
	}
	return nil
}
