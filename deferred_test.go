package vtxn_test

import (
	"context"
	"testing"
	"time"

	vtxn "repro"
)

// TestDeferredTierEndToEnd truth-checks the deferred view-maintenance tier
// over a deferred branch_totals view:
//
//	(a) a committer's deltas are visible once WaitForViewWatermark returns
//	    for its commit timestamp (read-your-writes), a brand-new group too;
//	(b) a wait with a canceled context fails instead of hanging;
//	(c) under sum-preserving writers, every snapshot scan of the view is
//	    transaction-consistent — COUNT equals the account count and SUM the
//	    invariant grand total — and the watermark each reader sees only moves
//	    forward;
//	(d) at quiesce the applier drains to zero lag, the view equals a
//	    recompute from base, and the deferred.* metrics record the traffic.
func TestDeferredTierEndToEnd(t *testing.T) {
	const (
		writers    = 4
		accounts   = 2 * writers // each writer owns a disjoint pair
		perAccount = int64(1000)
		total      = accounts * perAccount
		readers    = 4
	)
	scans := 200
	if testing.Short() {
		scans = 50
	}
	db := bankingDB(t, vtxn.StrategyDeferred, accounts, perAccount)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	loadTS := db.Metrics().MVCC.Watermark
	if err := db.WaitForViewWatermark(ctx, "branch_totals", loadTS); err != nil {
		t.Fatalf("watermark wait after load: %v", err)
	}
	if wm, err := db.ViewWatermark("branch_totals"); err != nil || wm < loadTS {
		t.Fatalf("watermark = %d, %v; want >= waited-for ts %d", wm, err, loadTS)
	}
	if count, sum, err := scanTotals(db, "branch_totals"); err != nil || count != accounts || sum != total {
		t.Fatalf("after load: count=%d sum=%d err=%v, want %d/%d", count, sum, err, accounts, total)
	}

	// A brand-new group: the applier must insert the view row, not just fold
	// an existing one. Removing it again keeps the grand total invariant.
	tx, err := db.Begin(vtxn.ReadCommitted)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("accounts", vtxn.Row{vtxn.Int(accounts), vtxn.Int(99), vtxn.Int(7)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.WaitForViewWatermark(ctx, "branch_totals", tx.CommitTS()); err != nil {
		t.Fatalf("watermark wait for new group: %v", err)
	}
	snap, err := db.BeginTx(ctx, vtxn.TxOptions{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	res, ok, err := snap.GetViewRow("branch_totals", vtxn.Row{vtxn.Int(99)})
	snap.Commit()
	if err != nil || !ok || res[0].AsInt() != 1 || res[1].AsInt() != 7 {
		t.Fatalf("new group after wait = %v %v %v, want 1/7", res, ok, err)
	}
	tx, err = db.Begin(vtxn.ReadCommitted)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete("accounts", vtxn.Row{vtxn.Int(accounts)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.WaitForViewWatermark(ctx, "branch_totals", tx.CommitTS()); err != nil {
		t.Fatalf("watermark wait for group removal: %v", err)
	}

	deadCtx, deadCancel := context.WithCancel(context.Background())
	deadCancel()
	if err := db.WaitForViewWatermark(deadCtx, "branch_totals", ^uint64(0)); err == nil {
		t.Fatal("wait with canceled context returned nil")
	}

	// The applier's folds are system transactions stamped at one timestamp,
	// so a snapshot sees each fold round all-or-nothing.
	storm := startTilts(t, db, "accounts", 2, perAccount, writers, 0)
	parallel(readers, func(r int) {
		var last uint64
		for i := 0; i < scans; i++ {
			wm, err := db.ViewWatermark("branch_totals")
			if err != nil {
				t.Error(err)
				return
			}
			if wm < last {
				t.Errorf("reader %d: watermark went backwards %d -> %d", r, last, wm)
				return
			}
			last = wm
			count, sum, err := scanTotals(db, "branch_totals")
			if err != nil {
				t.Error(err)
				return
			}
			if count != accounts || sum != total {
				t.Errorf("reader %d: torn deferred snapshot count=%d sum=%d, want %d/%d", r, count, sum, accounts, total)
				return
			}
		}
	})
	storm.halt()
	if t.Failed() {
		t.FailNow()
	}

	// CheckConsistency waits for the applier to catch up, then verifies.
	if err := db.CheckConsistency(); err != nil {
		t.Fatalf("consistency at quiesce: %v", err)
	}
	d := db.Metrics().Deferred
	if d.LagTS != 0 || d.PendingGroups != 0 || d.StalenessNs != 0 {
		t.Fatalf("applier not drained at quiesce: lag %d, pending %d, staleness %dns", d.LagTS, d.PendingGroups, d.StalenessNs)
	}
	if d.PublishedBatches <= 0 || d.PublishedGroups <= 0 {
		t.Fatalf("publish flow: batches %d, groups %d", d.PublishedBatches, d.PublishedGroups)
	}
	if d.ApplyRounds <= 0 || d.GroupsApplied <= 0 || d.DeltasIn <= 0 {
		t.Fatalf("apply flow: rounds %d, groups %d, deltas in %d", d.ApplyRounds, d.GroupsApplied, d.DeltasIn)
	}
	if len(d.Views) != 1 || d.Views[0].View != "branch_totals" {
		t.Fatalf("deferred view listing = %+v", d.Views)
	}
	if d.Watermark == 0 {
		t.Fatal("watermark never advanced")
	}
}
