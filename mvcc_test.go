package vtxn_test

import (
	"context"
	"testing"
	"time"

	vtxn "repro"
)

// bankingDB opens a database with the banking schema — accounts plus a
// branch_totals COUNT/SUM view maintained with strategy — and loads accounts
// rows of perAccount balance each over two branches.
func bankingDB(t *testing.T, strategy vtxn.Strategy, accounts int, perAccount int64) *vtxn.DB {
	t.Helper()
	db, err := vtxn.Open(t.TempDir(), vtxn.Options{Watchdog: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if err := db.CreateTable("accounts", []vtxn.Column{
		{Name: "id", Kind: vtxn.KindInt64},
		{Name: "branch", Kind: vtxn.KindInt64},
		{Name: "balance", Kind: vtxn.KindInt64},
	}, []int{0}); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndexedView(vtxn.ViewDef{
		Name:        "branch_totals",
		Kind:        vtxn.ViewAggregate,
		Left:        "accounts",
		GroupByCols: []int{1},
		Aggs: []vtxn.AggSpec{
			{Func: vtxn.AggCountRows},
			{Func: vtxn.AggSum, Arg: vtxn.Col(2)},
		},
		Strategy: strategy,
	}); err != nil {
		t.Fatal(err)
	}
	tx, err := db.Begin(vtxn.ReadCommitted)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < accounts; i++ {
		if err := tx.Insert("accounts", vtxn.Row{
			vtxn.Int(int64(i)), vtxn.Int(int64(i % 2)), vtxn.Int(perAccount),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestSnapshotHammer is the acceptance check for MVCC snapshot reads: four
// escrow writer goroutines tilt disjoint account pairs in sum-preserving
// transactions while four read-only snapshot readers repeatedly ScanView.
// Every scan must observe a transaction-consistent world: COUNT equal to the
// number of accounts and SUM equal to the invariant grand total — a torn
// half-transfer or a leaked uncommitted escrow delta shows up as a sum that
// is off by one. Once the load quiesces and the last snapshot retires, the
// pruner must drain every version chain back to its B-tree base, with the
// drained state equal to a recompute. Run under -race in CI (make race),
// eight goroutines total.
func TestSnapshotHammer(t *testing.T) {
	const writers = 4
	const readers = 4
	const accounts = 2 * writers // each writer owns a disjoint pair
	const perAccount = int64(1000)
	const total = int64(accounts) * perAccount
	scans := 400
	if testing.Short() {
		scans = 120
	}
	db := bankingDB(t, vtxn.StrategyEscrow, accounts, perAccount)

	storm := startTilts(t, db, "accounts", 2, perAccount, writers, 0)
	parallel(readers, func(int) {
		for i := 0; i < scans; i++ {
			count, sum, err := scanTotals(db, "branch_totals")
			if err != nil {
				t.Error(err)
				return
			}
			if count != accounts || sum != total {
				t.Errorf("torn snapshot: count=%d sum=%d, want %d/%d", count, sum, accounts, total)
				return
			}
		}
	})
	storm.halt()
	if t.Failed() {
		t.FailNow()
	}

	// Every snapshot has retired and no writer is in flight: the pruner must
	// drain every chain back to its base within 50 passes.
	for pass := 0; db.Metrics().MVCC.Chains > 0; pass++ {
		if pass >= 50 {
			t.Fatalf("pruner left %d chains after %d passes", db.Metrics().MVCC.Chains, pass)
		}
		db.PruneVersions()
	}
	s := db.Metrics()
	if s.MVCC.Snapshots < int64(readers*scans) {
		t.Fatalf("snapshots begun = %d, want >= %d", s.MVCC.Snapshots, readers*scans)
	}
	if s.MVCC.ActiveSnapshots != 0 {
		t.Fatalf("active snapshots = %d after quiesce", s.MVCC.ActiveSnapshots)
	}
	if s.MVCC.VersionsStamped == 0 || s.MVCC.VersionsPruned == 0 {
		t.Fatalf("version flow: stamped %d, pruned %d", s.MVCC.VersionsStamped, s.MVCC.VersionsPruned)
	}
	if s.MVCC.Watermark == 0 || s.MVCC.ChainLenHighWater == 0 {
		t.Fatalf("watermark %d, chain high-water %d: never advanced", s.MVCC.Watermark, s.MVCC.ChainLenHighWater)
	}
	if err := db.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotPrunerRetires checks the public-API version of the pruning
// rule: chains accumulate while the oldest snapshot pins the horizon and
// drain once it retires.
func TestSnapshotPrunerRetires(t *testing.T) {
	db := bankingDB(t, vtxn.StrategyEscrow, 2, 1000)

	// Pin a snapshot, then churn behind it.
	pinned, err := db.BeginTx(context.Background(), vtxn.TxOptions{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		tx, err := db.Begin(vtxn.ReadCommitted)
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Update("accounts", vtxn.Row{vtxn.Int(0)},
			map[int]vtxn.Value{2: vtxn.Int(int64(2000 + i))}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	db.PruneVersions()
	if db.Metrics().MVCC.Chains == 0 {
		t.Fatal("pruner dropped chains pinned by a live snapshot")
	}
	row, ok, err := pinned.Get("accounts", vtxn.Row{vtxn.Int(0)})
	if err != nil || !ok || row[2].AsInt() != 1000 {
		t.Fatalf("pinned snapshot after prune = %v %v %v", row, ok, err)
	}
	if err := pinned.Commit(); err != nil {
		t.Fatal(err)
	}

	// Retired: the chains must drain (the background pruner may need a few
	// passes; drive it directly to stay deterministic).
	deadline := time.Now().Add(5 * time.Second)
	for db.Metrics().MVCC.Chains > 0 {
		db.PruneVersions()
		if time.Now().After(deadline) {
			t.Fatalf("chains did not drain: %d left", db.Metrics().MVCC.Chains)
		}
	}
	if db.Metrics().MVCC.VersionsPruned == 0 {
		t.Fatal("nothing pruned")
	}
}
