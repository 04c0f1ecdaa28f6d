package core

import (
	"context"
	"testing"

	"repro/internal/catalog"
	"repro/internal/record"
	"repro/internal/txn"
)

// openQuietDB opens a test database with the background pruner and scrubber
// off, so only the test moves version chains and the read hook sees no
// background reader.
func openQuietDB(t testing.TB) *DB {
	t.Helper()
	db, err := Open(t.TempDir(), Options{MVCCPruneInterval: -1, ScrubInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// loadAccounts inserts accounts 0..n-1 (branch id%8, balance 100+id) and
// prunes, leaving every row untracked.
func loadAccounts(t *testing.T, db *DB, n int) {
	t.Helper()
	rows := make([]record.Row, n)
	for i := range rows {
		rows[i] = acctRow(int64(i), int64(i%8), int64(100+i))
	}
	insertAccounts(t, db, rows...)
	db.PruneVersions()
	if c := db.mvcc.Chains(); c != 0 {
		t.Fatalf("%d chains left after the load", c)
	}
}

// scanBalances scans every account inside tx and returns id -> balance,
// failing on a duplicate id.
func scanBalances(t *testing.T, tx *Tx) (map[int64]int64, []int64) {
	t.Helper()
	got := map[int64]int64{}
	var order []int64
	err := tx.ScanTable("accounts", nil, nil, func(r record.Row) bool {
		id := r[0].AsInt()
		if _, dup := got[id]; dup {
			t.Errorf("account %d returned twice", id)
		}
		got[id] = r[2].AsInt()
		order = append(order, id)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return got, order
}

// TestSnapshotRowRetriesAfterChainDrop drives the window between
// snapshotRow's two version-store reads: a writer pins the row and dirties
// the tree, the reader reads the dirty value, the writer rolls back, and the
// pruner drops the chain. Both reads find the row untracked; only the drop
// generation shows that the tree value may be a rolled-back write.
func TestSnapshotRowRetriesAfterChainDrop(t *testing.T) {
	db := openQuietDB(t)
	setupBanking(t, db, catalog.StrategyEscrow)
	loadAccounts(t, db, 1)
	snap := beginSnapshot(t, db)
	var w *Tx
	step := 0
	db.readHook = func(p readPoint) {
		switch {
		case step == 0 && p == readRowUntracked:
			step++
			var err error
			if w, err = db.Begin(txn.ReadCommitted); err == nil {
				err = w.Update("accounts", record.Row{record.Int(0)}, map[int]record.Value{2: record.Int(999)})
			}
			if err != nil {
				t.Error(err)
			}
		case step == 1 && p == readRowTreeRead:
			step++
			if err := w.Rollback(); err != nil {
				t.Error(err)
			}
			if db.PruneVersions(); db.mvcc.Chains() != 0 {
				t.Error("rolled-back chain survived the prune")
			}
		}
	}
	row, ok, err := snap.Get("accounts", record.Row{record.Int(0)})
	db.readHook = nil
	mustCommit(t, snap)
	if step != 2 {
		t.Fatalf("hook reached step %d, want 2", step)
	}
	if err != nil || !ok || row[2].AsInt() != 100 {
		t.Fatalf("snapshot Get = %v %v %v, want balance 100 (999 was rolled back)", row, ok, err)
	}
}

// TestSnapshotScanSpansBatchesWithRemovedEdges scans a range of several
// batches after deletes committed behind the snapshot. The deleted keys sit
// exactly at batch edges: past the last key a batch copies and before the key
// the next batch resumes at, so only the removed-key lookup of the right
// batch can return them.
func TestSnapshotScanSpansBatchesWithRemovedEdges(t *testing.T) {
	db := openQuietDB(t)
	setupBanking(t, db, catalog.StrategyEscrow)
	const n = 5*scanBatchRows - 20
	loadAccounts(t, db, n)
	snap := beginSnapshot(t, db)

	// Batch j (from 1) copies the j-th run of scanBatchRows surviving keys.
	// Deleting the pair of keys right after each run puts the pair between
	// batch j's last key and batch j+1's first; the last key is the edge of
	// the final batch.
	var deleted []int64
	for j := int64(1); (scanBatchRows+2)*j-1 < n-1; j++ {
		deleted = append(deleted, (scanBatchRows+2)*j-2, (scanBatchRows+2)*j-1)
	}
	deleted = append(deleted, n-1)
	w := begin(t, db, txn.ReadCommitted)
	for _, id := range deleted {
		if err := w.Delete("accounts", record.Row{record.Int(id)}); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, w)
	db.PruneVersions() // the snapshot holds the horizon: the chains stay

	batches := 0
	db.readHook = func(p readPoint) {
		if p == readScanCopied {
			batches++
		}
	}
	got, order := scanBalances(t, snap)
	db.readHook = nil
	mustCommit(t, snap)
	if batches < 4 {
		t.Fatalf("scan took %d batches, want several", batches)
	}
	if len(got) != n {
		t.Fatalf("snapshot scan saw %d rows, want %d (deleted %v after it began)", len(got), n, deleted)
	}
	for i, id := range order {
		if id != int64(i) || got[id] != int64(100+i) {
			t.Fatalf("row %d = account %d balance %d, want account %d balance %d", i, id, got[id], i, 100+i)
		}
	}

	fresh := beginSnapshot(t, db)
	got, _ = scanBalances(t, fresh)
	mustCommit(t, fresh)
	if len(got) != n-len(deleted) {
		t.Fatalf("fresh snapshot saw %d rows, want %d", len(got), n-len(deleted))
	}
	db.PruneVersions()
	tbl, err := db.Catalog().Table("accounts")
	if err != nil {
		t.Fatal(err)
	}
	if keys := db.mvcc.TrackedKeys(tbl.ID, nil, nil); len(keys) != 0 {
		t.Fatalf("removed-key index kept %d keys after their chains dropped", len(keys))
	}
}

// TestSnapshotScanDeleteBetweenCopyAndLookup commits deletes after a batch
// was copied but before its removed-key lookup: the first batch's key is then
// in both the copy and the index, and must come back once; the later batch's
// key is found by that batch's lookup alone.
func TestSnapshotScanDeleteBetweenCopyAndLookup(t *testing.T) {
	db := openQuietDB(t)
	setupBanking(t, db, catalog.StrategyEscrow)
	const n = 3 * scanBatchRows
	loadAccounts(t, db, n)
	snap := beginSnapshot(t, db)
	fired := false
	db.readHook = func(p readPoint) {
		if p != readScanCopied || fired {
			return
		}
		fired = true
		w, err := db.Begin(txn.ReadCommitted)
		for _, id := range []int64{10, scanBatchRows + 10} {
			if err == nil {
				err = w.Delete("accounts", record.Row{record.Int(id)})
			}
		}
		if err == nil {
			err = w.Commit()
		}
		if err != nil {
			t.Error(err)
		}
	}
	got, _ := scanBalances(t, snap)
	db.readHook = nil
	mustCommit(t, snap)
	if !fired {
		t.Fatal("read hook never ran")
	}
	if len(got) != n || got[10] != 110 || got[scanBatchRows+10] != 100+scanBatchRows+10 {
		t.Fatalf("snapshot scan saw %d rows (account 10: %d), want %d with the deleted rows' old balances", len(got), got[10], n)
	}
}

// TestSnapshotScanFallsBackAfterChainDrop: a batch copies a row a writer has
// dirtied; before the scan resolves it, the writer rolls back and the pruner
// drops the chain. The row is untracked by then, so only the moved drop
// generation keeps the scan from returning the rolled-back value it copied.
func TestSnapshotScanFallsBackAfterChainDrop(t *testing.T) {
	db := openQuietDB(t)
	setupBanking(t, db, catalog.StrategyEscrow)
	loadAccounts(t, db, 2*scanBatchRows)
	snap := beginSnapshot(t, db)
	w := begin(t, db, txn.ReadCommitted)
	if err := w.Update("accounts", record.Row{record.Int(5)}, map[int]record.Value{2: record.Int(999)}); err != nil {
		t.Fatal(err)
	}
	fired := false
	db.readHook = func(p readPoint) {
		if p != readScanCopied || fired {
			return
		}
		fired = true
		if err := w.Rollback(); err != nil {
			t.Error(err)
		}
		if db.PruneVersions(); db.mvcc.Chains() != 0 {
			t.Error("rolled-back chain survived the prune")
		}
	}
	got, _ := scanBalances(t, snap)
	db.readHook = nil
	mustCommit(t, snap)
	if !fired {
		t.Fatal("read hook never ran")
	}
	if len(got) != 2*scanBatchRows || got[5] != 105 {
		t.Fatalf("snapshot scan saw %d rows, account 5 balance %d; want %d rows and 105 (999 was rolled back)", len(got), got[5], 2*scanBatchRows)
	}
}

// TestSnapshotScanSeesUndoneInsertOverDeletedRow: an insert that re-creates
// a key deleted behind a snapshot, then rolls back, removes the key from the
// tree a second time — through the undo, not a logged delete. The snapshot
// must still read the row as it was before the delete.
func TestSnapshotScanSeesUndoneInsertOverDeletedRow(t *testing.T) {
	db := openQuietDB(t)
	setupBanking(t, db, catalog.StrategyEscrow)
	loadAccounts(t, db, 4)
	snap := beginSnapshot(t, db)
	w := begin(t, db, txn.ReadCommitted)
	if err := w.Delete("accounts", record.Row{record.Int(2)}); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, w)
	w = begin(t, db, txn.ReadCommitted)
	if err := w.Insert("accounts", acctRow(2, 0, 7)); err != nil {
		t.Fatal(err)
	}
	if err := w.Rollback(); err != nil {
		t.Fatal(err)
	}
	got, _ := scanBalances(t, snap)
	mustCommit(t, snap)
	if len(got) != 4 || got[2] != 102 {
		t.Fatalf("snapshot scan = %v, want 4 rows with account 2 at 102", got)
	}
}

// BenchmarkSnapshotScanRange prices one read-only snapshot transaction
// scanning 64 rows of a 20k-row table while about 2k version chains live on
// another tree (held by an open snapshot): the range read should cost its
// range, not the store.
func BenchmarkSnapshotScanRange(b *testing.B) {
	db, err := Open(b.TempDir(), Options{MVCCPruneInterval: -1, ScrubInterval: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	for _, name := range []string{"accounts", "ledger"} {
		if err := db.CreateTable(name, []catalog.Column{
			{Name: "id", Kind: record.KindInt64},
			{Name: "branch", Kind: record.KindInt64},
			{Name: "balance", Kind: record.KindInt64},
		}, []int{0}); err != nil {
			b.Fatal(err)
		}
	}
	const rows, chains, scan = 20_000, 2_000, 64
	load := func(table string, n int, balance int64) {
		for lo := 0; lo < n; lo += 1000 {
			tx, err := db.Begin(txn.ReadCommitted)
			if err != nil {
				b.Fatal(err)
			}
			for i := lo; i < lo+1000 && i < n; i++ {
				r := record.Row{record.Int(int64(i)), record.Int(int64(i % 8)), record.Int(balance)}
				if balance == 0 {
					err = tx.Insert(table, r)
				} else {
					err = tx.Update(table, record.Row{record.Int(int64(i))}, map[int]record.Value{2: record.Int(balance)})
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			if err := tx.Commit(); err != nil {
				b.Fatal(err)
			}
		}
	}
	load("accounts", rows, 0)
	load("ledger", chains, 0)
	db.PruneVersions()
	holder, err := db.BeginTx(context.Background(), TxOptions{ReadOnly: true})
	if err != nil {
		b.Fatal(err)
	}
	defer holder.Commit()
	load("ledger", chains, 1)
	db.PruneVersions()
	if c := db.mvcc.Chains(); c < chains {
		b.Fatalf("%d live chains, want at least %d", c, chains)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := int64(i*scan) % (rows - scan)
		tx, err := db.BeginTx(context.Background(), TxOptions{ReadOnly: true})
		if err != nil {
			b.Fatal(err)
		}
		got := 0
		err = tx.ScanTable("accounts", record.Row{record.Int(lo)}, record.Row{record.Int(lo + scan)}, func(record.Row) bool {
			got++
			return true
		})
		if err != nil || got != scan {
			b.Fatalf("scan from %d: %d rows, %v", lo, got, err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}
