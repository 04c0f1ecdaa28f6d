package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/record"
	"repro/internal/txn"
	"repro/internal/verify"
)

// clipEntries returns the entries of es with lo <= key < hi (nil bounds are
// open).
func clipEntries(es []verify.Entry, lo, hi []byte) []verify.Entry {
	var out []verify.Entry
	for _, e := range es {
		if (lo == nil || bytes.Compare(e.Key, lo) >= 0) && (hi == nil || bytes.Compare(e.Key, hi) < 0) {
			out = append(out, e)
		}
	}
	return out
}

// TestScrubWantRangeEqualsClippedRecompute: for random [lo, hi) ranges, the
// scrubber's range-restricted Want equals the full recompute — quiescent
// rows through Maintainer.Recompute — clipped to the range, and charges
// every source row whatever the range. Covers an aggregate view, the views
// stacked on it, a join view and a projection view.
func TestScrubWantRangeEqualsClippedRecompute(t *testing.T) {
	db := openQuietDB(t)
	setupRollupChain(t, db, catalog.StrategyEscrow)
	for _, ddl := range []func() error{
		func() error {
			return db.CreateTable("accounts", []catalog.Column{
				{Name: "id", Kind: record.KindInt64},
				{Name: "branch", Kind: record.KindInt64},
				{Name: "balance", Kind: record.KindInt64},
			}, []int{0})
		},
		func() error {
			return db.CreateTable("branches", []catalog.Column{
				{Name: "id", Kind: record.KindInt64},
				{Name: "region", Kind: record.KindString},
			}, []int{0})
		},
		func() error {
			return db.CreateIndexedView(catalog.View{
				Name: "branch_regions", Kind: catalog.ViewAggregate,
				Left: "accounts", Right: "branches",
				JoinLeftCol: 1, JoinRightCol: 3,
				GroupByCols: []int{4, 1},
				Aggs: []expr.AggSpec{
					{Func: expr.AggCountRows},
					{Func: expr.AggSum, Arg: expr.Col(2)},
				},
			})
		},
		func() error {
			return db.CreateIndexedView(catalog.View{
				Name: "rich", Kind: catalog.ViewProjection, Left: "accounts",
				Where:       expr.Ge(expr.Col(2), expr.ConstInt(150)),
				ProjectCols: []int{0, 2},
			})
		},
	} {
		if err := ddl(); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(7))
	tx := begin(t, db, txn.ReadCommitted)
	for b := int64(0); b < 12; b++ {
		if err := tx.Insert("branches", record.Row{record.Int(b), record.Str(fmt.Sprintf("r%d", b%4))}); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 400; i++ {
		if err := tx.Insert("accounts", acctRow(i, rng.Int63n(14), 100+rng.Int63n(100))); err != nil {
			t.Fatal(err)
		}
		if err := tx.Insert("order_items", itemRow(i, i/3, i%37, fmt.Sprintf("r%d", i%5), 1+rng.Int63n(50))); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)
	// Deletes behind an open snapshot leave removed-but-visible keys in the
	// source scans.
	e := scrubEngine{db}
	ts, release := e.Pin()
	defer release()
	tx = begin(t, db, txn.ReadCommitted)
	for i := int64(0); i < 400; i += 9 {
		if err := tx.Delete("accounts", record.Row{record.Int(i)}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Delete("order_items", record.Row{record.Int(i)}); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)

	cat := db.Catalog()
	for _, name := range []string{"order_totals", "customer_totals", "region_totals", "branch_regions", "rich"} {
		v, err := cat.View(name)
		if err != nil {
			t.Fatal(err)
		}
		full, srcRows, err := e.Want(v.ID, ts, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(full) < 5 {
			t.Fatalf("%s: full recompute has %d entries, want a real spread", name, len(full))
		}
		// The snapshot recompute agrees with the stored view at ts.
		have, _, err := e.Have(v.ID, nil, ts, 0)
		if err != nil {
			t.Fatal(err)
		}
		if d := verify.Compare(full, have, 1); len(d) > 0 {
			t.Fatalf("%s: full Want disagrees with the stored view: %s", name, d[0].Detail())
		}
		bound := func() []byte {
			switch k := rng.Intn(5); {
			case k == 0:
				return nil
			case k == 1: // between two keys
				return append(append([]byte(nil), full[rng.Intn(len(full))].Key...), 0)
			default:
				return full[rng.Intn(len(full))].Key
			}
		}
		for round := 0; round < 60; round++ {
			lo, hi := bound(), bound()
			got, n, err := e.Want(v.ID, ts, lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			if n != srcRows {
				t.Fatalf("%s [%x, %x): charged %d source rows, the full recompute %d", name, lo, hi, n, srcRows)
			}
			want := clipEntries(full, lo, hi)
			if d := verify.Compare(want, got, 1); len(d) > 0 || len(got) != len(want) {
				t.Fatalf("%s [%x, %x): %d entries vs %d clipped (%v)", name, lo, hi, len(got), len(want), d)
			}
		}
	}
	release()

	// At quiesce the full snapshot recompute equals the maintainers'
	// recompute over the quiescent relation rows.
	ts, release = e.Pin()
	defer release()
	for _, v := range cat.Views() {
		m := db.reg.Maintainer(v.ID)
		left, err := db.relationRows(cat, v.Left)
		if err != nil {
			t.Fatal(err)
		}
		var right []record.Row
		if v.Join() {
			tbl, err := cat.Table(v.Right)
			if err != nil {
				t.Fatal(err)
			}
			if right, err = db.tableRows(tbl); err != nil {
				t.Fatal(err)
			}
		}
		want, err := m.Recompute(left, right)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := want[len(want)/4].Key, want[len(want)/2].Key
		got, n, err := e.Want(v.ID, ts, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(left)+len(right) {
			t.Fatalf("%s: charged %d source rows, the relation has %d", v.Name, n, len(left)+len(right))
		}
		if d := verify.Compare(clipEntries(want, lo, hi), got, 1); len(d) > 0 {
			t.Fatalf("%s: range Want disagrees with Recompute: %s", v.Name, d[0].Detail())
		}
	}
}

// BenchmarkScrubSlice prices one scrubber slice the way compareRange runs
// it — 128 stored groups read, their expected rows recomputed from the
// source, compared — over a 20k-row table feeding a 5k-group escrow view.
// The cursor walks the view, so every op checks a different slice.
func BenchmarkScrubSlice(b *testing.B) {
	db, err := Open(b.TempDir(), Options{MVCCPruneInterval: -1, ScrubInterval: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateTable("events", []catalog.Column{
		{Name: "id", Kind: record.KindInt64},
		{Name: "user", Kind: record.KindInt64},
		{Name: "amount", Kind: record.KindInt64},
	}, []int{0}); err != nil {
		b.Fatal(err)
	}
	if err := db.CreateIndexedView(catalog.View{
		Name: "user_totals", Kind: catalog.ViewAggregate, Source: "events",
		GroupBy:  []string{"user"},
		Aggs:     []expr.AggSpec{{Func: expr.AggCountRows}, {Func: expr.AggSum, Arg: expr.NamedCol("amount")}},
		Strategy: catalog.StrategyEscrow,
	}); err != nil {
		b.Fatal(err)
	}
	const events, users, slice = 20_000, 5_000, 128
	for lo := 0; lo < events; lo += 1000 {
		tx, err := db.Begin(txn.ReadCommitted)
		if err != nil {
			b.Fatal(err)
		}
		for i := lo; i < lo+1000; i++ {
			if err := tx.Insert("events", record.Row{record.Int(int64(i)), record.Int(int64(i % users)), record.Int(10)}); err != nil {
				b.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	db.PruneVersions()
	v, err := db.Catalog().View("user_totals")
	if err != nil {
		b.Fatal(err)
	}
	e := scrubEngine{db}
	ts, release := e.Pin()
	defer release()
	var cursor []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		have, next, err := e.Have(v.ID, cursor, ts, slice)
		if err != nil {
			b.Fatal(err)
		}
		want, n, err := e.Want(v.ID, ts, cursor, next)
		if err != nil || n != events {
			b.Fatalf("want: %d source rows, %v", n, err)
		}
		if d := verify.Compare(want, have, 1); len(d) > 0 {
			b.Fatalf("slice at %x diverged: %s", cursor, d[0].Detail())
		}
		cursor = next
	}
}
