package vtxn_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	vtxn "repro"
)

// openDB opens a fresh database via the public API only.
func openDB(t *testing.T) *vtxn.DB {
	t.Helper()
	db, err := vtxn.Open(t.TempDir(), vtxn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func setupPublic(t *testing.T, db *vtxn.DB) {
	t.Helper()
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
		Strategy: vtxn.StrategyEscrow,
	}); err != nil {
		t.Fatal(err)
	}
}

// The order_items rollup fixture: orderItems rows of perItem each, every
// item its own order and customer, customers alternating over orderRegions
// regions. rollupChain is the 3-level stacked rollup over it, in dependency
// order.
const (
	orderItems   = 8
	perItem      = 100
	orderRegions = 2
)

var rollupChain = []string{"order_totals", "customer_totals", "region_totals"}

// sumAs is a SUM aggregate with a named result column.
func sumAs(col, name string) vtxn.AggSpec {
	s := vtxn.Sum(col)
	s.Name = name
	return s
}

// setupOrders creates order_items, the views in extra, and the rollup chain
// order_totals → customer_totals → region_totals maintained with strategy,
// then loads the fixture rows and waits for the chain to apply them.
func setupOrders(t *testing.T, db *vtxn.DB, strategy vtxn.Strategy, extra ...vtxn.ViewDef) {
	t.Helper()
	if err := db.CreateTable("order_items", []vtxn.Column{
		{Name: "item", Kind: vtxn.KindInt64},
		{Name: "order_id", Kind: vtxn.KindInt64},
		{Name: "customer", Kind: vtxn.KindInt64},
		{Name: "region", Kind: vtxn.KindString},
		{Name: "amount", Kind: vtxn.KindInt64},
	}, []int{0}); err != nil {
		t.Fatal(err)
	}
	views := append(extra,
		vtxn.ViewDef{Name: "order_totals", Kind: vtxn.ViewAggregate, Source: "order_items",
			GroupBy:  []string{"order_id", "customer", "region"},
			Aggs:     []vtxn.AggSpec{sumAs("amount", "total")},
			Strategy: strategy},
		vtxn.ViewDef{Name: "customer_totals", Kind: vtxn.ViewAggregate, Source: "order_totals",
			GroupBy:  []string{"customer", "region"},
			Aggs:     []vtxn.AggSpec{vtxn.CountRows(), sumAs("total", "total")},
			Strategy: strategy},
		vtxn.ViewDef{Name: "region_totals", Kind: vtxn.ViewAggregate, Source: "customer_totals",
			GroupBy:  []string{"region"},
			Aggs:     []vtxn.AggSpec{vtxn.CountRows(), sumAs("total", "total")},
			Strategy: strategy})
	for _, v := range views {
		if err := db.CreateIndexedView(v); err != nil {
			t.Fatalf("create view %s: %v", v.Name, err)
		}
	}
	tx, err := db.Begin(vtxn.ReadCommitted)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < orderItems; i++ {
		if err := tx.Insert("order_items", vtxn.Row{
			vtxn.Int(i), vtxn.Int(i), vtxn.Int(i),
			vtxn.Str(fmt.Sprintf("region-%d", i%orderRegions)), vtxn.Int(perItem),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	drainTo(t, db, "region_totals", tx.CommitTS())
}

// drainTo waits up to 30s for view's watermark to reach ts (at once for an
// immediately maintained view).
func drainTo(t *testing.T, db *vtxn.DB, view string, ts uint64) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := db.WaitForViewWatermark(ctx, view, ts); err != nil {
		t.Fatalf("%s watermark wait for ts %d: %v", view, ts, err)
	}
}

// tilt sets column col of rows a and b of table in one committed
// transaction.
func tilt(db *vtxn.DB, table string, col int, a, b, av, bv int64) error {
	tx, err := db.Begin(vtxn.ReadCommitted)
	if err != nil {
		return err
	}
	if err := tx.Update(table, vtxn.Row{vtxn.Int(a)}, map[int]vtxn.Value{col: vtxn.Int(av)}); err != nil {
		tx.Rollback()
		return err
	}
	if err := tx.Update(table, vtxn.Row{vtxn.Int(b)}, map[int]vtxn.Value{col: vtxn.Int(bv)}); err != nil {
		tx.Rollback()
		return err
	}
	return tx.Commit()
}

// tiltStorm is a set of sum-preserving writers: writer w moves column col of
// its own row pair (2w, 2w+1) between (base-1, base+1) and (base, base), both
// legs in one transaction, so every transaction-consistent read sees the
// loaded totals.
type tiltStorm struct {
	stop    atomic.Bool
	commits atomic.Int64
	done    chan struct{} // closed once every writer has returned
}

// startTilts starts writers writers of tilts commits each (tilts <= 0: until
// wait). A failed tilt fails the test and stops its writer.
func startTilts(t *testing.T, db *vtxn.DB, table string, col int, base int64, writers, tilts int) *tiltStorm {
	s := &tiltStorm{done: make(chan struct{})}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(a, b int64) {
			defer wg.Done()
			for i := 0; (tilts <= 0 || i < tilts) && !s.stop.Load(); i++ {
				av, bv := base-1, base+1
				if i%2 == 1 {
					av, bv = base, base
				}
				if err := tilt(db, table, col, a, b, av, bv); err != nil {
					t.Errorf("writer of rows %d,%d: %v", a, b, err)
					return
				}
				s.commits.Add(1)
			}
		}(int64(2*w), int64(2*w+1))
	}
	go func() { wg.Wait(); close(s.done) }()
	return s
}

// wait returns once every writer has made its tilts.
func (s *tiltStorm) wait() { <-s.done }

// halt stops the storm and returns once every writer has.
func (s *tiltStorm) halt() {
	s.stop.Store(true)
	<-s.done
}

// parallel runs fn(0..n-1) on n goroutines and waits for all of them.
func parallel(n int, fn func(i int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i)
		}(i)
	}
	wg.Wait()
}

// scanTotals sums a (COUNT, SUM) aggregate view's two result columns over
// every group in one read-only snapshot.
func scanTotals(db *vtxn.DB, view string) (count, sum int64, err error) {
	snap, err := db.BeginTx(context.Background(), vtxn.TxOptions{ReadOnly: true})
	if err != nil {
		return 0, 0, err
	}
	rows, err := snap.ScanView(view)
	if err != nil {
		snap.Rollback()
		return 0, 0, err
	}
	for _, vr := range rows {
		count += vr.Result[0].AsInt()
		if !vr.Result[1].IsNull() {
			sum += vr.Result[1].AsInt()
		}
	}
	return count, sum, snap.Commit()
}

func TestPublicAPIQuickstartFlow(t *testing.T) {
	db := openDB(t)
	setupPublic(t, db)

	tx, err := db.Begin(vtxn.ReadCommitted)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 10; i++ {
		if err := tx.Insert("accounts", vtxn.Row{vtxn.Int(i), vtxn.Int(i % 2), vtxn.Int(i * 10)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	tx, _ = db.Begin(vtxn.ReadCommitted)
	res, ok, err := tx.GetViewRow("branch_totals", vtxn.Row{vtxn.Int(1)})
	if err != nil || !ok {
		t.Fatalf("view read: %v %v", ok, err)
	}
	// Odd ids: 1,3,5,7,9 → count 5, sum 10+30+50+70+90 = 250.
	if res[0].AsInt() != 5 || res[1].AsInt() != 250 {
		t.Fatalf("branch 1 = %v", res)
	}
	rows, err := tx.ScanView("branch_totals")
	if err != nil || len(rows) != 2 {
		t.Fatalf("scan view: %v %v", rows, err)
	}
	tx.Commit()

	if err := db.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.Commits == 0 || st.Folds == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPublicAPIErrorsAndValues(t *testing.T) {
	db := openDB(t)
	setupPublic(t, db)
	tx, _ := db.Begin(vtxn.Serializable)
	defer tx.Rollback()
	if err := tx.Insert("accounts", vtxn.Row{vtxn.Null(), vtxn.Int(1), vtxn.Int(1)}); !errors.Is(err, vtxn.ErrSchema) {
		t.Fatalf("null PK err = %v", err)
	}
	if err := tx.Delete("accounts", vtxn.Row{vtxn.Int(404)}); !errors.Is(err, vtxn.ErrNotFound) {
		t.Fatalf("missing delete err = %v", err)
	}
	// Value constructors round-trip via the facade.
	vals := vtxn.Row{vtxn.Bool(true), vtxn.Float(2.5), vtxn.Str("x"), vtxn.Bytes([]byte{1})}
	if vals[0].Kind() != vtxn.KindBool || vals[1].Kind() != vtxn.KindFloat64 ||
		vals[2].Kind() != vtxn.KindString || vals[3].Kind() != vtxn.KindBytes {
		t.Fatal("facade value kinds wrong")
	}
}

func TestPublicAPIExpressionsInViews(t *testing.T) {
	db := openDB(t)
	if err := db.CreateTable("events", []vtxn.Column{
		{Name: "id", Kind: vtxn.KindInt64},
		{Name: "kind", Kind: vtxn.KindString},
		{Name: "weight", Kind: vtxn.KindInt64},
	}, []int{0}); err != nil {
		t.Fatal(err)
	}
	// A filtered view with a computed aggregate: SUM(weight*2) for heavy
	// events, excluding kind "noise".
	if err := db.CreateIndexedView(vtxn.ViewDef{
		Name: "heavy", Kind: vtxn.ViewAggregate, Left: "events",
		Where: vtxn.And(
			vtxn.Gt(vtxn.Col(2), vtxn.ConstInt(5)),
			vtxn.Not(vtxn.Eq(vtxn.Col(1), vtxn.ConstStr("noise"))),
		),
		GroupByCols: []int{1},
		Aggs:        []vtxn.AggSpec{{Func: vtxn.AggSum, Arg: vtxn.Mul(vtxn.Col(2), vtxn.ConstInt(2))}},
	}); err != nil {
		t.Fatal(err)
	}
	tx, _ := db.Begin(vtxn.ReadCommitted)
	rows := []vtxn.Row{
		{vtxn.Int(1), vtxn.Str("a"), vtxn.Int(10)},     // in: 20
		{vtxn.Int(2), vtxn.Str("a"), vtxn.Int(3)},      // filtered: weight <= 5
		{vtxn.Int(3), vtxn.Str("noise"), vtxn.Int(50)}, // filtered: noise
		{vtxn.Int(4), vtxn.Str("a"), vtxn.Int(7)},      // in: 14
	}
	for _, r := range rows {
		if err := tx.Insert("events", r); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx, _ = db.Begin(vtxn.ReadCommitted)
	res, ok, err := tx.GetViewRow("heavy", vtxn.Row{vtxn.Str("a")})
	if err != nil || !ok || res[0].AsInt() != 34 {
		t.Fatalf("heavy[a] = %v %v %v", res, ok, err)
	}
	if _, ok, _ := tx.GetViewRow("heavy", vtxn.Row{vtxn.Str("noise")}); ok {
		t.Fatal("noise group should not exist")
	}
	tx.Commit()
	if err := db.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIRecovery(t *testing.T) {
	dir := t.TempDir()
	db, err := vtxn.Open(dir, vtxn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	setupPublic(t, db)
	tx, _ := db.Begin(vtxn.ReadCommitted)
	tx.Insert("accounts", vtxn.Row{vtxn.Int(1), vtxn.Int(0), vtxn.Int(100)})
	tx.Commit()
	db.Crash(true)

	db2, err := vtxn.Open(dir, vtxn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tx, _ = db2.Begin(vtxn.ReadCommitted)
	res, ok, err := tx.GetViewRow("branch_totals", vtxn.Row{vtxn.Int(0)})
	if err != nil || !ok || res[1].AsInt() != 100 {
		t.Fatalf("recovered view = %v %v %v", res, ok, err)
	}
	tx.Commit()
	if err := db2.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
