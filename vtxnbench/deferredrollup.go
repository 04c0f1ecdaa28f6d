package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	vtxn "repro"
)

// deferredRollup inserts 3-item orders under a 3-level deferred rollup chain
// (order_items -> order_totals -> customer_totals -> region_totals): commits
// only publish deltas, and the background applier does all maintenance.
type deferredRollup struct {
	customers int
	preload   int // orders loaded at setup
	orders    int // per round, shared by the clients
	seed      int64

	// The ledger of acknowledged orders: per order, its customer and item
	// total (0 until acknowledged); per customer, the order count and item
	// total; total is the sum over all customers.
	orderCust, orderTotal []int64
	custOrders, custTotal []int64
	total                 int64
	nextOrder             atomic.Int64
}

const (
	drRegions    = 8
	drItems      = 3 // items per order
	drBatchEvery = 64
	drScanGroups = 64
)

func newDeferredRollup(s scale, seed int64) *deferredRollup {
	return &deferredRollup{customers: s.n(4096), preload: s.n(10_000), orders: s.n(48_000), seed: seed}
}

func (w *deferredRollup) topView() string { return "region_totals" }

func drRegion(customer int64) string { return fmt.Sprintf("region-%d", customer%drRegions) }

func (w *deferredRollup) setup(db *vtxn.DB) error {
	if err := db.CreateTable("order_items", []vtxn.Column{
		{Name: "item", Kind: vtxn.KindInt64},
		{Name: "order_id", Kind: vtxn.KindInt64},
		{Name: "customer", Kind: vtxn.KindInt64},
		{Name: "region", Kind: vtxn.KindString},
		{Name: "amount", Kind: vtxn.KindInt64},
	}, []int{0}); err != nil {
		return err
	}
	for _, v := range []vtxn.ViewDef{
		{Name: "order_totals", Kind: vtxn.ViewAggregate, Source: "order_items",
			GroupBy: []string{"order_id", "customer", "region"},
			Aggs:    []vtxn.AggSpec{{Func: vtxn.AggSum, Arg: vtxn.NamedCol("amount"), Name: "total"}}},
		{Name: "customer_totals", Kind: vtxn.ViewAggregate, Source: "order_totals",
			GroupBy: []string{"customer", "region"},
			Aggs: []vtxn.AggSpec{{Func: vtxn.AggCountRows, Name: "orders"},
				{Func: vtxn.AggSum, Arg: vtxn.NamedCol("total"), Name: "total"}}},
		{Name: "region_totals", Kind: vtxn.ViewAggregate, Source: "customer_totals",
			GroupBy: []string{"region"},
			Aggs: []vtxn.AggSpec{{Func: vtxn.AggCountRows, Name: "customers"},
				{Func: vtxn.AggSum, Arg: vtxn.NamedCol("total"), Name: "total"}}},
	} {
		v.Strategy = vtxn.StrategyDeferred
		if err := db.CreateIndexedView(v); err != nil {
			return err
		}
	}
	w.orderCust = make([]int64, w.preload+w.orders)
	w.orderTotal = make([]int64, w.preload+w.orders)
	w.custOrders = make([]int64, w.customers)
	w.custTotal = make([]int64, w.customers)
	rng := rand.New(rand.NewSource(w.seed))
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(w.customers-1))
	var cust, amount int64
	ts, err := loadBatches(db, w.preload*drItems, func(tx *vtxn.Tx, i int) error {
		if i%drItems == 0 {
			cust = int64(zipf.Uint64())
			w.custOrders[cust]++
		}
		amount = 10 + rng.Int63n(90)
		w.orderCust[i/drItems] = cust
		w.orderTotal[i/drItems] += amount
		w.custTotal[cust] += amount
		w.total += amount
		return tx.Insert("order_items", w.itemRow(int64(i), cust, amount))
	})
	if err != nil {
		return err
	}
	w.nextOrder.Store(int64(w.preload))
	return drain(db, w.topView(), ts)
}

func (w *deferredRollup) itemRow(item, customer, amount int64) vtxn.Row {
	return vtxn.Row{vtxn.Int(item), vtxn.Int(item / drItems), vtxn.Int(customer), vtxn.Str(drRegion(customer)), vtxn.Int(amount)}
}

// run drives the two clients: cs[0] is interactive and waits until each of
// its commits is visible at the top of the chain; cs[1] is a batch client
// that waits only on every 64th commit, leaving the applier work to batch.
func (w *deferredRollup) run(cs []*client) {
	var budget atomic.Int64
	var mu sync.Mutex // guards the ledger, written by both clients
	var wg sync.WaitGroup
	for ci, c := range cs {
		wg.Add(1)
		go func(ci int, c *client) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(w.seed*7919 + int64(ci) + 1))
			zipf := rand.NewZipf(rng, 1.2, 1, uint64(w.customers-1))
			var amounts [drItems]int64
			for n := 1; budget.Add(1) <= int64(w.orders); n++ {
				cust := int64(zipf.Uint64())
				var sum int64
				for i := range amounts {
					amounts[i] = 10 + rng.Int63n(90)
					sum += amounts[i]
				}
				wait := ci == 0 || n%drBatchEvery == 0
				if oid, ok := w.order(c, cust, amounts[:], wait); ok {
					mu.Lock()
					w.orderCust[oid] = cust
					w.orderTotal[oid] = sum
					w.custOrders[cust]++
					w.custTotal[cust] += sum
					w.total += sum
					mu.Unlock()
				}
			}
		}(ci, c)
	}
	wg.Wait()
}

// order inserts one 3-item order in one transaction and reports its id and
// whether it was acknowledged.
func (w *deferredRollup) order(c *client, cust int64, amounts []int64, wait bool) (int64, bool) {
	c.opStart()
	defer c.opEnd()
	oid := w.nextOrder.Add(1) - 1
	t0 := time.Now()
	tx, err := c.begin(writeTx)
	if err != nil {
		c.fail("begin: %v", err)
		return oid, false
	}
	for i, amt := range amounts {
		if err := c.insert(tx, "order_items", w.itemRow(oid*drItems+int64(i), cust, amt)); err != nil {
			c.abort(tx)
			c.fail("insert order %d: %v", oid, err)
			return oid, false
		}
	}
	if err := c.commitTx(tx); err != nil {
		c.fail("commit order %d: %v", oid, err)
		return oid, false
	}
	t1 := time.Now()
	c.commit.add(t1.Sub(t0))
	if wait {
		if err := c.waitWatermark(w.topView(), tx.CommitTS()); err != nil {
			c.fail("wait watermark: %v", err)
			return oid, true
		}
		c.visible.add(time.Since(t1))
	}
	return oid, true
}

// verify runs after the drain, crash and reopen: every order row and every
// customer row must match the ledger, every 16th order check is instead a
// scan of 64 customers, and the regions must add up to the acknowledged
// item total.
func (w *deferredRollup) verify(v *client) {
	for o := range w.orderTotal {
		if o%16 == 15 {
			lo := (o / 16 * drScanGroups) % w.customers
			hi := min(lo+drScanGroups, w.customers)
			readScan(v, "customer_totals", vtxn.Row{vtxn.Int(int64(lo))}, vtxn.Row{vtxn.Int(int64(hi))},
				func(rows []vtxn.ViewRow) { w.checkScan(v, lo, hi, rows) })
			continue
		}
		var want []int64
		if w.orderTotal[o] > 0 {
			want = []int64{w.orderTotal[o]}
		}
		cust := w.orderCust[o]
		checkViewRow(v, "order_totals", vtxn.Row{vtxn.Int(int64(o)), vtxn.Int(cust), vtxn.Str(drRegion(cust))}, want)
	}
	var regionCust, regionTotal [drRegions]int64
	for c := 0; c < w.customers; c++ {
		var want []int64
		if w.custOrders[c] > 0 {
			want = []int64{w.custOrders[c], w.custTotal[c]}
			regionCust[c%drRegions]++
			regionTotal[c%drRegions] += w.custTotal[c]
		}
		checkViewRow(v, "customer_totals", vtxn.Row{vtxn.Int(int64(c)), vtxn.Str(drRegion(int64(c)))}, want)
	}
	var sum int64
	for r := 0; r < drRegions; r++ {
		key := vtxn.Row{vtxn.Str(drRegion(int64(r)))}
		checkViewRow(v, "region_totals", key, []int64{regionCust[r], regionTotal[r]})
		sum += regionTotal[r]
	}
	if sum != w.total {
		v.fail("ledger regions sum to %d, acknowledged items to %d", sum, w.total)
	}
}

// checkScan compares a customer_totals scan of customers [lo, hi) with the
// ledger: the customers with orders, in key order.
func (w *deferredRollup) checkScan(v *client, lo, hi int, rows []vtxn.ViewRow) {
	i := 0
	for c := lo; c < hi; c++ {
		if w.custOrders[c] == 0 {
			continue
		}
		if i >= len(rows) {
			v.fail("customer_totals scan [%d,%d) ended at row %d, missing customer %d", lo, hi, i, c)
			return
		}
		r := rows[i]
		if r.Key[0].AsInt() != int64(c) || r.Result[0].AsInt() != w.custOrders[c] || r.Result[1].AsInt() != w.custTotal[c] {
			v.fail("customer_totals scan row %d = %v %v, want customer %d [%d %d]",
				i, r.Key, r.Result, c, w.custOrders[c], w.custTotal[c])
			return
		}
		i++
	}
	if i != len(rows) {
		v.fail("customer_totals scan [%d,%d) returned %d rows, ledger has %d", lo, hi, len(rows), i)
	}
}
