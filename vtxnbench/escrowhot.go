package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	vtxn "repro"
)

// escrowHot is the paper's hot spot: TPC-B transfers between uniformly random
// accounts, with every commit folding into one of 64 branch rows and, through
// the stacked view, one of 4 region rows — all escrow-maintained.
type escrowHot struct {
	accounts  int
	transfers int // per round, shared by the clients
	seed      int64

	balance []int64 // the ledger: acknowledged balance per account
}

const (
	ehBranches = 64
	ehRegions  = 4
)

func newEscrowHot(s scale, seed int64) *escrowHot {
	return &escrowHot{accounts: s.n(100_000), transfers: s.n(40_000), seed: seed}
}

func (w *escrowHot) topView() string { return "region_totals" }

func ehBranch(id int) int64 { return int64(id % ehBranches) }
func ehRegion(id int) int64 { return ehBranch(id) % ehRegions }

func (w *escrowHot) setup(db *vtxn.DB) error {
	if err := db.CreateTable("accounts", []vtxn.Column{
		{Name: "id", Kind: vtxn.KindInt64},
		{Name: "branch", Kind: vtxn.KindInt64},
		{Name: "region", Kind: vtxn.KindInt64},
		{Name: "balance", Kind: vtxn.KindInt64},
	}, []int{0}); err != nil {
		return err
	}
	if err := db.CreateIndexedView(vtxn.ViewDef{
		Name: "branch_totals", Kind: vtxn.ViewAggregate, Source: "accounts",
		GroupBy:  []string{"branch", "region"},
		Aggs:     []vtxn.AggSpec{vtxn.CountRows(), vtxn.Sum("balance")},
		Strategy: vtxn.StrategyEscrow,
	}); err != nil {
		return err
	}
	if err := db.CreateIndexedView(vtxn.ViewDef{
		Name: "region_totals", Kind: vtxn.ViewAggregate, Source: "branch_totals",
		GroupBy:  []string{"region"},
		Aggs:     []vtxn.AggSpec{vtxn.Sum("sum_balance")},
		Strategy: vtxn.StrategyEscrow,
	}); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(w.seed))
	w.balance = make([]int64, w.accounts)
	_, err := loadBatches(db, w.accounts, func(tx *vtxn.Tx, i int) error {
		w.balance[i] = 1000 + rng.Int63n(1000)
		return tx.Insert("accounts", vtxn.Row{
			vtxn.Int(int64(i)), vtxn.Int(ehBranch(i)), vtxn.Int(ehRegion(i)), vtxn.Int(w.balance[i]),
		})
	})
	return err
}

// run drives the transfers. Client c moves money only among the accounts of
// its own half of the id space, so the two clients never write the same
// account and the read-then-update of a balance needs no row lock held
// across it; every transfer still folds into the shared branch and region
// rows, which is the contention the workload exists to measure.
func (w *escrowHot) run(cs []*client) {
	var next atomic.Int64
	var wg sync.WaitGroup
	half := w.accounts / len(cs)
	for ci, c := range cs {
		wg.Add(1)
		go func(ci int, c *client) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(w.seed*7919 + int64(ci) + 1))
			lo := ci * half
			for next.Add(1) <= int64(w.transfers) {
				a := lo + rng.Intn(half)
				b := lo + rng.Intn(half-1)
				if b >= a {
					b++
				}
				amt := 1 + rng.Int63n(100)
				w.transfer(c, a, b, amt, rng.Intn(16) == 0)
			}
		}(ci, c)
	}
	wg.Wait()
}

func (w *escrowHot) transfer(c *client, a, b int, amt int64, appRollback bool) {
	c.opStart()
	defer c.opEnd()
	t0 := time.Now()
	tx, err := c.begin(writeTx)
	if err != nil {
		c.fail("begin: %v", err)
		return
	}
	ka, kb := vtxn.Row{vtxn.Int(int64(a))}, vtxn.Row{vtxn.Int(int64(b))}
	ra, okA, err := c.get(tx, "accounts", ka)
	if err != nil || !okA {
		c.abort(tx)
		c.fail("get account %d: ok=%v err=%v", a, okA, err)
		return
	}
	rb, okB, err := c.get(tx, "accounts", kb)
	if err != nil || !okB {
		c.abort(tx)
		c.fail("get account %d: ok=%v err=%v", b, okB, err)
		return
	}
	if got := ra[3].AsInt(); got != w.balance[a] {
		c.fail("account %d read balance %d, ledger %d", a, got, w.balance[a])
	}
	if got := rb[3].AsInt(); got != w.balance[b] {
		c.fail("account %d read balance %d, ledger %d", b, got, w.balance[b])
	}
	if err := c.update(tx, "accounts", ka, map[int]vtxn.Value{3: vtxn.Int(ra[3].AsInt() - amt)}); err != nil {
		c.abort(tx)
		c.fail("update account %d: %v", a, err)
		return
	}
	if err := c.update(tx, "accounts", kb, map[int]vtxn.Value{3: vtxn.Int(rb[3].AsInt() + amt)}); err != nil {
		c.abort(tx)
		c.fail("update account %d: %v", b, err)
		return
	}
	if appRollback {
		// An intended application rollback: not a failure, not a commit.
		if err := c.rollback(tx); err != nil {
			c.fail("rollback: %v", err)
		}
		return
	}
	if err := c.commitTx(tx); err != nil {
		c.fail("commit: %v", err)
		return
	}
	t1 := time.Now()
	c.commit.add(t1.Sub(t0))
	w.balance[a] -= amt
	w.balance[b] += amt
	if err := c.waitWatermark(w.topView(), tx.CommitTS()); err != nil {
		c.fail("wait watermark: %v", err)
		return
	}
	c.visible.add(time.Since(t1))
}

// verify runs after the crash and reopen: every account balance must equal
// the ledger of acknowledged transfers, and every 16th check is a scan of
// all 64 branch rows against the ledger's per-branch totals.
func (w *escrowHot) verify(v *client) {
	var count, sum [ehBranches]int64
	for i, bal := range w.balance {
		count[ehBranch(i)]++
		sum[ehBranch(i)] += bal
	}
	for i := 0; i < w.accounts; i++ {
		if i%16 == 15 {
			readScan(v, "branch_totals", nil, nil, func(rows []vtxn.ViewRow) {
				if len(rows) != ehBranches {
					v.fail("branch_totals scan returned %d rows, want %d", len(rows), ehBranches)
					return
				}
				for b, r := range rows {
					if r.Key[0].AsInt() != int64(b) || r.Key[1].AsInt() != int64(b%ehRegions) ||
						r.Result[0].AsInt() != count[b] || r.Result[1].AsInt() != sum[b] {
						v.fail("branch_totals row %d = %v %v, want [%d %d] [%d %d]",
							b, r.Key, r.Result, b, b%ehRegions, count[b], sum[b])
						return
					}
				}
			})
			continue
		}
		readPoint(v, func(tx *vtxn.Tx) (vtxn.Row, bool, error) {
			return v.get(tx, "accounts", vtxn.Row{vtxn.Int(int64(i))})
		}, func(row vtxn.Row, ok bool) {
			if !ok || row[3].AsInt() != w.balance[i] {
				v.fail("account %d = %v (found %v), ledger balance %d", i, row, ok, w.balance[i])
			}
		})
	}
	var region [ehRegions]int64
	for b := 0; b < ehBranches; b++ {
		region[b%ehRegions] += sum[b]
	}
	for r := 0; r < ehRegions; r++ {
		checkViewRow(v, "region_totals", vtxn.Row{vtxn.Int(int64(r))}, []int64{region[r]})
	}
}
