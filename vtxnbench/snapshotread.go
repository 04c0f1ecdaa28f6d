package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	vtxn "repro"
)

// snapshotRead runs read-only Snapshot readers of a per-user escrow view
// beside a paced writer: MVCC chain resolution on the Zipf-hot head, B-tree
// descents into the cold tail, and the lock-free read path.
type snapshotRead struct {
	events, users int
	writes        int // per round, by the paced writer
	writeRate     int // writer commits per second
	seed          int64

	perm    []int   // Zipf rank -> user id, so hot users spread over the key space
	loaded  []int64 // events loaded per user (amount 10 each)
	written []int64 // acknowledged writer events per user (amount 5 each)

	scheduled int64 // writer commits the pacing called for in the timed phase
}

const (
	srLoadAmount  = 10
	srWriteAmount = 5
	srScanGroups  = 64
)

func newSnapshotRead(s scale, seed int64) *snapshotRead {
	return &snapshotRead{events: s.n(100_000), users: s.n(50_000), writes: s.n(8000), writeRate: 2000, seed: seed}
}

func (w *snapshotRead) topView() string { return "user_totals" }

func (w *snapshotRead) setup(db *vtxn.DB) error {
	if err := db.CreateTable("events", []vtxn.Column{
		{Name: "id", Kind: vtxn.KindInt64},
		{Name: "user", Kind: vtxn.KindInt64},
		{Name: "amount", Kind: vtxn.KindInt64},
	}, []int{0}); err != nil {
		return err
	}
	if err := db.CreateIndexedView(vtxn.ViewDef{
		Name: "user_totals", Kind: vtxn.ViewAggregate, Source: "events",
		GroupBy:  []string{"user"},
		Aggs:     []vtxn.AggSpec{vtxn.CountRows(), vtxn.Sum("amount")},
		Strategy: vtxn.StrategyEscrow,
	}); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(w.seed))
	w.perm = rng.Perm(w.users)
	w.loaded = make([]int64, w.users)
	w.written = make([]int64, w.users)
	// The first pass gives every user one event, so every 64-group scan
	// window is full; the rest land on uniformly random users.
	_, err := loadBatches(db, w.events, func(tx *vtxn.Tx, i int) error {
		u := i
		if i >= w.users {
			u = rng.Intn(w.users)
		}
		w.loaded[u]++
		return tx.Insert("events", vtxn.Row{vtxn.Int(int64(i)), vtxn.Int(int64(u)), vtxn.Int(srLoadAmount)})
	})
	return err
}

// run starts the reader on cs[0] and the paced writer on cs[1]. The round's
// work is the writer's fixed number of commits, so every round logs the same
// amount for recovery to replay; the reader reads until the writer is done.
func (w *snapshotRead) run(cs []*client) {
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w.readLoop(cs[0], &stop)
	}()
	w.write(cs[1])
	stop.Store(true)
	wg.Wait()
}

// readLoop is the reader: 15 in 16 reads are a GetViewRow of a Zipf(1.1)
// user, 1 in 16 a scan of 64 consecutive users. Every row must satisfy
// sum - 5*count = 5*loaded(user), whatever the writer has added.
func (w *snapshotRead) readLoop(c *client, stop *atomic.Bool) {
	rng := rand.New(rand.NewSource(w.seed*7919 + 1))
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(w.users-1))
	for !stop.Load() {
		if rng.Intn(16) == 0 {
			lo := rng.Intn(w.users - srScanGroups + 1)
			readScan(c, "user_totals", vtxn.Row{vtxn.Int(int64(lo))}, vtxn.Row{vtxn.Int(int64(lo + srScanGroups))},
				func(rows []vtxn.ViewRow) {
					if len(rows) != srScanGroups {
						c.fail("scan from user %d returned %d rows, want %d", lo, len(rows), srScanGroups)
						return
					}
					for j, r := range rows {
						if u := lo + j; r.Key[0].AsInt() != int64(u) || !w.consistent(u, r.Result, true) {
							c.fail("scan row %d = %v %v, want user %d with loaded count %d", j, r.Key, r.Result, u, w.loaded[u])
							return
						}
					}
				})
			continue
		}
		u := w.perm[zipf.Uint64()]
		readPoint(c, func(tx *vtxn.Tx) (vtxn.Row, bool, error) {
			return c.getViewRow(tx, "user_totals", vtxn.Row{vtxn.Int(int64(u))})
		}, func(row vtxn.Row, ok bool) {
			if !w.consistent(u, row, ok) {
				c.fail("user_totals[%d] = %v (found %v), loaded count %d", u, row, ok, w.loaded[u])
			}
		})
	}
}

// consistent reports whether a user's (count, sum) satisfies the workload
// invariant for some number of acknowledged or in-flight writer events.
func (w *snapshotRead) consistent(u int, row vtxn.Row, ok bool) bool {
	if !ok || len(row) != 2 {
		return false
	}
	count, sum := row[0].AsInt(), row[1].AsInt()
	return count >= w.loaded[u] && sum-srWriteAmount*count == (srLoadAmount-srWriteAmount)*w.loaded[u]
}

// write inserts w.writes amount-5 events for Zipf(1.1) users at writeRate
// commits per second on average. Every pacing tick it catches up to the
// schedule, so a late wake-up is made good at the next tick rather than
// lost.
func (w *snapshotRead) write(c *client) {
	rng := rand.New(rand.NewSource(w.seed*7919 + 2))
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(w.users-1))
	const tick = 5 * time.Millisecond
	id := int64(w.events)
	start := time.Now()
	for done := 0; done < w.writes; {
		due := min(int(time.Since(start).Seconds()*float64(w.writeRate)), w.writes)
		for ; done < due; done++ {
			u := w.perm[zipf.Uint64()]
			if w.insert(c, id, u) {
				w.written[u]++
			}
			id++
		}
		time.Sleep(tick)
	}
	w.scheduled = int64(time.Since(start).Seconds() * float64(w.writeRate))
}

func (w *snapshotRead) insert(c *client, id int64, u int) bool {
	c.opStart()
	defer c.opEnd()
	t0 := time.Now()
	tx, err := c.begin(writeTx)
	if err != nil {
		c.fail("begin: %v", err)
		return false
	}
	if err := c.insert(tx, "events", vtxn.Row{vtxn.Int(id), vtxn.Int(int64(u)), vtxn.Int(srWriteAmount)}); err != nil {
		c.abort(tx)
		c.fail("insert event %d: %v", id, err)
		return false
	}
	if err := c.commitTx(tx); err != nil {
		c.fail("commit: %v", err)
		return false
	}
	t1 := time.Now()
	c.commit.add(t1.Sub(t0))
	if err := c.waitWatermark(w.topView(), tx.CommitTS()); err != nil {
		c.fail("wait watermark: %v", err)
		return true
	}
	c.visible.add(time.Since(t1))
	return true
}

// verify runs after the crash and reopen: every user's row must hold exactly
// its loaded events plus the writer's acknowledged ones.
func (w *snapshotRead) verify(v *client) {
	for u := 0; u < w.users; u++ {
		n := w.loaded[u] + w.written[u]
		checkViewRow(v, "user_totals", vtxn.Row{vtxn.Int(int64(u))},
			[]int64{n, srLoadAmount*w.loaded[u] + srWriteAmount*w.written[u]})
	}
}
