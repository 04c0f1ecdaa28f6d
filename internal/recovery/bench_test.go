package recovery

import (
	"math/rand"
	"os"
	"runtime"
	"testing"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/fault"
	"repro/internal/id"
	"repro/internal/record"
	"repro/internal/wal"
)

// replayLog writes a fixed log in the escrow-hot shape: TPC-B transfers over
// accounts whose balances feed escrow branch and region totals. A transfer
// logs begin, two account updates, a fold into each account's branch and
// region row, and commit; 1 in 16 is instead rolled back after its updates
// (two CLRs and an abort-end). Every transaction finishes, so a replay writes
// nothing and the same directory can be recovered again. It returns the
// record count.
func replayLog(b *testing.B, dir string) int {
	b.Helper()
	const (
		accounts  = 8192
		branches  = 64
		regions   = 4
		transfers = 8192
	)
	st, err := Run(dir, wal.SyncNone)
	if err != nil {
		b.Fatal(err)
	}
	cat := catalog.New()
	tbl, err := cat.AddTable("accounts", []catalog.Column{
		{Name: "id", Kind: record.KindInt64},
		{Name: "branch", Kind: record.KindInt64},
		{Name: "region", Kind: record.KindInt64},
		{Name: "balance", Kind: record.KindInt64},
	}, []int{0})
	if err != nil {
		b.Fatal(err)
	}
	var views [2]id.Tree
	for i, group := range []string{"branch", "region"} {
		v, err := cat.AddView(catalog.View{
			Name: group + "_totals", Kind: catalog.ViewAggregate, Source: "accounts",
			GroupBy:  []string{group},
			Aggs:     []expr.AggSpec{{Func: expr.AggCountRows}, {Func: expr.AggSum, Arg: expr.NamedCol("balance")}},
			Strategy: catalog.StrategyEscrow,
		})
		if err != nil {
			b.Fatal(err)
		}
		views[i] = v.ID
	}
	n := 0
	log := func(r *wal.Record) uint64 {
		lsn, err := st.Log.Append(r)
		if err != nil {
			b.Fatal(err)
		}
		n++
		return lsn
	}
	log(&wal.Record{Type: wal.TBegin, Txn: 1, Sys: true})
	log(&wal.Record{Type: wal.TDDL, Txn: 1, Sys: true, OldVal: catalog.New().Encode(), NewVal: cat.Encode()})
	log(&wal.Record{Type: wal.TCommit, Txn: 1, Sys: true})

	rng := rand.New(rand.NewSource(1))
	balance := make([]int64, accounts)
	row := func(acct int, bal int64) []byte {
		return record.EncodeRow(record.Row{record.Int(int64(acct)), record.Int(int64(acct % branches)),
			record.Int(int64(acct % regions)), record.Int(bal)})
	}
	key := func(v int) []byte { return record.EncodeKey(record.Row{record.Int(int64(v))}) }
	for i := 0; i < transfers; i++ {
		txn := id.Txn(i + 2)
		from, to := rng.Intn(accounts), rng.Intn(accounts)
		amt := int64(1 + rng.Intn(100))
		log(&wal.Record{Type: wal.TBegin, Txn: txn})
		var lsns [2]uint64
		for j, acct := range [2]int{from, to} {
			delta := amt
			if j == 0 {
				delta = -amt
			}
			lsns[j] = log(&wal.Record{Type: wal.TUpdate, Txn: txn, Tree: tbl.ID, Key: key(acct),
				OldVal: row(acct, balance[acct]), NewVal: row(acct, balance[acct]+delta)})
		}
		if i%16 == 15 {
			for j := 1; j >= 0; j-- {
				acct := [2]int{from, to}[j]
				log(&wal.Record{Type: wal.TCLR, Action: wal.TUpdate, UndoneLSN: lsns[j], Txn: txn, Tree: tbl.ID,
					Key: key(acct), NewVal: row(acct, balance[acct])})
			}
			log(&wal.Record{Type: wal.TAbortEnd, Txn: txn})
			continue
		}
		balance[from] -= amt
		balance[to] += amt
		for j, acct := range [2]int{from, to} {
			delta := amt
			if j == 0 {
				delta = -amt
			}
			log(&wal.Record{Type: wal.TEscrowFold, Txn: txn, Tree: views[0], Key: key(acct % branches),
				Deltas: []wal.ColDelta{{Col: 3, Int: delta}}})
			log(&wal.Record{Type: wal.TEscrowFold, Txn: txn, Tree: views[1], Key: key(acct % regions),
				Deltas: []wal.ColDelta{{Col: 3, Int: delta}}})
		}
		log(&wal.Record{Type: wal.TCommit, Txn: txn})
	}
	if err := st.Log.Close(); err != nil {
		b.Fatal(err)
	}
	return n
}

// countFS counts Read calls on the files it opens: each is one read syscall
// on the OS filesystem underneath.
type countFS struct {
	fault.OS
	reads int64
}

func (c *countFS) OpenFile(name string, flag int, perm os.FileMode) (fault.File, error) {
	f, err := c.OS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return countFile{f, &c.reads}, nil
}

type countFile struct {
	fault.File
	reads *int64
}

func (f countFile) Read(p []byte) (int, error) {
	*f.reads++
	return f.File.Read(p)
}

// BenchmarkRecoveryReplay is the recovery layer ledger: it recovers the same
// escrow-hot-shaped log b.N times and reports the cost per replayed record,
// in time, in read syscalls and in heap allocations counted across the whole
// restart.
func BenchmarkRecoveryReplay(b *testing.B) {
	dir := b.TempDir()
	records := replayLog(b, dir)
	fsys := &countFS{}
	var before, after runtime.MemStats
	b.ResetTimer()
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		st, err := RunFS(fsys, dir, wal.SyncNone)
		if err != nil {
			b.Fatal(err)
		}
		if st.Summary.Replayed != records || st.Summary.Losers != 0 {
			b.Fatalf("replay summary %+v, want %d records and no losers", st.Summary, records)
		}
		if err := st.Log.Close(); err != nil {
			b.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	b.StopTimer()
	total := float64(b.N) * float64(records)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/record")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/total, "allocs/record")
	b.ReportMetric(float64(fsys.reads)/total, "reads/record")
}
