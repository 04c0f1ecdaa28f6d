package recovery

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/catalog"
	"repro/internal/id"
	"repro/internal/record"
	"repro/internal/wal"
)

func TestBootstrapFreshDirectory(t *testing.T) {
	dir := t.TempDir()
	st, err := Run(dir, wal.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Log.Close()
	if !st.Summary.Fresh || st.Gen != 1 || st.NextTxn != 1 {
		t.Fatalf("fresh state: %+v", st.Summary)
	}
	// The manifest is committed, so a second Run is no longer fresh.
	st.Log.Close()
	st2, err := Run(dir, wal.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Log.Close()
	if st2.Summary.Fresh {
		t.Fatal("second run still fresh")
	}
}

func TestRunCreatesMissingDirectory(t *testing.T) {
	dir := t.TempDir() + "/nested/deeper"
	st, err := Run(dir, wal.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	st.Log.Close()
	if _, err := os.Stat(dir); err != nil {
		t.Fatal("directory not created")
	}
}

// buildLog writes a log with one committed and one loser transaction.
func buildLog(t *testing.T, dir string) (tblID id.Tree) {
	t.Helper()
	st, err := Run(dir, wal.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	cat := catalog.New()
	tbl, err := cat.AddTable("t", []catalog.Column{{Name: "id", Kind: record.KindInt64}}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	w := st.Log
	append_ := func(rec *wal.Record) {
		t.Helper()
		if _, err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	append_(&wal.Record{Type: wal.TBegin, Txn: 1, Sys: true})
	append_(&wal.Record{Type: wal.TDDL, Txn: 1, Sys: true, OldVal: catalog.New().Encode(), NewVal: cat.Encode()})
	append_(&wal.Record{Type: wal.TCommit, Txn: 1, Sys: true})

	k1 := record.EncodeKey(record.Row{record.Int(1)})
	k2 := record.EncodeKey(record.Row{record.Int(2)})
	append_(&wal.Record{Type: wal.TBegin, Txn: 2})
	append_(&wal.Record{Type: wal.TInsert, Txn: 2, Tree: tbl.ID, Key: k1, NewVal: []byte("committed")})
	append_(&wal.Record{Type: wal.TCommit, Txn: 2})

	append_(&wal.Record{Type: wal.TBegin, Txn: 3})
	append_(&wal.Record{Type: wal.TInsert, Txn: 3, Tree: tbl.ID, Key: k2, NewVal: []byte("loser")})
	// No commit: txn 3 is a loser.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return tbl.ID
}

func TestRedoAndUndo(t *testing.T) {
	dir := t.TempDir()
	tblID := buildLog(t, dir)

	st, err := Run(dir, wal.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Log.Close()
	if st.Summary.Losers != 1 || st.Summary.UndoneOps != 1 {
		t.Fatalf("summary = %+v", st.Summary)
	}
	if st.NextTxn != 4 {
		t.Fatalf("NextTxn = %d", st.NextTxn)
	}
	if _, err := st.Catalog().Table("t"); err != nil {
		t.Fatal("DDL not replayed")
	}
	tree := st.Trees[tblID]
	k1 := record.EncodeKey(record.Row{record.Int(1)})
	k2 := record.EncodeKey(record.Row{record.Int(2)})
	if v, _, ok := tree.Get(k1); !ok || string(v) != "committed" {
		t.Fatal("committed row lost")
	}
	if _, _, ok := tree.Get(k2); ok {
		t.Fatal("loser's row survived undo")
	}
	// The undo wrote a CLR + abort-end: the log now ends the loser, so a
	// second recovery finds no losers.
	st.Log.Close()
	st2, err := Run(dir, wal.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Log.Close()
	if st2.Summary.Losers != 0 {
		t.Fatalf("second recovery losers = %d", st2.Summary.Losers)
	}
	if _, _, ok := st2.Trees[tblID].Get(k2); ok {
		t.Fatal("loser's row resurrected by replaying CLRs")
	}
}

func TestCheckpointRotatesGeneration(t *testing.T) {
	dir := t.TempDir()
	tblID := buildLog(t, dir)
	st, err := Run(dir, wal.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	writer, gen, err := Checkpoint(dir, st.Gen, st.Log, st.Catalog(), st.Trees, st.NextTxn, wal.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	if gen != st.Gen+1 {
		t.Fatalf("gen = %d", gen)
	}
	// Post-checkpoint work goes to the new log.
	k3 := record.EncodeKey(record.Row{record.Int(3)})
	writer.Append(&wal.Record{Type: wal.TBegin, Txn: 10})
	writer.Append(&wal.Record{Type: wal.TInsert, Txn: 10, Tree: tblID, Key: k3, NewVal: []byte("post")})
	writer.Append(&wal.Record{Type: wal.TCommit, Txn: 10})
	writer.Close()

	// The old generation's files are gone.
	d := wal.Dir{Path: dir}
	if _, err := os.Stat(d.LogPath(st.Gen)); !os.IsNotExist(err) {
		t.Fatal("old log not removed")
	}
	st2, err := Run(dir, wal.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Log.Close()
	if st2.Gen != gen {
		t.Fatalf("recovered gen = %d, want %d", st2.Gen, gen)
	}
	tree := st2.Trees[tblID]
	k1 := record.EncodeKey(record.Row{record.Int(1)})
	if _, _, ok := tree.Get(k1); !ok {
		t.Fatal("snapshotted row lost")
	}
	if _, _, ok := tree.Get(k3); !ok {
		t.Fatal("post-checkpoint row lost")
	}
	// NextTxn respects both snapshot watermark and log records.
	if st2.NextTxn < 11 {
		t.Fatalf("NextTxn = %d", st2.NextTxn)
	}
}

func TestTornTailTruncatedOnRecovery(t *testing.T) {
	dir := t.TempDir()
	buildLog(t, dir)
	// Tear the log tail.
	d := wal.Dir{Path: dir}
	gen, _, _ := d.Current()
	info, err := os.Stat(d.LogPath(gen))
	if err != nil {
		t.Fatal(err)
	}
	os.Truncate(d.LogPath(gen), info.Size()-2)

	st, err := Run(dir, wal.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Log.Close()
	if !st.Summary.Torn {
		t.Fatal("torn tail not reported")
	}
	// The torn record was the loser's insert: now the loser has no ops (its
	// begin may also have survived) — either way recovery must succeed and
	// committed data must be intact.
	k1 := record.EncodeKey(record.Row{record.Int(1)})
	var found bool
	for _, tr := range st.Trees {
		if _, _, ok := tr.Get(k1); ok {
			found = true
		}
	}
	if !found {
		t.Fatal("committed row lost after torn-tail recovery")
	}
}

// interleavedLog writes a log whose losers interleave with winners: txn 3
// has an update already compensated by a CLR (a savepoint rollback) before
// the crash, txn 5 rolled back completely, and txns 2 and 4 commit. It
// returns the table's tree, the records and each record's end offset.
func interleavedLog(t *testing.T, dir string) (id.Tree, []*wal.Record, []int64) {
	t.Helper()
	st, err := Run(dir, wal.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	cat := catalog.New()
	tbl, err := cat.AddTable("t", []catalog.Column{{Name: "id", Kind: record.KindInt64}}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	k := func(i int64) []byte { return record.EncodeKey(record.Row{record.Int(i)}) }
	recs := []*wal.Record{
		{Type: wal.TBegin, Txn: 1, Sys: true},
		{Type: wal.TDDL, Txn: 1, Sys: true, OldVal: catalog.New().Encode(), NewVal: cat.Encode()},
		{Type: wal.TCommit, Txn: 1, Sys: true},
		{Type: wal.TBegin, Txn: 2},
		{Type: wal.TBegin, Txn: 3},
		{Type: wal.TInsert, Txn: 3, Tree: tbl.ID, Key: k(1), NewVal: []byte("loser-1")},                             // LSN 6
		{Type: wal.TInsert, Txn: 2, Tree: tbl.ID, Key: k(2), NewVal: []byte("winner-2")},                            // LSN 7
		{Type: wal.TUpdate, Txn: 3, Tree: tbl.ID, Key: k(1), OldVal: []byte("loser-1"), NewVal: []byte("loser-1b")}, // LSN 8
		{Type: wal.TCommit, Txn: 2},
		{Type: wal.TCLR, Action: wal.TUpdate, UndoneLSN: 8, Txn: 3, Tree: tbl.ID, Key: k(1), OldVal: []byte("loser-1b"), NewVal: []byte("loser-1")},
		{Type: wal.TBegin, Txn: 5},
		{Type: wal.TInsert, Txn: 5, Tree: tbl.ID, Key: k(5), NewVal: []byte("rolled-back")}, // LSN 12
		{Type: wal.TCLR, Action: wal.TDelete, UndoneLSN: 12, Txn: 5, Tree: tbl.ID, Key: k(5), OldVal: []byte("rolled-back")},
		{Type: wal.TAbortEnd, Txn: 5},
		{Type: wal.TBegin, Txn: 4},
		{Type: wal.TInsert, Txn: 4, Tree: tbl.ID, Key: k(3), NewVal: []byte("winner-3")},
		{Type: wal.TInsert, Txn: 3, Tree: tbl.ID, Key: k(4), NewVal: []byte("loser-4")}, // LSN 17
		{Type: wal.TCommit, Txn: 4},
	}
	ends := make([]int64, len(recs))
	var off int64
	for i, rec := range recs {
		_, n, err := st.Log.AppendSized(rec)
		if err != nil {
			t.Fatal(err)
		}
		off += int64(n)
		ends[i] = off
	}
	if err := st.Log.Close(); err != nil {
		t.Fatal(err)
	}
	return tbl.ID, recs, ends
}

// dumpTrees renders every entry of every tree, ghosts included.
func dumpTrees(st *State) map[string]string {
	out := make(map[string]string)
	for tid, tr := range st.Trees {
		for _, it := range tr.Items(nil, nil, true) {
			out[fmt.Sprintf("%s/%x", tid, it.Key)] = fmt.Sprintf("%q ghost=%v", it.Val, it.Ghost)
		}
	}
	return out
}

// copyDB copies the database files in src to a fresh directory, cutting the
// log at cut bytes.
func copyDB(t *testing.T, src string, cut int64) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	logName := filepath.Base(wal.Dir{Path: src}.LogPath(1))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if e.Name() == logName {
			data = data[:cut]
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func TestUndoInterleavedLoser(t *testing.T) {
	dir := t.TempDir()
	tblID, recs, _ := interleavedLog(t, dir)
	st, err := Run(dir, wal.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	if st.Summary.Replayed != len(recs) || st.Summary.Losers != 1 || st.Summary.UndoneOps != 2 {
		t.Fatalf("summary = %+v", st.Summary)
	}
	k := func(i int64) []byte { return record.EncodeKey(record.Row{record.Int(i)}) }
	tree := st.Trees[tblID]
	for i, want := range map[int64]string{2: "winner-2", 3: "winner-3"} {
		if v, _, ok := tree.Get(k(i)); !ok || string(v) != want {
			t.Fatalf("key %d = %q, %v; want %q", i, v, ok, want)
		}
	}
	for _, i := range []int64{1, 4, 5} {
		if _, _, ok := tree.Get(k(i)); ok {
			t.Fatalf("key %d survived recovery", i)
		}
	}
	if err := st.Log.Close(); err != nil {
		t.Fatal(err)
	}

	// Undo runs newest first and skips the update the CLR at LSN 10 already
	// compensated: a CLR for LSN 17, one for LSN 6, then the abort-end.
	var tail []*wal.Record
	if _, err := wal.Scan(wal.Dir{Path: dir}.LogPath(1), func(r *wal.Record) error {
		if r.LSN > uint64(len(recs)) {
			tail = append(tail, r)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	type step struct {
		typ, action wal.Type
		undone      uint64
	}
	var got []step
	for _, r := range tail {
		if r.Txn != 3 {
			t.Fatalf("undo wrote %s for a winner", r)
		}
		got = append(got, step{r.Type, r.Action, r.UndoneLSN})
	}
	want := []step{{wal.TCLR, wal.TDelete, 17}, {wal.TCLR, wal.TDelete, 6}, {wal.TAbortEnd, 0, 0}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("undo records %+v, want %+v", got, want)
	}

	st2, err := Run(dir, wal.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Log.Close()
	if st2.Summary.Losers != 0 || !reflect.DeepEqual(dumpTrees(st2), dumpTrees(st)) {
		t.Fatalf("second recovery: %+v", st2.Summary)
	}
}

// TestTornTailEveryOffset cuts the log at every byte of its last two records.
// Each cut must recover the same state as the untorn log ending at the last
// whole record before the cut, and keep that prefix of the log intact.
func TestTornTailEveryOffset(t *testing.T) {
	dir := t.TempDir()
	_, _, ends := interleavedLog(t, dir)
	data, err := os.ReadFile(wal.Dir{Path: dir}.LogPath(1))
	if err != nil {
		t.Fatal(err)
	}
	recoverAt := func(cut int64) (*State, string) {
		t.Helper()
		d := copyDB(t, dir, cut)
		st, err := Run(d, wal.SyncNone)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if err := st.Log.Close(); err != nil {
			t.Fatal(err)
		}
		return st, wal.Dir{Path: d}.LogPath(1)
	}
	refs := make(map[int64]*State)
	for k := len(ends) - 3; k < len(ends); k++ {
		refs[ends[k]], _ = recoverAt(ends[k])
	}
	for cut := ends[len(ends)-3]; cut <= ends[len(ends)-1]; cut++ {
		k := len(ends) - 1
		for ends[k] > cut {
			k--
		}
		good := ends[k]
		ref := refs[good]
		st, logPath := recoverAt(cut)
		if st.Summary.Torn != (cut != good) {
			t.Fatalf("cut %d: torn = %v", cut, st.Summary.Torn)
		}
		if st.Summary.Replayed != k+1 || st.Summary.Losers != ref.Summary.Losers || st.Summary.UndoneOps != ref.Summary.UndoneOps {
			t.Fatalf("cut %d: summary %+v, want %+v", cut, st.Summary, ref.Summary)
		}
		if got, want := dumpTrees(st), dumpTrees(ref); !reflect.DeepEqual(got, want) {
			t.Fatalf("cut %d: state\n%v\nwant\n%v", cut, got, want)
		}
		after, err := os.ReadFile(logPath)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(after)) < good || !bytes.Equal(after[:good], data[:good]) {
			t.Fatalf("cut %d: log prefix up to %d not preserved", cut, good)
		}
		res, err := wal.Scan(logPath, func(*wal.Record) error { return nil })
		if err != nil || res.Torn || res.GoodBytes != int64(len(after)) {
			t.Fatalf("cut %d: recovered log scans %+v, %v (size %d)", cut, res, err, len(after))
		}
	}
}
