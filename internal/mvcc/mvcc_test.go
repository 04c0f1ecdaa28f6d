package mvcc

import (
	"bytes"
	"testing"

	"repro/internal/btree"
	"repro/internal/id"
	"repro/internal/metrics"
	"repro/internal/wal"
)

func tkey(s string) []byte { return []byte(s) }

func preVal(val string) func() ([]byte, bool, bool) {
	return func() ([]byte, bool, bool) { return []byte(val), false, true }
}

func preAbsent() func() ([]byte, bool, bool) {
	return func() ([]byte, bool, bool) { return nil, false, false }
}

func TestUntrackedRow(t *testing.T) {
	s := NewStore(nil)
	if _, tracked := s.Read(1, tkey("a"), 10, id.None); tracked {
		t.Fatal("read of untracked row reported tracked")
	}
}

func TestPendingInvisibleUntilStamped(t *testing.T) {
	s := NewStore(nil)
	rec := &wal.Record{Type: wal.TUpdate, Tree: 1, Key: tkey("a"), NewVal: []byte("v2")}
	s.Pin(1, tkey("a"), rec, 7, preVal("v1"))

	res, tracked := s.Read(1, tkey("a"), 100, id.None)
	if !tracked || !res.Present || string(res.Val) != "v1" {
		t.Fatalf("before stamp: got %+v tracked=%v, want committed v1", res, tracked)
	}
	// The writing transaction itself sees its pending write.
	res, _ = s.Read(1, tkey("a"), 100, 7)
	if string(res.Val) != "v2" {
		t.Fatalf("self read got %q, want v2", res.Val)
	}

	s.Stamp(1, tkey("a"), rec, 5)
	res, _ = s.Read(1, tkey("a"), 4, id.None)
	if string(res.Val) != "v1" {
		t.Fatalf("read below commit ts got %q, want v1", res.Val)
	}
	res, _ = s.Read(1, tkey("a"), 5, id.None)
	if string(res.Val) != "v2" {
		t.Fatalf("read at commit ts got %q, want v2", res.Val)
	}
}

func TestUnpinDiscardsPending(t *testing.T) {
	s := NewStore(nil)
	rec := &wal.Record{Type: wal.TDelete, Tree: 1, Key: tkey("a")}
	s.Pin(1, tkey("a"), rec, 7, preVal("v1"))
	s.Unpin(1, tkey("a"), rec)
	res, tracked := s.Read(1, tkey("a"), 100, 7)
	if !tracked || !res.Present || string(res.Val) != "v1" {
		t.Fatalf("after unpin: got %+v tracked=%v, want committed v1", res, tracked)
	}
}

func TestInsertDeleteVisibility(t *testing.T) {
	s := NewStore(nil)
	ins := &wal.Record{Type: wal.TInsert, Tree: 1, Key: tkey("a"), NewVal: []byte("v1")}
	s.Pin(1, tkey("a"), ins, 7, preAbsent())
	s.Stamp(1, tkey("a"), ins, 3)
	del := &wal.Record{Type: wal.TDelete, Tree: 1, Key: tkey("a")}
	s.Pin(1, tkey("a"), del, 8, preVal("v1"))
	s.Stamp(1, tkey("a"), del, 6)

	for _, tc := range []struct {
		ts      uint64
		present bool
	}{{2, false}, {3, true}, {5, true}, {6, false}, {9, false}} {
		res, tracked := s.Read(1, tkey("a"), tc.ts, id.None)
		if !tracked {
			t.Fatalf("ts %d: untracked", tc.ts)
		}
		if res.Present != tc.present {
			t.Fatalf("ts %d: present=%v, want %v", tc.ts, res.Present, tc.present)
		}
	}
}

func TestEscrowDeltasLayerOverFullImage(t *testing.T) {
	s := NewStore(nil)
	d1 := &wal.Record{Type: wal.TEscrowFold, Tree: 2, Key: tkey("g"),
		Deltas: []wal.ColDelta{{Col: 1, Int: 10}}}
	d2 := &wal.Record{Type: wal.TEscrowFold, Tree: 2, Key: tkey("g"),
		Deltas: []wal.ColDelta{{Col: 1, Int: 5}}}
	s.Pin(2, tkey("g"), d1, 7, preVal("base"))
	s.Pin(2, tkey("g"), d2, 8, preVal("never-called"))
	// Folds commit out of timestamp order: d2 stamps ts 4, d1 stamps ts 3.
	s.Stamp(2, tkey("g"), d2, 4)
	s.Stamp(2, tkey("g"), d1, 3)

	res, _ := s.Read(2, tkey("g"), 3, id.None)
	if string(res.Val) != "base" || len(res.Deltas) != 1 || res.Deltas[0].Int != 10 {
		t.Fatalf("ts 3: got val=%q deltas=%v, want base + [10]", res.Val, res.Deltas)
	}
	res, _ = s.Read(2, tkey("g"), 4, id.None)
	if len(res.Deltas) != 2 {
		t.Fatalf("ts 4: got deltas=%v, want both", res.Deltas)
	}
}

// TestTrackedKeysRange: TrackedKeys lists only the tracked keys a tree scan
// cannot see — those whose pinned operation removes them from the tree —
// restricted to the range and the tree, sorted.
func TestTrackedKeysRange(t *testing.T) {
	s := NewStore(nil)
	for _, k := range []string{"d", "b", "f"} {
		rec := &wal.Record{Type: wal.TDelete, Tree: 3, Key: tkey(k)}
		s.Pin(3, tkey(k), rec, 7, preVal("y"))
	}
	// An update keeps its key in the tree: tracked, but not indexed.
	up := &wal.Record{Type: wal.TUpdate, Tree: 3, Key: tkey("c"), NewVal: []byte("x")}
	s.Pin(3, tkey("c"), up, 7, preVal("y"))
	other := &wal.Record{Type: wal.TDelete, Tree: 4, Key: tkey("c")}
	s.Pin(4, tkey("c"), other, 7, preVal("y"))

	keys := s.TrackedKeys(3, tkey("b"), tkey("f"))
	if len(keys) != 2 || !bytes.Equal(keys[0], tkey("b")) || !bytes.Equal(keys[1], tkey("d")) {
		t.Fatalf("TrackedKeys = %q, want [b d]", keys)
	}
	if all := s.TrackedKeys(3, nil, nil); len(all) != 3 {
		t.Fatalf("unbounded TrackedKeys = %q, want 3 keys", all)
	}
	if none := s.TrackedKeys(5, nil, nil); none != nil {
		t.Fatalf("TrackedKeys of an untouched tree = %q, want none", none)
	}
}

// TestRemovedKeysLeaveWithTheirChain: a removed key stays indexed exactly as
// long as its chain lives — Prune and Evict take it out, and both advance
// the drop generation first.
func TestRemovedKeysLeaveWithTheirChain(t *testing.T) {
	s := NewStore(nil)
	for _, k := range []string{"a", "b"} {
		rec := &wal.Record{Type: wal.TDelete, Tree: 1, Key: tkey(k)}
		s.Pin(1, tkey(k), rec, 7, preVal("v"))
		s.Stamp(1, tkey(k), rec, 5)
	}
	gen := s.DropGen()
	// The deletes committed at 5: a snapshot at 4 still reads them, so a
	// horizon of 4 keeps both chains and both index entries.
	s.Prune(4, nil)
	if got := s.TrackedKeys(1, nil, nil); len(got) != 2 || s.DropGen() != gen {
		t.Fatalf("prune below the deletes: keys %q gen %d->%d, want both kept and gen unmoved", got, gen, s.DropGen())
	}
	if !s.Evict(1, tkey("a")) {
		t.Fatal("evict of a quiescent chain refused")
	}
	if got := s.TrackedKeys(1, nil, nil); len(got) != 1 || string(got[0]) != "b" || s.DropGen() == gen {
		t.Fatalf("after evicting a: keys %q gen %d, want [b] and a moved gen", got, s.DropGen())
	}
	gen = s.DropGen()
	s.Prune(5, nil)
	if got := s.TrackedKeys(1, nil, nil); len(got) != 0 || s.Chains() != 0 || s.DropGen() == gen {
		t.Fatalf("after pruning past the deletes: keys %q chains %d gen moved %v", got, s.Chains(), s.DropGen() != gen)
	}
}

// TestNoteRemovalIndexesOnlyVisibleChains: undoing an insert removes the key
// from the tree. It needs indexing only when the chain still holds a version
// a snapshot may read.
func TestNoteRemovalIndexesOnlyVisibleChains(t *testing.T) {
	s := NewStore(nil)
	// A fresh insert seeded an absent base: nothing to read once undone.
	fresh := &wal.Record{Type: wal.TInsert, Tree: 1, Key: tkey("a"), NewVal: []byte("v")}
	s.Pin(1, tkey("a"), fresh, 7, preAbsent())
	s.NoteRemoval(1, tkey("a"))
	// A committed version under the undone insert stays readable.
	old := &wal.Record{Type: wal.TUpdate, Tree: 1, Key: tkey("b"), NewVal: []byte("v1")}
	s.Pin(1, tkey("b"), old, 6, preAbsent())
	s.Stamp(1, tkey("b"), old, 3)
	s.NoteRemoval(1, tkey("b"))
	// No chain at all: nothing to index.
	s.NoteRemoval(1, tkey("c"))
	if got := s.TrackedKeys(1, nil, nil); len(got) != 1 || string(got[0]) != "b" {
		t.Fatalf("TrackedKeys = %q, want [b]", got)
	}
}

// TestRemovedIndexAgainstBatchCopy walks the scan protocol at the store
// level: copy a batch from a tree, then look up the removed keys of the
// batch's range. A delete pinned before the copy is found only in the index;
// one pinned between the copy and the lookup is found in both (the scan
// merges equal keys); a chain dropped after the copy moves the generation.
func TestRemovedIndexAgainstBatchCopy(t *testing.T) {
	s := NewStore(nil)
	tr := btree.New()
	for _, k := range []string{"a", "b", "c", "d", "e", "f"} {
		tr.Put(tkey(k), []byte("v"), false)
	}
	del := func(k string) *wal.Record {
		rec := &wal.Record{Type: wal.TDelete, Tree: 1, Key: tkey(k)}
		s.Pin(1, tkey(k), rec, 7, func() ([]byte, bool, bool) { return tr.Get(tkey(k)) })
		tr.Delete(tkey(k))
		return rec
	}
	del("b") // before the copy
	var b btree.Batch
	gen := s.DropGen()
	tr.ScanBatch(&b, nil, nil, 3)
	if b.Len() != 3 || string(b.Key(2)) != "d" || string(b.Next()) != "e" {
		t.Fatalf("batch = %d keys ending %q, next %q; want a c d, next e", b.Len(), b.Key(b.Len()-1), b.Next())
	}
	delC := del("c") // after the copy, before the lookup
	got := s.TrackedKeys(1, nil, b.Next())
	if len(got) != 2 || string(got[0]) != "b" || string(got[1]) != "c" {
		t.Fatalf("removed keys of [nil, e) = %q, want [b c]", got)
	}
	if s.DropGen() != gen {
		t.Fatal("drop generation moved without a drop")
	}
	// Roll the c delete back and prune: its chain goes, and the generation
	// tells the scan not to trust its copied c without re-reading it.
	tr.Put(tkey("c"), []byte("v"), false)
	s.Unpin(1, tkey("c"), delC)
	s.Prune(0, nil)
	if got := s.TrackedKeys(1, nil, nil); len(got) != 1 || string(got[0]) != "b" {
		t.Fatalf("after the rollback and prune: removed keys %q, want [b]", got)
	}
	if s.DropGen() == gen {
		t.Fatal("chain drop did not move the generation")
	}
}

func TestPruneFoldsAndDrops(t *testing.T) {
	reg := metrics.NewRegistry()
	s := NewStore(&reg.MVCC)
	up := &wal.Record{Type: wal.TUpdate, Tree: 1, Key: tkey("a"), NewVal: []byte("v2")}
	s.Pin(1, tkey("a"), up, 7, preVal("v1"))
	s.Stamp(1, tkey("a"), up, 3)
	d := &wal.Record{Type: wal.TEscrowFold, Tree: 1, Key: tkey("a"),
		Deltas: []wal.ColDelta{{Col: 0, Int: 1}}}
	s.Pin(1, tkey("a"), d, 8, preVal("unused"))
	s.Stamp(1, tkey("a"), d, 5)

	fold := func(tree id.Tree, val []byte, deltas []wal.ColDelta) ([]byte, bool, error) {
		return append(append([]byte(nil), val...), '+'), false, nil
	}
	// Horizon below both versions: nothing prunable.
	if n := s.Prune(2, fold); n != 0 {
		t.Fatalf("prune below versions folded %d, want 0", n)
	}
	// Horizon covers the full image only.
	if n := s.Prune(3, fold); n != 1 {
		t.Fatalf("prune at 3 folded %d, want 1", n)
	}
	res, tracked := s.Read(1, tkey("a"), 3, id.None)
	if !tracked || string(res.Val) != "v2" || len(res.Deltas) != 0 {
		t.Fatalf("after partial prune: got %+v, want base v2", res)
	}
	// Horizon covers everything: delta folds into base, chain drops.
	if n := s.Prune(10, fold); n != 1 {
		t.Fatalf("prune at 10 folded %d, want 1", n)
	}
	if got := s.Chains(); got != 0 {
		t.Fatalf("chains after full prune = %d, want 0", got)
	}
	if got := reg.MVCC.VersionsPruned.Load(); got != 2 {
		t.Fatalf("versions_pruned = %d, want 2", got)
	}
	if got := reg.MVCC.VersionsStamped.Load(); got != 2 {
		t.Fatalf("versions_stamped = %d, want 2", got)
	}
}

func TestPruneKeepsChainWithPending(t *testing.T) {
	s := NewStore(nil)
	rec := &wal.Record{Type: wal.TUpdate, Tree: 1, Key: tkey("a"), NewVal: []byte("v2")}
	s.Pin(1, tkey("a"), rec, 7, preVal("v1"))
	s.Prune(100, nil)
	if got := s.Chains(); got != 1 {
		t.Fatalf("chain with pending entry dropped by prune (chains=%d)", got)
	}
	res, tracked := s.Read(1, tkey("a"), 100, 7)
	if !tracked || string(res.Val) != "v2" {
		t.Fatalf("self read after prune: got %+v tracked=%v", res, tracked)
	}
}

func TestSameTimestampLaterOpWins(t *testing.T) {
	s := NewStore(nil)
	ins := &wal.Record{Type: wal.TInsert, Tree: 1, Key: tkey("a"), NewVal: []byte("v1")}
	up := &wal.Record{Type: wal.TUpdate, Tree: 1, Key: tkey("a"), NewVal: []byte("v2")}
	s.Pin(1, tkey("a"), ins, 7, preAbsent())
	s.Pin(1, tkey("a"), up, 7, preVal("never"))
	// One transaction commits both ops at one timestamp, in log order.
	s.Stamp(1, tkey("a"), ins, 4)
	s.Stamp(1, tkey("a"), up, 4)
	res, _ := s.Read(1, tkey("a"), 4, id.None)
	if string(res.Val) != "v2" {
		t.Fatalf("same-ts read got %q, want the later op's v2", res.Val)
	}
}

func TestPruneBatchesDeltasAndDropsDeadOnes(t *testing.T) {
	s := NewStore(nil)
	// Delta at ts 2, full image at ts 3, deltas at ts 4 and 5: the ts-2 delta
	// is dead (resolution never overlays deltas older than the newest full
	// image) and the survivors must fold in a single call.
	recs := []*wal.Record{
		{Type: wal.TEscrowFold, Tree: 1, Key: tkey("a"), Deltas: []wal.ColDelta{{Col: 0, Int: 1}}},
		{Type: wal.TUpdate, Tree: 1, Key: tkey("a"), NewVal: []byte("full")},
		{Type: wal.TEscrowFold, Tree: 1, Key: tkey("a"), Deltas: []wal.ColDelta{{Col: 0, Int: 2}}},
		{Type: wal.TEscrowFold, Tree: 1, Key: tkey("a"), Deltas: []wal.ColDelta{{Col: 0, Int: 3}}},
	}
	for i, rec := range recs {
		s.Pin(1, tkey("a"), rec, id.Txn(7+i), preVal("seed"))
		s.Stamp(1, tkey("a"), rec, uint64(2+i))
	}
	foldCalls := 0
	var foldedDeltas []wal.ColDelta
	var foldedBase string
	fold := func(tree id.Tree, val []byte, deltas []wal.ColDelta) ([]byte, bool, error) {
		foldCalls++
		foldedBase = string(val)
		foldedDeltas = append([]wal.ColDelta(nil), deltas...)
		return []byte("folded"), false, nil
	}
	if n := s.Prune(100, fold); n != 4 {
		t.Fatalf("pruned %d versions, want 4", n)
	}
	if foldCalls != 1 {
		t.Fatalf("fold called %d times, want 1 batched call", foldCalls)
	}
	if foldedBase != "full" {
		t.Fatalf("fold base %q, want the newest full image", foldedBase)
	}
	if len(foldedDeltas) != 2 || foldedDeltas[0].Int != 2 || foldedDeltas[1].Int != 3 {
		t.Fatalf("fold deltas %v, want the two survivors [2 3] in ts order", foldedDeltas)
	}
	if got := s.Chains(); got != 0 {
		t.Fatalf("chains after prune = %d, want 0", got)
	}
}

func TestPruneShardRotationDrains(t *testing.T) {
	reg := metrics.NewRegistry()
	s := NewStore(&reg.MVCC)
	// Enough distinct keys that multiple shards hold chains.
	for i := 0; i < 64; i++ {
		k := tkey(string(rune('a'+i%26)) + string(rune('0'+i/26)))
		rec := &wal.Record{Type: wal.TUpdate, Tree: 1, Key: k, NewVal: []byte("v2")}
		s.Pin(1, k, rec, id.Txn(7), preVal("v1"))
		s.Stamp(1, k, rec, 3)
	}
	if s.Chains() != 64 {
		t.Fatalf("chains = %d, want 64", s.Chains())
	}
	pruned := 0
	for i := 0; i < s.NumShards(); i++ {
		pruned += s.PruneShard(i, 100, nil)
	}
	if pruned != 64 {
		t.Fatalf("shard rotation pruned %d versions, want 64", pruned)
	}
	if got := s.Chains(); got != 0 {
		t.Fatalf("chains after full rotation = %d, want 0", got)
	}
	if got := reg.MVCC.PrunePasses.Load(); got != 1 {
		t.Fatalf("prune_passes after one rotation = %d, want 1", got)
	}
	if got := reg.MVCC.VersionsPruned.Load(); got != 64 {
		t.Fatalf("versions_pruned = %d, want 64", got)
	}
}
