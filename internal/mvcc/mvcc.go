// Package mvcc implements the sidecar version store behind snapshot reads
// (DESIGN.md §8): short per-row version chains keyed by (tree, key), holding
// the committed pre-image the chain was seeded with, stamped committed
// versions ordered by commit timestamp, and the pending (uncommitted)
// post-images of in-flight writers. Snapshot readers resolve a row at a read
// timestamp by pure timestamp comparison — no lock-manager traffic — while
// writers pin a pending entry per logged operation and stamp it at commit.
//
// Chains exist only for rows mutated since the last prune: a row with no
// chain is fully committed at or below every live reader's timestamp, so the
// btree value stands. The pruner folds versions at or below the snapshot
// horizon into the chain base and drops chains that become quiescent, keeping
// the store's footprint proportional to the active write set.
//
// Two side structures serve range scans (DESIGN.md §8). A store-wide drop
// generation advances before any chain leaves the store, so a scan that
// copied tree values before resolving them can tell whether a chain that
// covered a copied value may have vanished in between. A per-tree ordered
// index holds the only tracked keys a tree scan cannot see: keys physically
// removed from their tree while their chain still lives.
package mvcc

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/btree"
	"repro/internal/id"
	"repro/internal/metrics"
	"repro/internal/wal"
)

var errNoFolder = errors.New("mvcc: no delta folder supplied")

// storeShards stripes the chain map; must be a power of two.
const storeShards = 32

// Version is one committed state of a row. Either a full post-image
// (Val/Ghost, or Absent for a delete) or an escrow delta set: concurrent
// escrow folds commit in an order that need not match their commit
// timestamps, so folds are versioned as commutative deltas rather than full
// values and layered onto the newest full image at resolution time.
type Version struct {
	TS     uint64
	Full   bool
	Val    []byte
	Ghost  bool
	Absent bool
	Deltas []wal.ColDelta
}

// pending is one in-flight operation's provisional version: the post-image
// computed when the operation was logged, keyed by the operation's WAL record
// so commit can stamp and rollback can unpin exactly this entry.
type pending struct {
	rec *wal.Record
	txn id.Txn
	ver Version // TS zero until stamped
}

type chain struct {
	mu       sync.Mutex
	base     Version // committed state when the chain was seeded (TS 0)
	versions []Version
	pend     []pending
	// removed marks the key as held in the removed-key index; guarded by
	// the shard's map lock, not mu.
	removed bool
}

type chainKey struct {
	tree id.Tree
	key  string
}

type shard struct {
	mu     sync.RWMutex
	chains map[chainKey]*chain
}

// Store is the engine-wide version store.
type Store struct {
	shards [storeShards]shard
	// dropGen advances, under the shard's map lock, before any chain is
	// dropped from the store (see DropGen).
	dropGen atomic.Uint64
	// removed maps a tree to its removed-key index (see TrackedKeys): an
	// ordered set of keys whose chain lives on after the key left the tree.
	// Entries are added under the chain's shard lock before the tree
	// changes, and leave with the chain.
	removed sync.Map             // id.Tree -> *btree.Tree
	m       *metrics.MVCCMetrics // nil-safe
}

// NewStore returns an empty store reporting into m (which may be nil).
func NewStore(m *metrics.MVCCMetrics) *Store {
	s := &Store{m: m}
	for i := range s.shards {
		s.shards[i].chains = make(map[chainKey]*chain)
	}
	return s
}

func (s *Store) shard(k chainKey) *shard {
	h := uint32(k.tree) * 2654435761
	for i := 0; i < len(k.key); i++ {
		h = h*31 + uint32(k.key[i])
	}
	return &s.shards[h&(storeShards-1)]
}

// Pin records one in-flight operation against (tree, key). rec identifies the
// operation for Stamp/Unpin; pre supplies the row's committed pre-image
// (value, ghost bit, existence) and is called only when the pin seeds a new
// chain. Pin must be called before the operation mutates the btree, while the
// caller's write lock (or the structure latch, for escrow folds) still
// serializes the row. A TDelete pin also enters the key into the tree's
// removed-key index.
//
// Lock order: pre runs under the shard's map lock and typically takes a tree
// latch, so no caller may enter the store (Read included) while holding a
// tree latch, e.g. from inside a btree.Scan callback. With a tree writer
// queued on the latch, pre's read latch waits behind the writer, the writer
// behind the scan, and the scan's Read behind pre's shard lock.
func (s *Store) Pin(tree id.Tree, key []byte, rec *wal.Record, txn id.Txn, pre func() (val []byte, ghost, ok bool)) {
	ck := chainKey{tree: tree, key: string(key)}
	sh := s.shard(ck)
	sh.mu.Lock()
	ch := sh.chains[ck]
	if ch == nil {
		ch = &chain{}
		val, ghost, ok := pre()
		if ok {
			ch.base = Version{Full: true, Val: append([]byte(nil), val...), Ghost: ghost}
		} else {
			ch.base = Version{Full: true, Absent: true}
		}
		sh.chains[ck] = ch
		if s.m != nil {
			s.m.Chains.Add(1)
		}
	}
	if rec.Type == wal.TDelete {
		// The delete removes the key from the tree, where scans can no
		// longer find it; index it while the chain keeps it visible.
		s.markRemoved(ck, ch)
	}
	ch.mu.Lock()
	sh.mu.Unlock()
	ch.pend = append(ch.pend, pending{rec: rec, txn: txn, ver: pendingVersion(rec)})
	if s.m != nil {
		s.m.ObserveChainLen(1 + len(ch.versions) + len(ch.pend))
	}
	ch.mu.Unlock()
}

// pendingVersion computes the provisional version an operation will commit:
// the post-image for row operations, the delta set for escrow folds. For
// TSetGhost the record carries no value — the row value is unchanged by the
// operation, so the caller-supplied record's OldVal (filled by the engine
// before pinning) provides it.
func pendingVersion(rec *wal.Record) Version {
	switch rec.Type {
	case wal.TInsert:
		return Version{Full: true, Val: rec.NewVal, Ghost: rec.NewGhost}
	case wal.TUpdate:
		return Version{Full: true, Val: rec.NewVal}
	case wal.TDelete:
		return Version{Full: true, Absent: true}
	case wal.TSetGhost:
		return Version{Full: true, Val: rec.OldVal, Ghost: rec.NewGhost}
	case wal.TEscrowFold:
		return Version{Deltas: rec.Deltas}
	default:
		// Unknown row mutation: treat as a full rewrite to the record's new
		// value so readers never see a half-tracked row.
		return Version{Full: true, Val: rec.NewVal, Ghost: rec.NewGhost}
	}
}

// Stamp promotes rec's pending entry to a committed version at ts. Commit
// calls it once per logged operation, after the commit record is durable and
// before the commit timestamp is finished at the oracle.
func (s *Store) Stamp(tree id.Tree, key []byte, rec *wal.Record, ts uint64) {
	ck := chainKey{tree: tree, key: string(key)}
	sh := s.shard(ck)
	sh.mu.RLock()
	ch := sh.chains[ck]
	sh.mu.RUnlock()
	if ch == nil {
		return
	}
	ch.mu.Lock()
	for i := range ch.pend {
		if ch.pend[i].rec == rec {
			v := ch.pend[i].ver
			v.TS = ts
			ch.pend = append(ch.pend[:i], ch.pend[i+1:]...)
			ch.versions = append(ch.versions, v)
			if s.m != nil {
				s.m.VersionsStamped.Add(1)
				s.m.ObserveChainLen(1 + len(ch.versions) + len(ch.pend))
			}
			break
		}
	}
	ch.mu.Unlock()
}

// Unpin discards rec's pending entry (rollback of an unstamped operation).
func (s *Store) Unpin(tree id.Tree, key []byte, rec *wal.Record) {
	ck := chainKey{tree: tree, key: string(key)}
	sh := s.shard(ck)
	sh.mu.RLock()
	ch := sh.chains[ck]
	sh.mu.RUnlock()
	if ch == nil {
		return
	}
	ch.mu.Lock()
	for i := range ch.pend {
		if ch.pend[i].rec == rec {
			ch.pend = append(ch.pend[:i], ch.pend[i+1:]...)
			break
		}
	}
	ch.mu.Unlock()
}

// Resolved is the outcome of resolving a row at a read timestamp.
type Resolved struct {
	// Present is false when the row does not exist at the timestamp.
	Present bool
	// Ghost is the row's ghost bit at the timestamp.
	Ghost bool
	// Val is the newest full image at or below the timestamp. The slice
	// aliases chain-owned memory only for stamped versions, which are
	// immutable once appended; callers must not modify it.
	Val []byte
	// Deltas are the escrow deltas committed after the full image and at or
	// below the timestamp; the caller folds them into Val's decoded form.
	Deltas []wal.ColDelta
}

// Read resolves (tree, key) at ts. tracked=false means no chain covers the
// row and the btree value stands (it is committed at or below every live
// read timestamp). self, when nonzero, overlays that transaction's own
// pending row operations so a snapshot transaction reads its own writes.
func (s *Store) Read(tree id.Tree, key []byte, ts uint64, self id.Txn) (Resolved, bool) {
	ck := chainKey{tree: tree, key: string(key)}
	sh := s.shard(ck)
	sh.mu.RLock()
	ch := sh.chains[ck]
	sh.mu.RUnlock()
	if ch == nil {
		return Resolved{}, false
	}
	ch.mu.Lock()
	defer ch.mu.Unlock()

	res := Resolved{Present: !ch.base.Absent, Ghost: ch.base.Ghost, Val: ch.base.Val}
	var fullTS uint64
	for i := range ch.versions {
		v := &ch.versions[i]
		if v.Full && v.TS <= ts && v.TS >= fullTS {
			res = Resolved{Present: !v.Absent, Ghost: v.Ghost, Val: v.Val}
			fullTS = v.TS
		}
	}
	for i := range ch.versions {
		v := &ch.versions[i]
		if !v.Full && v.TS <= ts && v.TS > fullTS {
			res.Deltas = append(res.Deltas, v.Deltas...)
		}
	}
	if self != id.None {
		for i := range ch.pend {
			p := &ch.pend[i]
			if p.txn != self {
				continue
			}
			if p.ver.Full {
				res = Resolved{Present: !p.ver.Absent, Ghost: p.ver.Ghost, Val: p.ver.Val}
			} else {
				res.Deltas = append(res.Deltas, p.ver.Deltas...)
			}
		}
	}
	return res, true
}

// markRemoved enters ck into its tree's removed-key index. The caller holds
// ck's shard map lock.
func (s *Store) markRemoved(ck chainKey, ch *chain) {
	if ch.removed {
		return
	}
	ch.removed = true
	idx, ok := s.removed.Load(ck.tree)
	if !ok {
		idx, _ = s.removed.LoadOrStore(ck.tree, btree.New())
	}
	idx.(*btree.Tree).Put([]byte(ck.key), nil, false)
}

// unmarkRemoved drops ck from the removed-key index as its chain leaves the
// store. The caller holds ck's shard map lock.
func (s *Store) unmarkRemoved(ck chainKey, ch *chain) {
	if !ch.removed {
		return
	}
	if idx, ok := s.removed.Load(ck.tree); ok {
		idx.(*btree.Tree).Delete([]byte(ck.key))
	}
}

// NoteRemoval tells the store that an undo is about to remove (tree, key)
// from its tree — the compensation of an insert. When the row's chain still
// holds a version a snapshot may read, the key joins the removed-key index
// so scans keep finding it. Call it before the tree changes.
func (s *Store) NoteRemoval(tree id.Tree, key []byte) {
	ck := chainKey{tree: tree, key: string(key)}
	sh := s.shard(ck)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ch := sh.chains[ck]
	if ch == nil || ch.removed {
		return
	}
	ch.mu.Lock()
	visible := !ch.base.Absent || len(ch.versions) > 0
	ch.mu.Unlock()
	if visible {
		s.markRemoved(ck, ch)
	}
}

// TrackedKeys returns, sorted, the keys of tree in [lo, hi) (nil bounds are
// open) that a scan of the tree itself cannot see: keys physically removed
// from the tree — by a pinned TDelete or an undone insert — whose version
// chain still lives, so a snapshot may still read them. It costs the size of
// the range in the index, not the number of chains in the store. A range
// scan looks it up after copying the matching tree range: a key removed
// before the copy is then in the index, one removed after it is in the copy.
func (s *Store) TrackedKeys(tree id.Tree, lo, hi []byte) [][]byte {
	idx, ok := s.removed.Load(tree)
	if !ok {
		return nil
	}
	var out [][]byte
	idx.(*btree.Tree).Scan(lo, hi, true, func(it btree.Item) bool {
		out = append(out, append([]byte(nil), it.Key...))
		return true
	})
	return out
}

// DropGen returns the store's chain-drop generation, which advances before
// any chain is dropped (Prune, Evict). A reader that finds a row untracked
// may trust a tree value it copied earlier only if the generation it read
// before that copy is still current: otherwise a chain covering the copied
// value — a writer's since rolled-back pin, say — may have been dropped in
// between.
func (s *Store) DropGen() uint64 { return s.dropGen.Load() }

// Evict drops (tree, key)'s version chain outright, making the btree's
// stored bytes the only source of truth at every timestamp. It refuses when
// the chain has pending (in-flight) entries and reports whether the key is
// now untracked. Fault injection only: committed history normally leaves the
// store through Prune, never through Evict.
func (s *Store) Evict(tree id.Tree, key []byte) bool {
	ck := chainKey{tree: tree, key: string(key)}
	sh := s.shard(ck)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ch := sh.chains[ck]
	if ch == nil {
		return true
	}
	ch.mu.Lock()
	busy := len(ch.pend) > 0
	ch.mu.Unlock()
	if busy {
		return false
	}
	s.dropGen.Add(1)
	s.unmarkRemoved(ck, ch)
	delete(sh.chains, ck)
	if s.m != nil {
		s.m.Chains.Add(-1)
	}
	return true
}

// FoldFunc folds escrow deltas into an encoded view row, returning the new
// encoding and its group-empty (ghost) bit. The engine supplies it so the
// store stays ignorant of row encodings and view metadata.
type FoldFunc func(tree id.Tree, val []byte, deltas []wal.ColDelta) (newVal []byte, ghost bool, err error)

// Prune folds every version at or below horizon into its chain's base and
// drops chains left with no versions and no pending entries. It returns the
// number of versions pruned. Safe concurrently with Pin/Stamp/Read: a chain
// is dropped only while its shard's map lock is held, and only when
// quiescent, in which case the btree value equals the base.
func (s *Store) Prune(horizon uint64, fold FoldFunc) int {
	pruned := 0
	for i := range s.shards {
		pruned += s.pruneShard(i, horizon, fold)
	}
	if s.m != nil {
		s.m.PrunePasses.Add(1)
		s.m.VersionsPruned.Add(int64(pruned))
	}
	return pruned
}

// NumShards returns the store's shard count, for callers spreading
// incremental prune steps across ticks.
func (s *Store) NumShards() int { return storeShards }

// PruneShard prunes a single shard (i taken modulo the shard count) up to
// horizon. The background pruner calls it once per tick so prune work spreads
// evenly over time instead of landing as one stop-the-world-sized spike: a
// full pass over every chain folds hundreds of versions and forces the hot
// write set to rebuild its chains all at once, which shows up as a throughput
// and allocs/op sawtooth on small machines. A full rotation through all
// shards counts as one prune pass in the metrics.
func (s *Store) PruneShard(i int, horizon uint64, fold FoldFunc) int {
	idx := i % storeShards
	pruned := s.pruneShard(idx, horizon, fold)
	if s.m != nil {
		if pruned > 0 {
			s.m.VersionsPruned.Add(int64(pruned))
		}
		if idx == storeShards-1 {
			s.m.PrunePasses.Add(1)
		}
	}
	return pruned
}

// pruneShard folds and drops chains in one shard; metrics for pruned counts
// are the caller's job (Chains is adjusted here, where the drop happens).
func (s *Store) pruneShard(idx int, horizon uint64, fold FoldFunc) int {
	pruned := 0
	bumped := false
	sh := &s.shards[idx]
	sh.mu.Lock()
	for ck, ch := range sh.chains {
		ch.mu.Lock()
		pruned += pruneChain(ck.tree, ch, horizon, fold)
		drop := len(ch.versions) == 0 && len(ch.pend) == 0
		ch.mu.Unlock()
		if drop {
			if !bumped {
				s.dropGen.Add(1)
				bumped = true
			}
			s.unmarkRemoved(ck, ch)
			delete(sh.chains, ck)
			if s.m != nil {
				s.m.Chains.Add(-1)
			}
		}
	}
	sh.mu.Unlock()
	return pruned
}

// pruneChain folds versions with TS <= horizon into base, oldest first,
// returning how many versions it folded away.
func pruneChain(tree id.Tree, ch *chain, horizon uint64, fold FoldFunc) int {
	candidates := 0
	for _, v := range ch.versions {
		if v.TS <= horizon {
			candidates++
		}
	}
	if candidates == 0 {
		return 0
	}
	old := make([]Version, 0, candidates)
	keep := make([]Version, 0, len(ch.versions)-candidates)
	for _, v := range ch.versions {
		if v.TS <= horizon {
			old = append(old, v)
		} else {
			keep = append(keep, v)
		}
	}
	sort.SliceStable(old, func(i, j int) bool { return old[i].TS < old[j].TS })
	// The newest full image at or below the horizon supersedes everything
	// before it: resolution only overlays deltas newer than the full version
	// it starts from, so older versions — full or delta — prune for free.
	base := ch.base
	start := 0
	for i, v := range old {
		if v.Full {
			base = Version{Full: true, Val: v.Val, Ghost: v.Ghost, Absent: v.Absent}
			start = i + 1
		}
	}
	// Everything after the newest full image is a delta. Escrow deltas
	// commute and FoldFunc takes a slice, so the whole surviving run folds in
	// one call — hot view-row chains carry hundreds of deltas per pass, and
	// folding them one at a time made prune passes dominate allocs/op.
	var deltas []wal.ColDelta
	for _, v := range old[start:] {
		deltas = append(deltas, v.Deltas...)
	}
	folded := len(old)
	if len(deltas) > 0 {
		var (
			nv    []byte
			ghost bool
			err   error
		)
		if fold == nil {
			err = errNoFolder
		} else {
			nv, ghost, err = fold(tree, base.Val, deltas)
		}
		if err != nil {
			// Folding failed; keep the delta run unpruned, so the base never
			// skips over a delta.
			keep = append(keep, old[start:]...)
			folded = start
		} else {
			base = Version{Full: true, Val: nv, Ghost: ghost}
		}
	}
	ch.base = base
	ch.versions = keep
	return folded
}

// Chains returns the number of live chains.
func (s *Store) Chains() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.chains)
		sh.mu.RUnlock()
	}
	return n
}
