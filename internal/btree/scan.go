package btree

import "bytes"

// Item is one entry yielded by a scan. Key and Val alias internal storage and
// must not be modified; Clone before retaining.
type Item struct {
	Key   []byte
	Val   []byte
	Ghost bool
}

// Clone returns an Item with copied Key and Val.
func (it Item) Clone() Item {
	return Item{
		Key:   append([]byte(nil), it.Key...),
		Val:   append([]byte(nil), it.Val...),
		Ghost: it.Ghost,
	}
}

// Scan visits entries with lo <= key < hi in ascending order. A nil lo means
// the start of the tree; a nil hi means the end. Ghost entries are skipped
// unless includeGhosts is set. fn returns false to stop early. fn must not
// call back into the same tree (the tree latch is held across the scan).
func (t *Tree) Scan(lo, hi []byte, includeGhosts bool, fn func(Item) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var n *node
	var i int
	if lo == nil {
		n = t.leftmostLeaf()
		i = 0
	} else {
		n = t.findLeaf(lo)
		i, _ = search(n.keys, lo)
	}
	for n != nil {
		for ; i < len(n.keys); i++ {
			if hi != nil && bytes.Compare(n.keys[i], hi) >= 0 {
				return
			}
			if n.ghost[i] && !includeGhosts {
				continue
			}
			if !fn(Item{Key: n.keys[i], Val: n.vals[i], Ghost: n.ghost[i]}) {
				return
			}
		}
		n = n.next
		i = 0
	}
}

// Batch is a reusable copy of a run of consecutive entries, filled by
// ScanBatch. Its storage is pointer-free — keys and values share one byte
// arena addressed by offsets — so a refill copies into memory the batch
// already owns and the garbage collector never scans it.
type Batch struct {
	buf   []byte
	ends  []int // ends[2i] ends key i in buf, ends[2i+1] ends its value
	ghost []bool
	next  []byte
	more  bool
}

// Len returns the number of entries in the batch.
func (b *Batch) Len() int { return len(b.ghost) }

// Key returns entry i's key; valid until the next refill.
func (b *Batch) Key(i int) []byte { return b.buf[b.start(2*i):b.ends[2*i]] }

// Val returns entry i's value; valid until the next refill.
func (b *Batch) Val(i int) []byte { return b.buf[b.ends[2*i]:b.ends[2*i+1]] }

// Ghost returns entry i's ghost bit.
func (b *Batch) Ghost(i int) bool { return b.ghost[i] }

// Next returns the first key past the batch — where the next batch resumes —
// or nil when the batch reached the end of the scanned range. The batch
// covers exactly [lo, Next()) of the tree as it stood during the copy.
func (b *Batch) Next() []byte {
	if !b.more {
		return nil
	}
	return b.next
}

func (b *Batch) start(j int) int {
	if j == 0 {
		return 0
	}
	return b.ends[j-1]
}

// ScanBatch replaces b's contents with copies of up to max entries (ghosts
// included) with lo <= key < hi, in ascending order, holding the tree latch
// only for the copy. max must be positive, and lo must not alias b's own
// storage.
func (t *Tree) ScanBatch(b *Batch, lo, hi []byte, max int) {
	b.buf, b.ends, b.ghost, b.more = b.buf[:0], b.ends[:0], b.ghost[:0], false
	t.mu.RLock()
	defer t.mu.RUnlock()
	var n *node
	var i int
	if lo == nil {
		n = t.leftmostLeaf()
	} else {
		n = t.findLeaf(lo)
		i, _ = search(n.keys, lo)
	}
	for ; n != nil; n, i = n.next, 0 {
		for ; i < len(n.keys); i++ {
			k := n.keys[i]
			if hi != nil && bytes.Compare(k, hi) >= 0 {
				return
			}
			if len(b.ghost) == max {
				b.next = append(b.next[:0], k...)
				b.more = true
				return
			}
			b.buf = append(b.buf, k...)
			b.ends = append(b.ends, len(b.buf))
			b.buf = append(b.buf, n.vals[i]...)
			b.ends = append(b.ends, len(b.buf))
			b.ghost = append(b.ghost, n.ghost[i])
		}
	}
}

// ScanReverse visits entries with lo <= key < hi in descending order, with
// the same nil-boundary and ghost conventions as Scan.
func (t *Tree) ScanReverse(lo, hi []byte, includeGhosts bool, fn func(Item) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var n *node
	var i int
	if hi == nil {
		n = t.rightmostLeaf()
		i = len(n.keys) - 1
	} else {
		n = t.findLeaf(hi)
		// First index >= hi; we start one before it (hi itself is excluded).
		idx, _ := search(n.keys, hi)
		i = idx - 1
		if i < 0 {
			n = n.prev
			if n != nil {
				i = len(n.keys) - 1
			}
		}
	}
	for n != nil {
		for ; i >= 0; i-- {
			if lo != nil && bytes.Compare(n.keys[i], lo) < 0 {
				return
			}
			if n.ghost[i] && !includeGhosts {
				continue
			}
			if !fn(Item{Key: n.keys[i], Val: n.vals[i], Ghost: n.ghost[i]}) {
				return
			}
		}
		n = n.prev
		if n != nil {
			i = len(n.keys) - 1
		}
	}
}

// Successor returns a copy of the smallest key strictly greater than key,
// including ghost entries (key-range locking anchors on physical keys, and
// ghosts are physical). ok is false when no such key exists.
func (t *Tree) Successor(key []byte) (succ []byte, ok bool) {
	return t.SuccessorAppend(nil, key)
}

// SuccessorAppend is Successor appending the found key to dst (which may be
// nil), avoiding a separate allocation when the caller is building a larger
// buffer around the key.
func (t *Tree) SuccessorAppend(dst, key []byte) (succ []byte, ok bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := t.findLeaf(key)
	i, exact := search(n.keys, key)
	if exact {
		i++
	}
	for n != nil {
		if i < len(n.keys) {
			return append(dst, n.keys[i]...), true
		}
		n = n.next
		i = 0
	}
	return dst, false
}

// Ceiling returns a copy of the smallest key greater than or equal to key,
// including ghosts. ok is false when no such key exists.
func (t *Tree) Ceiling(key []byte) (ceil []byte, ok bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := t.findLeaf(key)
	i, _ := search(n.keys, key)
	for n != nil {
		if i < len(n.keys) {
			return append([]byte(nil), n.keys[i]...), true
		}
		n = n.next
		i = 0
	}
	return nil, false
}

// First returns a copy of the smallest live entry, or ok=false when empty.
func (t *Tree) First() (Item, bool) { return t.edge(false) }

// Last returns a copy of the largest live entry, or ok=false when empty.
func (t *Tree) Last() (Item, bool) { return t.edge(true) }

func (t *Tree) edge(last bool) (Item, bool) {
	var out Item
	var found bool
	visit := func(it Item) bool {
		out = it.Clone()
		found = true
		return false
	}
	if last {
		t.ScanReverse(nil, nil, false, visit)
	} else {
		t.Scan(nil, nil, false, visit)
	}
	return out, found
}

func (t *Tree) leftmostLeaf() *node {
	n := t.root
	for !n.leaf {
		n = n.children[0]
	}
	return n
}

func (t *Tree) rightmostLeaf() *node {
	n := t.root
	for !n.leaf {
		n = n.children[len(n.children)-1]
	}
	return n
}

// Items returns copies of every entry in [lo, hi); for tests and snapshots.
func (t *Tree) Items(lo, hi []byte, includeGhosts bool) []Item {
	var out []Item
	t.Scan(lo, hi, includeGhosts, func(it Item) bool {
		out = append(out, it.Clone())
		return true
	})
	return out
}
