package view

import (
	"sort"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/record"
)

// Entry is one (key, stored value) pair of a fully recomputed view.
type Entry struct {
	Key []byte
	Val record.Row
}

// Recompute builds the view's exact contents from base-table rows: the
// oracle for deferred maintenance, the no-view query baseline, and the
// consistency checker. rightRows is ignored for single-table views.
func (m *Maintainer) Recompute(leftRows, rightRows []record.Row) ([]Entry, error) {
	r := m.NewRecomputation(nil, nil)
	for _, row := range rightRows {
		r.AddRight(row)
	}
	for _, row := range leftRows {
		if err := r.AddLeft(row); err != nil {
			return nil, err
		}
	}
	return r.Entries()
}

// Recomputation builds the view entries whose key lies in [lo, hi) (nil
// bounds are open) from one stream of source-relation rows, so a caller
// checking a slice of a view reads the source once and keeps only the rows
// that land in the slice. Feed every right-side row (join views) before the
// first left-side row.
type Recomputation struct {
	m      *Maintainer
	lo, hi []byte
	right  map[string][]record.Row // join views: right rows by join value
	groups map[string][]record.Row // aggregate views: source rows by group key
	proj   []Entry                 // projection views
	key    []byte                  // scratch for the current row's key
}

// NewRecomputation starts a recompute of the entries in [lo, hi).
func (m *Maintainer) NewRecomputation(lo, hi []byte) *Recomputation {
	r := &Recomputation{m: m, lo: lo, hi: hi}
	if m.Right != nil {
		r.right = map[string][]record.Row{}
	}
	if m.V.Kind != catalog.ViewProjection {
		r.groups = map[string][]record.Row{}
	}
	return r
}

// AddRight adds one row of a join view's right table. The row is copied.
func (r *Recomputation) AddRight(row record.Row) {
	_, rightCol := r.m.JoinCols()
	v := row[rightCol]
	if v.IsNull() {
		return
	}
	r.key = record.AppendKey(r.key[:0], v)
	k := string(r.key)
	r.right[k] = append(r.right[k], row.Clone())
}

// AddLeft adds one row of the view's source relation (a join view's left
// table); a join combines it with the matching right rows. The row is only
// read during the call: whatever the recompute keeps, it copies.
func (r *Recomputation) AddLeft(row record.Row) error {
	m := r.m
	if m.Right == nil {
		return r.addSource(row, false)
	}
	leftCol, _ := m.JoinCols()
	v := row[leftCol]
	if v.IsNull() {
		return nil
	}
	r.key = record.AppendKey(r.key[:0], v)
	for _, right := range r.right[string(r.key)] {
		if err := r.addSource(m.CombineRows(row, right), true); err != nil {
			return err
		}
	}
	return nil
}

// addSource keeps one source row when its key lies in the range and it
// passes the WHERE clause. owned reports whether the row is already the
// recompute's to keep.
func (r *Recomputation) addSource(src record.Row, owned bool) error {
	m := r.m
	var err error
	if m.V.Kind == catalog.ViewProjection {
		r.key = m.appendProjectionKey(r.key[:0], src)
	} else if r.key, err = m.appendGroupKey(r.key[:0], src); err != nil {
		return err
	}
	if (r.lo != nil && record.CompareKeys(r.key, r.lo) < 0) || (r.hi != nil && record.CompareKeys(r.key, r.hi) >= 0) {
		return nil
	}
	if ok, err := m.Matches(src); err != nil || !ok {
		return err
	}
	if m.V.Kind == catalog.ViewProjection {
		e, err := m.ProjectEntry(src)
		if err != nil {
			return err
		}
		r.proj = append(r.proj, Entry{Key: e.Key, Val: e.Val})
		return nil
	}
	if !owned {
		src = src.Clone()
	}
	r.groups[string(r.key)] = append(r.groups[string(r.key)], src)
	return nil
}

// Entries returns the recomputed entries in the range, key-sorted.
func (r *Recomputation) Entries() ([]Entry, error) {
	if r.m.V.Kind == catalog.ViewProjection {
		sortEntries(r.proj)
		return r.proj, nil
	}
	keys := make([]string, 0, len(r.groups))
	for ks := range r.groups {
		keys = append(keys, ks)
	}
	sort.Strings(keys)
	out := make([]Entry, 0, len(keys))
	for _, ks := range keys {
		stored, err := r.m.groupRow(r.groups[ks])
		if err != nil {
			return nil, err
		}
		out = append(out, Entry{Key: []byte(ks), Val: stored})
	}
	return out, nil
}

// groupRow accumulates one group's source rows into its stored value row
// (hidden count, SUM pairs, extrema).
func (m *Maintainer) groupRow(rows []record.Row) (record.Row, error) {
	stored := m.NewGroupRow()
	stored[0] = record.Int(int64(len(rows)))
	for i, a := range m.V.Aggs {
		off := m.aggOffsets[i]
		switch a.Func {
		case expr.AggCountRows:
			stored[off] = record.Int(int64(len(rows)))
		case expr.AggCount:
			n := int64(0)
			for _, r := range rows {
				v, err := a.Arg.Eval(r)
				if err != nil {
					return nil, err
				}
				if !v.IsNull() {
					n++
				}
			}
			stored[off] = record.Int(n)
		case expr.AggSum, expr.AggAvg:
			n := int64(0)
			sumI := int64(0)
			sumF := 0.0
			isFloat := false
			for _, r := range rows {
				v, err := a.Arg.Eval(r)
				if err != nil {
					return nil, err
				}
				if v.IsNull() {
					continue
				}
				n++
				switch v.Kind() {
				case record.KindInt64:
					sumI += v.AsInt()
				default:
					sumF += v.AsFloat()
					isFloat = true
				}
			}
			stored[off] = record.Int(n)
			if isFloat {
				stored[off+1] = record.Float(sumF + float64(sumI))
			} else {
				stored[off+1] = record.Int(sumI)
			}
		default: // MIN / MAX
			acc := expr.NewAccumulator(a)
			for _, r := range rows {
				if err := acc.Add(r); err != nil {
					return nil, err
				}
			}
			stored[off] = acc.Result()
		}
	}
	return stored, nil
}

func sortEntries(es []Entry) {
	sort.Slice(es, func(i, j int) bool {
		return record.CompareKeys(es[i].Key, es[j].Key) < 0
	})
}
