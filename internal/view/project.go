package view

import (
	"fmt"

	"repro/internal/record"
)

// ProjectionEntry is a projection view's derived key/value pair for one
// source row.
type ProjectionEntry struct {
	Key []byte     // encoded source primary key(s): left PK then right PK
	Val record.Row // projected columns
}

// ProjectEntry derives the view entry for one matching source row. The key
// is the left table's PK values — plus the right table's for joins — so it
// is unique and stable under updates to non-key columns.
func (m *Maintainer) ProjectEntry(src record.Row) (ProjectionEntry, error) {
	val := make(record.Row, len(m.V.ProjectCols))
	for i, c := range m.V.ProjectCols {
		if c < 0 || c >= len(src) {
			return ProjectionEntry{}, fmt.Errorf("%w: project column %d of %d", ErrSchema, c, len(src))
		}
		val[i] = src[c]
	}
	return ProjectionEntry{Key: m.appendProjectionKey(nil, src), Val: val}, nil
}

// appendProjectionKey appends a source row's projection-view key to dst.
func (m *Maintainer) appendProjectionKey(dst []byte, src record.Row) []byte {
	for _, pk := range m.Left.PK {
		dst = record.AppendKey(dst, src[pk])
	}
	if m.Right != nil {
		base := len(m.Left.Cols)
		for _, pk := range m.Right.PK {
			dst = record.AppendKey(dst, src[base+pk])
		}
	}
	return dst
}

// JoinSide tells JoinSources which table a changed row belongs to.
type JoinSide uint8

const (
	// SideLeft marks a row of the view's left table.
	SideLeft JoinSide = iota + 1
	// SideRight marks a row of the view's right table.
	SideRight
)

// JoinCols returns the join column index local to each table: the left
// table's column and the right table's column participating in the equijoin.
func (m *Maintainer) JoinCols() (leftCol, rightCol int) {
	return m.V.JoinLeftCol, m.V.JoinRightCol - len(m.Left.Cols)
}

// CombineRows builds the source row from one row of each side.
func (m *Maintainer) CombineRows(left, right record.Row) record.Row {
	src := make(record.Row, 0, len(left)+len(right))
	src = append(src, left...)
	return append(src, right...)
}

// SourceRows expands a changed base row into the view's source rows: for a
// single-table view that is the row itself; for a join it is the row
// combined with every matching row of the other side (supplied by lookup).
// lookup receives the join value and must return the matching other-side
// rows; it is nil for single-table views.
func (m *Maintainer) SourceRows(side JoinSide, row record.Row, lookup func(joinVal record.Value) ([]record.Row, error)) ([]record.Row, error) {
	if m.Right == nil {
		if side != SideLeft {
			return nil, fmt.Errorf("%w: single-table view has no right side", ErrSchema)
		}
		return []record.Row{row}, nil
	}
	leftCol, rightCol := m.JoinCols()
	var joinVal record.Value
	if side == SideLeft {
		joinVal = row[leftCol]
	} else {
		joinVal = row[rightCol]
	}
	if joinVal.IsNull() {
		return nil, nil // NULLs never join
	}
	matches, err := lookup(joinVal)
	if err != nil {
		return nil, err
	}
	out := make([]record.Row, 0, len(matches))
	for _, other := range matches {
		if side == SideLeft {
			out = append(out, m.CombineRows(row, other))
		} else {
			out = append(out, m.CombineRows(other, row))
		}
	}
	return out, nil
}
