// Package wal implements the write-ahead log: framed, CRC-checked records
// with monotonically increasing LSNs, a group-commit writer, a scanner that
// tolerates torn tails, and manifest-managed log/snapshot generations.
//
// The logging protocol follows DESIGN.md §5: physiological redo records for
// row operations, one logical EscrowFold record per aggregate row folded at
// commit, and compensation log records (CLRs) so that undo is idempotent
// across repeated crashes.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/id"
)

// Type discriminates log records.
type Type uint8

// Log record types.
const (
	// TBegin marks the start of a transaction.
	TBegin Type = iota + 1
	// TCommit makes a transaction durable; it is the commit point.
	TCommit
	// TAbortEnd marks that a transaction's rollback completed.
	TAbortEnd
	// TInsert records insertion of a row (possibly a ghost) into a tree.
	TInsert
	// TDelete records physical removal of a row, with its before image.
	TDelete
	// TUpdate records replacement of a row's value, with before image.
	TUpdate
	// TSetGhost records a ghost-bit transition on an existing row.
	TSetGhost
	// TEscrowFold records the commit-time fold of a transaction's pending
	// escrow deltas into an aggregate view row. Redo re-applies the deltas;
	// undo applies their inverses (logical undo).
	TEscrowFold
	// TCLR is a compensation record: the redo-only action performed while
	// undoing the record at UndoneLSN.
	TCLR
	// TDDL records a catalog change: NewVal is the full encoded catalog
	// after the change, OldVal before it. Logged by the system transaction
	// wrapping every DDL statement.
	TDDL
)

// String names the record type.
func (t Type) String() string {
	switch t {
	case TBegin:
		return "BEGIN"
	case TCommit:
		return "COMMIT"
	case TAbortEnd:
		return "ABORT_END"
	case TInsert:
		return "INSERT"
	case TDelete:
		return "DELETE"
	case TUpdate:
		return "UPDATE"
	case TSetGhost:
		return "SET_GHOST"
	case TEscrowFold:
		return "ESCROW_FOLD"
	case TCLR:
		return "CLR"
	case TDDL:
		return "DDL"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// ColDelta is one column's signed escrow delta inside a TEscrowFold record.
// Exactly one of Int/Float is meaningful, selected by IsFloat.
type ColDelta struct {
	Col     uint32
	IsFloat bool
	Int     int64
	Float   float64
}

// Record is a single log record. Which fields are meaningful depends on
// Type; unused fields are zero. A TCLR record carries the compensating
// action in Action plus the same payload fields, and UndoneLSN names the
// record it compensates.
type Record struct {
	LSN    uint64 // assigned by the Writer
	Type   Type
	Action Type // CLR only: the redo action the CLR performs
	Txn    id.Txn
	Sys    bool // record belongs to a system transaction
	Tree   id.Tree
	Key    []byte
	OldVal []byte
	NewVal []byte
	// Ghost bits. For TInsert NewGhost is the inserted entry's bit; for
	// TDelete OldGhost is the removed entry's bit; TSetGhost uses both; for
	// TEscrowFold they record the row's ghost transition at fold time.
	OldGhost  bool
	NewGhost  bool
	Deltas    []ColDelta
	UndoneLSN uint64
}

// ErrCorruptRecord reports an undecodable record payload.
var ErrCorruptRecord = errors.New("wal: corrupt record")

const (
	flagSys      = 1 << 0
	flagOldGhost = 1 << 1
	flagNewGhost = 1 << 2
)

// Encode appends the record's payload encoding (excluding framing) to dst.
func (r *Record) Encode(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, r.LSN)
	dst = append(dst, byte(r.Type), byte(r.Action))
	var flags byte
	if r.Sys {
		flags |= flagSys
	}
	if r.OldGhost {
		flags |= flagOldGhost
	}
	if r.NewGhost {
		flags |= flagNewGhost
	}
	dst = append(dst, flags)
	dst = binary.AppendUvarint(dst, uint64(r.Txn))
	dst = binary.AppendUvarint(dst, uint64(r.Tree))
	dst = appendFramed(dst, r.Key)
	dst = appendFramed(dst, r.OldVal)
	dst = appendFramed(dst, r.NewVal)
	dst = binary.AppendUvarint(dst, uint64(len(r.Deltas)))
	for _, d := range r.Deltas {
		dst = binary.AppendUvarint(dst, uint64(d.Col))
		if d.IsFloat {
			dst = append(dst, 1)
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(d.Float))
		} else {
			dst = append(dst, 0)
			dst = binary.AppendVarint(dst, d.Int)
		}
	}
	dst = binary.AppendUvarint(dst, r.UndoneLSN)
	return dst
}

// DecodeRecord parses a record payload produced by Encode.
func DecodeRecord(buf []byte) (*Record, error) {
	r := &Record{}
	lsn, n := binary.Uvarint(buf)
	if n <= 0 {
		return nil, ErrCorruptRecord
	}
	buf = buf[n:]
	r.LSN = lsn
	if len(buf) < 3 {
		return nil, ErrCorruptRecord
	}
	r.Type = Type(buf[0])
	r.Action = Type(buf[1])
	flags := buf[2]
	r.Sys = flags&flagSys != 0
	r.OldGhost = flags&flagOldGhost != 0
	r.NewGhost = flags&flagNewGhost != 0
	buf = buf[3:]
	txn, n := binary.Uvarint(buf)
	if n <= 0 {
		return nil, ErrCorruptRecord
	}
	buf = buf[n:]
	r.Txn = id.Txn(txn)
	tree, n := binary.Uvarint(buf)
	if n <= 0 || tree > math.MaxUint32 {
		return nil, ErrCorruptRecord
	}
	buf = buf[n:]
	r.Tree = id.Tree(tree)
	// Key, OldVal and NewVal share one owned copy of their bytes (buf is the
	// caller's and may be reused). Each is a cap-limited sub-slice, so an
	// append to one reallocates instead of overwriting the next.
	var fields [3][]byte
	var size int
	for i := range fields {
		var err error
		if fields[i], buf, err = takeFramed(buf); err != nil {
			return nil, err
		}
		size += len(fields[i])
	}
	own := make([]byte, 0, size)
	for i, f := range fields {
		if f != nil {
			n := len(own)
			own = append(own, f...)
			fields[i] = own[n:len(own):len(own)]
		}
	}
	r.Key, r.OldVal, r.NewVal = fields[0], fields[1], fields[2]
	nd, n := binary.Uvarint(buf)
	if n <= 0 || nd > uint64(len(buf)) {
		return nil, ErrCorruptRecord
	}
	buf = buf[n:]
	if nd > 0 {
		r.Deltas = make([]ColDelta, nd)
	}
	for i := uint64(0); i < nd; i++ {
		col, n := binary.Uvarint(buf)
		if n <= 0 || col > math.MaxUint32 || len(buf) <= n {
			return nil, ErrCorruptRecord
		}
		buf = buf[n:]
		d := ColDelta{Col: uint32(col)}
		isFloat := buf[0]
		buf = buf[1:]
		if isFloat == 1 {
			if len(buf) < 8 {
				return nil, ErrCorruptRecord
			}
			d.IsFloat = true
			d.Float = math.Float64frombits(binary.LittleEndian.Uint64(buf))
			buf = buf[8:]
		} else {
			v, n := binary.Varint(buf)
			if n <= 0 {
				return nil, ErrCorruptRecord
			}
			d.Int = v
			buf = buf[n:]
		}
		r.Deltas[i] = d
	}
	undone, n := binary.Uvarint(buf)
	if n <= 0 {
		return nil, ErrCorruptRecord
	}
	buf = buf[n:]
	r.UndoneLSN = undone
	if len(buf) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorruptRecord, len(buf))
	}
	return r, nil
}

func appendFramed(dst, b []byte) []byte {
	if b == nil {
		return binary.AppendUvarint(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(len(b))+1)
	return append(dst, b...)
}

// takeFramed splits one appendFramed field off buf. The field aliases buf.
func takeFramed(buf []byte) ([]byte, []byte, error) {
	n, used := binary.Uvarint(buf)
	if used <= 0 {
		return nil, nil, ErrCorruptRecord
	}
	buf = buf[used:]
	if n == 0 {
		return nil, buf, nil
	}
	n--
	if n > uint64(len(buf)) {
		return nil, nil, ErrCorruptRecord
	}
	return buf[:n:n], buf[n:], nil
}

// String renders the record for debugging.
func (r *Record) String() string {
	s := fmt.Sprintf("lsn=%d %s %s", r.LSN, r.Type, r.Txn)
	if r.Sys {
		s += " sys"
	}
	if r.Type == TCLR {
		s += fmt.Sprintf(" action=%s undone=%d", r.Action, r.UndoneLSN)
	}
	if r.Tree != 0 {
		s += " " + r.Tree.String()
	}
	if r.Key != nil {
		s += fmt.Sprintf(" key=%x", r.Key)
	}
	return s
}
