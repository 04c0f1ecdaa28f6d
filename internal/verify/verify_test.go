package verify

import (
	"testing"

	"repro/internal/record"
)

func ent(k string, vals ...int64) Entry {
	row := make(record.Row, len(vals))
	for i, v := range vals {
		row[i] = record.Int(v)
	}
	return Entry{Key: record.EncodeKey(record.Row{record.Str(k)}), Val: row}
}

func TestCompareAgree(t *testing.T) {
	want := []Entry{ent("a", 1), ent("b", 2)}
	have := []Entry{ent("a", 1), ent("b", 2)}
	if d := Compare(want, have, 0); len(d) != 0 {
		t.Fatalf("expected no diffs, got %v", d)
	}
}

func TestCompareKinds(t *testing.T) {
	want := []Entry{ent("a", 1), ent("c", 3), ent("d", 4)}
	have := []Entry{ent("b", 2), ent("c", 30), ent("d", 4)}
	diffs := Compare(want, have, 0)
	if len(diffs) != 3 {
		t.Fatalf("expected 3 diffs, got %d: %v", len(diffs), diffs)
	}
	if diffs[0].Kind != DiffMissing || diffs[1].Kind != DiffExtra || diffs[2].Kind != DiffMismatch {
		t.Fatalf("unexpected kinds: %v %v %v", diffs[0].Kind, diffs[1].Kind, diffs[2].Kind)
	}
	for _, d := range diffs {
		if d.Error("v").Error() == "" {
			t.Fatal("empty rendering")
		}
	}
}

func TestCompareTails(t *testing.T) {
	// Extra tail on the have side and missing tail on the want side.
	if d := Compare([]Entry{ent("a", 1)}, []Entry{ent("a", 1), ent("z", 9)}, 0); len(d) != 1 || d[0].Kind != DiffExtra {
		t.Fatalf("have-tail: got %v", d)
	}
	if d := Compare([]Entry{ent("a", 1), ent("z", 9)}, []Entry{ent("a", 1)}, 0); len(d) != 1 || d[0].Kind != DiffMissing {
		t.Fatalf("want-tail: got %v", d)
	}
}

func TestCompareMax(t *testing.T) {
	want := []Entry{ent("a", 1), ent("b", 1), ent("c", 1)}
	if d := Compare(want, nil, 2); len(d) != 2 {
		t.Fatalf("cap not honored: got %d diffs", len(d))
	}
}
