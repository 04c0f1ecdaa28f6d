package main

import (
	"strings"
	"testing"
)

func discard(string, ...any) {}

// TestTortureSeeds runs a band of torture episodes end to end: inject, crash,
// recover, verify. Any seed failing here is a real recovery bug.
func TestTortureSeeds(t *testing.T) {
	n := int64(12)
	if testing.Short() {
		n = 6
	}
	for seed := int64(0); seed < n; seed++ {
		res := runSeed(seed, 150, discard)
		if res.err != nil {
			t.Errorf("seed %d (%s): %v\n  reproduce: %s", seed, res.schedule, res.err, reproduce(seed, res.ops))
		}
	}
}

// TestTortureDeterminism re-runs one seed and checks the episode replays
// identically — the property the "reproduce: -seed N" line depends on.
func TestTortureDeterminism(t *testing.T) {
	a := runSeed(3, 150, discard)
	b := runSeed(3, 150, discard)
	if a.schedule != b.schedule || a.crashed != b.crashed || a.cause != b.cause || a.opsDone != b.opsDone {
		t.Fatalf("seed 3 did not replay deterministically:\n  first:  %+v\n  second: %+v", a, b)
	}
	if a.err != nil {
		t.Errorf("seed 3: %v", a.err)
	}
}

// TestReproduceLineReplays parses the printed reproduce command with the
// harness's own flag parser and checks that it replays the episode it names,
// op budget included. Seed 1 runs all 150 ops to a planned shutdown, so a
// line that dropped -ops would run 400 and fail the opsDone check.
func TestReproduceLineReplays(t *testing.T) {
	want := runSeed(1, 150, discard)
	const prefix = "go run ./cmd/vtxntorture "
	line := reproduce(want.seed, want.ops)
	if !strings.HasPrefix(line, prefix) {
		t.Fatalf("reproduce line %q does not start with %q", line, prefix)
	}
	cfg, err := parseFlags(strings.Fields(strings.TrimPrefix(line, prefix)))
	if err != nil {
		t.Fatalf("reproduce line %q: %v", line, err)
	}
	got := runSeed(cfg.seed, cfg.ops, discard)
	if got.schedule != want.schedule || got.crashed != want.crashed || got.cause != want.cause || got.opsDone != want.opsDone {
		t.Fatalf("%q did not replay the episode:\n  want: %+v\n  got:  %+v", line, want, got)
	}
}
