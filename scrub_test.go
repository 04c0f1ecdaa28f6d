package vtxn_test

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	vtxn "repro"
	"repro/internal/fault"
)

// TestScrubBackgroundCleanRun is the scrubber's silence check: with the
// background scrubber live on a tight, unpaced interval, four tilting writers
// hammer a catalog covering every snapshot-selection class — an immediate
// escrow view plus the 3-level deferred chain (pair-protocol root and
// co-atomic deferred-over-deferred levels). The scrubber must report zero
// divergences while the writers run and after, complete full cycles, and —
// once drained — pass an on-demand full pass with every view covered past the
// quiesce point, agreeing view by view with CheckConsistencyCtx.
func TestScrubBackgroundCleanRun(t *testing.T) {
	const writers = orderItems / 2
	tilts := 2000
	if testing.Short() {
		tilts = 50
	}
	db, err := vtxn.Open(t.TempDir(), vtxn.Options{
		ScrubInterval:  time.Millisecond,
		ScrubRowBudget: -1, // unpaced: the test wants cycles, not realism
		Watchdog:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	setupOrders(t, db, vtxn.StrategyDeferred, vtxn.ViewDef{
		Name: "amount_by_region", Kind: vtxn.ViewAggregate, Source: "order_items",
		GroupBy: []string{"region"},
		Aggs:    []vtxn.AggSpec{vtxn.CountRows(), sumAs("amount", "total")},
	})
	allViews := append([]string{"amount_by_region"}, rollupChain...)

	storm := startTilts(t, db, "order_items", 4, perItem, writers, tilts)
	defer storm.halt()
	// The scrubber must stay silent WHILE the writers run, not just after.
	for storming := true; storming; {
		select {
		case <-storm.done:
			storming = false
		case <-time.After(2 * time.Millisecond):
		}
		if n := db.Metrics().Scrub.Divergences; n != 0 {
			t.Fatalf("scrubber reported %d divergences mid-storm on a healthy engine", n)
		}
	}
	if t.Failed() {
		t.FailNow()
	}

	deadline := time.Now().Add(30 * time.Second)
	s := db.Metrics().Scrub
	for ; ; s = db.Metrics().Scrub {
		if !s.Enabled {
			t.Fatal("scrubber not enabled despite ScrubInterval > 0")
		}
		if s.Divergences != 0 {
			t.Fatalf("background scrubber reported %d divergences on a healthy engine", s.Divergences)
		}
		if s.Cycles >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background scrubber completed %d cycles in 30s, want >= 2", s.Cycles)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if s.Slices == 0 || s.RowsVerified == 0 {
		t.Fatalf("scrubber cycled without verifying anything: slices %d rows %d", s.Slices, s.RowsVerified)
	}

	// Quiesce, then demand a clean full pass with total coverage.
	wm := db.Metrics().MVCC.Watermark
	drainTo(t, db, "region_totals", wm)
	if n, err := db.ScrubNow(context.Background()); err != nil || n != 0 {
		t.Fatalf("ScrubNow = %d, %v; want 0, nil", n, err)
	}
	m := db.Metrics()
	if m.Scrub.Divergences != 0 || m.Watchdog.ScrubDivergences != 0 {
		t.Fatalf("divergence counters nonzero on a healthy engine: scrub %d watchdog %d",
			m.Scrub.Divergences, m.Watchdog.ScrubDivergences)
	}
	covered := map[string]bool{}
	for _, v := range m.Scrub.Views {
		covered[v.View] = true
		if v.Passes == 0 || v.CoverageTS < wm || v.Divergences != 0 {
			t.Fatalf("view %q after a full pass: passes %d, coverage ts %d (quiesce %d), divergences %d",
				v.View, v.Passes, v.CoverageTS, wm, v.Divergences)
		}
	}
	for _, name := range allViews {
		if !covered[name] {
			t.Fatalf("scrub metrics missing view %q (have %+v)", name, m.Scrub.Views)
		}
	}

	// The offline checker (same verify core) must agree, view by view.
	var progressed atomic.Int32
	if err := db.CheckConsistencyCtx(context.Background(), func(vtxn.CheckProgress) {
		progressed.Add(1)
	}); err != nil {
		t.Fatalf("consistency at quiesce: %v", err)
	}
	if int(progressed.Load()) != len(allViews) {
		t.Fatalf("CheckConsistencyCtx progressed %d views, want %d", progressed.Load(), len(allViews))
	}
}

// countingHooks counts hits on the view-corruption fault point, proving an
// injection went through the engine's fault plane rather than a side door.
type countingHooks struct{ corrupts atomic.Int64 }

func (h *countingHooks) Hit(p fault.Point) error {
	if p == fault.PointViewCorrupt {
		h.corrupts.Add(1)
	}
	return nil
}

// TestScrubDetectsCorruption corrupts one stored view row in place —
// underneath the WAL and lock manager — and asserts the next full pass finds
// it with exact (view, group) attribution: counted globally, attributed
// per-view, traced with expected vs actual values, flight-dumped naming the
// row, and flagged by the watchdog's scrub-divergence signature. It runs once
// against an immediate escrow view and once against the top of the deferred
// chain.
func TestScrubDetectsCorruption(t *testing.T) {
	for _, tc := range []struct {
		view, group string
		key         vtxn.Row
	}{
		{"branch_totals", "1", vtxn.Row{vtxn.Int(1)}},
		{"region_totals", "region-0", vtxn.Row{vtxn.Str("region-0")}},
	} {
		t.Run(tc.view, func(t *testing.T) {
			sink := &lockedBuffer{}
			rec := &recordingTracer{}
			hooks := &countingHooks{}
			db, err := vtxn.Open(t.TempDir(), vtxn.Options{
				ScrubInterval:    -1, // on-demand only: the pass must find it, not luck
				Watchdog:         true,
				WatchdogInterval: 10 * time.Millisecond,
				Hooks:            hooks,
				FlightSink:       sink,
				Tracer:           rec,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			setupPublic(t, db)
			seedAccounts(t, db, 8)
			setupOrders(t, db, vtxn.StrategyDeferred)

			// Writers are quiesced; collapse version chains so the corrupted
			// stored row is what every snapshot resolves to.
			db.PruneVersions()
			if err := db.CorruptViewRow(tc.view, tc.key); err != nil {
				t.Fatal(err)
			}
			if n := hooks.corrupts.Load(); n != 1 {
				t.Fatalf("corruption fault point hit %d times, want 1", n)
			}
			n, err := db.ScrubNow(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if n != 1 {
				t.Fatalf("ScrubNow found %d divergences, want exactly 1", n)
			}
			s := db.Metrics().Scrub
			if s.Divergences != 1 {
				t.Fatalf("scrub.divergences = %d, want 1", s.Divergences)
			}
			for _, v := range s.Views {
				want := int64(0)
				if v.View == tc.view {
					want = 1
				}
				if v.Divergences != want {
					t.Fatalf("view %q divergences = %d, want %d", v.View, v.Divergences, want)
				}
			}
			var divs []vtxn.TraceEvent
			for _, e := range rec.snapshot() {
				if e.Type == vtxn.TraceScrubDivergence {
					divs = append(divs, e)
				}
			}
			if len(divs) != 1 {
				t.Fatalf("recorded %d scrub-divergence events, want 1", len(divs))
			}
			if ev := divs[0]; ev.Resource != tc.view || !strings.Contains(ev.Phase, tc.group) ||
				!strings.Contains(ev.Outcome, "expected") || !strings.Contains(ev.Outcome, "actual") {
				t.Fatalf("divergence event misattributed or missing expected/actual detail: %+v", ev)
			}
			if dump := sink.String(); !strings.Contains(dump, "scrub divergence") ||
				!strings.Contains(dump, tc.view) || !strings.Contains(dump, tc.group) {
				t.Fatalf("flight dump does not name the diverged row:\n%.2000s", dump)
			}

			// The watchdog's signature fires off the counter delta. Its own
			// dump is rate-limited away (the detection-time dump just ran), so
			// the stall trace event is the assertable artifact; the watchdog
			// counts the detection before it emits the event.
			deadline := time.Now().Add(10 * time.Second)
			for {
				for _, e := range rec.snapshot() {
					if e.Type == vtxn.TraceStall && e.Phase == "scrub-divergence" && strings.Contains(e.Resource, tc.view) {
						if db.Metrics().Watchdog.ScrubDivergences == 0 {
							t.Fatal("scrub-divergence stall event emitted but not counted")
						}
						return
					}
				}
				if time.Now().After(deadline) {
					t.Fatalf("no scrub-divergence stall event naming %q (events: %+v)", tc.view, rec.snapshot())
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}
