package vtxn_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	vtxn "repro"
	"repro/internal/fault"
	"repro/internal/metrics"
)

// createDeferredTotals defines a deferred aggregate view over accounts.
func createDeferredTotals(t *testing.T, db *vtxn.DB, name string) {
	t.Helper()
	if err := db.CreateIndexedView(vtxn.ViewDef{
		Name: name, Kind: vtxn.ViewAggregate,
		Source:   "accounts",
		GroupBy:  []string{"branch"},
		Aggs:     []vtxn.AggSpec{vtxn.CountRows(), vtxn.Sum("balance")},
		Strategy: vtxn.StrategyDeferred,
	}); err != nil {
		t.Fatal(err)
	}
}

// TestFlightRecordLinksDeferredMaintenance is the tracing plane's truth
// check. After tilting writers run through the 3-level deferred rollup chain,
// one marked commit touching a flat deferred view and the chain must:
//
//	(a) keep its causal span across the async deferred-maintenance boundary —
//	    the commit's deferred-publish resolves to the transaction's span, and
//	    a fold at every deferred view and chain level, plus the watermark
//	    advances that made it readable, carry that span in their multi-parent
//	    spans list (checked over the JSONL export);
//	(b) be accounted honestly — every deferred view gains commit-to-visible
//	    samples whose mean nests inside the client-measured commit→visible
//	    window, staleness reads zero once drained, and the escrow view has
//	    commit-path samples.
func TestFlightRecordLinksDeferredMaintenance(t *testing.T) {
	db, err := vtxn.Open(t.TempDir(), vtxn.Options{Watchdog: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	setupPublic(t, db)
	createDeferredTotals(t, db, "branch_totals_deferred")
	seedAccounts(t, db, 4)
	setupOrders(t, db, vtxn.StrategyDeferred)
	deferred := append([]string{"branch_totals_deferred"}, rollupChain...)

	startTilts(t, db, "order_items", 4, perItem, orderItems/2, 50).wait()
	if t.Failed() {
		t.FailNow()
	}
	// Quiesce fully, snapshot the histograms, then run one marked commit and
	// measure its commit→visible window from the client side.
	quiesce := db.Metrics().MVCC.Watermark
	for _, v := range deferred {
		drainTo(t, db, v, quiesce)
	}
	before := db.Metrics()
	probeStart := time.Now()
	tx, err := db.Begin(vtxn.ReadCommitted)
	if err != nil {
		t.Fatal(err)
	}
	// Genuinely new values: an update to the current value folds to a zero
	// delta and publishes nothing, which would orphan the probe.
	if err := tx.Update("accounts", vtxn.Row{vtxn.Int(0)}, map[int]vtxn.Value{2: vtxn.Int(777)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Update("order_items", vtxn.Row{vtxn.Int(0)}, map[int]vtxn.Value{4: vtxn.Int(perItem + 7)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for _, v := range deferred {
		drainTo(t, db, v, tx.CommitTS())
	}
	clientWindow := time.Since(probeStart)
	after := db.Metrics()

	type rec struct {
		Span     uint64   `json:"span"`
		Spans    []uint64 `json:"spans"`
		Type     string   `json:"type"`
		Txn      uint64   `json:"txn"`
		Resource string   `json:"resource"`
	}
	var jsonl bytes.Buffer
	if err := db.WriteFlightRecordJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	txnID := uint64(tx.ID())
	var commitSpan uint64
	var publish *rec
	applied := map[string]bool{}
	advanced := map[string]bool{}
	sc := bufio.NewScanner(&jsonl)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var r rec
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("JSONL line does not parse: %v: %s", err, sc.Text())
		}
		switch r.Type {
		case "tx-begin":
			if r.Txn == txnID {
				commitSpan = r.Span
			}
		case "deferred-publish":
			if r.Txn == txnID {
				cp := r
				publish = &cp
			}
		case "deferred-apply", "watermark-advance":
			for _, s := range r.Spans {
				if commitSpan != 0 && s == commitSpan {
					if r.Type == "deferred-apply" {
						applied[r.Resource] = true
					} else {
						advanced[r.Resource] = true
					}
				}
			}
		}
	}
	if commitSpan == 0 {
		t.Fatal("committing transaction has no tx-begin span in the flight record")
	}
	if publish == nil {
		t.Fatalf("no deferred-publish event for txn %d", txnID)
	}
	if publish.Span != commitSpan {
		t.Fatalf("deferred-publish span %d != commit span %d — the publish is not causally linked", publish.Span, commitSpan)
	}
	for _, v := range deferred {
		if !applied[v] {
			t.Fatalf("no deferred-apply at %q carries the commit's span %d (applied: %v)", v, commitSpan, applied)
		}
	}
	for _, v := range []string{"branch_totals_deferred", "region_totals"} {
		if !advanced[v] {
			t.Fatalf("no watermark-advance for %q carries the commit's span %d (advanced: %v)", v, commitSpan, advanced)
		}
	}

	freshOf := func(s vtxn.MetricsSnapshot, view string) (metrics.ViewFreshnessSnapshot, bool) {
		for _, v := range s.Freshness.Views {
			if v.View == view {
				return v, true
			}
		}
		return metrics.ViewFreshnessSnapshot{}, false
	}
	for _, v := range deferred {
		b, _ := freshOf(before, v)
		a, ok := freshOf(after, v)
		if !ok {
			t.Fatalf("freshness section missing view %q: %+v", v, after.Freshness.Views)
		}
		if a.Strategy != "deferred" {
			t.Fatalf("view %q freshness strategy = %q, want deferred", v, a.Strategy)
		}
		n := a.CommitToVisible.Count - b.CommitToVisible.Count
		if n <= 0 {
			t.Fatalf("probe commit left no new commit-to-visible samples for %q", v)
		}
		// Every new sample's publish→advance interval nests inside the
		// client's begin→visible window, so their mean must too.
		if mean := time.Duration((a.CommitToVisible.SumNs - b.CommitToVisible.SumNs) / n); mean > clientWindow {
			t.Fatalf("view %q recorded mean commit-to-visible %s exceeds the client-measured window %s", v, mean, clientWindow)
		}
		if a.StalenessNs != 0 {
			t.Fatalf("view %q staleness %dns at quiesce, want 0", v, a.StalenessNs)
		}
	}
	if a, _ := freshOf(after, "branch_totals"); a.CommitToVisible.Count == 0 {
		t.Fatal("escrow view has no commit-path freshness samples")
	}

	// The timeline's span summary names the view the span became visible in.
	var timeline bytes.Buffer
	if err := db.DumpFlightRecord(&timeline); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(timeline.String(), "visible in: branch_totals_deferred") {
		t.Fatalf("span summary does not name the view the commit became visible in:\n%s", timeline.String())
	}
	if err := db.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// delayHooks sleeps at the deferred-apply fault point, slowing the applier
// without failing it — the freshness-SLO watchdog's test harness.
type delayHooks struct {
	mu    sync.Mutex
	delay time.Duration
}

func (h *delayHooks) SetDelay(d time.Duration) {
	h.mu.Lock()
	h.delay = d
	h.mu.Unlock()
}

func (h *delayHooks) Hit(p fault.Point) error {
	if p != fault.PointDeferredApply {
		return nil
	}
	h.mu.Lock()
	d := h.delay
	h.mu.Unlock()
	time.Sleep(d)
	return nil
}

// TestFreshnessSLOWatchdog injects an applier delay and asserts the watchdog
// fires the freshness-slo signature naming the lagging view, counts the
// breach, and auto-dumps the flight record.
func TestFreshnessSLOWatchdog(t *testing.T) {
	hooks := &delayHooks{}
	sink := &lockedBuffer{}
	tracer := &recordingTracer{}
	db, err := vtxn.Open(t.TempDir(), vtxn.Options{
		Hooks:            hooks,
		Tracer:           tracer,
		FlightSink:       sink,
		Watchdog:         true,
		WatchdogInterval: 10 * time.Millisecond,
		FreshnessSLO:     50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	setupPublic(t, db)
	createDeferredTotals(t, db, "lagging_totals")
	seedAccounts(t, db, 4)

	// Stall the applier, then keep publishing: the view's staleness clock
	// (oldest unapplied publish) grows past the 50ms SLO while the watchdog
	// polls every 10ms.
	hooks.SetDelay(150 * time.Millisecond)
	deadline := time.Now().Add(10 * time.Second)
	var fired *vtxn.TraceEvent
	for fired == nil && time.Now().Before(deadline) {
		tx, err := db.Begin(vtxn.ReadCommitted)
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Update("accounts", vtxn.Row{vtxn.Int(0)}, map[int]vtxn.Value{2: vtxn.Int(1)}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		for _, e := range tracer.snapshot() {
			if e.Type == vtxn.TraceStall && e.Phase == "freshness-slo" {
				cp := e
				fired = &cp
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	hooks.SetDelay(0)
	if fired == nil {
		t.Fatal("watchdog never fired the freshness-slo signature under an applier delay")
	}
	if !strings.Contains(fired.Resource, "lagging_totals") {
		t.Fatalf("freshness-slo detection does not name the lagging view: %q", fired.Resource)
	}
	if fired.Dur < 50*time.Millisecond {
		t.Fatalf("detection age %s below the 50ms SLO", fired.Dur)
	}
	if m := db.Metrics(); m.Watchdog.FreshnessBreaches == 0 {
		t.Fatalf("freshness breach not counted: %+v", m.Watchdog)
	}
	// The watchdog emits the trace event before it triggers the dump, so the
	// dump may still be on its way.
	for dump := sink.String(); !strings.Contains(dump, "watchdog stall: freshness-slo") || !strings.Contains(dump, "lagging_totals"); dump = sink.String() {
		if time.Now().After(deadline) {
			t.Fatalf("no flight-record dump naming the lagging view for the SLO breach; sink: %q", dump)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDebugFreshnessEndpoint pins the /debug/freshness JSON endpoint: the
// per-view freshness section, including the configured SLO.
func TestDebugFreshnessEndpoint(t *testing.T) {
	db, err := vtxn.Open(t.TempDir(), vtxn.Options{FreshnessSLO: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	setupPublic(t, db)
	seedAccounts(t, db, 2)

	srv := httptest.NewServer(vtxn.MetricsHandler(db))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/freshness")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("content type %q", ct)
	}
	var got struct {
		SLONs int64 `json:"slo_ns"`
		Views []struct {
			View        string `json:"view"`
			Strategy    string `json:"strategy"`
			StalenessNs int64  `json:"staleness_ns"`
		} `json:"views"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.SLONs != int64(time.Second) {
		t.Fatalf("slo_ns = %d, want %d", got.SLONs, int64(time.Second))
	}
	var names []string
	for _, v := range got.Views {
		names = append(names, v.View)
	}
	if len(names) == 0 || names[0] != "branch_totals" {
		t.Fatalf("freshness views = %v, want branch_totals first", names)
	}
}
