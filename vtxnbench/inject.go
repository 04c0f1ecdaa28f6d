package main

import (
	"fmt"

	vtxn "repro"
)

// Self-test faults. Each must make the workload's checks fail: the benchmark
// has to be able to tell a wrong answer from a right one.
const (
	// injectWrongExpectation corrupts the benchmark's own ledger, so a
	// correct engine disagrees with the expectation.
	injectWrongExpectation = "wrong-expectation"
	// injectCorruptView perturbs one stored view row in place through
	// DB.CorruptViewRow, so the engine itself holds a wrong answer.
	injectCorruptView = "corrupt-view"
)

// injectFault applies fault to the reopened database or to the ledger, just
// before verification. (A stored-row corruption has to follow the crash: it
// bypasses the log, so recovery would repair it.)
func injectFault(fault string, db *vtxn.DB, w workload) error {
	if fault == injectWrongExpectation {
		switch w := w.(type) {
		case *escrowHot:
			w.balance[0]++
		case *snapshotRead:
			w.written[0]++
		case *deferredRollup:
			w.custTotal[0]++
			w.total++
		}
		return nil
	}
	var view string
	var key vtxn.Row
	switch w.(type) {
	case *escrowHot:
		view, key = "branch_totals", vtxn.Row{vtxn.Int(0), vtxn.Int(0)}
	case *snapshotRead:
		view, key = "user_totals", vtxn.Row{vtxn.Int(0)}
	case *deferredRollup:
		view, key = "region_totals", vtxn.Row{vtxn.Str(drRegion(0))}
	}
	if err := db.CorruptViewRow(view, key); err != nil {
		return fmt.Errorf("corrupt %s%v: %w", view, key, err)
	}
	return nil
}
