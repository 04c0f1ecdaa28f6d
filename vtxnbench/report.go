package main

import (
	"time"
)

// report accumulates a run's rounds.
type report struct {
	cfg    config
	rounds []*round

	attempted, failed int64
	firstErr          string

	replay []replayResult
}

func (rep *report) add(r *round) {
	rep.rounds = append(rep.rounds, r)
	for _, c := range r.clients() {
		rep.attempted += c.attempted
		rep.failed += c.failed
		if rep.firstErr == "" {
			rep.firstErr = c.firstErr
		}
	}
}

// pick selects rounds: untraced ones, traced ones, or all.
type pick int

const (
	untraced pick = iota
	traced
	all
)

func (rep *report) sel(p pick) []*round {
	var out []*round
	for _, r := range rep.rounds {
		if p == all || r.traced == (p == traced) {
			out = append(out, r)
		}
	}
	return out
}

// e2e is the end-to-end picture of a set of rounds. Latency quantiles and
// rates pool every operation of the rounds: a tail is set by rare stalls,
// and pooling counts more of them than any one round sees. Set-up is one
// figure per round, reported as the median. Recovery is one figure per
// reopen; on snapshot-read the reopens of one log came out two-humped
// (0.13 s or 0.19 s), where the median jumps between humps, so it is
// reported as the interquartile mean.
type e2e struct {
	setupS, recoveryS            float64
	commitTPS, readTPS           float64
	commit, read, scan, visible  lat
	logBytesPerCommit            float64
	pacedWriteRatio, failedRatio float64
}

// roundReads adds a round's read and scan samples to read and scan and
// returns the time they took: the load clients' when the workload has a
// live reader (snapshot-read, timed over the phase), otherwise the
// verification pass that re-reads the reopened database (timed as the
// reads' own durations).
func roundReads(r *round, read, scan *lat) time.Duration {
	n := read.n() + scan.n()
	for _, c := range r.load {
		read.merge(&c.read)
		scan.merge(&c.scan)
	}
	if read.n()+scan.n() > n {
		return r.elapsed
	}
	var took time.Duration
	for _, l := range []*lat{&r.verifier.read, &r.verifier.scan} {
		for _, ns := range l.ns {
			took += time.Duration(ns)
		}
	}
	read.merge(&r.verifier.read)
	scan.merge(&r.verifier.scan)
	return took
}

func endToEndOf(rs []*round) e2e {
	var e e2e
	var setup, recov []float64
	var elapsed, readTime time.Duration
	var logBytes, scheduled, attempted, failed int64
	for _, r := range rs {
		setup = append(setup, r.setupS)
		recov = append(recov, r.recoveryS...)
		elapsed += r.elapsed
		logBytes += r.logBytes
		scheduled += r.scheduled
		for _, c := range r.load {
			e.commit.merge(&c.commit)
			e.visible.merge(&c.visible)
		}
		readTime += roundReads(r, &e.read, &e.scan)
		for _, c := range r.clients() {
			attempted += c.attempted
			failed += c.failed
		}
	}
	e.setupS = median(setup)
	e.recoveryS = midmean(recov)
	e.commitTPS = float64(e.commit.n()) / elapsed.Seconds()
	e.readTPS = float64(e.read.n()+e.scan.n()) / readTime.Seconds()
	e.logBytesPerCommit = float64(logBytes) / float64(e.commit.n())
	if scheduled > 0 {
		e.pacedWriteRatio = float64(e.commit.n()) / float64(scheduled)
	}
	e.failedRatio = ratio(float64(failed), float64(attempted))
	return e
}

// endToEnd is the untraced report: every metric BENCHMARK.json lists under
// end_to_end, on every workload.
func (rep *report) endToEnd() []metric {
	e := endToEndOf(rep.sel(untraced))
	return []metric{
		{"setup_s", e.setupS, "s"},
		{"commit_tps", e.commitTPS, "tx/s"},
		{"commit_p50_us", e.commit.quantile(0.50), "us"},
		{"commit_p95_us", e.commit.quantile(0.95), "us"},
		{"read_tps", e.readTPS, "reads/s"},
		{"read_p50_us", e.read.quantile(0.50), "us"},
		{"read_p95_us", e.read.quantile(0.95), "us"},
		{"scan_p50_us", e.scan.quantile(0.50), "us"},
		{"visible_p50_us", e.visible.quantile(0.50), "us"},
		{"recovery_s", e.recoveryS, "s"},
		{"log_bytes_per_commit", e.logBytesPerCommit, "B"},
	}
}

// extra is printed but not part of the JSON result. The p99s sit on the
// knee of a scheduler- and GC-stall tail on 2 cores, so they swing between
// runs by more than any bound the benchmark could hold, and the p95s are
// gated instead; failed_ratio is the result's failed/attempted, and
// paced_write_ratio is commit_tps on snapshot-read over the pacing rate.
// The sample counts qualify the quantiles.
func (rep *report) extra() []metric {
	e := endToEndOf(rep.sel(untraced))
	out := []metric{
		{"commit_p99_us", e.commit.quantile(0.99), "us"},
		{"read_p99_us", e.read.quantile(0.99), "us"},
		{"visible_p99_us", e.visible.quantile(0.99), "us"},
		{"failed_ratio", e.failedRatio, "ratio"},
		{"samples.commit", float64(e.commit.n()), "count"},
		{"samples.read", float64(e.read.n()), "count"},
		{"samples.scan", float64(e.scan.n()), "count"},
		{"samples.visible", float64(e.visible.n()), "count"},
		{"rounds", float64(len(rep.sel(untraced))), "count"},
	}
	if e.pacedWriteRatio > 0 {
		out = append(out, metric{"paced_write_ratio", e.pacedWriteRatio, "ratio"})
	}
	return out
}
