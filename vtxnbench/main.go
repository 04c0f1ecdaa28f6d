// Command vtxnbench is the vtxn engine's benchmark: closed-loop workloads
// driven through the public vtxn API, every result checked against the
// benchmark's own ledger, end-to-end metrics from untraced runs and
// per-layer metrics from a traced run. README.md records the design.
//
// Usage (from the repository root, through run.sh, which builds it):
//
//	bash vtxnbench/run.sh --workload escrow-hot --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. The exit status is non-zero
// when any correctness check failed or the run could not complete.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	vtxn "repro"
)

// drainTimeout bounds every wait for a deferred view to catch up.
const drainTimeout = 30 * time.Second

// Recovery is timed over at least recoveryMin of reopens, at most
// maxReopens of them.
const (
	recoveryMin = time.Second
	maxReopens  = 8
)

// minRounds is the fewest rounds a run measures, so set-up and recovery
// have a median.
const minRounds = 3

// workload is one benchmark workload. A value holds one round's inputs and
// the ledger the round's results are checked against.
type workload interface {
	// topView is the view whose watermark marks a commit as visible.
	topView() string
	// setup creates the schema and loads the initial rows.
	setup(db *vtxn.DB) error
	// run is the timed phase: a fixed amount of work on the load clients.
	run(cs []*client)
	// verify checks the reopened database against the ledger.
	verify(v *client)
}

// scale shrinks a workload for the self-test; 1 is the benchmark's size.
type scale float64

func (s scale) n(x int) int {
	v := int(float64(x) * float64(s))
	if v < 256 {
		v = 256
	}
	return v
}

type workloadDef struct {
	name string
	make func(s scale, seed int64) workload
	// rowsPerTx and getsPerTx are the base rows one write transaction writes
	// and reads, which the layer ledger multiplies by replayed costs.
	rowsPerTx, getsPerTx float64
}

var workloads = []workloadDef{
	{"escrow-hot", func(s scale, seed int64) workload { return newEscrowHot(s, seed) }, 2, 2},
	{"snapshot-read", func(s scale, seed int64) workload { return newSnapshotRead(s, seed) }, 1, 0},
	{"deferred-rollup", func(s scale, seed int64) workload { return newDeferredRollup(s, seed) }, 3, 0},
}

// config is one invocation's settings.
type config struct {
	def     workloadDef
	seed    int64
	seconds float64
	trace   bool
	scale   scale
	datadir string
	// inject names a deliberate fault for the self-test (see inject.go).
	inject string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vtxnbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: escrow-hot, snapshot-read or deferred-rollup")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "timed-phase seconds to measure (whole rounds)")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer report instead of the end-to-end one")
	sc := fs.Float64("scale", 1, "workload size factor (the self-test shrinks it)")
	datadir := fs.String("datadir", ".bench_build/vtxnbench/data", "directory for the databases")
	inject := fs.String("inject", "", "self-test fault: wrong-expectation or corrupt-view")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, scale: scale(*sc),
		datadir: *datadir, inject: *inject}
	found := false
	for _, d := range workloads {
		if d.name == *name {
			cfg.def, found = d, true
		}
	}
	if !found || (*trace != 0 && *trace != 1) || *seconds <= 0 || *sc <= 0 {
		fmt.Fprintf(stderr, "vtxnbench: bad arguments: workload %q trace %d seconds %g scale %g\n",
			*name, *trace, *seconds, *sc)
		return 2
	}
	if cfg.inject != "" && cfg.inject != injectWrongExpectation && cfg.inject != injectCorruptView {
		fmt.Fprintf(stderr, "vtxnbench: unknown -inject %q\n", cfg.inject)
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	fmt.Fprintf(stdout, "# vtxnbench workload=%s seed=%d trace=%v %s\n", cfg.def.name, cfg.seed, cfg.trace, fingerprint())
	rep, err := measure(cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "vtxnbench: %v\n", err)
		return 1
	}
	metrics := rep.endToEnd()
	if cfg.trace {
		metrics = rep.perLayer()
	}
	for _, m := range metrics {
		fmt.Fprintf(stdout, "%-40s %16.4f %s\n", m.name, m.value, m.unit)
	}
	for _, m := range rep.extra() {
		fmt.Fprintf(stdout, "%-40s %16.4f %s (reported only)\n", m.name, m.value, m.unit)
	}
	if rep.failed > 0 {
		fmt.Fprintf(stdout, "# FAILED %d of %d operations; first: %s\n", rep.failed, rep.attempted, rep.firstErr)
	}
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, map[string]metricValue{}}
	for _, m := range metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			fmt.Fprintf(stderr, "vtxnbench: metric %s has no value\n", m.name)
			return 1
		}
		out.Metrics[m.name] = metricValue{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "vtxnbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if rep.failed > 0 {
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metric struct {
	name  string
	value float64
	unit  string
}

// fingerprint names the machine and toolchain a result came from; results
// with different fingerprints are not comparable.
func fingerprint() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s cpu=%q",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// measure runs rounds until the timed phases add up to cfg.seconds (and at
// least minRounds). In a traced run, rounds alternate untraced and
// traced, so the report can price the tracing itself.
func measure(cfg config, log io.Writer) (*report, error) {
	if err := os.MkdirAll(cfg.datadir, 0o755); err != nil {
		return nil, err
	}
	rep := &report{cfg: cfg}
	var timed time.Duration
	for r := 0; ; r++ {
		traced := cfg.trace && r%2 == 1
		rr, err := runRound(cfg, r, traced)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", r, err)
		}
		rep.add(rr)
		timed += rr.elapsed
		e := endToEndOf([]*round{rr})
		fmt.Fprintf(log, "# round %d traced=%v setup=%.3fs timed=%.3fs commits=%d commit_p50/p99=%.1f/%.1fus read_p50/p99=%.2f/%.2fus recovery=%.3fs failed=%d\n",
			r, traced, rr.setupS, rr.elapsed.Seconds(), rr.commits, e.commit.quantile(0.5), e.commit.quantile(0.99),
			e.read.quantile(0.5), e.read.quantile(0.99), e.recoveryS, rr.failed())
		done := r+1 >= minRounds && timed.Seconds() >= cfg.seconds
		if done && (!cfg.trace || r%2 == 1) {
			break
		}
	}
	if cfg.trace {
		var err error
		rep.replay, err = replayLayers(cfg, filepath.Join(cfg.datadir, fmt.Sprintf("replay-%d", os.Getpid())))
		if err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// round is one set-up, timed phase, crash, recovery and verification.
type round struct {
	traced    bool
	setupS    float64
	loadS     float64
	elapsed   time.Duration
	commits   int
	logBytes  int64
	recoveryS []float64 // one per reopen
	checkS    float64

	load     []*client
	verifier *client

	setupM, m0, m1 vtxn.MetricsSnapshot
	recovery       vtxn.MetricsSnapshot
	mem0, mem1     runtime.MemStats
	liveHeapMB     float64
	scheduled      int64 // paced writer's schedule (snapshot-read), else 0
}

// clients is every client of the round: the load clients and the verifier.
func (r *round) clients() []*client { return append(r.load[:len(r.load):len(r.load)], r.verifier) }

func (r *round) failed() int64 {
	var n int64
	for _, c := range r.clients() {
		n += c.failed
	}
	return n
}

func runRound(cfg config, idx int, traced bool) (*round, error) {
	dir := filepath.Join(cfg.datadir, fmt.Sprintf("%s-%d-r%d", cfg.def.name, os.Getpid(), idx))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	w := cfg.def.make(cfg.scale, cfg.seed*1000+int64(idx))
	rr := &round{traced: traced}

	// Each timed section starts from a collected heap, so garbage left by
	// the section before it (the last round's databases, the load) does not
	// land in its measurement.
	runtime.GC()
	t0 := time.Now()
	db, err := vtxn.Open(dir, vtxn.Options{})
	if err != nil {
		return nil, err
	}
	tl := time.Now()
	if err := w.setup(db); err != nil {
		db.Crash(false)
		return nil, fmt.Errorf("setup: %w", err)
	}
	rr.loadS = time.Since(tl).Seconds()
	// The checkpoint makes the crash below replay exactly the timed phase's
	// log, so recovery time and log growth measure a fixed amount of work.
	if err := db.Checkpoint(); err != nil {
		db.Crash(false)
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	rr.setupS = time.Since(t0).Seconds()
	rr.setupM = db.Metrics()

	size0, err := dirSize(dir)
	if err != nil {
		db.Crash(false)
		return nil, err
	}
	ctx := context.Background()
	base := time.Now()
	rr.load = []*client{newClient(ctx, db, traced, base), newClient(ctx, db, traced, base)}
	runtime.GC()
	rr.m0 = db.Metrics()
	runtime.ReadMemStats(&rr.mem0)
	t1 := time.Now()
	w.run(rr.load)
	rr.elapsed = time.Since(t1)
	runtime.ReadMemStats(&rr.mem1)
	rr.m1 = db.Metrics()
	var lastTS uint64
	for _, c := range rr.load {
		rr.commits += c.commit.n()
		lastTS = max(lastTS, c.lastTS)
	}
	if sr, ok := w.(*snapshotRead); ok {
		rr.scheduled = sr.scheduled
	}
	if err := drain(db, w.topView(), lastTS); err != nil {
		db.Crash(false)
		return nil, err
	}
	if cfg.trace {
		// Live heap after quiesce: versions pruned, garbage collected.
		db.PruneVersions()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		rr.liveHeapMB = float64(ms.HeapAlloc) / (1 << 20)
	}
	size1, err := dirSize(dir)
	if err != nil {
		db.Crash(false)
		return nil, err
	}
	rr.logBytes = size1 - size0

	// Recovery is timed over reopens of the crashed directory, each of which
	// replays the same log, until they add up to recoveryMin: a short log's
	// restart is too quick to time once.
	var took float64
	for len(rr.recoveryS) == 0 || (took < recoveryMin.Seconds() && len(rr.recoveryS) < maxReopens) {
		db.Crash(false)
		runtime.GC()
		t2 := time.Now()
		db, err = vtxn.Open(dir, vtxn.Options{})
		if err != nil {
			return nil, fmt.Errorf("reopen after crash: %w", err)
		}
		d := time.Since(t2).Seconds()
		rr.recoveryS = append(rr.recoveryS, d)
		took += d
	}
	rr.recovery = db.Metrics()
	if cfg.inject != "" {
		if err := injectFault(cfg.inject, db, w); err != nil {
			_ = db.Close() // the injection's error is the one to report
			return nil, err
		}
	}

	// Verification reads are timed (they are the read metrics of the
	// workloads without a live reader), so they start from a settled
	// database: recovery's version chains folded, the heap collected.
	db.PruneVersions()
	runtime.GC()
	v := newClient(ctx, db, traced, base)
	rr.verifier = v
	w.verify(v)
	v.attempted++
	t3 := time.Now()
	if err := db.CheckConsistency(); err != nil {
		v.fail("CheckConsistency: %v", err)
	}
	rr.checkS = time.Since(t3).Seconds()
	if err := db.Close(); err != nil {
		v.fail("close: %v", err)
	}
	// The report keeps the round's clients for their samples; it must not
	// keep the databases alive with them, or every later round would carry
	// (and garbage-collect over) all the earlier ones.
	for _, c := range rr.clients() {
		c.db = nil
	}
	return rr, nil
}

// dirSize is the bytes of the regular files under dir.
func dirSize(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				return nil // a file the engine removed mid-walk
			}
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				if errors.Is(err, os.ErrNotExist) {
					return nil
				}
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}
