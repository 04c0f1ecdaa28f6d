// Command vtxntorture is the seeded crash-torture harness: each seed derives
// a deterministic fault schedule (torn log writes, failed fsyncs, bit flips,
// crashes at named engine points) and a deterministic single-client workload;
// the run crashes the engine mid-flight, recovers, and asserts that every
// indexed view again equals a recompute from its base tables. A failure
// prints the exact seed and op budget, so any bug it finds replays
// byte-for-byte with
//
//	go run ./cmd/vtxntorture -seed N -ops M -v
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/metrics"
)

// slowTracer, when set by -trace-slow, is installed as Options.Tracer on every
// database an episode opens — torture and recovery alike — so recovery phases
// and outlier lock waits are visible while hunting a seed.
var slowTracer metrics.Tracer

// config is the parsed command line.
type config struct {
	seeds     int
	start     int64
	seed      int64 // >= 0 runs this one seed
	ops       int
	verbose   bool
	traceSlow time.Duration
	artifacts string
}

func parseFlags(args []string) (config, error) {
	var c config
	fs := flag.NewFlagSet("vtxntorture", flag.ContinueOnError)
	fs.IntVar(&c.seeds, "seeds", 25, "number of consecutive seeds to run")
	fs.Int64Var(&c.start, "start", 0, "first seed of the range")
	fs.Int64Var(&c.seed, "seed", -1, "run a single seed and exit (overrides -seeds/-start)")
	fs.IntVar(&c.ops, "ops", 400, "workload operations per episode before the planned shutdown")
	fs.BoolVar(&c.verbose, "v", false, "log each seed's schedule, crash, and recovery summary")
	fs.DurationVar(&c.traceSlow, "trace-slow", 0, "log engine trace events slower than this to stderr (0 disables)")
	fs.StringVar(&c.artifacts, "artifacts", "torture-artifacts", "write failed episodes' flight-record dumps and replay info under this dir ('' disables)")
	return c, fs.Parse(args)
}

// reproduce is the command that replays one episode: the seed and the op
// budget are everything an episode derives from (-trace-slow and -artifacts
// only add output).
func reproduce(seed int64, ops int) string {
	return fmt.Sprintf("go run ./cmd/vtxntorture -seed %d -ops %d -v", seed, ops)
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		os.Exit(2)
	}
	if cfg.traceSlow > 0 {
		slowTracer = metrics.NewSlowLogger(os.Stderr, cfg.traceSlow, "torture ")
	}
	// SIGQUIT dumps the running episode's flight record without stopping the
	// harness.
	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	go func() {
		for range quit {
			if db := currentDB.Load(); db != nil {
				db.DumpFlightRecord(os.Stderr)
			}
		}
	}()

	lo, hi := cfg.start, cfg.start+int64(cfg.seeds)
	if cfg.seed >= 0 {
		lo, hi = cfg.seed, cfg.seed+1
		cfg.verbose = true
	}
	logf := func(format string, a ...any) {
		if cfg.verbose {
			fmt.Printf(format+"\n", a...)
		}
	}

	failures := 0
	counts := map[string]int{}
	for seed := lo; seed < hi; seed++ {
		res := runSeed(seed, cfg.ops, logf)
		counts[category(res)]++
		if res.err != nil {
			failures++
			fmt.Printf("FAIL seed=%d (%s): %v\n", seed, res.schedule, res.err)
			if cfg.artifacts != "" {
				if dir, aerr := writeArtifacts(cfg.artifacts, res); aerr != nil {
					fmt.Printf("  (writing artifacts failed: %v)\n", aerr)
				} else {
					fmt.Printf("  artifacts: %s (flightrec.txt, flightrec.jsonl, repro.txt)\n", dir)
				}
			}
			fmt.Printf("  reproduce: %s\n", reproduce(seed, res.ops))
		}
	}
	fmt.Printf("vtxntorture: %d seeds [%d,%d): %d crashed (%d point, %d write, %d fsync), %d clean shutdowns; %d failures\n",
		hi-lo, lo, hi,
		counts["point"]+counts["write"]+counts["fsync"],
		counts["point"], counts["write"], counts["fsync"],
		counts["clean"], failures)
	if failures > 0 {
		os.Exit(1)
	}
}

// category buckets an episode by the fault that ended it.
func category(res result) string {
	switch {
	case !res.crashed:
		return "clean"
	case strings.HasPrefix(res.cause, "point"):
		return "point"
	case strings.HasPrefix(res.cause, "fsync"):
		return "fsync"
	default:
		return "write"
	}
}
