package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the benchmark must honour.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// tiny runs one shrunken benchmark invocation and parses its result line.
func tiny(t *testing.T, extra ...string) (int, result, string) {
	t.Helper()
	args := append([]string{"-seed", "3", "-seconds", "0.01", "-scale", "0.02", "-datadir", t.TempDir()}, extra...)
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil && code == 0 {
		t.Fatalf("last line is not a result: %v\n%s\n%s", err, stdout.String(), stderr.String())
	}
	return code, res, stdout.String() + stderr.String()
}

// TestTinyRunReportsEveryMetric: a clean run passes its checks and prints
// exactly the metrics BENCHMARK.json names, with their units, untraced and
// traced, on every workload.
func TestTinyRunReportsEveryMetric(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		for _, tr := range []struct {
			flag string
			want []struct {
				Name string `json:"name"`
				Unit string `json:"unit"`
			}
		}{{"0", s.EndToEnd}, {"1", s.PerLayer}} {
			t.Run(fmt.Sprintf("%s/trace=%s", w.Name, tr.flag), func(t *testing.T) {
				code, res, out := tiny(t, "-workload", w.Name, "-trace", tr.flag)
				if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("exit %d, result %+v\n%s", code, res, out)
				}
				if len(res.Metrics) != len(tr.want) {
					t.Errorf("%d metrics, BENCHMARK.json names %d", len(res.Metrics), len(tr.want))
				}
				for _, m := range tr.want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
					}
				}
			})
		}
	}
}

// TestChecksCatchFaults: a wrong expectation in the benchmark's ledger, or a
// stored view row corrupted in the engine, must fail each workload's checks.
func TestChecksCatchFaults(t *testing.T) {
	for _, w := range workloads {
		for _, fault := range []string{injectWrongExpectation, injectCorruptView} {
			t.Run(w.name+"/"+fault, func(t *testing.T) {
				code, res, out := tiny(t, "-workload", w.name, "-inject", fault)
				if code == 0 || res.Correct || res.Failed == 0 {
					t.Fatalf("fault went unnoticed: exit %d, result %+v\n%s", code, res, out)
				}
			})
		}
	}
}
