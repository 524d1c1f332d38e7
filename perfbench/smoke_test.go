package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"tridentsp/internal/workloads"
)

// benchSpec is the part of BENCHMARK.json the smoke test checks against.
type benchSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmokeEveryMetricEmitted runs every workload at test scale and tiny
// budgets, untraced and traced, and checks each prints exactly the metrics
// BENCHMARK.json names, each with its unit, and no failed run.
func TestSmokeEveryMetricEmitted(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates every workload")
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	tiny := tinySpecs()
	o, err := record(tiny, workloads.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	for _, ws := range tiny {
		ws := ws
		t.Run(ws.name, func(t *testing.T) {
			b, err := newBench(ws, workloads.ScaleTest, o)
			if err != nil {
				t.Fatal(err)
			}
			b.probes = probeSizes{streamSkip: 20_000, streamInstrs: 20_000, tierWarm: 10_000,
				tierWindow: 10_000, ffwd: 20_000, rewarm: 5_000}
			res, err := untracedRun(b, rand.New(rand.NewSource(defaultSeed)), time.Millisecond, 1)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, "untraced", res, spec.EndToEnd)

			b, _ = newBench(ws, workloads.ScaleTest, o)
			b.probes = probeSizes{streamSkip: 20_000, streamInstrs: 20_000, tierWarm: 10_000,
				tierWindow: 10_000, ffwd: 20_000, rewarm: 5_000}
			spanFile := filepath.Join(t.TempDir(), "spans.json")
			res, err = tracedRun(b, rand.New(rand.NewSource(heldOutSeed)), time.Millisecond,
				fingerprint("."), spanFile)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, "traced", res, spec.PerLayer)
			if _, err := os.Stat(spanFile); err != nil {
				t.Errorf("span file: %v", err)
			}
		})
	}
}

func checkResult(t *testing.T, mode string, res result, want []struct{ Name, Unit string }) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", mode, res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics emitted, BENCHMARK.json names %d", mode, len(res.Metrics), len(want))
	}
	for _, w := range want {
		m, ok := res.Metrics[w.Name]
		if !ok {
			t.Errorf("%s: metric %s not emitted", mode, w.Name)
			continue
		}
		if m.Unit != w.Unit {
			t.Errorf("%s: metric %s unit %q, BENCHMARK.json says %q", mode, w.Name, m.Unit, w.Unit)
		}
	}
}
