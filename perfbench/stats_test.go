package main

import (
	"errors"
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so tail must sort
	}
	return xs
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{4, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestTailKeepsTenBeyond pins the tail rule: the reported value is the
// highest-ranked sample with at least ten samples above it, and the
// percentile is that rank's share of the sample count.
func TestTailKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n        int
		wantV    float64
		wantPct  float64
		fallback bool
	}{
		{n: 100, wantV: 90, wantPct: 90},
		{n: 200, wantV: 190, wantPct: 95},
		{n: 40, wantV: 30, wantPct: 75},
		{n: 15, fallback: true}, // rank 5 would be the 33rd percentile
		{n: 10, fallback: true},
	} {
		xs := seq(c.n)
		v, pct := tail(xs)
		if c.fallback {
			if v != median(xs) || pct != 50 {
				t.Errorf("n=%d: tail = (%v, %v), want the median at 50", c.n, v, pct)
			}
			continue
		}
		if v != c.wantV || pct != c.wantPct {
			t.Errorf("n=%d: tail = (%v, %v), want (%v, %v)", c.n, v, pct, c.wantV, c.wantPct)
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond the tail", c.n, beyond)
		}
	}
}

func TestGeomean(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{2, 8}, 4},
		{[]float64{1, 10, 100}, 10},
		{[]float64{0, 4, 9}, 6}, // non-positive values are skipped
	} {
		if got := geomean(c.xs); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("geomean(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestAtRef pins the host-speed rescaling: a step timed while the probe
// ran twice as slow as on the reference host counts half its wall time.
func TestAtRef(t *testing.T) {
	if got := atRef(100*time.Millisecond, 2*calibRef, 2*calibRef); got != 50*time.Millisecond {
		t.Errorf("slow host: atRef = %v, want 50ms", got)
	}
	if got := atRef(100*time.Millisecond, calibRef/2, 3*calibRef/2); got != 100*time.Millisecond {
		t.Errorf("probes averaging the reference: atRef = %v, want 100ms", got)
	}
	if got := atRef(time.Second, 0, 0); got != time.Second {
		t.Errorf("no probe: atRef = %v, want the wall time", got)
	}
}

// TestCellGeomeanWeighsKernelsEqually shows each cell counts once, at its
// median, whatever its run count or size.
func TestCellGeomeanWeighsKernelsEqually(t *testing.T) {
	var tl tally
	b := &bench{ws: specs[0]}
	for _, ms := range []time.Duration{10, 10, 90} {
		tl.add(b, runOutcome{kernel: "swim", budget: 1, instrs: 1e6, ref: ms * time.Millisecond})
	}
	tl.add(b, runOutcome{kernel: "art", budget: 2, instrs: 4e6, ref: 160 * time.Millisecond})
	// swim: 10 ns per instruction, art: 40; geometric mean 20.
	if got := tl.cellGeomean(); math.Abs(got-20) > 1e-9 {
		t.Errorf("cellGeomean = %v, want 20", got)
	}
}

func TestFailedFrac(t *testing.T) {
	if got := failedFrac(0, 0); got != 0 {
		t.Errorf("failedFrac(0, 0) = %v", got)
	}
	if got := failedFrac(1, 4); got != 0.25 {
		t.Errorf("failedFrac(1, 4) = %v", got)
	}
	var tl tally
	b := &bench{ws: specs[0]}
	tl.add(b, runOutcome{kernel: "swim", budget: 1, instrs: 10, ref: 10})
	tl.add(b, runOutcome{kernel: "swim", budget: 1, err: errors.New("digest mismatch")})
	tl.add(b, runOutcome{kernel: "art", budget: 1, instrs: 10, ref: 30})
	if tl.attempted != 3 || tl.failed != 1 || len(tl.nsPerInstr) != 2 {
		t.Fatalf("tally: attempted %d failed %d samples %d", tl.attempted, tl.failed, len(tl.nsPerInstr))
	}
	if got := failedFrac(tl.failed, tl.attempted); got != 1.0/3 {
		t.Errorf("failed_run_frac = %v, want 1/3", got)
	}
}

// TestThroughputUsesCellMedians shows one slow outlier in a cell does not
// move the throughput: each cell counts once, at its median run time.
func TestThroughputUsesCellMedians(t *testing.T) {
	var tl tally
	b := &bench{ws: specs[0]}
	for _, ms := range []time.Duration{100, 100, 900} {
		tl.add(b, runOutcome{kernel: "swim", budget: 1, instrs: 1e6, ref: ms * time.Millisecond})
	}
	tl.add(b, runOutcome{kernel: "art", budget: 2, instrs: 3e6, ref: 300 * time.Millisecond})
	// 4M instructions over 0.1 s + 0.3 s.
	if got, want := tl.throughput(), 1e7; got != want {
		t.Errorf("throughput = %v, want %v", got, want)
	}
}
