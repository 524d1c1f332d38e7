package main

import (
	"reflect"
	"testing"

	"tridentsp/internal/core"
	"tridentsp/internal/workloads"
)

// tinySpecs are the benchmark's workloads shrunk to test scale: the same
// kernels, machines, and sampling mode, at budgets of a few ten thousand
// instructions and a matching sampling schedule (the exact workloads use it
// only in the sampling probes).
func tinySpecs() []workloadSpec {
	var out []workloadSpec
	for _, ws := range specs {
		ws.budgets = []uint64{20_000, 40_000}
		ws.smp.Interval, ws.smp.Detailed, ws.smp.Warmup, ws.smp.Startup = 10_000, 4_000, 2_000, 10_000
		out = append(out, ws)
	}
	return out
}

// TestDigestPerturbationFails flips every numeric field of a real run's
// Results, one at a time, and checks each perturbed outcome fails the
// oracle and counts in failed_run_frac.
func TestDigestPerturbationFails(t *testing.T) {
	ws := tinySpecs()[0]
	ws.kernels = ws.kernels[:1]
	o, err := record([]workloadSpec{ws}, workloads.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newBench(ws, workloads.ScaleTest, o)
	if err != nil {
		t.Fatal(err)
	}
	out := b.runOne(b.kernels[0], 20_000, false)
	if out.err != nil {
		t.Fatalf("unperturbed run fails the oracle: %v", out.err)
	}
	key := digestKey(ws.name, out.kernel, out.budget)

	var tl tally
	fields := 0
	perturb(reflect.ValueOf(&out.res).Elem(), func() {
		fields++
		bad := out
		bad.err = b.checkExact(key, out.res)
		if bad.err == nil {
			t.Errorf("perturbation %d passed the oracle", fields)
		}
		tl.add(b, bad)
	})
	if fields < 40 {
		t.Fatalf("only %d fields perturbed", fields)
	}
	if tl.failed != fields || failedFrac(tl.failed, tl.attempted) != 1 {
		t.Errorf("failed %d of %d perturbed runs", tl.failed, tl.attempted)
	}
	if err := b.checkExact(key, out.res); err != nil {
		t.Errorf("restored Results fail the oracle: %v", err)
	}
}

// perturb bumps each numeric leaf of v by one, calls check, and restores it.
func perturb(v reflect.Value, check func()) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			perturb(v.Field(i), check)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			perturb(v.Index(i), check)
		}
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int() + 1)
		check()
		v.SetInt(v.Int() - 1)
	case reflect.Uint64:
		v.SetUint(v.Uint() + 1)
		check()
		v.SetUint(v.Uint() - 1)
	case reflect.Float64:
		old := v.Float()
		v.SetFloat(old + 1)
		check()
		v.SetFloat(old)
	}
}

// TestAbortAndApplyErrorsFail covers the non-digest failure causes.
func TestAbortAndApplyErrorsFail(t *testing.T) {
	b := &bench{ws: specs[0], oracle: oracle{"k": {Digest: resultsDigest(core.Results{})}}}
	if err := b.checkExact("k", core.Results{}); err != nil {
		t.Fatalf("clean Results fail: %v", err)
	}
	if b.checkExact("k", core.Results{Aborted: "livelock"}) == nil {
		t.Error("aborted run passed")
	}
	if b.checkExact("k", core.Results{ApplyErrors: 1}) == nil {
		t.Error("run with apply errors passed")
	}
	if b.checkExact("missing", core.Results{}) == nil {
		t.Error("run without a recorded digest passed")
	}
}

// TestRecordedOracleCoversEveryDraw checks digests.json holds an entry for
// every (workload, kernel, budget) a seed can draw, with reference IPCs on
// the sampled workload.
func TestRecordedOracleCoversEveryDraw(t *testing.T) {
	o, err := loadOracle()
	if err != nil {
		t.Fatal(err)
	}
	for _, ws := range specs {
		for _, k := range ws.kernels {
			for _, bud := range ws.budgets {
				e, ok := o[digestKey(ws.name, k, bud)]
				if !ok {
					t.Errorf("no digest for %s", digestKey(ws.name, k, bud))
				}
				if ws.sampled && e.RefIPC <= 0 {
					t.Errorf("no reference IPC for %s", digestKey(ws.name, k, bud))
				}
			}
		}
	}
}
