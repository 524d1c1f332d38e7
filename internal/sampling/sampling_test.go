package sampling

import (
	"math"
	"os"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tridentsp/internal/checkpoint"
	"tridentsp/internal/core"
	"tridentsp/internal/telemetry"
	"tridentsp/internal/workloads"
)

// testConfig is a small grid so unit-test budgets produce many intervals.
func testConfig() Config {
	return Config{Interval: 100_000, Detailed: 20_000, Warmup: 10_000, PhaseDelta: 0.5, Startup: 300_000}
}

func newSystem(t *testing.T, bench string) *core.System {
	t.Helper()
	b, ok := workloads.ByName(bench)
	if !ok {
		t.Fatalf("no benchmark %q", bench)
	}
	return core.NewSystem(core.DefaultConfig(), b.Build(workloads.ScaleTest))
}

// sysFactory builds fresh worker machines for chain seeding, identical in
// configuration to newSystem's master.
func sysFactory(t *testing.T, bench string) func() *core.System {
	t.Helper()
	b, ok := workloads.ByName(bench)
	if !ok {
		t.Fatalf("no benchmark %q", bench)
	}
	return func() *core.System {
		return core.NewSystem(core.DefaultConfig(), b.Build(workloads.ScaleTest))
	}
}

func newScheduler(t *testing.T, bench string, cfg Config, roi *ROICache, jobs int) *Scheduler {
	t.Helper()
	sched, err := NewScheduler(newSystem(t, bench), cfg, roi,
		Options{Jobs: jobs, NewSystem: sysFactory(t, bench)})
	if err != nil {
		t.Fatal(err)
	}
	return sched
}

func runSampledCfg(t *testing.T, bench string, total uint64, cfg Config, roi *ROICache, jobs int) Estimate {
	t.Helper()
	sched := newScheduler(t, bench, cfg, roi, jobs)
	est := sched.Run(total)
	if err := sched.Err(); err != nil {
		t.Fatal(err)
	}
	return est
}

func runSampled(t *testing.T, bench string, total uint64, roi *ROICache) Estimate {
	t.Helper()
	return runSampledCfg(t, bench, total, testConfig(), roi, 1)
}

// dropSpec strips the speculation-waste summary marker, whose payload is
// jobs-dependent by design, for cross-jobs stream comparisons.
func dropSpec(evs []telemetry.Event) []telemetry.Event {
	out := make([]telemetry.Event, 0, len(evs))
	for _, ev := range evs {
		if ev.Kind != telemetry.KindSampleSpec {
			out = append(out, ev)
		}
	}
	return telemetry.Renumber(out)
}

// The extrapolated Results of a sampled run must track an exact run of the
// same length: this is the package's whole reason to exist. Budgets sit past
// each workload's optimizer-convergence point (the startup prefix covers the
// transient; sampling only ever extrapolates steady state). Chain isolation
// makes an undersized prefix visible rather than quietly absorbed — every
// window runs at S0's optimizer maturity — so these prefixes sit past each
// workload's convergence point at test scale (mcf converges between 300k
// and 400k; at 300k the IPC error is 5%, at 400k it is 0.7%).
func TestSampledTracksExact(t *testing.T) {
	cases := []struct {
		bench string
		total uint64
		cfg   Config
	}{
		{"mcf", 1_000_000, Config{Interval: 100_000, Detailed: 20_000, Warmup: 10_000, PhaseDelta: 0.5, Startup: 400_000}},
		{"swim", 1_000_000, Config{Interval: 100_000, Detailed: 20_000, Warmup: 10_000, PhaseDelta: 0.5, Startup: 400_000}},
		{"parser", 3_000_000, Config{Interval: 200_000, Detailed: 40_000, Warmup: 20_000, PhaseDelta: 0.5, Startup: 1_200_000}},
	}
	for _, tc := range cases {
		bench, total := tc.bench, tc.total
		exact := newSystem(t, bench).Run(total)
		est := runSampledCfg(t, bench, total, tc.cfg, nil, 1)

		if est.Total != total {
			t.Errorf("%s: sampled progress = %d, want %d", bench, est.Total, total)
		}
		if est.FFwdInstrs == 0 || est.DetailedInstrs >= total {
			t.Errorf("%s: nothing was fast-forwarded (detailed=%d ffwd=%d)",
				bench, est.DetailedInstrs, est.FFwdInstrs)
		}
		if est.Intervals < 5 {
			t.Errorf("%s: only %d detailed intervals", bench, est.Intervals)
		}
		relErr := func(a, b float64) float64 {
			if b == 0 {
				return math.Abs(a - b)
			}
			return math.Abs(a-b) / math.Abs(b)
		}
		if e := relErr(est.Sampled.IPC(), exact.IPC()); e > 0.05 {
			t.Errorf("%s: IPC error %.2f%% (sampled %.4f exact %.4f)",
				bench, 100*e, est.Sampled.IPC(), exact.IPC())
		}
		if e := relErr(est.Sampled.PrefetchMissCoverage(), exact.PrefetchMissCoverage()); e > 0.10 {
			t.Errorf("%s: coverage error %.2f%% (sampled %.4f exact %.4f)",
				bench, 100*e, est.Sampled.PrefetchMissCoverage(), exact.PrefetchMissCoverage())
		}
		for _, k := range []string{"ipc", "coverage", "accuracy"} {
			if _, ok := est.Err[k]; !ok {
				t.Errorf("%s: missing error bar %q", bench, k)
			}
		}
	}
}

// Sampled runs are deterministic: two runs from scratch agree exactly.
func TestSampledDeterminism(t *testing.T) {
	a := runSampled(t, "mcf", 600_000, nil)
	b := runSampled(t, "mcf", 600_000, nil)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two sampled runs disagree:\n%+v\n%+v", a, b)
	}
}

// The acceptance bar for the parallel scheduler: at any jobs setting the
// estimate, error bars, intervals (trigger decisions included), and merged
// telemetry stream are byte-identical to the serial schedule. Only
// SpecWaste — and the summary marker carrying it — may differ.
func TestParallelMatchesSerial(t *testing.T) {
	suite := []string{"mcf", "swim"}
	if !testing.Short() {
		// The full differential suite: every workload, so phase-trigger
		// churn of every flavor (bursty dot, oscillating vis, steady swim)
		// replays identically across fan-out widths.
		suite = nil
		for _, bm := range workloads.All() {
			suite = append(suite, bm.Name)
		}
	}
	for _, bench := range suite {
		const total = 1_000_000
		var ref Estimate
		var refIvs []Interval
		var refEv []telemetry.Event
		for _, jobs := range []int{1, 2, 8} {
			sched := newScheduler(t, bench, testConfig(), nil, jobs)
			est := sched.Run(total)
			if err := sched.Err(); err != nil {
				t.Fatalf("%s jobs=%d: %v", bench, jobs, err)
			}
			ev := dropSpec(sched.Events())
			ivs := sched.Intervals()
			if jobs == 1 {
				if est.SpecWaste != 0 {
					t.Fatalf("%s: serial run reports speculation waste %d", bench, est.SpecWaste)
				}
				ref, refIvs, refEv = est, ivs, ev
				continue
			}
			got := est
			got.SpecWaste = ref.SpecWaste
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("%s jobs=%d: estimate differs from serial:\nserial:   %+v\nparallel: %+v",
					bench, jobs, ref, got)
			}
			if !reflect.DeepEqual(ivs, refIvs) {
				t.Errorf("%s jobs=%d: interval records differ from serial", bench, jobs)
			}
			if !reflect.DeepEqual(ev, refEv) {
				t.Errorf("%s jobs=%d: telemetry stream differs from serial (%d vs %d events)",
					bench, jobs, len(ev), len(refEv))
			}
		}
	}
}

// A run checkpointed at a commit point and resumed into a fresh machine
// finishes with the identical estimate, intervals, telemetry — and the
// identical speculation waste, since the launch window is a pure function
// of (frontier, jobs). Both snapshot shapes are exercised: mid-startup
// (carries the full master) and mid-schedule (carries S0 plus the committed
// record), the latter both at the first chain boundary and at the last,
// where only the final gap and its markers remain.
func TestSampledResumeDeterminism(t *testing.T) {
	const total, jobs = 800_000, 2

	refSched := newScheduler(t, "mcf", testConfig(), nil, jobs)
	ref := refSched.Run(total)
	if err := refSched.Err(); err != nil {
		t.Fatal(err)
	}
	refEv := refSched.Events()

	var blobA, blobB, blobC []byte
	commits := 0
	var sched *Scheduler
	var schedErr error
	sched, schedErr = NewScheduler(newSystem(t, "mcf"), testConfig(), nil, Options{
		Jobs:      jobs,
		NewSystem: sysFactory(t, "mcf"),
		OnCommit: func(uint64) {
			commits++
			snap := func() []byte {
				e := checkpoint.NewEncoder()
				if err := sched.SaveState(e); err != nil {
					t.Error(err)
				}
				return e.Bytes()
			}
			if commits == 3 {
				blobA = snap() // mid-startup: full-master shape
			}
			if sched.windowed && blobB == nil {
				blobB = snap() // first chain boundary: windowed shape
			} else if sched.windowed {
				blobC = snap() // last chain boundary: only the final gap remains
			}
		},
	})
	if schedErr != nil {
		t.Fatal(schedErr)
	}
	sched.Run(total)
	if err := sched.Err(); err != nil {
		t.Fatal(err)
	}
	if blobA == nil || blobB == nil || blobC == nil {
		t.Fatalf("snapshots not captured (commits=%d)", commits)
	}

	for name, blob := range map[string][]byte{"startup": blobA, "windowed": blobB, "windowed-last": blobC} {
		sched2 := newScheduler(t, "mcf", testConfig(), nil, jobs)
		if err := sched2.LoadState(checkpoint.NewDecoder(blob)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := sched2.Run(total)
		if err := sched2.Err(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("%s: resumed estimate differs:\nresumed:  %+v\nstraight: %+v", name, got, ref)
		}
		if !reflect.DeepEqual(sched2.Events(), refEv) {
			t.Errorf("%s: resumed telemetry stream differs from straight run", name)
		}
	}
}

// Building the ROI cache (cold) and reusing it (warm) produce bit-identical
// estimates: neither path touches microarchitectural state during the pure
// part of a gap, and the architectural state restored is exactly the state
// the cold run reaches functionally.
func TestROICacheColdWarmIdentical(t *testing.T) {
	const total = 800_000
	dir := t.TempDir()

	roiCold := NewROICache(dir, "mcf", "test", testConfig())
	cold := runSampled(t, "mcf", total, roiCold)
	if h, m := roiCold.Stats(); m == 0 || h != 0 {
		t.Fatalf("cold run: hits=%d misses=%d", h, m)
	}

	roiWarm := NewROICache(dir, "mcf", "test", testConfig())
	warm := runSampled(t, "mcf", total, roiWarm)
	if h, m := roiWarm.Stats(); h == 0 || m != 0 {
		t.Fatalf("warm run: hits=%d misses=%d", h, m)
	}

	cold.ROIHits, cold.ROIMisses = 0, 0
	warm.ROIHits, warm.ROIMisses = 0, 0
	if !reflect.DeepEqual(cold, warm) {
		t.Fatalf("warm ROI run differs from cold:\ncold: %+v\nwarm: %+v", cold, warm)
	}

	// The no-cache run matches too: the cache only relocates functional work.
	plain := runSampled(t, "mcf", total, nil)
	if !reflect.DeepEqual(plain, warm) {
		t.Fatalf("cached run differs from uncached:\nplain: %+v\ncached: %+v", plain, warm)
	}
}

// A stale or foreign file must read as a miss, not corrupt the run.
func TestROICacheRejectsMismatchedKey(t *testing.T) {
	dir := t.TempDir()
	a := NewROICache(dir, "mcf", "test", testConfig())
	if err := a.Save(3, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if _, ok := a.Load(3); !ok {
		t.Fatal("self-saved checkpoint should load")
	}
	other := testConfig()
	other.Warmup = 5_000
	b := NewROICache(dir, "mcf", "test", other)
	if _, ok := b.Load(3); ok {
		t.Fatal("checkpoint from a different grid must not load")
	}
}

// A cache file from an older payload format (meta "roi2") is a miss that
// gets rebuilt, never a blob handed to RestoreROI: that would end the run
// with a decode error instead of costing one functional fast-forward.
func TestROICacheRebuildsOlderFormat(t *testing.T) {
	const total = 800_000
	dir := t.TempDir()
	roi := NewROICache(dir, "mcf", "test", testConfig())
	stale := checkpoint.NewEncoder()
	stale.Mark("core.roi2")
	const slots = total / 100_000
	for k := uint64(1); k <= slots; k++ {
		meta := strings.Replace(roi.meta(k), "roi3 ", "roi2 ", 1)
		if meta == roi.meta(k) {
			t.Fatalf("meta %q does not carry the roi3 format tag", meta)
		}
		if err := checkpoint.WriteFile(roi.Path(k), meta, stale.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	got := runSampled(t, "mcf", total, roi)
	if h, m := roi.Stats(); h != 0 || m == 0 {
		t.Fatalf("run over roi2 files: hits=%d misses=%d, want only misses", h, m)
	}
	rebuilt := 0
	for k := uint64(1); k <= slots; k++ {
		if _, ok := roi.load(k); ok {
			rebuilt++
		}
	}
	if rebuilt == 0 {
		t.Error("no roi2 file was replaced by a current snapshot")
	}
	got.ROIHits, got.ROIMisses = 0, 0
	if plain := runSampled(t, "mcf", total, nil); !reflect.DeepEqual(got, plain) {
		t.Fatalf("run that rebuilt roi2 files differs from uncached:\nrebuilt: %+v\nplain:   %+v", got, plain)
	}
}

// Concurrent LoadOrBuild calls for one slot run the build exactly once; the
// rest read the published snapshot.
func TestROILoadOrBuildSingleflight(t *testing.T) {
	roi := NewROICache(t.TempDir(), "mcf", "test", testConfig())
	var builds int32
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			payload, err := roi.LoadOrBuild(5, func() ([]byte, error) {
				atomic.AddInt32(&builds, 1)
				return []byte("snapshot"), nil
			})
			if err != nil {
				t.Error(err)
			} else if string(payload) != "snapshot" {
				t.Errorf("payload = %q", payload)
			}
		}()
	}
	wg.Wait()
	if builds != 1 {
		t.Fatalf("build ran %d times, want 1", builds)
	}
	if h, m := roi.Stats(); m != 1 || h != 7 {
		t.Fatalf("hits=%d misses=%d, want 7/1", h, m)
	}
}

// A lock file left by a crashed builder must not wedge the cache forever:
// once it outlives the liveness window it is stolen.
func TestROILockStaleSteal(t *testing.T) {
	roi := NewROICache(t.TempDir(), "mcf", "test", testConfig())
	lock := roi.Path(2) + ".lock"
	if err := os.MkdirAll(roi.Dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(lock, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-2 * roiLockStale)
	if err := os.Chtimes(lock, old, old); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := roi.LoadOrBuild(2, func() ([]byte, error) { return []byte("x"), nil })
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("LoadOrBuild wedged on a stale lock file")
	}
}

// Schedules that cannot alternate are rejected up front.
func TestConfigValidate(t *testing.T) {
	bad := Config{Interval: 100, Detailed: 80, Warmup: 40}
	if err := bad.Validate(); err == nil {
		t.Fatal("want error for detailed+warmup > interval")
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}
