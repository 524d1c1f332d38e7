package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// The kill-resume contract: SIGKILL a checkpointing run at an arbitrary
// moment, restore from the last checkpoint file, and the finished run's
// report is byte-identical to one that was never interrupted. These tests
// exercise the real binary boundary — process death, file system, flag
// parsing — on top of the in-package determinism suites in internal/core
// and internal/checkpoint.

// TestHelperProcess re-enters main() when the test binary is executed as a
// tridentsim subprocess (the standard helper-process pattern).
func TestHelperProcess(t *testing.T) {
	if os.Getenv("TRIDENTSIM_HELPER") != "1" {
		t.Skip("helper process entry point")
	}
	// Everything after "--" is the tridentsim command line.
	args := os.Args
	for i, a := range args {
		if a == "--" {
			args = args[i:]
			break
		}
	}
	os.Args = append([]string{"tridentsim"}, args[1:]...)
	main()
}

// tridentsim runs the helper subprocess with the given arguments.
func tridentsim(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=TestHelperProcess", "--"}, args...)...)
	cmd.Env = append(os.Environ(), "TRIDENTSIM_HELPER=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	code = 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("running %v: %v", args, err)
	}
	return out.String(), errb.String(), code
}

func TestChaosFlagValidation(t *testing.T) {
	_, stderr, code := tridentsim(t, "-bench", "mcf", "-scale", "test", "-chaos", "no-such-preset")
	if code != 2 {
		t.Fatalf("exit code = %d, want 2; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "usage:") || !strings.Contains(stderr, "monkey") {
		t.Fatalf("stderr lacks the one-line usage hint with presets:\n%s", stderr)
	}
}

func TestCheckpointRequiresSingleBench(t *testing.T) {
	_, stderr, code := tridentsim(t, "-bench", "mcf,swim", "-scale", "test",
		"-checkpoint-every", "1000", "-checkpoint-dir", t.TempDir())
	if code != 2 {
		t.Fatalf("exit code = %d, want 2; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "usage:") {
		t.Fatalf("stderr lacks usage hint:\n%s", stderr)
	}
}

func TestRestoreRejectsMismatchedInvocation(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-bench", "mcf", "-scale", "small", "-instrs", "200000",
		"-checkpoint-every", "50000", "-checkpoint-dir", dir}
	if _, stderr, code := tridentsim(t, args...); code != 0 {
		t.Fatalf("checkpointing run failed (%d):\n%s", code, stderr)
	}
	ckpt := filepath.Join(dir, "mcf.ckpt")
	_, stderr, code := tridentsim(t, "-bench", "mcf", "-scale", "small", "-instrs", "200000",
		"-sw", "basic", "-restore", ckpt)
	if code != 2 {
		t.Fatalf("mismatched restore: exit code = %d, want 2; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "different invocation") {
		t.Fatalf("stderr does not explain the identity mismatch:\n%s", stderr)
	}
}

// TestRestoreRejectsMismatchedTraceRing: the telemetry ring capacity is part
// of the checkpoint identity by its effective value. A checkpoint cut with
// the default ring refuses a resume with a 16-event ring as a different
// invocation (not as corrupt data), and resumes under -trace-ring 65536 —
// the capacity the default builds — with the uninterrupted report.
func TestRestoreRejectsMismatchedTraceRing(t *testing.T) {
	dir := t.TempDir()
	base := []string{"-bench", "mcf", "-scale", "small", "-instrs", "200000",
		"-metrics-out", filepath.Join(dir, "metrics.json")}
	refOut, stderr, code := tridentsim(t, append(append([]string{}, base...),
		"-checkpoint-every", "50000", "-checkpoint-dir", dir)...)
	if code != 0 {
		t.Fatalf("checkpointing run failed (%d):\n%s", code, stderr)
	}
	ckpt := filepath.Join(dir, "mcf.ckpt")

	_, stderr, code = tridentsim(t, append(append([]string{}, base...), "-trace-ring", "16", "-restore", ckpt)...)
	if code != 2 {
		t.Fatalf("mismatched ring restore: exit code = %d, want 2; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "different invocation") {
		t.Fatalf("stderr does not explain the identity mismatch:\n%s", stderr)
	}

	out, stderr, code := tridentsim(t, append(append([]string{}, base...), "-trace-ring", "65536", "-restore", ckpt)...)
	if code != 0 || out != refOut {
		t.Fatalf("-trace-ring 65536 restore (code %d) differs from the default-ring run\n%s-- resumed --\n%s\nstderr:\n%s",
			code, refOut, out, stderr)
	}
}

// TestRestoreRejectsMismatchedArsenal: the arsenal knobs are part of the
// checkpoint identity. A checkpoint cut under -hw selector must refuse to
// resume under a different backend or a different selector cadence, with an
// error that names both invocations.
func TestRestoreRejectsMismatchedArsenal(t *testing.T) {
	dir := t.TempDir()
	base := []string{"-bench", "mcf", "-scale", "small", "-instrs", "200000",
		"-hw", "selector", "-selector-probe", "2000"}
	args := append(append([]string{}, base...),
		"-checkpoint-every", "50000", "-checkpoint-dir", dir)
	if _, stderr, code := tridentsim(t, args...); code != 0 {
		t.Fatalf("checkpointing selector run failed (%d):\n%s", code, stderr)
	}
	ckpt := filepath.Join(dir, "mcf.ckpt")

	cases := map[string][]string{
		"different-backend": {"-bench", "mcf", "-scale", "small", "-instrs", "200000",
			"-hw", "ghb", "-restore", ckpt},
		"different-probe": {"-bench", "mcf", "-scale", "small", "-instrs", "200000",
			"-hw", "selector", "-selector-probe", "3000", "-restore", ckpt},
		"different-degree": {"-bench", "mcf", "-scale", "small", "-instrs", "200000",
			"-hw", "selector", "-selector-probe", "2000", "-hw-degree", "2", "-restore", ckpt},
	}
	for name, args := range cases {
		name, args := name, args
		t.Run(name, func(t *testing.T) {
			_, stderr, code := tridentsim(t, args...)
			if code != 2 {
				t.Fatalf("exit code = %d, want 2; stderr:\n%s", code, stderr)
			}
			if !strings.Contains(stderr, "different invocation") {
				t.Fatalf("stderr does not explain the identity mismatch:\n%s", stderr)
			}
		})
	}
}

// TestArsenalFlagValidation: the arsenal shaping flags are rejected when the
// selected hardware prefetcher is not an arsenal backend.
func TestArsenalFlagValidation(t *testing.T) {
	_, stderr, code := tridentsim(t, "-bench", "mcf", "-scale", "test",
		"-hw", "8x8", "-selector-probe", "1000")
	if code != 2 {
		t.Fatalf("exit code = %d, want 2; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "-selector-probe") {
		t.Fatalf("stderr does not name the offending flag:\n%s", stderr)
	}
}

// TestCompanionFlagValidation: a flag that only shapes a feature another
// flag switches on is rejected when that flag is missing, instead of being
// silently ignored.
func TestCompanionFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"chaos-seed", []string{"-chaos-seed", "7"}},
		{"sentinel-window", []string{"-sentinel-window", "1000"}},
		{"sentinel-window", []string{"-sentinel-every", "0", "-sentinel-window", "1000"}},
		{"trace-ring", []string{"-trace-ring", "16"}},
	}
	for _, c := range cases {
		t.Run(strings.Join(c.args, " "), func(t *testing.T) {
			t.Parallel()
			_, stderr, code := tridentsim(t, append([]string{"-bench", "mcf", "-scale", "test"}, c.args...)...)
			if code != 2 {
				t.Fatalf("exit code = %d, want 2; stderr:\n%s", code, stderr)
			}
			if !strings.Contains(stderr, "-"+c.name+" requires") {
				t.Fatalf("stderr does not name -%s:\n%s", c.name, stderr)
			}
		})
	}
}

func TestSampleFlagValidation(t *testing.T) {
	cases := map[string][]string{
		"shaping-without-sample": {"-sample-interval", "500000"},
		"roi-without-sample":     {"-roi-cache", "roi"},
		"sample-with-chaos":      {"-sample", "-chaos", "monkey"},
		"sample-with-sentinel":   {"-sample", "-sentinel"},
		"sample-jobs-zero":       {"-sample", "-sample-jobs", "0"},
		"sample-jobs-negative":   {"-sample", "-sample-jobs", "-3"},
	}
	for name, extra := range cases {
		name, extra := name, extra
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			_, stderr, code := tridentsim(t, append([]string{"-bench", "mcf", "-scale", "test"}, extra...)...)
			if code != 2 {
				t.Fatalf("exit code = %d, want 2; stderr:\n%s", code, stderr)
			}
			want := "-sample"
			if strings.HasPrefix(name, "sample-jobs") {
				want = "-sample-jobs"
			}
			if !strings.Contains(stderr, want) {
				t.Fatalf("stderr does not name %s:\n%s", want, stderr)
			}
		})
	}
}

// TestSampledRestoreIdentity: a sampled checkpointing run, a plain sampled
// run, and a run resumed from the final checkpoint all print byte-identical
// reports; a resume whose sampling schedule differs from the checkpoint's is
// refused, since the controller would replay a different interval grid.
func TestSampledRestoreIdentity(t *testing.T) {
	base := []string{"-bench", "mcf", "-scale", "small", "-instrs", "1200000",
		"-sample", "-sample-interval", "300000", "-sample-detailed", "60000",
		"-sample-warmup", "30000", "-sample-startup", "300000"}

	refOut, refErr, refCode := tridentsim(t, base...)
	if refOut == "" || refCode != 0 {
		t.Fatalf("plain sampled run failed (code %d):\n%s", refCode, refErr)
	}

	dir := t.TempDir()
	ckptArgs := append(append([]string{}, base...), "-checkpoint-every", "200000", "-checkpoint-dir", dir)
	out, stderr, code := tridentsim(t, ckptArgs...)
	if code != 0 {
		t.Fatalf("sampled checkpointing run failed (code %d):\n%s", code, stderr)
	}
	if out != refOut {
		t.Errorf("checkpointing changed the sampled report\n-- plain --\n%s-- checkpointing --\n%s", refOut, out)
	}

	ckpt := filepath.Join(dir, "mcf.ckpt")
	resOut, resErr, resCode := tridentsim(t, append(append([]string{}, base...), "-restore", ckpt)...)
	if resCode != 0 {
		t.Fatalf("sampled restore failed (code %d):\n%s", resCode, resErr)
	}
	if resOut != refOut {
		t.Errorf("resumed sampled output differs\n-- plain --\n%s-- resumed --\n%s", refOut, resOut)
	}

	// Same machine, different sampling grid: the checkpoint must be refused.
	mismatch := append(append([]string{}, base...), "-restore", ckpt)
	for i, a := range mismatch {
		if a == "300000" { // first occurrence is -sample-interval's value
			mismatch[i] = "400000"
			break
		}
	}
	_, stderr, code = tridentsim(t, mismatch...)
	if code != 2 {
		t.Fatalf("mismatched -sample-interval restore: exit code = %d, want 2; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "different invocation") {
		t.Fatalf("stderr does not explain the identity mismatch:\n%s", stderr)
	}
}

// TestCheckpointLandsOnBudget: checkpointing does not move the run. On art
// with value specialization an optimization is pending at the 300k
// checkpoint; the checkpointing run still stops at the 400k budget and
// prints the uninterrupted run's report.
func TestCheckpointLandsOnBudget(t *testing.T) {
	base := []string{"-bench", "art", "-scale", "small", "-valspec", "-instrs", "400000"}
	refOut, refErr, refCode := tridentsim(t, base...)
	if refCode != 0 || !strings.Contains(refOut, "orig-instrs=400000 ") {
		t.Fatalf("uninterrupted run (code %d) did not stop at the budget:\n%s%s", refCode, refOut, refErr)
	}
	out, errb, code := tridentsim(t, append(base, "-checkpoint-every", "300000", "-checkpoint-dir", t.TempDir())...)
	if code != 0 || out != refOut {
		t.Errorf("checkpointing run (code %d) differs from uninterrupted\n-- uninterrupted --\n%s-- checkpointing --\n%s%s",
			code, refOut, out, errb)
	}
}

// TestEngineReportIdentity: the three execution tiers are architecturally
// invisible at the binary boundary — the rendered report of a JIT-everything
// run, a batch-only run, and a reference-loop run must be byte-identical.
func TestEngineReportIdentity(t *testing.T) {
	base := []string{"-bench", "mcf", "-scale", "small", "-instrs", "400000", "-v"}
	slowOut, slowErr, slowCode := tridentsim(t, append([]string{"-slowpath"}, base...)...)
	if slowOut == "" || slowCode != 0 {
		t.Fatalf("slowpath run failed (code %d):\n%s", slowCode, slowErr)
	}
	for name, extra := range map[string][]string{
		"jit-eager": {"-jit-threshold", "0"},
		"nojit":     {"-jit=false"},
	} {
		out, errb, code := tridentsim(t, append(append([]string{}, extra...), base...)...)
		if code != slowCode {
			t.Errorf("%s: exit code %d, slowpath %d\n%s", name, code, slowCode, errb)
		}
		if out != slowOut {
			t.Errorf("%s report differs from slowpath\n-- slowpath --\n%s-- %s --\n%s",
				name, slowOut, name, out)
		}
	}
}

// killResumeCase runs one configuration through the full contract:
// reference run, SIGKILLed checkpointing run, restored run, byte compare.
// The resume flags apply to the restored run only, the ckpt flags to the
// checkpointing run only (after its default -checkpoint-every 100000).
func killResumeCase(t *testing.T, extra, resume, ckptFlags []string) {
	base := append([]string{"-bench", "mcf", "-scale", "small", "-instrs", "4000000"}, extra...)

	refOut, refErr, refCode := tridentsim(t, base...)
	if refOut == "" {
		t.Fatalf("reference run produced no output (code %d):\n%s", refCode, refErr)
	}

	dir := t.TempDir()
	bench := ""
	for i := 0; i+1 < len(base); i++ {
		if base[i] == "-bench" {
			bench = base[i+1]
		}
	}
	ckpt := filepath.Join(dir, bench+".ckpt")
	args := append([]string{"-test.run=TestHelperProcess", "--"},
		append(append(append([]string{}, base...), "-checkpoint-every", "100000", "-checkpoint-dir", dir), ckptFlags...)...)
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "TRIDENTSIM_HELPER=1")
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Kill as soon as a checkpoint file exists. WriteFile publishes it by
	// atomic rename, so existence implies a complete, valid file; if the
	// run beats us to the finish line the kill is moot and the resume
	// below simply replays nothing.
	for i := 0; i < 2000; i++ {
		if _, err := os.Stat(ckpt); err == nil {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, err := os.Stat(ckpt); err != nil {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatal("no checkpoint file appeared")
	}
	cmd.Process.Signal(syscall.SIGKILL)
	cmd.Wait()

	resOut, resErr, resCode := tridentsim(t, append(append(append([]string{}, base...), resume...), "-restore", ckpt)...)
	if resOut != refOut {
		t.Errorf("resumed output differs from uninterrupted run\n-- uninterrupted --\n%s-- resumed --\n%s", refOut, resOut)
	}
	if resCode != refCode {
		t.Errorf("exit codes differ: uninterrupted %d, resumed %d\nstderr:\n%s", refCode, resCode, resErr)
	}
}

func TestKillResumeDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess matrix")
	}
	// Each case: flags for every run, then flags for the resume only, then
	// flags for the checkpointing run only.
	cases := map[string][3][]string{
		"fastpath":     {},
		"slowpath":     {{"-slowpath"}},
		"sentinel":     {{"-sentinel-every", "300000", "-sentinel-window", "100000"}},
		"jit-eager":    {{"-jit-threshold", "0"}},
		"nojit":        {{"-jit=false"}},
		"jit-sentinel": {{"-jit-threshold", "0", "-sentinel-every", "300000", "-sentinel-window", "100000"}},
		"sampled":      {{"-sample", "-sample-interval", "500000", "-sample-startup", "500000"}},
		// The engine knobs are outside the checkpoint identity: a checkpoint
		// cut on the default engine resumes on every other tier and still
		// prints the uninterrupted run's report.
		"resume-slowpath":  {nil, {"-slowpath"}},
		"resume-nojit":     {nil, {"-jit=false"}},
		"resume-jit-eager": {nil, {"-jit-threshold", "0"}},
		// The one checkpoint, at 300k, is cut while an optimization is
		// pending (the helper is busy until long after it).
		"pending-optimization": {{"-bench", "art", "-valspec", "-instrs", "400000"},
			nil, {"-checkpoint-every", "300000"}},
	}
	for _, preset := range []string{
		"latency-phase", "eviction-storm", "helper-preemption", "workload-shift", "monkey",
	} {
		cases["chaos-"+preset] = [3][]string{{"-chaos", preset, "-chaos-seed", "42"}}
	}
	for name, c := range cases {
		name, c := name, c
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			killResumeCase(t, c[0], c[1], c[2])
		})
	}
}
