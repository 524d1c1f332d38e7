package main

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestHelperProcess re-enters main() when the test binary is executed as an
// experiments subprocess (the standard helper-process pattern).
func TestHelperProcess(t *testing.T) {
	if os.Getenv("EXPERIMENTS_HELPER") != "1" {
		t.Skip("helper process entry point")
	}
	// Everything after "--" is the experiments command line.
	args := os.Args
	for i, a := range args {
		if a == "--" {
			args = args[i:]
			break
		}
	}
	os.Args = append([]string{"experiments"}, args[1:]...)
	main()
}

// experiments runs the helper subprocess with the given arguments.
func experiments(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=TestHelperProcess", "--"}, args...)...)
	cmd.Env = append(os.Environ(), "EXPERIMENTS_HELPER=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("running %v: %v", args, err)
	}
	return out.String(), errb.String(), code
}

// TestFailedRunsExitOne: under a deadline no run can meet, every run fails
// once, the table renders with holes and one manifest line per run, and
// the command exits 1.
func TestFailedRunsExitOne(t *testing.T) {
	stdout, stderr, code := experiments(t,
		"-quick", "-bench", "swim", "-fig", "fig2", "-task-timeout", "1ns")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "—") {
		t.Errorf("table has no holes:\n%s", stdout)
	}
	var failed []string
	for _, l := range strings.Split(stdout, "\n") {
		if strings.HasPrefix(l, "FAILED: ") {
			failed = append(failed, l)
		}
	}
	if len(failed) == 0 {
		t.Fatalf("no manifest lines:\n%s", stdout)
	}
	for _, l := range failed {
		if !strings.HasSuffix(l, ": timed out after 1ns") {
			t.Errorf("manifest line %q does not end in the timeout", l)
		}
	}
	if !strings.Contains(stderr, "run(s) failed") {
		t.Errorf("stderr does not report the failed runs:\n%s", stderr)
	}
}
