package sampling

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Golden scheduler checkpoint bytes: the SHA-256 of both snapshot shapes
// (startup, which embeds the full master machine, and windowed, which
// embeds S0 plus the committed record) on three workloads, pinned in
// testdata/golden_scheduler.txt. A resumable sampled run's file format is a
// contract between builds, like the machine checkpoint's.

var updateScheduler = flag.Bool("update-checkpoints", false,
	"rewrite testdata/golden_scheduler.txt from the current build")

const goldenSchedulerFile = "testdata/golden_scheduler.txt"

func goldenSchedulerDigests(t *testing.T) []string {
	t.Helper()
	digest := func(b []byte) string {
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}
	var lines []string
	for _, bench := range []string{"mcf", "vis", "dot"} {
		var startup, first, last []byte
		var sched *Scheduler
		sched, err := NewScheduler(newSystem(t, bench), testConfig(), nil, Options{
			Jobs:      1,
			NewSystem: sysFactory(t, bench),
			OnCommit: func(uint64) {
				switch {
				case !sched.windowed && startup == nil:
					startup = schedulerState(t, sched)
				case sched.windowed && first == nil:
					first = schedulerState(t, sched)
				case sched.windowed:
					last = schedulerState(t, sched)
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		sched.Run(800_000)
		if err := sched.Err(); err != nil {
			t.Fatal(err)
		}
		if startup == nil || first == nil || last == nil {
			t.Fatalf("%s: snapshots not captured", bench)
		}
		for _, d := range []struct {
			shape string
			blob  []byte
		}{{"startup", startup}, {"windowed-first", first}, {"windowed-last", last}} {
			lines = append(lines, fmt.Sprintf("%s %s %d %s", bench, d.shape, len(d.blob), digest(d.blob)))
		}
	}
	return lines
}

func TestGoldenSchedulerCheckpointBytes(t *testing.T) {
	got := goldenSchedulerDigests(t)
	if *updateScheduler {
		if err := os.MkdirAll(filepath.Dir(goldenSchedulerFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenSchedulerFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(goldenSchedulerFile)
	if err != nil {
		t.Fatalf("%v (run with -update-checkpoints to create it)", err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			want = append(want, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d digests, golden file has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("scheduler checkpoint bytes changed:\n got  %s\n want %s", got[i], want[i])
		}
	}
}
