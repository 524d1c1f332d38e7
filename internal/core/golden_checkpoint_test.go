package core

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

	"tridentsp/internal/chaos"
	"tridentsp/internal/telemetry"
	"tridentsp/internal/workloads"
)

// Golden checkpoint bytes: the SHA-256 of SaveState and SaveROI across a
// configuration matrix, pinned in testdata/golden_checkpoints.txt. The
// checkpoint format is a contract between builds (a file cut by one build
// restores in the next), so a reordered field, a changed width, or a
// dropped section must show up here as a deliberate digest update rather
// than slip through a save/load pair that changed in step.

var updateCheckpoints = flag.Bool("update-checkpoints", false,
	"rewrite testdata/golden_checkpoints.txt from the current build")

const goldenCheckpointFile = "testdata/golden_checkpoints.txt"

// goldenCheckpointConfigs is the matrix: every optional subsystem the
// machine checkpoint carries is present in at least one configuration.
func goldenCheckpointConfigs(t *testing.T) []struct {
	name string
	cfg  Config
} {
	t.Helper()
	selector := DefaultConfig()
	selector.HW = HWSelector
	selector.SelectorProbe = 300
	selector.SelectorExploit = 2

	special := DefaultConfig()
	special.ValueSpecialize = true

	tel := DefaultConfig()
	tel.Telemetry = &telemetry.Options{}

	sched, err := chaos.NewSchedule(chaos.PresetLatencyPhase, 42, 4_000_000)
	if err != nil {
		t.Fatal(err)
	}
	chaotic := DefaultConfig()
	chaotic.Chaos = sched
	chaotic.ChaosMonitorEvery = 20_000

	return []struct {
		name string
		cfg  Config
	}{
		{"default", DefaultConfig()},
		{"baseline-hwnone", BaselineConfig(HWNone)},
		{"selector", selector},
		{"specialize", special},
		{"telemetry", tel},
		{"chaos-shadow", chaotic},
	}
}

// goldenCheckpointDigests runs every (configuration, benchmark) pair at
// small scale and digests three blobs: SaveState and SaveROI after 200k
// instructions, and SaveState of a fresh machine restored from the first
// blob and run 100k instructions further (so a restore that loads a field
// wrongly changes a digest too, not only a save that writes one wrongly).
func goldenCheckpointDigests(t *testing.T) []string {
	t.Helper()
	digest := func(b []byte) string {
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}
	var lines []string
	for _, c := range goldenCheckpointConfigs(t) {
		for _, name := range []string{"mcf", "vis", "dot", "swim", "art"} {
			bm, ok := workloads.ByName(name)
			if !ok {
				t.Fatalf("no benchmark %q", name)
			}
			sys := NewSystem(c.cfg, bm.Build(workloads.ScaleSmall))
			sys.Run(200_000)
			if !sys.Quiesce(1_000_000) {
				t.Fatalf("%s/%s: did not quiesce", c.name, name)
			}
			state, err := sys.SaveState()
			if err != nil {
				t.Fatalf("%s/%s: %v", c.name, name, err)
			}
			roi := sys.SaveROI()
			fresh := NewSystem(c.cfg, bm.Build(workloads.ScaleSmall))
			if err := fresh.RestoreState(state); err != nil {
				t.Fatalf("%s/%s: restore: %v", c.name, name, err)
			}
			fresh.Run(300_000)
			if !fresh.Quiesce(5_000_000) {
				t.Fatalf("%s/%s: resumed machine did not quiesce", c.name, name)
			}
			resumed, err := fresh.SaveState()
			if err != nil {
				t.Fatalf("%s/%s: %v", c.name, name, err)
			}
			for _, d := range []struct {
				kind string
				blob []byte
			}{{"state", state}, {"roi", roi}, {"resumed", resumed}} {
				lines = append(lines, fmt.Sprintf("%s %s %s %d %s",
					c.name, name, d.kind, len(d.blob), digest(d.blob)))
			}
		}
	}
	return lines
}

func TestGoldenCheckpointBytes(t *testing.T) {
	got := goldenCheckpointDigests(t)
	if *updateCheckpoints {
		if err := os.MkdirAll(filepath.Dir(goldenCheckpointFile), 0o755); err != nil {
			t.Fatal(err)
		}
		body := strings.Join(got, "\n") + "\n"
		if err := os.WriteFile(goldenCheckpointFile, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(goldenCheckpointFile)
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
			t.Errorf("checkpoint bytes changed:\n got  %s\n want %s", got[i], want[i])
		}
	}
}
